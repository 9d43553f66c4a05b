"""The multi-session server: HTTP routes, WebSocket streaming, backpressure.

Runs a real :class:`~repro.server.TiogaServer` on a loopback port (daemon
thread via :class:`~repro.server.ServerThread`) and drives it with the
blocking :class:`~repro.server.Client` — the same stack ``repro serve`` /
``repro client`` use.  Covers the PR-9 acceptance points: concurrent
viewers each receive every frame they asked for in order (zero dropped
final frames), a slow consumer gets intermediate frames coalesced but
always the newest, unknown sessions fail with ``T2-E512``, cross-session
renders hit the shared result cache, and the metric family carries
per-session labels.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.data.weather import build_weather_database
from repro.obs.metrics import MetricsRegistry
from repro.protocol import (
    ErrorReply,
    FrameReply,
    OpenProgram,
    Pan,
    PanTo,
    Pick,
    ProtocolError,
    Render,
    Reply,
    Stats,
    Welcome,
    Why,
    Zoom,
    encode_command,
)
from repro.server import Client, ServerThread, connect, ws


@pytest.fixture(scope="module")
def server():
    registry = MetricsRegistry()
    thread = ServerThread(build_weather_database(), registry=registry)
    with thread as srv:
        yield srv
    assert len(srv.sessions) == 0  # stop() clears every hosted session


def _url(server, path: str) -> str:
    return f"http://{server.host}:{server.port}{path}"


def _get(server, path: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(_url(server, path), timeout=30) as reply:
        return reply.status, reply.read()


def _post(server, path: str, body: bytes = b"") -> tuple[int, bytes]:
    request = urllib.request.Request(_url(server, path), data=body,
                                     method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# Plain HTTP
# ---------------------------------------------------------------------------


def test_healthz_lists_hosted_programs(server):
    status, body = _get(server, "/healthz")
    payload = json.loads(body)
    assert status == 200
    assert payload["ok"] is True
    assert payload["database"] == "weather"
    assert "fig4" in payload["programs"]
    assert payload["protocol"] == 1


def test_http_session_and_command_round_trip(server):
    status, body = _post(server, "/api/session")
    assert status == 200
    sid = json.loads(body)["session"]

    status, body = _post(
        server, f"/api/command?session={sid}",
        encode_command(OpenProgram(name="fig1")).encode("utf-8"))
    payload = json.loads(body)
    assert status == 200
    assert payload["result"]["program"] == "fig1"
    assert payload["result"]["windows"]


def test_http_unknown_session_is_stable_error(server):
    status, body = _post(
        server, "/api/command?session=bogus",
        encode_command(Stats()).encode("utf-8"))
    payload = json.loads(body)
    assert status == 400
    assert payload["code"] == "T2-E512"
    assert "bogus" in payload["message"]


def test_http_unknown_route_is_404(server):
    with pytest.raises(urllib.error.HTTPError) as info:
        _get(server, "/nope")
        raise AssertionError("unreachable")
    assert info.value.code == 404


# ---------------------------------------------------------------------------
# WebSocket basics
# ---------------------------------------------------------------------------


def test_ws_welcome_open_render_pick_why_stats(server):
    with connect(f"ws://{server.host}:{server.port}/ws") as client:
        assert isinstance(client.welcome, Welcome)
        assert "fig4" in client.welcome.programs

        opened = client.request(OpenProgram(name="fig4"))
        assert isinstance(opened, Reply)
        assert opened.result["windows"] == ["stations"]

        frame = client.request(Render(window="stations"))
        assert isinstance(frame, FrameReply)
        assert (frame.width, frame.height) == (640, 480)
        assert frame.frame_seq == 1
        assert frame.data_bytes().startswith(b"P6\n640 480\n255\n")

        moved = client.request(Pan(window="stations", dx=25.0, dy=-10.0))
        assert isinstance(moved, Reply)
        assert set(moved.result) >= {"center", "elevation", "window"}

        second = client.request(Render(window="stations"))
        assert isinstance(second, FrameReply)
        assert second.frame_seq == 2
        assert second.data_bytes() != frame.data_bytes()

        picked = client.request(Pick(window="stations", px=320.0, py=240.0))
        assert isinstance(picked, Reply)
        assert isinstance(picked.result["picked"], bool)

        why = client.request(Why(window="stations", px=320.0, py=240.0))
        assert isinstance(why, Reply)
        assert why.result["schema"] == "repro.lineage/1"
        assert why.result["pixel"] == [320.0, 240.0]

        stats = client.request(Stats())
        assert isinstance(stats, Reply)
        assert "metrics" in stats.result or stats.result


def test_ws_error_replies_carry_protocol_codes(server):
    with connect(f"ws://{server.host}:{server.port}/ws") as client:
        client.request(OpenProgram(name="fig4"))
        error = client.request(Render(window="nowhere"))
        assert isinstance(error, ErrorReply)
        assert error.code == "T2-E502"
        assert error.error_type == "UIError"


def test_ws_unknown_session_refused(server):
    with pytest.raises(ProtocolError) as info:
        connect(f"ws://{server.host}:{server.port}/ws", session="bogus")
    assert info.value.code == "T2-E512"


def test_ws_can_adopt_http_created_session(server):
    _, body = _post(server, "/api/session")
    sid = json.loads(body)["session"]
    with connect(f"ws://{server.host}:{server.port}/ws",
                 session=sid) as client:
        assert client.session == sid
        opened = client.request(OpenProgram(name="fig4"))
        assert opened.ok
    # Adopted sessions outlive the connection (the HTTP creator owns them).
    assert sid in server.sessions


# ---------------------------------------------------------------------------
# Concurrency: many viewers, in-order frames, zero dropped finals
# ---------------------------------------------------------------------------


def test_five_concurrent_viewers_all_frames_in_order(server):
    clients = 5
    renders = 4
    sids: list[str] = []
    failures: list[str] = []

    def viewer(index: int) -> None:
        try:
            with connect(f"ws://{server.host}:{server.port}/ws") as client:
                sids.append(client.session)
                assert client.request(OpenProgram(name="fig4")).ok
                for step in range(renders):
                    client.request(Pan(window="stations",
                                       dx=5.0 * (index + 1), dy=3.0 * step))
                    if step % 2:
                        client.request(Zoom(window="stations", factor=1.5))
                    frame = client.request(Render(window="stations"))
                    assert isinstance(frame, FrameReply), frame
                    assert frame.frame_seq == step + 1
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(f"viewer {index}: {exc!r}")

    threads = [threading.Thread(target=viewer, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not failures, failures
    assert len(sids) == clients

    # Clean shutdown: every auto-created session is dropped on disconnect
    # and no viewer had a frame coalesced away (request/reply pacing means
    # the send queues never filled).
    _wait_until(lambda: not any(sid in server.sessions for sid in sids))
    dropped = server.registry.counter("server.frames_dropped")
    assert all(dropped.value(label=sid) == 0 for sid in sids)
    # Dropping a session prunes its per-label series (the cardinality fix)
    # but folds the counts into the aggregate: no session labels linger,
    # and the total still accounts for every executed command.
    commands = server.registry.counter("server.commands")
    assert all(commands.value(label=sid) == 0 for sid in sids)
    assert all(sid not in commands.values for sid in sids)
    assert commands.total() >= clients * (renders + 1)


def test_backpressure_coalesces_frames_but_keeps_newest():
    registry = MetricsRegistry()
    renders = 12
    with ServerThread(build_weather_database(), registry=registry,
                      max_queue=2) as srv:
        client = connect(f"ws://{srv.host}:{srv.port}/ws")
        sid = client.session
        assert client.request(OpenProgram(name="fig4")).ok
        # Fire renders without reading any frames: the send queue fills,
        # older frames for the window coalesce away, newest survives.
        for _ in range(renders):
            client.send(Render(window="stations"))
        commands = registry.counter("server.commands")
        _wait_until(lambda: commands.value(label=sid) >= renders + 1)

        received = []
        while True:
            response = client.recv()
            assert isinstance(response, FrameReply), response
            received.append(response.frame_seq)
            if response.frame_seq == renders:
                break
        client.close()

        assert received == sorted(received), "frames arrived out of order"
        assert received[-1] == renders, "newest frame must always arrive"
        assert len(received) < renders, "expected coalescing under backpressure"
        # The session died with its connection, so its label is pruned and
        # its drop count folded into the aggregate total.
        _wait_until(
            lambda: registry.counter("server.frames_dropped").total() > 0)
        assert registry.counter("server.frames_dropped").total() \
            == renders - len(received)
        assert sid not in registry.counter("server.frames_dropped").values


# ---------------------------------------------------------------------------
# Cross-session cache sharing and metric labels
# ---------------------------------------------------------------------------


def test_cross_session_renders_share_the_result_cache(server):
    url = f"ws://{server.host}:{server.port}/ws"
    with connect(url) as first, connect(url) as second:
        assert first.session != second.session
        assert first.request(OpenProgram(name="fig4")).ok
        warm = first.request(Render(window="stations"))
        assert isinstance(warm, FrameReply)

        assert second.request(OpenProgram(name="fig4")).ok
        shared = second.request(Render(window="stations"))
        assert isinstance(shared, FrameReply)
        # Identical program + identical initial view: the second session's
        # very first render is served from the first session's plan results.
        assert shared.cache_hits >= 1
        assert shared.cache_misses == 0
        assert shared.data_bytes() == warm.data_bytes()


def test_metrics_endpoint_exposes_per_session_labels(server):
    with connect(f"ws://{server.host}:{server.port}/ws") as client:
        sid = client.session
        client.request(OpenProgram(name="fig4"))
        client.request(Render(window="stations"))
        status, body = _get(server, "/metrics")
    text = body.decode("utf-8")
    assert status == 200
    assert f'server_commands_total{{label="{sid}"}}' in text
    assert "server_sessions" in text
    assert f'server_frame_ms_count{{label="{sid}"}}' in text


def test_two_clients_one_session_share_state(server):
    _, body = _post(server, "/api/session")
    sid = json.loads(body)["session"]
    url = f"ws://{server.host}:{server.port}/ws"
    with connect(url, session=sid) as a, connect(url, session=sid) as b:
        assert a.request(OpenProgram(name="fig4")).ok
        # b sees the program a opened: same server-side Session object.
        frame = b.request(Render(window="stations"))
        assert isinstance(frame, FrameReply)


def test_pick_after_cached_frame_matches_fresh_session(server):
    # Review regression: a FrameCache hit must leave pick/why resolving
    # against the displayed frame's display list.  The stale-path client
    # (render A, pan, render, pan back, cached render A) must pick exactly
    # what a fresh client at view A picks.
    url = f"ws://{server.host}:{server.port}/ws"
    with connect(url) as stale, connect(url) as fresh:
        assert stale.request(OpenProgram(name="fig4")).ok
        state = stale.request(Pan(window="stations", dx=0.0, dy=0.0)).result
        cx, cy = state["center"]
        first = stale.request(Render(window="stations"))
        assert isinstance(first, FrameReply)
        stale.request(Pan(window="stations", dx=40.0, dy=25.0))
        assert isinstance(
            stale.request(Render(window="stations")), FrameReply)
        stale.request(PanTo(window="stations", cx=cx, cy=cy))
        back = stale.request(Render(window="stations"))
        assert isinstance(back, FrameReply)
        assert back.data_bytes() == first.data_bytes()
        assert back.render_ms == 0.0  # served from the shared FrameCache

        assert fresh.request(OpenProgram(name="fig4")).ok
        assert isinstance(
            fresh.request(Render(window="stations")), FrameReply)
        for px, py in [(120.0, 90.0), (320.0, 240.0), (520.0, 400.0)]:
            a = stale.request(Pick(window="stations", px=px, py=py))
            b = fresh.request(Pick(window="stations", px=px, py=py))
            assert a.result == b.result


def test_edited_program_misses_the_frame_another_session_cached(server):
    # The frame key holds the program's fingerprint, memoized per edit:
    # once session A edits a box parameter, A's next render must not be
    # served the frame session B cached for the program A had before.
    url = f"ws://{server.host}:{server.port}/ws"
    with connect(url) as a, connect(url) as b:
        assert a.request(OpenProgram(name="fig4")).ok
        assert b.request(OpenProgram(name="fig4")).ok
        old = b.request(Render(window="stations"))
        assert isinstance(old, FrameReply)
        shared = a.request(Render(window="stations"))
        assert shared.render_ms == 0.0  # equal programs share B's frame
        assert shared.data_bytes() == old.data_bytes()

        held = server.sessions[a.session]
        (display,) = [
            box for box in held.session.program.boxes_of_type("SetAttribute")
            if box.param("name") == "display"
        ]
        with held.lock:
            held.session.set_param(display.box_id, "definition",
                                   "filled_circle(6, 'red')")
        edited = a.request(Render(window="stations"))
        assert isinstance(edited, FrameReply)
        assert edited.render_ms > 0.0
        assert edited.data_bytes() != old.data_bytes()
        again = b.request(Render(window="stations"))
        assert again.render_ms == 0.0  # B's program is unchanged
        assert again.data_bytes() == old.data_bytes()


# ---------------------------------------------------------------------------
# Session lifecycle: explicit delete, idle expiry
# ---------------------------------------------------------------------------


def _delete(server, path: str) -> tuple[int, bytes]:
    request = urllib.request.Request(_url(server, path), method="DELETE")
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_http_session_delete_endpoint(server):
    _, body = _post(server, "/api/session")
    sid = json.loads(body)["session"]
    assert sid in server.sessions

    status, body = _delete(server, f"/api/session?session={sid}")
    assert status == 200
    assert json.loads(body) == {"ok": True, "session": sid}
    assert sid not in server.sessions

    status, body = _delete(server, f"/api/session?session={sid}")
    assert status == 404
    assert json.loads(body)["code"] == "T2-E512"

    status, body = _post(
        server, f"/api/command?session={sid}",
        encode_command(Stats()).encode("utf-8"))
    payload = json.loads(body)
    assert status == 400
    assert payload["code"] == "T2-E512"
    assert "expired" in payload["message"]


def test_idle_http_sessions_expire():
    registry = MetricsRegistry()
    with ServerThread(build_weather_database(), registry=registry,
                      session_ttl=0.1) as srv:
        _, body = _post(srv, "/api/session")
        sid = json.loads(body)["session"]
        assert sid in srv.sessions
        _wait_until(lambda: sid not in srv.sessions)
        assert registry.gauge("server.sessions").value() == 0


def test_connected_sessions_never_idle_expire():
    with ServerThread(build_weather_database(),
                      registry=MetricsRegistry(),
                      session_ttl=0.1) as srv:
        with connect(f"ws://{srv.host}:{srv.port}/ws") as client:
            sid = client.session
            time.sleep(0.5)  # several sweep intervals past the TTL
            assert sid in srv.sessions
            assert client.request(OpenProgram(name="fig4")).ok


# ---------------------------------------------------------------------------
# Close handshake and client socket hygiene
# ---------------------------------------------------------------------------


def test_ws_close_handshake_completes(server):
    client = connect(f"ws://{server.host}:{server.port}/ws")
    assert client.request(OpenProgram(name="fig4")).ok
    # Initiate the close handshake without tearing the socket down: the
    # server must reply with an RFC 6455 close frame, not a bare TCP close.
    client._sock.sendall(ws.encode_frame(
        (1000).to_bytes(2, "big"), opcode=ws.OP_CLOSE, mask=True))
    codes = []
    while not codes:
        chunk = client._sock.recv(65536)
        if not chunk:
            break
        for opcode, payload in client._parser.feed(chunk):
            if opcode == ws.OP_CLOSE:
                codes.append(int.from_bytes(payload[:2], "big"))
    assert codes == [1000]
    client._closed = True
    client._sock.close()


def test_drain_restores_socket_timeout(server):
    with connect(f"ws://{server.host}:{server.port}/ws",
                 timeout=5.0) as client:
        assert client.request(OpenProgram(name="fig4")).ok
        client.send(Render(window="stations"))
        client.drain()
        # drain() must restore the constructor's timeout, not blocking
        # mode — otherwise every later recv() could hang forever.
        assert client._sock.gettimeout() == 5.0
        frame = client.request(Render(window="stations"))
        assert isinstance(frame, FrameReply)
