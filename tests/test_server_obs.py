"""Request observability across the server boundary (PR 10 acceptance).

Runs a real :class:`~repro.server.TiogaServer` and asserts the tentpole
guarantee: one WebSocket ``render`` yields ONE connected span tree —
``server.dispatch`` on the asyncio thread, ``request.render`` plus the
engine/plan/rasterize spans on the pool worker — all stamped with the same
trace id the reply carries, retrievable via ``/debug/trace?id=``.  Also
covers the ``/debug/*`` surface, client-supplied trace joining, the
slow-request capture pipeline (``repro.slowreq/1`` JSONL + the
``server.slow_requests`` metric), and the satellite-3 regression: the
``/metrics`` exposition stays parseable while sessions churn concurrently.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from time import perf_counter

import pytest

from repro.data.weather import build_weather_database
from repro.obs.metrics import MetricsRegistry
from repro.obs.requests import SLOWREQ_SCHEMA
from repro.obs.trace import TraceContext, Tracer
from repro.protocol import FrameReply, OpenProgram, Pan, Render, Stats
from repro.server import ServerThread, connect


@pytest.fixture(scope="module")
def server():
    registry = MetricsRegistry()
    thread = ServerThread(build_weather_database(), registry=registry)
    with thread as srv:
        yield srv


def _url(server, path: str) -> str:
    return f"http://{server.host}:{server.port}{path}"


def _get(server, path: str) -> tuple[int, bytes]:
    request = urllib.request.Request(_url(server, path))
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _post(server, path: str, body: bytes = b"") -> tuple[int, bytes]:
    request = urllib.request.Request(_url(server, path), data=body,
                                     method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


# ---------------------------------------------------------------------------
# The tentpole: one connected span tree per request, across threads
# ---------------------------------------------------------------------------


def test_ws_render_yields_one_connected_span_tree(server):
    with connect(f"ws://{server.host}:{server.port}/ws") as client:
        assert client.request(OpenProgram(name="fig4")).ok
        frame = client.request(Render(window="stations"))
    assert isinstance(frame, FrameReply)
    assert frame.trace_id, "every reply must carry its request's trace id"

    status, body = _get(server, f"/debug/trace?id={frame.trace_id}")
    assert status == 200
    doc = json.loads(body)
    assert doc["trace_id"] == frame.trace_id
    assert doc["request"]["command"] == "render"
    assert doc["request"]["status"] == "ok"
    spans = doc["spans"]
    assert spans, "the trace document must include the span tree"

    # Every span belongs to this request — one trace id across the board.
    assert {span["trace_id"] for span in spans} == {frame.trace_id}

    # Exactly one root (server.dispatch, opened on the asyncio thread);
    # every other span's parent is present in the tree: connected, no
    # orphans split off by the executor hop.
    by_id = {span["span_id"]: span for span in spans}
    roots = [span for span in spans if span["parent_id"] is None]
    assert len(roots) == 1
    assert roots[0]["name"] == "server.dispatch"
    for span in spans:
        if span["parent_id"] is not None:
            assert span["parent_id"] in by_id, span["name"]

    # The tree crosses the thread boundary: the dispatch root lives on the
    # asyncio loop thread, the request body on a pool worker.
    names = {span["name"] for span in spans}
    assert "request.render" in names
    threads = {span["thread_name"] for span in spans}
    assert len(threads) >= 2, threads
    assert roots[0]["thread_name"] == "tioga-server"
    request_span = next(s for s in spans if s["name"] == "request.render")
    assert request_span["thread_name"].startswith("tioga-exec")
    assert request_span["parent_id"] == roots[0]["span_id"]

    # And the worker's engine/render spans attached under the same tree
    # (the deep spans the tracer already emitted pre-PR-10).
    assert any(name.startswith(("engine.", "render.", "plan.", "scene."))
               for name in names), names


def test_server_tracer_keeps_no_span_list(server):
    # Spans reach the request log and flight recorder through sinks; the
    # server's tracer itself must not grow with the frames it serves.
    with connect(f"ws://{server.host}:{server.port}/ws") as client:
        assert client.request(OpenProgram(name="fig4")).ok
        frames = []
        for step in (5.0, -5.0, 10.0, -10.0, 2.5):
            assert client.request(Pan(window="stations", dx=step)).ok
            frames.append(client.request(Render(window="stations",
                                                format="png")))
    assert all(isinstance(frame, FrameReply) for frame in frames)
    assert server.tracer.spans == []
    assert server.tracer.events == []
    for frame in frames:
        status, body = _get(server, f"/debug/trace?id={frame.trace_id}")
        assert status == 200
        doc = json.loads(body)
        assert doc["request"]["command"] == "render"
        names = {span["name"] for span in doc["spans"]}
        assert {"server.dispatch", "request.render"} <= names


def test_client_supplied_trace_context_is_joined(server):
    ctx = TraceContext.new(command="render")
    with connect(f"ws://{server.host}:{server.port}/ws") as client:
        assert client.request(OpenProgram(name="fig4")).ok
        sid = client.session
        frame = client.request(Render(window="stations",
                                      trace=ctx.to_wire()))
    assert isinstance(frame, FrameReply)
    # The server adopts the caller's trace id (distributed-join), re-stamps
    # the session, and the whole tree lands under the caller's id.
    assert frame.trace_id == ctx.trace_id
    status, body = _get(server, f"/debug/trace?id={ctx.trace_id}")
    assert status == 200
    doc = json.loads(body)
    assert doc["request"]["session"] == sid


def test_http_command_reply_carries_trace_id(server):
    _, body = _post(server, "/api/session")
    sid = json.loads(body)["session"]
    status, body = _post(
        server, f"/api/command?session={sid}",
        json.dumps({"v": 1, "kind": "stats"}).encode("utf-8"))
    payload = json.loads(body)
    assert status == 200
    assert payload["trace_id"]
    status, body = _get(server, f"/debug/trace?id={payload['trace_id']}")
    assert status == 200
    assert json.loads(body)["request"]["command"] == "stats"


# ---------------------------------------------------------------------------
# /debug/* surface
# ---------------------------------------------------------------------------


def test_debug_requests_lists_recent_requests(server):
    with connect(f"ws://{server.host}:{server.port}/ws") as client:
        assert client.request(OpenProgram(name="fig4")).ok
        client.request(Pan(window="stations", dx=1.0, dy=1.0))
        client.request(Render(window="stations"))
    status, body = _get(server, "/debug/requests?limit=10")
    assert status == 200
    doc = json.loads(body)
    assert doc["total"] >= 3
    assert doc["requests"], "recent requests must be listed"
    newest = doc["requests"][0]
    assert {"trace_id", "session", "command", "duration_ms", "status",
            "slow", "threshold_ms"} <= set(newest)
    commands = {entry["command"] for entry in doc["requests"]}
    assert {"open_program", "pan", "render"} <= commands


def test_debug_trace_unknown_id_is_404(server):
    status, body = _get(server, "/debug/trace?id=no-such-trace")
    assert status == 404
    assert json.loads(body)["ok"] is False


def test_debug_profile_returns_snapshot(server):
    status, body = _get(server, "/debug/profile?seconds=5")
    assert status == 200
    doc = json.loads(body)
    assert doc["schema"] == "repro.profile/1"
    assert doc["running"] is True
    assert doc["hz"] == pytest.approx(67.0)
    assert "samples" in doc and "collapsed" in doc


def test_debug_sessions_lists_live_sessions(server):
    with connect(f"ws://{server.host}:{server.port}/ws") as client:
        assert client.request(OpenProgram(name="fig4")).ok
        status, body = _get(server, "/debug/sessions")
        assert status == 200
        doc = json.loads(body)
        mine = [entry for entry in doc["sessions"]
                if entry["session"] == client.session]
        assert mine and mine[0]["program"] == "fig4"
        assert mine[0]["windows"] == ["stations"]


def test_debug_disabled_when_tracing_off():
    with ServerThread(build_weather_database(),
                      registry=MetricsRegistry(),
                      request_tracing=False, profile_hz=0.0) as srv:
        status, body = _get(srv, "/debug/requests")
        assert status == 404
        status, body = _get(srv, "/debug/profile")
        assert status == 404
        # No tracer, profiler, or request log were even constructed; the
        # command path still works.  (An ambient process-global tracer —
        # e.g. another server in this test process — may still stamp trace
        # ids, so only the server-owned machinery is asserted off.)
        assert srv.tracer is None
        assert srv.profiler is None
        assert srv.request_log is None
        with connect(f"ws://{srv.host}:{srv.port}/ws") as client:
            assert client.request(OpenProgram(name="fig4")).ok
            frame = client.request(Render(window="stations"))
            assert isinstance(frame, FrameReply)


# ---------------------------------------------------------------------------
# Slow-request capture
# ---------------------------------------------------------------------------


def test_slow_request_is_captured_to_jsonl(tmp_path):
    registry = MetricsRegistry()
    with ServerThread(build_weather_database(), registry=registry,
                      slo_ms={"render": 0.0},
                      slow_dir=str(tmp_path)) as srv:
        with connect(f"ws://{srv.host}:{srv.port}/ws") as client:
            assert client.request(OpenProgram(name="fig4")).ok
            frame = client.request(Render(window="stations"))
        assert isinstance(frame, FrameReply)

        # The render blew its (impossible) 0ms SLO: record marked slow,
        # metric incremented, capture file written.
        record = srv.request_log.record(frame.trace_id)
        assert record is not None and record.slow
        assert registry.counter("server.slow_requests") \
            .value(label="render") >= 1

        path = tmp_path / f"slowreq_{frame.trace_id}.jsonl"
        assert path.exists()
        assert record.capture_path == str(path)
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        header = lines[0]
        assert header["schema"] == SLOWREQ_SCHEMA
        assert header["trace_id"] == frame.trace_id
        assert header["command"] == "render"
        assert header["duration_ms"] > header["threshold_ms"] == 0.0
        span_lines = [ln for ln in lines[1:] if ln["kind"] == "span"]
        assert len(span_lines) == header["spans"] >= 2
        assert {ln["trace_id"] for ln in span_lines} == {frame.trace_id}
        assert {"server.dispatch", "request.render"} <= {
            ln["name"] for ln in span_lines}
        # Profiler/flight lines are windowed extras — present only when a
        # sampler tick or a flight record landed inside the request.
        assert all(ln["kind"] in {"span", "profile", "flight"}
                   for ln in lines[1:])

        # /debug/requests flags the slow request and links the capture.
        status, body = _get(srv, "/debug/requests")
        doc = json.loads(body)
        assert doc["slow"] >= 1
        flagged = [entry for entry in doc["requests"] if entry["slow"]]
        assert any(entry.get("capture") == str(path) for entry in flagged)


def test_fast_requests_are_not_captured(tmp_path):
    with ServerThread(build_weather_database(),
                      registry=MetricsRegistry(),
                      slow_dir=str(tmp_path)) as srv:
        with connect(f"ws://{srv.host}:{srv.port}/ws") as client:
            assert client.request(OpenProgram(name="fig4")).ok
            client.request(Stats())
        assert srv.request_log.slow_requests == 0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Satellite 3: /metrics scrape vs. session churn
# ---------------------------------------------------------------------------


def _check_exposition(text: str) -> None:
    """The scrape must be well-formed prometheus text: HELP/TYPE comments
    and samples only, every family's samples contiguous under its TYPE."""
    current_family = None
    seen_families = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            family = line.split()[2]
            assert family not in seen_families, (
                f"family {family} split across the exposition")
            seen_families.add(family)
            current_family = family
            continue
        if line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        name = name.partition("{")[0]
        float(value)  # must parse
        assert current_family is not None
        assert name.startswith(current_family), (
            f"sample {name} outside its family block {current_family}")


def test_concurrent_metrics_scrape_during_session_churn(server):
    """Sessions open, execute, and drop (pruning their metric labels)
    while another thread scrapes ``/metrics``: every scrape parses and no
    counter ever goes backwards (prunes fold into the aggregate)."""
    stop = threading.Event()
    failures: list[str] = []
    totals: list[float] = []

    def scraper() -> None:
        try:
            while not stop.is_set():
                status, body = _get(server, "/metrics")
                assert status == 200
                text = body.decode("utf-8")
                _check_exposition(text)
                for line in text.splitlines():
                    if line.startswith("server_commands_total "):
                        # Unlabeled aggregate (fold target) if present.
                        totals.append(float(line.split()[1]))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(f"scraper: {exc!r}")

    def churner(index: int) -> None:
        try:
            for _ in range(6):
                with connect(
                        f"ws://{server.host}:{server.port}/ws") as client:
                    assert client.request(OpenProgram(name="fig4")).ok
                    frame = client.request(Render(window="stations"))
                    assert isinstance(frame, FrameReply)
                # Context exit drops the session -> labels pruned.
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(f"churner {index}: {exc!r}")

    scrape_thread = threading.Thread(target=scraper)
    churn_threads = [threading.Thread(target=churner, args=(i,))
                     for i in range(3)]
    scrape_thread.start()
    for thread in churn_threads:
        thread.start()
    for thread in churn_threads:
        thread.join(120)
    stop.set()
    scrape_thread.join(30)
    assert not failures, failures
    # Fold semantics: the aggregate command count is monotone across the
    # churn — pruning a session's label never loses executed commands.
    assert totals == sorted(totals), "aggregate counter went backwards"


# ---------------------------------------------------------------------------
# Analytic overhead budget for the request-context machinery
# ---------------------------------------------------------------------------


class TestRequestContextOverhead:
    def test_context_cost_under_three_percent_of_a_render(self, weather_db):
        """Per command, request tracing adds: one TraceContext mint, two
        ``adopt`` activations (asyncio thread + pool worker), and two
        bookkeeping spans (``server.dispatch`` + ``request.<kind>``).
        (measured per-command cost) must stay under 3% of the cheapest
        command that does real work — a fig4 render."""
        from repro import cli

        scenario = cli._FIGURES["fig4"](weather_db)
        session = scenario.session
        name = sorted(session.windows)[0]

        tracer = Tracer(enabled=True, max_spans=1_000)
        calls = 10_000
        start = perf_counter()
        for _ in range(calls):
            ctx = TraceContext.new(session="s", command="render")
            with tracer.adopt(ctx):
                with tracer.span("server.dispatch", command="render") as s:
                    child = ctx.child_of(s)
                    with tracer.adopt(child):
                        with tracer.span("request.render",
                                         command="render"):
                            pass
        per_command_s = (perf_counter() - start) / calls

        def render_once() -> float:
            session.engine.invalidate()
            t0 = perf_counter()
            session.window(name).render()
            return perf_counter() - t0

        best = min(render_once() for _ in range(3))
        assert per_command_s < 0.03 * best, (
            f"context machinery {per_command_s * 1e6:.1f}us per command "
            f"vs render {best * 1e3:.1f}ms")
