"""Server load: 50 concurrent WebSocket viewers over the fig4 station map.

Every viewer walks the *same* deterministic demand script (pan to a shared
sequence of world positions, render after each move), so sessions collide
on the shared result cache exactly the way slaved viewers do in the paper:
the first session to reach a view pays the miss, the other 49 hit.

After that cold walk, each round times the script twice on the same
server and sessions: one viewer walking it alone, then all 50 at once.
The gate is the median round's 50-viewer over 1-viewer request→frame p50,
a ratio in which host speed cancels out.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro.data.weather import build_weather_database
from repro.obs.metrics import MetricsRegistry
from repro.protocol import FrameReply, OpenProgram, PanTo, Render
from repro.server import ServerThread, connect

VIEWERS = 50
RENDERS_PER_VIEWER = 6
ROUNDS = 5
#: Walks of the script by the lone viewer per round, for a p50 over as
#: many frames as one loaded viewer sees.
SOLO_WALKS = 5

#: Median 50-viewer / 1-viewer render p50 over the rounds.  On a 2-vCPU VM
#: it read 22.4-25.1 over six runs, and 50-56 with each loaded viewer's
#: render planted to be requested twice.
LOAD_MAX_RATIO = 36.0

#: Shared world positions every viewer pans to, in order.  Identical across
#: sessions so their render plans share result-cache entries.
_SCRIPT = [(-95.0 + 6.0 * step, 38.0 + 1.5 * step)
           for step in range(RENDERS_PER_VIEWER)]


def _walk(client, latencies: list[float], hits: list[int]) -> None:
    """Pan and render through the script once."""
    for cx, cy in _SCRIPT:
        client.request(PanTo(window="stations", cx=cx, cy=cy))
        started = time.perf_counter()
        frame = client.request(Render(window="stations", format="png"))
        latencies.append(time.perf_counter() - started)
        assert isinstance(frame, FrameReply), frame
        assert frame.data_bytes().startswith(b"\x89PNG")
        hits.append(frame.cache_hits)
        time.sleep(0.01)        # think time between interactions


def _viewer(index: int, url: str, cold: tuple[list, list],
            solo: list[list[float]], loaded: list[list[float]],
            errors: list[str], barrier: threading.Barrier) -> None:
    try:
        with connect(url, timeout=120.0) as client:
            assert client.request(OpenProgram(name="fig4")).ok
            barrier.wait(timeout=60)    # all viewers start demanding at once
            _walk(client, *cold)
            for round_ in range(ROUNDS):
                barrier.wait(timeout=60)
                if index == 0:
                    for __ in range(SOLO_WALKS):
                        _walk(client, solo[round_], [])
                barrier.wait(timeout=60)
                _walk(client, loaded[round_], [])
    except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
        errors.append(repr(exc))
        barrier.abort()


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_server_load_fig4_50_viewers():
    registry = MetricsRegistry()
    cold: tuple[list[float], list[int]] = ([], [])
    solo: list[list[float]] = [[] for __ in range(ROUNDS)]
    loaded: list[list[float]] = [[] for __ in range(ROUNDS)]
    errors: list[str] = []
    barrier = threading.Barrier(VIEWERS)

    with ServerThread(build_weather_database(), registry=registry,
                      pool_workers=8) as server:
        url = f"ws://{server.host}:{server.port}/ws"
        threads = [
            threading.Thread(
                target=_viewer,
                args=(index, url, cold, solo, loaded, errors, barrier),
            )
            for index in range(VIEWERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
        dropped = registry.counter("server.frames_dropped").total()

    assert not errors, errors[:3]
    latencies, hits = cold
    assert len(latencies) == VIEWERS * RENDERS_PER_VIEWER
    # Request/reply pacing means no frame may ever be coalesced away.
    assert dropped == 0
    # Cross-session sharing must engage: 50 sessions render 6 shared views,
    # so far more frames hit the cache than miss.
    assert sum(hits) >= VIEWERS * RENDERS_PER_VIEWER // 2
    # Generous wall-clock ceiling on the cold walk.
    p99 = _quantile(latencies, 0.99)
    assert p99 < 1.5, f"p99 {p99:.3f}s"

    ratios = [_quantile(loaded[r], 0.5) / _quantile(solo[r], 0.5)
              for r in range(ROUNDS)]
    ratio = statistics.median(ratios)
    assert ratio <= LOAD_MAX_RATIO, (
        f"50-viewer / 1-viewer render p50 {ratio:.2f} > {LOAD_MAX_RATIO} "
        f"(rounds {[round(r, 2) for r in ratios]})")
