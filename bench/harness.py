"""Closed-loop frame benchmark over an in-process Tioga-2 server.

One call to :func:`run_workload` is one benchmark run: build the weather
database, host it in a :class:`~repro.api.ServerThread` with the server's
default options (the ones ``repro serve`` uses), warm up over one WebSocket
session, then let one client on a second session run the workload's seeded
script in a closed loop — next command only after the previous reply, no
think time — for the timed phase.  Frame latency runs from sending
``render`` until the client has decoded the frame bytes.  Every timing is
also rescaled to a quiet host's speed by :mod:`hostspeed`; the printed
metrics are the rescaled ones, and the record keeps the raw ones beside them.

The end-to-end run drives the system only through ``repro.api`` (plus the
two data entry points the workloads name: ``build_points_table`` and §8's
``generic_update``).  The traced run (``trace=True``) alternates untraced
blocks with blocks under :class:`layers.LayerTracer`.

Every timed frame must be a PNG of the window's size.  On top of that:
``map_shared`` frames of one view must be byte-identical in the warm-up
and the timed session; every 25th ``map_explore``/``scatter_deep`` frame
is replayed through an in-process ``Session`` after the server stops; each
``series_update`` frame after an update is compared with an in-process
render right away, with the clock paused.  A mismatch, an error reply, an
exception or a timeout counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import resource
import struct
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.api import (
    FrameReply,
    OpenProgram,
    Render,
    ServerThread,
    Session,
    build_weather_database,
    configure_logging,
    connect,
    get_logger,
)
from repro.data.workloads import build_points_table
from repro.dbms import update

from hostspeed import BURST, HostSpeed
from layers import LayerTracer
from stats import quantile
from workloads import (
    LA_STATIONS,
    SCATTER_POINTS,
    WINDOW_SIZE,
    WORKLOADS,
    Frame,
    Open,
    Update,
    View,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Every n-th timed frame of a "replay" workload is re-rendered in process.
REPLAY_EVERY = 25
#: Untraced/traced block pairs in a traced run.
TRACE_BLOCKS = 10
#: Seconds the client waits for one reply before the run counts a timeout.
CLIENT_TIMEOUT = 60.0
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def png_size(data: bytes) -> tuple[int, int] | None:
    """(width, height) from a PNG's IHDR chunk, or None if not a PNG."""
    if len(data) < 24 or data[:8] != PNG_SIGNATURE or data[12:16] != b"IHDR":
        return None
    return struct.unpack(">II", data[16:24])


def save_scatter_program(db: Any) -> None:
    """The Perf-7 scatter over ``Points`` as hosted program ``scatter``:
    stored x/y, a constant display, and a ``value`` slider dimension."""
    session = Session(db, "scatter")
    tail = session.add_table("Points")
    for name, definition in (("x", "x_pos"), ("y", "y_pos"),
                             ("display", "filled_circle(2, 'blue')")):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    slider = session.add_box("AddAttribute", {
        "name": "value_dim", "definition": "value", "location": True})
    session.connect(tail, "out", slider, "in")
    session.add_viewer(slider, name="scatter", width=WINDOW_SIZE[0],
                       height=WINDOW_SIZE[1])
    session.save_program()


#: A raw timing in seconds, with the host-speed probe index it is rescaled by.
Timing = tuple[int, float]


@dataclasses.dataclass
class Phase:
    """What one timed phase measured.  ``steps`` is the phase's wall time,
    one entry per script step, without probes and inline checks."""

    frames: dict[int, Timing] = dataclasses.field(default_factory=dict)
    updates: list[Timing] = dataclasses.field(default_factory=list)
    update_frames: list[Timing] = dataclasses.field(default_factory=list)
    steps: list[Timing] = dataclasses.field(default_factory=list)

    @property
    def latencies(self) -> dict[int, float]:
        """Raw frame latency by protocol ``seq``."""
        return {seq: seconds for seq, (_, seconds) in self.frames.items()}


class Env:
    """One set-up: database, server, warm-up, the timed client's connection,
    and the failure and correctness bookkeeping of the run."""

    def __init__(self, workload: str, seed: int):
        spec = WORKLOADS[workload]
        self.db = build_weather_database()
        if spec.needs_points:
            self.db.add_table(build_points_table("Points", SCATTER_POINTS,
                                                 seed=3))
            save_scatter_program(self.db)
        observations = self.db.table("Observations")
        self.la_rows = [index for index, row in enumerate(observations)
                        if row["station_id"] <= LA_STATIONS]
        #: Protocol ``seq`` for every command; the traced run keys spans on it.
        self.seqs = itertools.count(1)
        self.failures: list[str] = []
        self.attempted = 0
        self.digests: dict[int, set[bytes]] = {}
        self.sessions: dict[str, Session] = {}
        self.client = None
        self.thread = ServerThread(self.db)
        try:
            server = self.thread.start()
            url = f"ws://{server.host}:{server.port}/ws"
            with connect(url, timeout=CLIENT_TIMEOUT) as warm:
                loop = ClientLoop(self, warm, iter(()))
                for step in spec.warmup(seed):
                    loop.step(step)
            if self.failures:
                raise RuntimeError(f"warm-up failed: {self.failures[:3]}")
            self.attempted = 0
            self.client = connect(url, timeout=CLIENT_TIMEOUT)
        except BaseException:
            self.close()
            raise

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.thread.stop()


class ClientLoop:
    """The closed loop: one connection working through one script."""

    def __init__(self, env: Env, client: Any, script: Iterator,
                 host: HostSpeed | None = None):
        self.env = env
        self.client = client
        self.script = script
        self.host = host or HostSpeed()
        self.phase: Phase | None = None
        self.paused = 0.0
        self.frames = 0
        self.replay_count = 0
        self.kept: list[tuple[View, bytes]] = []
        self._update_started: float | None = None

    def command(self, command: Any) -> Any:
        command = dataclasses.replace(command, seq=next(self.env.seqs))
        self.env.attempted += 1
        response = self.client.request(command)
        if not response.ok:
            self.env.fail(f"{command.kind}: {response}")
        return response

    def step(self, step: Any) -> None:
        if isinstance(step, Open):
            self.command(OpenProgram(name=step.program))
        elif isinstance(step, Update):
            self.apply_update(step)
        else:
            self.frame(step)

    def apply_update(self, step: Update) -> None:
        table = self.env.db.table("Observations")
        position = self.env.la_rows[step.pick % len(self.env.la_rows)]
        row = next(itertools.islice(table, position, None))
        dialog = update.ScriptedDialog({"temperature": str(step.temperature)})
        self.env.attempted += 1
        index = self.host.index
        started = time.perf_counter()
        result = update.generic_update(table, row, dialog)
        elapsed = time.perf_counter() - started
        if not result.applied:
            self.env.fail(f"update of row {position} was not applied")
        if self.phase is not None:
            self.phase.updates.append((index, elapsed))
        self._update_started = started

    def frame(self, step: Frame) -> None:
        view = step.view
        if step.move:
            for command in view.commands():
                self.command(command)
        render = Render(window=view.window, format="png",
                        seq=next(self.env.seqs))
        self.env.attempted += 1
        index = self.host.index
        started = time.perf_counter()
        reply = self.client.request(render)
        data = reply.data_bytes() if isinstance(reply, FrameReply) else b""
        ended = time.perf_counter()
        if self.phase is not None:
            self.frames += 1
            self.phase.frames[render.seq] = (index, ended - started)
            if self._update_started is not None:
                self.phase.update_frames.append(
                    (index, ended - self._update_started))
        self._update_started = None
        if not isinstance(reply, FrameReply):
            self.env.fail(f"render: {reply}")
            return
        if (png_size(data) != WINDOW_SIZE
                or (reply.width, reply.height) != WINDOW_SIZE):
            self.env.fail(f"frame {render.seq} is not a {WINDOW_SIZE} PNG")
        if step.check == "shared":
            self.env.digests.setdefault(step.view_id, set()).add(
                hashlib.sha1(data).digest())
        elif step.check == "replay":
            if self.replay_count % REPLAY_EVERY == 0:
                self.kept.append((view, data))
            self.replay_count += 1
        elif step.check == "reference":
            paused = time.perf_counter()
            if render_in_process(self.env, view) != data:
                self.env.fail(f"frame {render.seq} differs from reference")
            self.paused += time.perf_counter() - paused

    def run_phase(self, seconds: float, max_frames: int) -> Phase:
        """Run the script for ``seconds`` of step time (or ``max_frames``
        frames), probing the host's speed between steps."""
        phase = self.phase = Phase()
        self.paused, self.frames = 0.0, 0
        elapsed = 0.0
        try:
            while self.frames < max_frames and elapsed < seconds:
                index, paused = self.host.index, self.paused
                started = time.perf_counter()
                step = next(self.script)
                self.step(step)
                if isinstance(step, Update):
                    self.step(next(self.script))  # the frame that shows it
                took = time.perf_counter() - started - (self.paused - paused)
                phase.steps.append((index, took))
                elapsed += took
                self.host.maybe_probe()
        except Exception as exc:  # noqa: BLE001 - a broken client is a failure
            self.env.fail(f"client: {exc!r}")
        return phase


def render_in_process(env: Env, view: View) -> bytes:
    """``view`` rendered through an in-process Session, one per program:
    the equality oracle for served frames."""
    session = env.sessions.get(view.program)
    if session is None:
        session = env.sessions[view.program] = Session(env.db)
        session.execute(OpenProgram(name=view.program))
    for command in view.commands():
        session.execute(command)
    reply = session.execute(Render(window=view.window, format="png"))
    return reply.data_bytes() if isinstance(reply, FrameReply) else b""


def replay_check(env: Env, kept: list[tuple[View, bytes]]) -> int:
    """Re-render kept frames in process; returns the number checked."""
    for view, data in kept:
        if render_in_process(env, view) != data:
            env.fail(f"replay of {view} differs")
    return len(kept)


def shared_check(env: Env) -> None:
    for view_id, digests in env.digests.items():
        if len(digests) > 1:
            env.fail(f"view {view_id}: {len(digests)} distinct frames")


def _timing_metrics(phase: Phase, scale: Callable[[list[Timing]], list[float]]
                    ) -> dict[str, float]:
    """The phase's timing metrics, each timing mapped through ``scale``
    (a list of :data:`Timing` to a list of seconds)."""
    frames = scale(list(phase.frames.values()))
    wall = sum(scale(phase.steps))
    metrics = {
        "frame_p50_ms": quantile(frames, 0.50) * 1e3,
        "frame_p95_ms": quantile(frames, 0.95) * 1e3,
        "frames_per_s": len(frames) / wall if wall else 0.0,
    }
    if phase.updates:
        update_frames = scale(phase.update_frames)
        metrics.update({
            "update_p50_ms": quantile(scale(phase.updates), 0.50) * 1e3,
            "update_frame_p50_ms": quantile(update_frames, 0.50) * 1e3,
            "update_frame_p95_ms": quantile(update_frames, 0.95) * 1e3,
        })
    return metrics


def frame_metrics(phase: Phase, host: HostSpeed) -> dict[str, Any]:
    """Timing metrics rescaled to a quiet host, the same metrics raw (as
    ``<name>_raw``), and the sample counts."""
    metrics: dict[str, Any] = _timing_metrics(phase, host.rescale)
    raw = _timing_metrics(phase, lambda timings: [s for _, s in timings])
    metrics.update({f"{name}_raw": value for name, value in raw.items()})
    metrics["frames"] = len(phase.frames)
    if phase.updates:
        metrics["updates"] = len(phase.updates)
    metrics["host_factor_p50"] = quantile(
        [host.factor(index) for index, _ in phase.steps], 0.5)
    return metrics


_COUNTERS = ("cache.frame_hit", "cache.frame_miss", "cache.hit", "cache.miss",
             "cache.evict", "render.frames", "render.tuples_considered",
             "render.tuples_rendered", "render.draw_ops")


def _counter_totals() -> dict[str, float]:
    from repro.obs import global_registry

    registry = global_registry()
    return {name: registry.counter(name).total() for name in _COUNTERS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(d: dict[str, float]) -> dict[str, float]:
    """Per-layer counts from the registry's counter deltas ``d``."""
    return {
        "scene.rows_per_frame": _ratio(d["render.tuples_considered"],
                                       d["render.frames"]),
        "scene.keep_frac": _ratio(d["render.tuples_rendered"],
                                  d["render.tuples_considered"]),
        "canvas.draw_ops_per_frame": _ratio(d["render.draw_ops"],
                                            d["render.frames"]),
        "dispatch.frame_hit_frac": _ratio(
            d["cache.frame_hit"], d["cache.frame_hit"] + d["cache.frame_miss"]),
        "plan.result_hit_frac": _ratio(d["cache.hit"],
                                       d["cache.hit"] + d["cache.miss"]),
        "plan.evictions": d["cache.evict"],
    }


def timed_setup(workload: str, seed: int, host: HostSpeed) -> tuple[Env,
                                                                   Timing]:
    """One set-up, timed, between two bursts of host-speed probes."""
    gc.collect()
    host.burst()
    index = host.index
    started = time.perf_counter()
    env = Env(workload, seed)
    elapsed = time.perf_counter() - started
    host.burst()
    return env, (index, elapsed)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, *, max_frames: int = 10**9,
                 setups: int = SETUPS) -> dict[str, Any]:
    """One benchmark run; returns the full result record.

    An untraced run sets up ``setups`` times back to back, tearing down and
    collecting each set-up but the last, and runs the timed phase on the
    last; ``setup_s`` is their median.  ``max_frames`` caps the timed frames
    (tests use tiny values).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    record: dict[str, Any] = {"workload": workload, "seed": seed,
                              "trace": trace, "seconds": seconds}
    host = HostSpeed()
    with open(out_dir / "server.stderr.log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stderr(log):
        handler = configure_logging(stream=log)
        setup_times = []
        for _ in range(0 if trace else setups - 1):
            env, timing = timed_setup(workload, seed, host)
            env.close()
            del env
            setup_times.append(timing)
        env, timing = timed_setup(workload, seed, host)
        setup_times.append(timing)
        loop = ClientLoop(env, env.client, WORKLOADS[workload].script(seed),
                          host)
        try:
            if trace:
                record.update(_traced_phases(loop, seconds, max_frames,
                                             out_dir))
            else:
                record.update(frame_metrics(
                    loop.run_phase(seconds, max_frames), host))
        finally:
            env.close()
            handler.close()
            get_logger().removeHandler(handler)
    shared_check(env)
    record["replayed"] = replay_check(env, loop.kept)
    if not trace:
        record["setup_s"] = quantile([
            elapsed / host.factor(index, reach=BURST)
            for index, elapsed in setup_times], 0.5)
        record["setup_s_raw"] = quantile([s for _, s in setup_times], 0.5)
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["attempted"] = env.attempted
    record["failed"] = len(env.failures)
    record["failures"] = env.failures[:20]
    record["ops_failed_frac"] = _ratio(len(env.failures), env.attempted)
    return record


def _traced_phases(loop: ClientLoop, seconds: float, max_frames: int,
                   out_dir: Path) -> dict[str, Any]:
    """Alternate untraced and traced blocks.  ``trace.overhead_frac`` is the
    median over block pairs of traced p50 ÷ the preceding untraced p50,
    minus 1, so host speed changes between pairs cancel out.  The layer
    split is of raw times: a layer's share of a frame does not depend on
    the host's speed."""
    block = seconds / (2 * TRACE_BLOCKS)
    tracer = LayerTracer()
    traced: dict[int, float] = {}
    ratios: list[float] = []
    deltas = dict.fromkeys(_COUNTERS, 0.0)
    for _ in range(TRACE_BLOCKS):
        base = quantile(
            list(loop.run_phase(block, max_frames).latencies.values()), 0.5)
        before = _counter_totals()
        tracer.install()
        try:
            frames = loop.run_phase(block, max_frames).latencies
        finally:
            tracer.uninstall()
        for name, total in _counter_totals().items():
            deltas[name] += total - before[name]
        traced.update(frames)
        if base and frames:
            ratios.append(quantile(list(frames.values()), 0.5) / base)
    metrics = tracer.split(traced)
    metrics.update(counter_metrics(deltas))
    metrics["trace.overhead_frac"] = quantile(ratios, 0.5) - 1.0
    tracer.write_chrome_trace(out_dir / "trace.json")
    return {"layers": metrics, "missing_layers": sorted(tracer.missing),
            "frames": len(traced), "spans": len(tracer.spans)}
