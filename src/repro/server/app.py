"""The multi-session visualization server (ROADMAP item 2, first rung).

:class:`TiogaServer` hosts one named database and its programs (the built-in
figure scenarios plus anything saved in the database) behind HTTP and
WebSocket endpoints, executing pan/zoom/slider/pick/why demands server-side
through exactly the :class:`~repro.protocol.CommandExecutor` an in-process
:class:`~repro.ui.session.Session` uses, and streaming rendered frames to
many concurrent viewers.

Endpoints (all on one port):

- ``GET /healthz`` — liveness JSON (session count, hosted programs).
- ``GET /metrics`` — Prometheus text exposition of the process registry.
- ``POST /api/session`` — create a session; returns its id.
- ``DELETE /api/session?session=ID`` — drop a session explicitly.
- ``POST /api/command?session=ID`` — execute one JSON command, JSON reply.
- ``GET /ws[?session=ID]`` — WebSocket: server sends a ``welcome``, then
  each text frame in is one command, each text frame out one response.
- ``GET /debug/requests[?limit=N]`` — recent finished requests (id,
  command, session, latency, SLO verdict), newest first.
- ``GET /debug/trace?id=TRACE`` — one request's connected span tree.
- ``GET /debug/profile[?seconds=N]`` — profiler snapshot (collapsed
  stacks, per-thread/per-request sample counts) for the trailing window.
- ``GET /debug/sessions`` — per-session liveness (refs, idle, windows).

Observability: every dispatched command runs under a
:class:`~repro.obs.trace.TraceContext` minted on arrival.  The asyncio
thread opens the ``server.dispatch`` root span, and the pool worker
*adopts* the context (``run_in_executor`` does not propagate contextvars),
so engine/plan/render/lineage spans from the worker attach to the same
tree — one connected trace per request, retrievable by id while it stays
in the :class:`~repro.obs.requests.RequestLog` ring.  A continuous
statistical profiler (:class:`~repro.obs.profiler.Profiler`) samples all
threads and attributes stacks to adopted requests; requests that exceed
their per-command SLO are captured to JSONL (span tree + profile slice +
flight-recorder ring) under ``slow_dir``.  The access log
(:data:`~repro.obs.log.ACCESS_LOGGER`) emits one structured JSON record
per HTTP request and per executed command, correlated by trace id.

Session lifetime: WebSocket-created sessions die with their connection.
HTTP-created (or adopted) sessions are reclaimed by an idle sweep — a
session with no attached connection and no command for ``session_ttl``
seconds (default 900) expires and later use fails with ``T2-E512`` — or
explicitly via ``DELETE /api/session``.

Concurrency model: the asyncio loop owns all sockets; command execution
(CPU-bound rendering) runs on a thread pool, serialized per session by a
lock — many sessions make progress concurrently, one session's commands
keep their order.  All sessions share the process result cache (the server
turns it on at start), so two viewers panning over the same figure hit
each other's cached plan results — cross-*user* slaving.

Backpressure: each connection has a bounded send queue.  When a slow
consumer lets it fill, queued *frame* responses for the same window are
coalesced — the older frame is dropped (counted in ``server.frames_dropped``)
and the newest kept, so a client that falls behind skips intermediate frames
but always receives the final state.  Non-frame responses are never dropped;
a full queue of them suspends that connection's reader instead.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.dataflow.serialize import program_to_dict
from repro.dbms.catalog import Database
from repro.dbms.result_cache import set_cache_enabled
from repro.errors import TiogaError
from repro.obs.flightrec import current_flight_recorder
from repro.obs.log import ACCESS_LOGGER, get_logger
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.profiler import Profiler
from repro.obs.requests import RequestLog, RequestRecord
from repro.obs.timeseries import MetricsRecorder
from repro.obs.trace import TraceContext, Tracer, set_tracer
from repro.protocol import (
    PROTOCOL_VERSION,
    Command,
    ErrorReply,
    FrameCache,
    FrameReply,
    ProtocolError,
    Response,
    Welcome,
    decode_command,
    encode_response,
    error_code_for,
)
from repro.server import ws
from repro.ui.session import Session

__all__ = ["TiogaServer", "ServerThread", "serve", "register_server_metrics"]

#: Default bound on a connection's send queue (responses, not bytes).
DEFAULT_MAX_QUEUE = 32

#: Default idle lifetime of a session with no attached connection (seconds);
#: the expiry behind the ``T2-E512`` "unknown or expired session" code.
DEFAULT_SESSION_TTL = 900.0

#: Default continuous-profiler sampling rate (Hz); 0 disables the sampler.
#: 67 deliberately avoids aliasing with common 10ms-periodic work.
DEFAULT_PROFILE_HZ = 67.0


def register_server_metrics(registry: MetricsRegistry) -> None:
    """Pre-register the server metric family (idempotent).

    Pre-registration pins names, kinds, and descriptions before any traffic,
    so ``/metrics`` scrapes and ``stats --check`` see a stable declaration
    set even on an idle server.
    """
    registry.gauge("server.sessions", "live sessions hosted by the server")
    registry.counter("server.commands",
                     "protocol commands executed, labeled by session")
    registry.histogram("server.frame_ms",
                       "command-to-frame latency in ms, labeled by session")
    registry.counter("server.frames_dropped",
                     "intermediate frames coalesced under backpressure")
    registry.counter("server.errors",
                     "failed commands, labeled by protocol error code")
    registry.counter("server.slow_requests",
                     "requests over their latency SLO, labeled by command")


class _ServerSession:
    """One hosted session: a Session plus the lock serializing its commands.

    ``refs`` counts attached WebSocket connections (a referenced session is
    never idle-expired); ``last_used`` feeds the idle sweep.
    """

    def __init__(self, sid: str, session: Session):
        self.sid = sid
        self.session = session
        self.lock = threading.Lock()
        self.refs = 0
        self.last_used = time.monotonic()

    def touch(self) -> None:
        self.last_used = time.monotonic()


class _SendQueue:
    """Bounded per-connection response queue with frame coalescing.

    ``put`` runs on the event loop.  When the queue is full and the incoming
    item carries a ``drop_key`` (frames key on their window), the oldest
    queued item with the *same* key is dropped — the newest frame always
    survives, so the client sees the final state of every window.  With no
    same-key victim, ``put`` waits for space (true backpressure).
    """

    def __init__(self, maxsize: int = DEFAULT_MAX_QUEUE):
        self.maxsize = maxsize
        self._items: list[tuple[str | None, str]] = []
        self._cond = asyncio.Condition()
        self._closed = False
        self.dropped = 0

    async def put(self, text: str, drop_key: str | None = None) -> None:
        async with self._cond:
            while len(self._items) >= self.maxsize and not self._closed:
                if drop_key is not None:
                    victim = next(
                        (i for i, (key, _) in enumerate(self._items)
                         if key == drop_key),
                        None,
                    )
                    if victim is not None:
                        del self._items[victim]
                        self.dropped += 1
                        break
                await self._cond.wait()
            if self._closed:
                return
            self._items.append((drop_key, text))
            self._cond.notify_all()

    async def get(self) -> str | None:
        """The next response text, or None once closed and drained."""
        async with self._cond:
            while not self._items and not self._closed:
                await self._cond.wait()
            if not self._items:
                return None
            item = self._items.pop(0)[1]
            self._cond.notify_all()
            return item

    async def close(self) -> None:
        async with self._cond:
            self._closed = True
            self._cond.notify_all()


class TiogaServer:
    """Host a database's programs for many concurrent remote viewers."""

    def __init__(
        self,
        database: Database | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = DEFAULT_MAX_QUEUE,
        pool_workers: int = 8,
        registry: MetricsRegistry | None = None,
        flight_dump: str | None = None,
        session_ttl: float | None = DEFAULT_SESSION_TTL,
        request_tracing: bool = True,
        profile_hz: float = DEFAULT_PROFILE_HZ,
        slo_ms: dict[str, float] | None = None,
        slow_dir: str | None = None,
    ):
        if database is None:
            from repro.data.weather import build_weather_database

            database = build_weather_database()
        self.database = database
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.registry = registry or global_registry()
        self.flight_dump = flight_dump
        #: Idle lifetime of unreferenced sessions; None or <= 0 disables
        #: the sweep (sessions then live until deleted or server stop).
        self.session_ttl = session_ttl
        self.sessions: dict[str, _ServerSession] = {}
        self._sid_counter = itertools.count(1)
        self._sweeper: asyncio.Task | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=pool_workers, thread_name_prefix="tioga-exec")
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._previous_cache = False
        self._recorder = MetricsRecorder(self.registry)
        #: Request observability: the server owns a tracer (installed as the
        #: process tracer while running), a continuous profiler, and the
        #: request log wiring them to SLO verdicts and slow-request capture.
        #: The tracer retains no spans (``max_spans=0``): the request log
        #: and the flight recorder take every span through their sinks.
        self.request_tracing = request_tracing
        self.tracer: Tracer | None = (
            Tracer(enabled=True, max_spans=0) if request_tracing
            else None)
        self.profiler: Profiler | None = (
            Profiler(hz=profile_hz) if profile_hz and profile_hz > 0
            else None)
        self.request_log: RequestLog | None = None
        if request_tracing:
            self.request_log = RequestLog(
                slo_ms=slo_ms,
                capture_dir=slow_dir,
                profiler=self.profiler,
                flight=current_flight_recorder(),
                on_slow=self._note_slow_request,
            )
        self._previous_tracer: Tracer | None = None
        self._access = get_logger(ACCESS_LOGGER)
        #: Encoded frames shared by every hosted session: fifty viewers on
        #: one view rasterize once (see :class:`repro.protocol.FrameCache`).
        self.frame_cache = FrameCache()
        #: Canonical initial view states per figure program, captured from
        #: the scenario builders so a freshly opened remote program frames
        #: the same world region the local figure does.
        self._initial_views: dict[str, list[dict[str, Any]]] = {}
        register_server_metrics(self.registry)
        self._install_figures()

    # ------------------------------------------------------------------
    # Program catalog
    # ------------------------------------------------------------------

    def _install_figures(self) -> None:
        """Save every figure scenario as a named program in the database."""
        from repro.core.scenarios import FIGURES

        for name, builder in FIGURES.items():
            scenario = builder(self.database)
            program = scenario.session.program
            self.database.save_program(name, program_to_dict(program))
            views: list[dict[str, Any]] = []
            for window_name, window in scenario.session.windows.items():
                viewer = window.viewer
                for member, view in viewer.member_views():
                    views.append({
                        "window": window_name,
                        "member": member,
                        "center": view.center,
                        "elevation": view.elevation,
                        "sliders": dict(view.slider_ranges),
                    })
            self._initial_views[name] = views

    def program_names(self) -> list[str]:
        return sorted(self.database.program_names())

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def create_session(self) -> _ServerSession:
        sid = f"s{next(self._sid_counter)}"
        held = _ServerSession(sid, Session(self.database, f"server-{sid}"))
        held.session.protocol.frame_cache = self.frame_cache
        self.sessions[sid] = held
        self.registry.gauge("server.sessions").set(len(self.sessions))
        return held

    def drop_session(self, sid: str) -> None:
        dropped = self.sessions.pop(sid, None)
        self.registry.gauge("server.sessions").set(len(self.sessions))
        if dropped is not None:
            # Session-label cardinality hygiene: a dead session's per-label
            # series (server.commands{sid}, server.frame_ms{sid}, ...) would
            # otherwise live in every future /metrics scrape; prune them
            # from the registry and the recorder's time series in one go.
            self.registry.prune_label(sid)
            self._recorder.prune_label(sid)

    def session(self, sid: str) -> _ServerSession:
        try:
            held = self.sessions[sid]
        except KeyError as exc:
            raise ProtocolError(
                f"unknown or expired session {sid!r}", code="T2-E512"
            ) from exc
        held.touch()
        return held

    def expire_idle_sessions(self, now: float | None = None) -> list[str]:
        """Drop every unreferenced session idle past ``session_ttl``.

        Returns the dropped session ids; a no-op when the TTL is disabled.
        Runs from the background sweeper, but callable directly (tests,
        embeddings driving their own loop).
        """
        ttl = self.session_ttl
        if not ttl or ttl <= 0:
            return []
        now = time.monotonic() if now is None else now
        expired = [sid for sid, held in list(self.sessions.items())
                   if held.refs == 0 and now - held.last_used > ttl]
        for sid in expired:
            self.drop_session(sid)
        return expired

    async def _sweep_idle_sessions(self) -> None:
        interval = min(max((self.session_ttl or 0.0) / 4.0, 0.05), 60.0)
        while True:
            await asyncio.sleep(interval)
            self.expire_idle_sessions()

    def _apply_initial_views(self, held: _ServerSession, program: str) -> None:
        for spec in self._initial_views.get(program, ()):
            window = held.session.windows.get(spec["window"])
            if window is None:
                continue
            viewer = window.viewer
            viewer._pan_to(*spec["center"], member=spec["member"])
            viewer._set_elevation(spec["elevation"], member=spec["member"])
            for dim, (low, high) in spec["sliders"].items():
                view = viewer.view(spec["member"])
                view.slider_ranges[dim] = (low, high)

    # ------------------------------------------------------------------
    # Command execution (thread pool, per-session lock)
    # ------------------------------------------------------------------

    def _note_slow_request(self, record: RequestRecord) -> None:
        self.registry.counter("server.slow_requests").inc(
            label=record.command)
        self._access.warning(
            "slow request", extra={
                "trace_id": record.trace_id,
                "session": record.session,
                "command": record.command,
                "duration_ms": record.duration_ms,
                "threshold_ms": record.threshold_ms,
                "capture": record.capture_path,
            })

    def _execute_sync(self, held: _ServerSession, command: Command,
                      ctx: TraceContext | None = None) -> Response:
        started = time.perf_counter()
        held.touch()
        # Adopt the request's context on this pool thread: contextvars do
        # not cross run_in_executor, so without this the worker's spans
        # would start a fresh tree instead of attaching under the asyncio
        # thread's server.dispatch root.
        scope = (self.tracer.adopt(ctx) if self.tracer is not None
                 else nullcontext())
        with scope, held.lock:
            try:
                response = held.session.execute(command)
            except TiogaError as exc:
                # execute() already wraps Tioga errors; anything arriving
                # here is decode-level (ProtocolError before dispatch).
                response = ErrorReply(
                    code=error_code_for(exc),
                    error_type=type(exc).__name__,
                    message=str(exc),
                    command=getattr(command, "kind", None),
                    reply_to=getattr(command, "seq", None),
                )
            except Exception as exc:  # noqa: BLE001 - boundary
                recorder = current_flight_recorder()
                recorder.note_error(
                    exc,
                    session=held.sid,
                    command=getattr(command, "kind", None),
                )
                if self.flight_dump:
                    recorder.dump_jsonl(self.flight_dump)
                response = ErrorReply(
                    code="T2-E514",
                    error_type=type(exc).__name__,
                    message=f"internal server error: {exc}",
                    command=getattr(command, "kind", None),
                    reply_to=getattr(command, "seq", None),
                )
            if isinstance(command, Command) and command.kind == "open_program":
                if not isinstance(response, ErrorReply):
                    self._apply_initial_views(held, command.name)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.registry.counter("server.commands").inc(label=held.sid)
        if isinstance(response, FrameReply):
            self.registry.histogram("server.frame_ms").observe(
                elapsed_ms, label=held.sid)
        if isinstance(response, ErrorReply):
            self.registry.counter("server.errors").inc(label=response.code)
        return response

    async def execute(self, held: _ServerSession, command: Command) -> Response:
        """Run one command for a session: mint the request's trace, open the
        ``server.dispatch`` root span on the asyncio thread, and hand the
        context to the pool worker for adoption."""
        loop = asyncio.get_running_loop()
        if self.tracer is None:
            return await loop.run_in_executor(
                self._pool, self._execute_sync, held, command, None)
        ctx = self._mint_context(held, command)
        started = time.perf_counter()
        with self.tracer.adopt(ctx):
            with self.tracer.span(
                    "server.dispatch", command=command.kind,
                    session=held.sid) as span:
                response = await loop.run_in_executor(
                    self._pool, self._execute_sync, held, command,
                    ctx.child_of(span))
        self._access.info(
            "command", extra={
                "trace_id": ctx.trace_id,
                "session": held.sid,
                "command": command.kind,
                "ok": response.ok,
                "duration_ms": round(
                    (time.perf_counter() - started) * 1000.0, 3),
            })
        return response

    def _mint_context(self, held: _ServerSession,
                      command: Command) -> TraceContext:
        """The request's TraceContext: join the client's distributed trace
        when the command carries one, else mint a fresh id — always stamped
        with this server's session and command kind."""
        wire = getattr(command, "trace", None)
        if wire:
            try:
                client = TraceContext.from_wire(wire)
                return TraceContext(client.trace_id, client.parent_span_id,
                                    held.sid, command.kind)
            except TiogaError:
                pass  # malformed client trace never fails the command
        return TraceContext.new(session=held.sid, command=command.kind)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the port and begin accepting connections."""
        # Cross-session cache sharing: every hosted session executes with
        # the result cache on, restored on stop.
        self._previous_cache = set_cache_enabled(True)
        if self.tracer is not None:
            # The engine/render layers trace through the process tracer;
            # installing ours for the server's lifetime is what stitches
            # their spans into our request trees.  Restored on stop.
            self._previous_tracer = set_tracer(self.tracer)
            self.request_log.attach(self.tracer)
        if self.profiler is not None and not self.profiler.running:
            self.profiler.start()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        if self.session_ttl and self.session_ttl > 0:
            self._sweeper = asyncio.create_task(self._sweep_idle_sessions())
        self._access.info(
            "server started", extra={
                "host": self.host, "port": self.port,
                "database": self.database.name,
                "profiler_hz": (self.profiler.hz
                                if self.profiler is not None else 0),
            })

    async def stop(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            await asyncio.gather(self._sweeper, return_exceptions=True)
            self._sweeper = None
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        # Wind down live connection handlers before the loop goes away, so
        # their cleanup runs here rather than as unraisable GC noise.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        self._pool.shutdown(wait=True)
        set_cache_enabled(self._previous_cache)
        if self.profiler is not None:
            self.profiler.stop()
        if self.tracer is not None:
            self.request_log.detach(self.tracer)
            if self._previous_tracer is not None:
                set_tracer(self._previous_tracer)
                self._previous_tracer = None
        for sid in list(self.sessions):
            self.drop_session(sid)
        self.sessions.clear()
        self.registry.gauge("server.sessions").set(0)

    async def serve_forever(self) -> None:
        await self.start()
        assert self._asyncio_server is not None
        async with self._asyncio_server:
            await self._asyncio_server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            request = await self._read_http_request(reader)
            if request is None:
                return
            method, target, headers, body = request
            parsed = urlsplit(target)
            path = parsed.path
            query = parse_qs(parsed.query)
            if (path == "/ws"
                    and headers.get("upgrade", "").lower() == "websocket"):
                await self._handle_websocket(
                    reader, writer, headers, query)
                return
            await self._handle_http(
                writer, method, path, query, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # stop() cancelled us; finish normally so asyncio's stream
            # callback doesn't re-raise into the loop's exception handler.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _read_http_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length:
            body = await reader.readexactly(length)
        return method.upper(), target, headers, body

    # -- plain HTTP ----------------------------------------------------

    async def _handle_http(self, writer: asyncio.StreamWriter, method: str,
                           path: str, query: dict[str, list[str]],
                           body: bytes) -> None:
        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, {
                "ok": True,
                "database": self.database.name,
                "sessions": len(self.sessions),
                "programs": self.program_names(),
                "protocol": PROTOCOL_VERSION,
            })
        elif method == "GET" and path == "/metrics":
            self._recorder.sample()
            text = self._recorder.prometheus_text()
            await self._send_response(
                writer, 200, text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8")
        elif method == "POST" and path == "/api/session":
            held = self.create_session()
            await self._send_json(writer, 200, {
                "session": held.sid,
                "protocol": PROTOCOL_VERSION,
                "database": self.database.name,
                "programs": self.program_names(),
            })
        elif method == "DELETE" and path == "/api/session":
            sid = (query.get("session") or [""])[0]
            if sid in self.sessions:
                self.drop_session(sid)
                await self._send_json(writer, 200, {
                    "ok": True, "session": sid})
            else:
                await self._send_json(writer, 404, {
                    "ok": False,
                    "code": "T2-E512",
                    "error": f"unknown or expired session {sid!r}",
                })
        elif method == "POST" and path == "/api/command":
            sid = (query.get("session") or [""])[0]
            response = await self._execute_wire(sid, body)
            status = 200 if response.ok else 400
            await self._send_response(
                writer, status, encode_response(response).encode("utf-8"),
                "application/json")
        elif method == "GET" and path.startswith("/debug/"):
            await self._handle_debug(writer, path, query)
        else:
            await self._send_json(writer, 404, {
                "ok": False, "error": f"no route {method} {path}"})
        if path != "/api/command":  # commands log via execute()
            self._access.info(
                "http", extra={"method": method, "path": path})

    # -- debug surface -------------------------------------------------

    async def _handle_debug(self, writer: asyncio.StreamWriter, path: str,
                            query: dict[str, list[str]]) -> None:
        """The ``/debug/*`` read-only observability surface."""
        if path == "/debug/requests" and self.request_log is not None:
            try:
                limit = int((query.get("limit") or ["50"])[0])
            except ValueError:
                limit = 50
            await self._send_json(writer, 200, {
                "total": self.request_log.total_requests,
                "slow": self.request_log.slow_requests,
                "requests": [r.as_dict() for r in
                             self.request_log.requests(limit=limit)],
            })
        elif path == "/debug/trace" and self.request_log is not None:
            trace_id = (query.get("id") or [""])[0]
            doc = self.request_log.trace(trace_id) if trace_id else None
            if doc is None:
                await self._send_json(writer, 404, {
                    "ok": False,
                    "error": f"no retained request trace {trace_id!r}",
                })
            else:
                await self._send_json(writer, 200, doc)
        elif path == "/debug/profile" and self.profiler is not None:
            seconds: float | None = None
            raw = (query.get("seconds") or [""])[0]
            if raw:
                try:
                    seconds = float(raw)
                except ValueError:
                    seconds = None
            await self._send_json(
                writer, 200, self.profiler.snapshot(seconds=seconds))
        elif path == "/debug/sessions":
            now = time.monotonic()
            await self._send_json(writer, 200, {
                "sessions": [
                    {
                        "session": held.sid,
                        "refs": held.refs,
                        "idle_s": round(now - held.last_used, 3),
                        "program": (held.session.program.name
                                    if held.session.program else None),
                        "windows": sorted(held.session.windows),
                    }
                    for _, held in sorted(self.sessions.items())
                ],
            })
        else:
            await self._send_json(writer, 404, {
                "ok": False,
                "error": f"no debug route {path} "
                         "(tracing or profiling may be disabled)",
            })

    async def _execute_wire(self, sid: str, payload: bytes) -> Response:
        try:
            held = self.session(sid)
            command = decode_command(payload)
        except TiogaError as exc:
            self.registry.counter("server.errors").inc(
                label=error_code_for(exc))
            return ErrorReply(
                code=error_code_for(exc),
                error_type=type(exc).__name__,
                message=str(exc),
            )
        return await self.execute(held, command)

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: dict[str, Any]) -> None:
        await self._send_response(
            writer, status, json.dumps(payload).encode("utf-8"),
            "application/json")

    async def _send_response(self, writer: asyncio.StreamWriter, status: int,
                             body: bytes, content_type: str) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- WebSocket -----------------------------------------------------

    async def _handle_websocket(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                headers: dict[str, str],
                                query: dict[str, list[str]]) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            await self._send_json(writer, 400, {
                "ok": False, "error": "missing Sec-WebSocket-Key"})
            return
        accept = ws.accept_key(key)
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept}\r\n"
            "\r\n"
        ).encode("latin-1"))
        await writer.drain()

        sid = (query.get("session") or [""])[0]
        own_session = not sid
        try:
            held = self.session(sid) if sid else self.create_session()
        except ProtocolError as exc:
            error = ErrorReply(code=exc.code, error_type="ProtocolError",
                               message=str(exc))
            writer.write(ws.encode_frame(
                encode_response(error).encode("utf-8")))
            self._write_close_frame(writer, 1000)
            await writer.drain()
            return

        held.refs += 1
        queue = _SendQueue(self.max_queue)
        sender = asyncio.create_task(self._ws_sender(writer, queue))
        welcome = Welcome(
            session=held.sid,
            protocol=PROTOCOL_VERSION,
            database=self.database.name,
            programs=tuple(self.program_names()),
        )
        await queue.put(encode_response(welcome))
        parser = ws.FrameParser(require_mask=True)
        # One worker per connection keeps that client's commands in order
        # (pan before render); different connections still overlap in the
        # thread pool.  The bounded inbox is reader-side backpressure.
        inbox: asyncio.Queue[bytes | None] = asyncio.Queue(maxsize=256)
        worker = asyncio.create_task(self._ws_worker(held, inbox, queue))
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    messages = parser.feed(data)
                except ws.WSProtocolError:
                    break
                closing = False
                for opcode, payload in messages:
                    if opcode == ws.OP_CLOSE:
                        # The close reply comes from _ws_sender once the
                        # send queue drains, so pending responses are
                        # delivered before the handshake completes.
                        closing = True
                        break
                    if opcode == ws.OP_PING:
                        writer.write(ws.encode_frame(
                            payload, opcode=ws.OP_PONG))
                        await writer.drain()
                        continue
                    if opcode != ws.OP_TEXT:
                        continue
                    await inbox.put(payload)
                if closing:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                try:
                    await inbox.put(None)
                    await worker
                    await queue.close()
                    await sender
                except BaseException:
                    # Server shutdown (CancelledError) or an unexpected
                    # worker/sender crash: abandon the graceful drain, but
                    # never skip the bookkeeping below.
                    worker.cancel()
                    sender.cancel()
                    await queue.close()
                    await asyncio.gather(worker, sender,
                                         return_exceptions=True)
                    self._write_close_frame(writer, 1001)
            finally:
                held.refs -= 1
                held.touch()
                if queue.dropped:
                    self.registry.counter("server.frames_dropped").inc(
                        queue.dropped, label=held.sid)
                if own_session:
                    self.drop_session(held.sid)

    async def _ws_worker(self, held: _ServerSession,
                         inbox: "asyncio.Queue[bytes | None]",
                         queue: _SendQueue) -> None:
        while True:
            payload = await inbox.get()
            if payload is None:
                return
            await self._ws_command(held, payload, queue)

    async def _ws_command(self, held: _ServerSession, payload: bytes,
                          queue: _SendQueue) -> None:
        try:
            command = decode_command(payload)
        except TiogaError as exc:
            self.registry.counter("server.errors").inc(
                label=error_code_for(exc))
            error = ErrorReply(
                code=error_code_for(exc),
                error_type=type(exc).__name__,
                message=str(exc),
            )
            await queue.put(encode_response(error))
            return
        response = await self.execute(held, command)
        drop_key = None
        if isinstance(response, FrameReply):
            drop_key = f"frame:{response.window}"
        await queue.put(encode_response(response), drop_key=drop_key)

    async def _ws_sender(self, writer: asyncio.StreamWriter,
                         queue: _SendQueue) -> None:
        try:
            while True:
                text = await queue.get()
                if text is None:
                    # Queue drained after close(): complete the RFC 6455
                    # close handshake rather than an abrupt TCP close.
                    self._write_close_frame(writer, 1000)
                    await writer.drain()
                    return
                writer.write(ws.encode_frame(text.encode("utf-8")))
                await writer.drain()
        except (ConnectionError, OSError):
            await queue.close()

    @staticmethod
    def _write_close_frame(writer: asyncio.StreamWriter, code: int) -> None:
        """Best-effort OP_CLOSE (1000 normal, 1001 going away)."""
        try:
            writer.write(ws.encode_frame(
                code.to_bytes(2, "big"), opcode=ws.OP_CLOSE))
        except (ConnectionError, OSError, RuntimeError):
            pass


class ServerThread:
    """Run a :class:`TiogaServer` on a daemon thread (tests, benchmarks).

    ``with ServerThread(db) as server:`` yields the started server with its
    bound ``port``; exiting stops the loop and joins the thread.
    """

    def __init__(self, database: Database | None = None, **options: Any):
        self.server = TiogaServer(database, **options)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop_event: asyncio.Event | None = None

    def start(self, timeout: float = 30.0) -> TiogaServer:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="tioga-server")
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server did not start in time")
        return self.server

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            self._stop_event = asyncio.Event()
            await self.server.start()
            self._started.set()
            await self._stop_event.wait()
            await self.server.stop()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> TiogaServer:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(host: str = "127.0.0.1", port: int = 8765,
          database: Database | None = None, **options: Any) -> None:
    """Run a :class:`TiogaServer` until interrupted (the CLI entry point)."""
    server = TiogaServer(database, host=host, port=port, **options)

    async def main() -> None:
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
