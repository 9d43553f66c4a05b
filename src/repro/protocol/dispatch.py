"""Execute protocol commands against a live session.

:class:`CommandExecutor` is the single dispatch point for demand commands.
:class:`~repro.ui.session.Session`'s imperative methods build a
:class:`~repro.protocol.messages.Command` and call :meth:`CommandExecutor.run`
(rich results, exceptions propagate); transports — the WebSocket/HTTP server,
or any future embedding — call :meth:`CommandExecutor.execute` (wire-safe
:class:`~repro.protocol.messages.Response` objects, every
:class:`~repro.errors.TiogaError` mapped to a stable ``T2-E5xx`` code).
Both entry points share the same handlers, so a remote ``set_slider`` fails
with character-for-character the same :class:`~repro.errors.ViewerError`
diagnostic a local call raises.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import TiogaError
from repro.obs.trace import TraceContext, current_tracer
from repro.protocol.errors import ProtocolError, error_code_for
from repro.protocol.messages import (
    FRAME_FORMATS,
    AddViewer,
    Command,
    ErrorReply,
    Explain,
    FrameReply,
    OpenProgram,
    Pan,
    PanTo,
    Pick,
    Render,
    Reply,
    Response,
    SetElevation,
    SetSlider,
    Stats,
    Why,
    Zoom,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ui.session import Session

__all__ = ["CommandExecutor", "FrameCache", "jsonable"]


def jsonable(value: Any) -> Any:
    """Coerce a rich result into JSON-safe data (dates and such become
    strings), preserving structure — the wire form of ``why``/``pick``
    row values."""
    return json.loads(json.dumps(value, default=str))


class FrameCache:
    """LRU cache of fully encoded frames, shared across sessions.

    The result cache (PR-4) shares *plan* results between sessions, but each
    render still rasterizes and base64-encodes the canvas — the dominant
    cost when many viewers look at the same view.  The server hands every
    hosted session one :class:`FrameCache` so identical (program, view,
    data-epoch) renders are served as a dict lookup.  Keys include the
    global storage epoch, so any table mutation anywhere invalidates every
    cached frame — conservative but always correct.

    Entries carry the frame's display lists and statistics — a
    :class:`~repro.viewer.viewer.RenderResult` without its canvas, since
    the encoded bytes already hold the pixels — alongside the encoded
    bytes: a hit restores it as the viewer's ``last_result``, so
    pick/why/wormhole provenance resolves against the display list of the
    frame the client is looking at, never the display list of the last
    render that actually rasterized.

    In-process sessions leave ``CommandExecutor.frame_cache`` unset: local
    callers keep the engine-executing path (and its per-box statistics)
    byte-for-byte identical to the imperative API.

    A frame stored at a newer storage epoch drops every entry of an older
    one: their keys hold the epoch they were rendered at, so after a table
    update they can never hit again, and they would otherwise hold their
    display lists until LRU order reached them.
    """

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Any, tuple] = OrderedDict()
        #: The storage epoch of the entries held (see :meth:`put`).
        self._epoch = 0

    def get(self, key: Any) -> tuple | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Any, entry: tuple, epoch: int) -> None:
        """Store ``entry``; ``epoch`` is the storage epoch its key holds.
        A newer epoch first drops the entries of older ones, and an entry
        from an older epoch than those held is not stored."""
        with self._lock:
            if epoch < self._epoch:
                return
            if epoch > self._epoch:
                self._entries.clear()
                self._epoch = epoch
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class CommandExecutor:
    """Run demand commands against one :class:`~repro.ui.session.Session`.

    Holds the small amount of per-session protocol state: per-window frame
    sequence numbers and the previous ``ops``-frame display list used to
    compute draw-op deltas.
    """

    def __init__(self, session: "Session"):
        self.session = session
        self._frame_seq: dict[str, int] = {}
        self._last_ops: dict[str, dict[str, Any]] = {}
        #: Optional shared :class:`FrameCache`; the server sets this on every
        #: hosted session.  None (the default) renders every frame.
        self.frame_cache: FrameCache | None = None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, command: Command) -> Any:
        """Execute a command and return its rich result; raises
        :class:`TiogaError` exactly as the equivalent imperative call.

        When the current tracer is enabled, every dispatch runs inside a
        ``request.<kind>`` span under a :class:`TraceContext` — adopted
        from the caller when one is active (the server's pool workers), or
        minted here (in-process sessions), so engine/plan/render/lineage
        spans attach to one connected request tree either way.  Disabled
        tracers pay a single attribute check.
        """
        handler = self._HANDLERS.get(type(command))
        if handler is None:
            raise ProtocolError(
                f"unknown command kind {getattr(command, 'kind', None)!r}",
                code="T2-E511",
            )
        tracer = current_tracer()
        if not tracer.enabled:
            return handler(self, command)
        ctx = self.trace_context_for(command, tracer)
        attrs: dict[str, Any] = {"command": command.kind}
        if ctx.session is not None:
            attrs["session"] = ctx.session
        window = getattr(command, "window", None)
        if window:
            attrs["window"] = window
        with tracer.adopt(ctx):
            with tracer.span(f"request.{command.kind}", **attrs):
                return handler(self, command)

    def trace_context_for(self, command: Command,
                          tracer=None) -> TraceContext:
        """The request context this dispatch will run under: the already
        adopted one, else the client-supplied ``trace`` wire field, else a
        freshly minted id."""
        tracer = tracer if tracer is not None else current_tracer()
        ctx = tracer.context()
        if ctx is not None:
            return ctx
        wire = getattr(command, "trace", None)
        if wire:
            return TraceContext.from_wire(wire)
        return TraceContext.new(command=command.kind)

    def execute(self, command: Command) -> Response:
        """Execute a command and return a wire-safe response (never raises
        for Tioga-level failures — they become :class:`ErrorReply`).

        Responses carry the request's ``trace_id`` so remote clients can
        quote it back at ``/debug/trace`` (and correlate their own logs)."""
        tracer = current_tracer()
        trace_id: str | None = None
        if tracer.enabled:
            # Resolve (and adopt) the context up front so the id stamped on
            # the response is the one run() traces under.
            ctx = self.trace_context_for(command, tracer)
            trace_id = ctx.trace_id
            with tracer.adopt(ctx):
                response = self._execute_raw(command)
        else:
            response = self._execute_raw(command)
        if trace_id is not None:
            response = dataclasses.replace(response, trace_id=trace_id)
        return response

    def _execute_raw(self, command: Command) -> Response:
        try:
            result = self.run(command)
            wire = self._WIRE.get(type(command), CommandExecutor._wire_reply)
            return wire(self, command, result)
        except TiogaError as exc:
            return ErrorReply(
                code=error_code_for(exc),
                error_type=type(exc).__name__,
                message=str(exc),
                command=getattr(command, "kind", None),
                reply_to=getattr(command, "seq", None),
            )

    # ------------------------------------------------------------------
    # Handlers (rich results; shared by local and remote callers)
    # ------------------------------------------------------------------

    def _open_program(self, command: OpenProgram) -> dict[str, Any]:
        self.session._load_program_impl(command.name)
        self._frame_seq.clear()
        self._last_ops.clear()
        return {
            "program": self.session.program.name,
            "windows": sorted(self.session.windows),
        }

    def _add_viewer(self, command: AddViewer):
        return self.session._add_viewer_impl(
            command.src_box,
            command.src_port,
            name=command.name,
            width=command.width,
            height=command.height,
            world_per_elevation=command.world_per_elevation,
        )

    def _viewer_for(self, window: str):
        return self.session.window(window).viewer

    @staticmethod
    def _view_state(window: str, moved: tuple[str, Any]) -> dict[str, Any]:
        """The reply to a position command: the moved member's view state
        as the viewer's position method returned it (no second demand)."""
        member, view = moved
        return {
            "window": window,
            "member": member,
            "center": [view.center[0], view.center[1]],
            "elevation": view.elevation,
            "sliders": {dim: [low, high]
                        for dim, (low, high) in view.slider_ranges.items()},
        }

    def _pan(self, command: Pan) -> dict[str, Any]:
        viewer = self._viewer_for(command.window)
        moved = viewer._pan(command.dx, command.dy, command.member)
        return self._view_state(command.window, moved)

    def _pan_to(self, command: PanTo) -> dict[str, Any]:
        viewer = self._viewer_for(command.window)
        moved = viewer._pan_to(command.cx, command.cy, command.member)
        return self._view_state(command.window, moved)

    def _zoom(self, command: Zoom) -> dict[str, Any]:
        viewer = self._viewer_for(command.window)
        moved = viewer._zoom(command.factor, command.member)
        return self._view_state(command.window, moved)

    def _set_elevation(self, command: SetElevation) -> dict[str, Any]:
        viewer = self._viewer_for(command.window)
        moved = viewer._set_elevation(command.elevation, command.member)
        return self._view_state(command.window, moved)

    def _set_slider(self, command: SetSlider) -> dict[str, Any]:
        # Validation (unknown dim, empty range) lives in the viewer — the
        # one copy both local and remote callers hit, so diagnostics match.
        viewer = self._viewer_for(command.window)
        moved = viewer._set_slider(command.dim, command.low, command.high,
                                   command.member)
        return self._view_state(command.window, moved)

    def _render(self, command: Render) -> FrameReply:
        if command.format not in FRAME_FORMATS:
            raise ProtocolError(
                f"unknown frame format {command.format!r}; "
                f"choose from {', '.join(FRAME_FORMATS)}",
                code="T2-E510",
            )
        from repro.obs.metrics import global_registry

        window = self.session.window(command.window)
        registry = global_registry()
        # ops frames are per-session deltas and never shared.
        key = displayable = None
        if self.frame_cache is not None and command.format in ("ppm", "png"):
            key, displayable = self._frame_key(command, window)
        if key is not None:
            cached = self.frame_cache.get(key)
            if cached is not None:
                registry.counter(
                    "cache.frame_hit",
                    "renders served whole from the shared frame cache",
                ).inc()
                width, height, data, draw_ops, result = cached
                # The client now sees this cached frame: pick/why must
                # resolve against its display list, not the one left over
                # from the previous actual render (possibly another view).
                window.viewer.last_result = result
                seq = self._frame_seq.get(command.window, 0) + 1
                self._frame_seq[command.window] = seq
                return FrameReply(
                    window=command.window,
                    frame_seq=seq,
                    format=command.format,
                    width=width,
                    height=height,
                    data=data,
                    ops=None,
                    draw_ops=draw_ops,
                    render_ms=0.0,
                    cache_hits=1,
                    cache_misses=0,
                )
            registry.counter(
                "cache.frame_miss",
                "renders that rasterized and encoded a fresh frame",
            ).inc()
        hits_before = registry.counter(
            "cache.hit", "result-cache lookups served from memory").total()
        misses_before = registry.counter(
            "cache.miss", "result-cache lookups that ran the plan").total()
        started = time.perf_counter()
        canvas = window.render(cull=command.cull, displayable=displayable)
        render_ms = (time.perf_counter() - started) * 1000.0
        seq = self._frame_seq.get(command.window, 0) + 1
        self._frame_seq[command.window] = seq
        data: str | None = None
        ops: dict[str, Any] | None = None
        if command.format in ("ppm", "png"):
            with current_tracer().span("frame.encode",
                                       format=command.format) as span:
                encoded = (canvas.png_bytes() if command.format == "png"
                           else canvas.ppm_bytes())
                span.set(bytes=len(encoded))
                data = base64.b64encode(encoded).decode("ascii")
        else:
            ops = self._ops_delta(command.window, window)
        hits = registry.counter("cache.hit").total() - hits_before
        misses = registry.counter("cache.miss").total() - misses_before
        if key is not None:
            from repro.viewer.viewer import RenderResult

            result = window.viewer.last_result
            self.frame_cache.put(
                key, (canvas.width, canvas.height, data, canvas.draw_ops,
                      RenderResult(None, result.items, result.stats)),
                epoch=key[-1])
        return FrameReply(
            window=command.window,
            frame_seq=seq,
            format=command.format,
            width=canvas.width,
            height=canvas.height,
            data=data,
            ops=ops,
            draw_ops=canvas.draw_ops,
            render_ms=round(render_ms, 3),
            cache_hits=int(hits),
            cache_misses=int(misses),
        )

    def _frame_key(self, command: Render, window) -> tuple[tuple | None, Any]:
        """Everything a frame's pixels depend on, or None when unsure; and
        the viewer's input as demanded for it (None when not demanded), for
        the render to reuse.

        Program structure (a hash of the serialized program, computed once
        per edit — :func:`~repro.dataflow.serialize.program_fingerprint`),
        the full per-member view state, the viewport geometry, and the
        global storage epoch — any table update anywhere bumps the epoch and
        orphans every cached frame.
        """
        from repro.dataflow.serialize import program_fingerprint
        from repro.dbms.relation import storage_epoch

        if any(not glass.deleted for glass in window.magnifiers):
            # Magnifier overlays are composited into the encoded bytes but
            # are session-local furniture outside the key; don't cache.
            return None, None
        viewer = window.viewer
        displayable = None
        try:
            program_fp = program_fingerprint(self.session.program)
            displayable = viewer.displayable()
            views = []
            for member, view in viewer.member_views(displayable):
                views.append((
                    member,
                    float(view.center[0]),
                    float(view.center[1]),
                    float(view.elevation),
                    tuple(sorted(
                        (dim, float(low), float(high))
                        for dim, (low, high) in view.slider_ranges.items()
                    )),
                ))
        except (TiogaError, TypeError, ValueError):
            return None, displayable
        return (
            command.format,
            bool(command.cull),
            window.name,
            viewer.width,
            viewer.height,
            viewer.world_per_elevation,
            program_fp,
            tuple(views),
            storage_epoch(),
        ), displayable

    def _ops_delta(self, name: str, window) -> dict[str, Any]:
        """Draw-op delta versus this session's previous ``ops`` frame.

        Items are keyed by (member, relation, kind, tuple index, bbox); the
        first ``ops`` frame of a window is ``full``, later ones carry only
        ``added``/``removed`` — the cheap wire form for slaved viewers that
        track marks instead of pixels.
        """
        result = window.viewer.last_result
        current: dict[str, Any] = {}
        if result is not None:
            for member, items in result.items.items():
                for item in items:
                    signature = (
                        f"{member}|{item.relation_name}|{item.drawable_kind}"
                        f"|{item.tuple_index}|"
                        + ",".join(f"{v:.2f}" for v in item.bbox)
                    )
                    current[signature] = {
                        "member": member,
                        "relation": item.relation_name,
                        "kind": item.drawable_kind,
                        "tuple_index": item.tuple_index,
                        "bbox": [round(v, 2) for v in item.bbox],
                    }
        previous = self._last_ops.get(name)
        self._last_ops[name] = current
        if previous is None:
            return {"mode": "full",
                    "items": [current[k] for k in sorted(current)]}
        added = sorted(set(current) - set(previous))
        removed = sorted(set(previous) - set(current))
        return {
            "mode": "delta",
            "added": [current[k] for k in added],
            "removed": [previous[k] for k in removed],
        }

    def _pick(self, command: Pick):
        return self._viewer_for(command.window).pick(command.px, command.py)

    def _why(self, command: Why) -> dict[str, Any]:
        from repro.obs.lineage import why

        return why(self.session.window(command.window), command.px, command.py)

    def _explain(self, command: Explain) -> dict[str, Any]:
        from repro.dataflow.explain import explain_data

        return explain_data(
            self.session.program,
            self.session.database,
            engine=self.session.engine,
            box_id=command.box_id,
        )

    def _stats(self, command: Stats) -> dict[str, Any]:
        from repro.obs import global_registry, run_summary

        return run_summary(None, global_registry())

    _HANDLERS: dict[type, Callable[["CommandExecutor", Any], Any]] = {
        OpenProgram: _open_program,
        AddViewer: _add_viewer,
        Pan: _pan,
        PanTo: _pan_to,
        Zoom: _zoom,
        SetElevation: _set_elevation,
        SetSlider: _set_slider,
        Render: _render,
        Pick: _pick,
        Why: _why,
        Explain: _explain,
        Stats: _stats,
    }

    # ------------------------------------------------------------------
    # Wire conversion (rich result -> Response)
    # ------------------------------------------------------------------

    def _wire_reply(self, command: Command, result: Any) -> Response:
        # Normalize eagerly so a local execute() observes exactly what a
        # remote client would after the JSON hop (int keys become strings,
        # tuples become lists).
        return Reply(command=command.kind, result=jsonable(result),
                     reply_to=getattr(command, "seq", None))

    def _wire_add_viewer(self, command: AddViewer, window) -> Response:
        return Reply(
            command=command.kind,
            result={
                "window": window.name,
                "viewer_box": window.viewer_box_id,
                "width": window.viewer.width,
                "height": window.viewer.height,
            },
            reply_to=command.seq,
        )

    def _wire_frame(self, command: Render, frame: FrameReply) -> Response:
        if command.seq is None:
            return frame
        return FrameReply(**{**_frame_fields(frame), "reply_to": command.seq})

    def _wire_pick(self, command: Pick, item) -> Response:
        result: dict[str, Any] = {"picked": item is not None, "item": None}
        if item is not None:
            result["item"] = jsonable({
                "relation": item.relation_name,
                "source_table": item.source_table,
                "kind": item.drawable_kind,
                "tuple_index": item.tuple_index,
                "bbox": list(item.bbox),
                "row": item.row.as_dict(),
            })
        return Reply(command=command.kind, result=result,
                     reply_to=command.seq)

    def _wire_why(self, command: Why, doc: dict[str, Any]) -> Response:
        return Reply(command=command.kind, result=jsonable(doc),
                     reply_to=command.seq)

    _WIRE: dict[type, Callable[["CommandExecutor", Any, Any], Response]] = {
        AddViewer: _wire_add_viewer,
        Render: _wire_frame,
        Pick: _wire_pick,
        Why: _wire_why,
    }


def _frame_fields(frame: FrameReply) -> dict[str, Any]:
    import dataclasses

    return {field.name: getattr(frame, field.name)
            for field in dataclasses.fields(frame)}
