"""Outside-in per-layer tracing for the traced benchmark run.

Nothing here edits the program.  :class:`LayerTracer` replaces public entry
points with timing wrappers on the name each caller looks up (a module
global for the codecs, a class attribute for methods), keeps every span in
memory, and splits each timed frame into per-layer *self* time: a span's
duration minus the part of it that its child spans cover.  ``unaccounted``
is the frame's client-measured latency minus the sum of its layers' self
times, so the layers and ``unaccounted`` add up to the frame time exactly.

A span belongs to a frame through the protocol ``seq`` the harness stamps
on every command (unique across clients): the codecs and the server entry
points read it off the command or response they handle, and spans nested
below them on the same thread inherit it.  ``Session.execute`` runs on a
pool thread, so its parent is the open ``TiogaServer.execute`` span with
the same ``seq``.  A hook whose target no longer exists is skipped and its
layer reported as ``None``.

``ws.transit`` has no wrapper of its own: it is the time from one side's
encode to the other side's decode of the same message (WebSocket framing,
the socket, the event loop's hops between reader, worker and sender
tasks), taken from the codec spans' boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from stats import quantile


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method`` or
    ``Class.prefix*``) as a span of ``layer``.

    ``key`` says where the span's frame key comes from: ``"arg"`` (the last
    positional argument is a command or response), ``"result"`` (the return
    value is) or ``""`` (inherited from the enclosing span).
    """

    layer: str
    module: str
    attr: str
    key: str = ""


HOOKS: tuple[Hook, ...] = (
    Hook("client.codec", "repro.server.client", "encode_command", "arg"),
    Hook("client.codec", "repro.server.client", "decode_response", "result"),
    Hook("client.codec", "repro.protocol.messages", "FrameReply.data_bytes",
         "arg"),
    Hook("wire.codec", "repro.server.app", "decode_command", "result"),
    Hook("wire.codec", "repro.server.app", "encode_response", "arg"),
    Hook("server.queue", "repro.server.app", "TiogaServer.execute", "arg"),
    Hook("dispatch.self", "repro.ui.session", "Session.execute", "arg"),
    Hook("engine.demand", "repro.dataflow.engine", "Engine.output_of"),
    Hook("scene.cull", "repro.viewer.viewer", "Viewer.render"),
    Hook("canvas.raster", "repro.render.canvas", "Canvas.draw_*"),
    Hook("canvas.raster", "repro.render.canvas", "Canvas.fill_*"),
    Hook("canvas.raster", "repro.render.canvas", "Canvas.blit"),
    Hook("canvas.png", "repro.render.canvas", "Canvas.png_bytes"),
    Hook("update.apply", "repro.dbms.update", "generic_update"),
)

#: (sender's encode, receiver's decode) of the two messages of a request.
TRANSIT = (("encode_command", "decode_command"),
           ("encode_response", "decode_response"))

#: Layers that split a frame, in request order; ``unaccounted`` closes the sum.
FRAME_LAYERS = ("client.codec", "ws.transit", "wire.codec", "server.queue",
                "dispatch.self", "engine.demand", "scene.cull",
                "canvas.raster", "canvas.png")


class Span:
    __slots__ = ("layer", "name", "tid", "start", "end", "parent", "key",
                 "child", "size")

    def __init__(self, layer: str, name: str, tid: int,
                 parent: "Span | None", key: Any):
        self.layer = layer
        self.name = name
        self.tid = tid
        self.parent = parent
        self.key = key
        self.child = 0.0
        self.size = 0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _wire_key(value: Any) -> Any:
    from repro.protocol import Command, Response

    if isinstance(value, Command):
        return value.seq
    if isinstance(value, Response):
        return getattr(value, "reply_to", None)
    return None


class LayerTracer:
    """Install the hooks, record spans, split frames into layers."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.thread_names: dict[int, str] = {}
        self._local = threading.local()
        self._open_async: dict[Any, Span] = {}
        self._installed: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        found: dict[str, bool] = {}
        for hook in self.hooks:
            targets = self._resolve(hook)
            found[hook.layer] = found.get(hook.layer, False) or bool(targets)
            for owner, name, original in targets:
                setattr(owner, name, self._wrap(original, hook.layer, name,
                                                hook.key))
                self._installed.append((owner, name, original))
        self.missing = {layer for layer, ok in found.items() if not ok}
        if self.missing & {"client.codec", "wire.codec"}:
            self.missing.add("ws.transit")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    @staticmethod
    def _resolve(hook: Hook) -> list[tuple[Any, str, Any]]:
        try:
            owner: Any = importlib.import_module(hook.module)
        except ImportError:
            return []
        *path, name = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return []
        if name.endswith("*"):
            names = sorted(n for n, v in vars(owner).items()
                           if n.startswith(name[:-1]) and callable(v))
        else:
            names = [name] if callable(getattr(owner, name, None)) else []
        return [(owner, n, getattr(owner, n)) for n in names]

    # -- wrappers ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def _wrap(self, fn: Any, layer: str, name: str, keymode: str) -> Any:
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, layer, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)  # recursion folds into the outer span
            tid = threading.get_ident()
            if tid not in tracer.thread_names:
                tracer.thread_names[tid] = threading.current_thread().name
            key = parent.key if parent is not None else None
            if keymode == "arg":
                key = _wire_key(args[-1])
                if parent is None:
                    parent = tracer._open_async.get(key)
            span = Span(layer, name, tid, parent, key)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer._finish(span)
            if keymode == "result":
                span.key = _wire_key(result)
            if isinstance(result, bytes):
                span.size = len(result)
            return result

        return wrapper

    def _wrap_async(self, fn: Any, layer: str, name: str) -> Any:
        # Coroutines interleave on the event loop thread, so an async span
        # never joins the thread-local stack; pool-thread spans find it by key.
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            key = _wire_key(args[-1])
            span = Span(layer, name, threading.get_ident(), None, key)
            tracer._open_async[key] = span
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._open_async.pop(key, None)
                tracer._finish(span)

        return wrapper

    # -- analysis ------------------------------------------------------

    def transit_spans(self) -> list[Span]:
        """Synthetic ``ws.transit`` spans: encode end to peer decode start."""
        ends: dict[tuple[Any, str], Span] = {}
        for span in self.spans:
            if span.key is not None and span.layer in ("client.codec",
                                                       "wire.codec"):
                ends.setdefault((span.key, span.name), span)
        receiver_of = dict(TRANSIT)
        spans = []
        for (key, name), encode in ends.items():
            decode = ends.get((key, receiver_of.get(name)))
            if decode is None:
                continue
            transit = Span("ws.transit", f"{name}->{decode.name}",
                           decode.tid, None, key)
            transit.start, transit.end = encode.end, decode.start
            spans.append(transit)
        return spans

    def split(self, frames: dict[Any, float]) -> dict[str, Any]:
        """Per-layer metrics over ``frames`` (frame key -> latency seconds).

        Each layer reports the p50/p95 of its per-frame self time (0 on a
        frame it did not touch) and its share of total frame time.
        """
        per_frame: dict[Any, dict[str, float]] = {k: {} for k in frames}
        counts: dict[str, int] = {}
        png_sizes: list[int] = []
        updates: list[float] = []
        for span in self.spans + self.transit_spans():
            if span.layer == "update.apply":
                updates.append(span.end - span.start)
                continue
            layers = per_frame.get(span.key)
            if layers is None:
                continue
            layers[span.layer] = layers.get(span.layer, 0.0) + span.self_time
            counts[span.layer] = counts.get(span.layer, 0) + 1
            if span.layer == "canvas.png":
                png_sizes.append(span.size)
        columns = {layer: [per_frame[k].get(layer, 0.0) for k in frames]
                   for layer in FRAME_LAYERS}
        columns["unaccounted"] = [frames[k] - sum(per_frame[k].values())
                                  for k in frames]
        total = sum(frames.values()) or 1.0
        metrics: dict[str, Any] = {}
        for layer, values in columns.items():
            missing = layer in self.missing
            metrics[f"{layer}.p50_ms"] = (
                None if missing else quantile(values, 0.50) * 1e3)
            metrics[f"{layer}.p95_ms"] = (
                None if missing else quantile(values, 0.95) * 1e3)
            metrics[f"{layer}.share"] = (
                None if missing else sum(values) / total)
        missing = "update.apply" in self.missing
        metrics["update.apply.p50_ms"] = (
            None if missing else quantile(updates, 0.50) * 1e3)
        metrics["update.apply.p95_ms"] = (
            None if missing else quantile(updates, 0.95) * 1e3)
        n = max(len(frames), 1)
        metrics["engine.calls_per_frame"] = (
            None if "engine.demand" in self.missing
            else counts.get("engine.demand", 0) / n)
        metrics["canvas.png_bytes_per_frame"] = (
            None if "canvas.png" in self.missing
            else (sum(png_sizes) / len(png_sizes) if png_sizes else 0.0))
        return metrics

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as a Chrome ``trace_event`` file (chrome://tracing,
        Perfetto), one track per thread."""
        spans = self.spans + self.transit_spans()
        origin = min((s.start for s in spans), default=0.0)
        tids = {tid: index for index, tid in
                enumerate(sorted({s.tid for s in spans}), start=1)}
        events: list[dict[str, Any]] = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": index,
             "args": {"name": self.thread_names.get(tid, str(tid))}}
            for tid, index in tids.items()]
        for span in spans:
            events.append({
                "ph": "X", "name": span.layer, "pid": 1,
                "tid": tids[span.tid],
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": {"call": span.name, "seq": span.key,
                         "self_us": round(span.self_time * 1e6, 3)},
            })
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
