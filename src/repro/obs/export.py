"""Exporters: Chrome trace JSON, a human-readable span tree, run summaries.

Three consumers, three formats:

* :func:`chrome_trace` — the Chrome ``trace_event`` JSON object format
  (``{"traceEvents": [...]}``) with complete (``ph: "X"``) events for spans
  and instant (``ph: "i"``) events for markers; loads in ``chrome://tracing``
  and Perfetto.  Span attributes ride in ``args``.
* :func:`render_tree` — an indented wall-clock tree for terminals, the
  ``--timing`` output.
* :func:`run_summary` — a stable, JSON-ready dict combining span rollups and
  a metrics snapshot; the ``stats`` command and wire reply carry one.

:func:`validate_chrome_trace` is the schema guard used by the tests and
``repro trace``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "render_tree",
    "run_summary",
    "empty_run_summary",
    "validate_chrome_trace",
    "BENCH_SCHEMA",
]

BENCH_SCHEMA = "repro.bench/1"
"""Schema tag stamped into run summaries (the ``stats`` reply carries one)."""

_PID = 1  # single-process traces; Chrome requires *a* pid


def _ts_us(tracer: Tracer, ns: int) -> float:
    origin = tracer.origin_ns or 0
    return (ns - origin) / 1000.0


def chrome_trace(tracer: Tracer | None,
                 process_name: str = "repro") -> dict[str, Any]:
    """The Chrome ``trace_event`` JSON object for a tracer's recordings.

    ``tracer=None`` degrades to a valid empty trace (metadata event only) —
    exporters never require the caller to have traced anything.
    """
    if tracer is None:
        return {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
                 "args": {"name": process_name}},
            ],
            "displayTimeUnit": "ms",
            "otherData": {"dropped": 0},
        }
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    # Real thread names on the metadata events: pool workers show up as
    # "tioga-exec_0", not an opaque id, so a request's hop from the asyncio
    # thread to its worker reads directly off the track labels.  Spans from
    # before the thread_name slot existed fall back to the id form.
    finished = tracer.finished()
    names: dict[int, str] = {}
    for span in finished:
        name = getattr(span, "thread_name", None)
        if span.thread_id not in names or name:
            names[span.thread_id] = name or f"thread-{span.thread_id}"
    threads = sorted(
        {span.thread_id for span in finished}
        | {event.thread_id for event in tracer.events}
    )
    tids = {thread_id: index for index, thread_id in enumerate(threads)}
    for thread_id, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": names.get(
                    thread_id, f"thread-{thread_id}")},
            }
        )
    for span in finished:
        args = _json_safe(span.attrs)
        if span.trace_id is not None:
            # Request correlation: Perfetto queries group a request's spans
            # across threads by this arg.
            args.setdefault("trace_id", span.trace_id)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": _ts_us(tracer, span.start_ns),
                "dur": max(0.0, span.duration_ns / 1000.0),
                "pid": _PID,
                "tid": tids.get(span.thread_id, 0),
                "args": args,
            }
        )
    for event in tracer.events:
        events.append(
            {
                "name": event.name,
                "cat": event.name.split(".", 1)[0],
                "ph": "i",
                "ts": _ts_us(tracer, event.ts_ns),
                "pid": _PID,
                "tid": tids.get(event.thread_id, 0),
                "s": "t",
                "args": _json_safe(event.attrs),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped": tracer.dropped},
    }


def write_chrome_trace(tracer: Tracer, path: str | Path,
                       process_name: str = "repro") -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer, process_name), indent=1))
    return path


def _json_safe(attrs: dict[str, Any]) -> dict[str, Any]:
    safe: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        else:
            safe[key] = repr(value)
    return safe


# ---------------------------------------------------------------------------
# Human-readable tree
# ---------------------------------------------------------------------------


def render_tree(tracer: Tracer | None, min_ms: float = 0.0) -> str:
    """Indented wall-clock tree of the tracer's completed spans.

    Spans cheaper than ``min_ms`` are elided (their time still shows in the
    parent).  Children print in start order.  ``tracer=None`` degrades to
    the empty string.
    """
    if tracer is None:
        return ""
    spans = sorted(tracer.finished(), key=lambda s: (s.start_ns, s.span_id))
    by_parent: dict[int | None, list[Span]] = {}
    known = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        by_parent.setdefault(parent, []).append(span)

    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        if span.duration_ms < min_ms:
            return
        attrs = ""
        if span.attrs:
            inner = ", ".join(
                f"{key}={value}" for key, value in sorted(span.attrs.items())
            )
            attrs = f"  ({inner})"
        lines.append(
            f"{'  ' * depth}{span.name}  {span.duration_ms:.3f}ms{attrs}"
        )
        for child in by_parent.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in by_parent.get(None, ()):
        walk(root, 0)
    if tracer.dropped:
        lines.append(f"({tracer.dropped} spans/events dropped at cap)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Run summary
# ---------------------------------------------------------------------------


def empty_run_summary() -> dict[str, Any]:
    """The documented degenerate run summary: no spans, events, or metrics.

    This is exactly what :func:`run_summary` returns when called with no
    tracer and no registry — the shape is pinned so callers (CI scripts,
    the bench pipeline) can rely on every key existing even when telemetry
    was never enabled::

        {"schema": "repro.bench/1", "spans": {}, "events": {},
         "metrics": {}, "dropped": 0}
    """
    return {
        "schema": BENCH_SCHEMA,
        "spans": {},
        "events": {},
        "metrics": {},
        "dropped": 0,
    }


def run_summary(tracer: Tracer | None = None,
                registry: MetricsRegistry | None = None) -> dict[str, Any]:
    """Stable machine-readable summary of one run.

    Span rollups are grouped by span name — count, total/mean wall — so the
    summary's size is bounded by the taxonomy, not the workload.

    Degrades gracefully rather than reaching for implicit globals: with
    ``tracer=None`` the span/event sections are empty, with
    ``registry=None`` the metrics section is empty, and with neither the
    result is exactly :func:`empty_run_summary` — callers that want the
    ambient tracer must pass ``current_tracer()`` explicitly.
    """
    spans_by_name: dict[str, dict[str, Any]] = {}
    events_by_name: dict[str, int] = {}
    dropped = 0
    if tracer is not None:
        for span in tracer.finished():
            entry = spans_by_name.setdefault(
                span.name, {"count": 0, "total_ms": 0.0}
            )
            entry["count"] += 1
            entry["total_ms"] += span.duration_ms
        for entry in spans_by_name.values():
            entry["total_ms"] = round(entry["total_ms"], 3)
            entry["mean_ms"] = round(entry["total_ms"] / entry["count"], 3)
        for event in tracer.events:
            events_by_name[event.name] = events_by_name.get(event.name, 0) + 1
        dropped = tracer.dropped
    return {
        "schema": BENCH_SCHEMA,
        "spans": {name: spans_by_name[name] for name in sorted(spans_by_name)},
        "events": {name: events_by_name[name]
                   for name in sorted(events_by_name)},
        "metrics": registry.snapshot() if registry is not None else {},
        "dropped": dropped,
    }


# ---------------------------------------------------------------------------
# Schema validation (tests + CI)
# ---------------------------------------------------------------------------


def validate_chrome_trace(obj: Any) -> list[dict[str, Any]]:
    """Check an object against the Chrome trace_event object format.

    Returns the event list on success; raises :class:`ObservabilityError`
    naming the first offending event otherwise.
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ObservabilityError(
            "chrome trace must be an object with a 'traceEvents' list"
        )
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise ObservabilityError("'traceEvents' must be a list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ObservabilityError(f"traceEvents[{index}] is not an object")
        for key in ("name", "ph", "pid"):
            if key not in event:
                raise ObservabilityError(
                    f"traceEvents[{index}] missing required key {key!r}"
                )
        phase = event["ph"]
        if phase not in ("X", "i", "M", "B", "E", "C"):
            raise ObservabilityError(
                f"traceEvents[{index}] has unsupported phase {phase!r}"
            )
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ObservabilityError(
                        f"traceEvents[{index}] ({event['name']!r}) needs "
                        f"non-negative numeric {key!r}"
                    )
        if "args" in event and not isinstance(event["args"], dict):
            raise ObservabilityError(
                f"traceEvents[{index}] 'args' must be an object"
            )
    return events
