"""Time-series telemetry: ring-buffer sampling of the metrics registry.

PR 3/PR 4 left the process with rich *point-in-time* telemetry — a
:class:`~repro.obs.metrics.MetricsRegistry` full of counters and a
:class:`~repro.obs.trace.Tracer` full of spans — but no history.  This
module adds the time axis:

* :class:`TimeSeries` — a fixed-capacity ring buffer of ``(t, value)``
  samples.  Appending past capacity overwrites the oldest sample; the
  series always yields its retained points oldest-first.
* :class:`MetricsRecorder` — samples a registry (and optionally a tracer's
  span rollups) into one :class:`TimeSeries` per metric/label, deriving
  per-interval **deltas** and **rates** for counters so cache hit-rate and
  render throughput can be watched evolving across a session.  Sampling is
  cheap (a lock-guarded walk of each metric's values) and safe to run from a
  background thread (:meth:`MetricsRecorder.start`) while engines on
  other threads fire concurrently.

Exports: :meth:`MetricsRecorder.snapshot` is a stable JSON-ready dict
(schema ``repro.timeseries/1``, checked by :func:`validate_timeseries`) and
:meth:`MetricsRecorder.prometheus_text` is the Prometheus text exposition
format (``# TYPE`` comments + ``name{label="..."} value`` lines) so the
recorder can back a ``/metrics`` endpoint without new dependencies.

The dashboard layer (``repro.obs.dashboard``) loads these samples into
ordinary DBMS tables and renders them with a Tioga-2 program — the system
visualizing itself.  See ``docs/OBSERVABILITY.md`` and
``docs/DASHBOARD.md``.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import Any, Iterator

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.trace import Tracer

__all__ = [
    "TimeSeries",
    "MetricsRecorder",
    "TIMESERIES_SCHEMA",
    "validate_timeseries",
]

TIMESERIES_SCHEMA = "repro.timeseries/1"
"""Schema tag stamped into :meth:`MetricsRecorder.snapshot` exports."""


class TimeSeries:
    """A fixed-capacity ring buffer of ``(t, value)`` samples.

    Appending beyond ``capacity`` overwrites the oldest sample — the series
    retains a sliding window, never grows, and never reallocates after the
    first wrap.  Iteration and :meth:`points` always yield oldest-first.

    The ring is a ``deque(maxlen=capacity)`` — eviction happens in C, which
    keeps :meth:`append` cheap enough for the recorder to touch a hundred
    series per sample inside its overhead budget.
    """

    __slots__ = ("name", "capacity", "_ring", "total_appends")

    def __init__(self, name: str, capacity: int = 240):
        if capacity < 1:
            raise ObservabilityError(
                f"time series {name!r} needs capacity >= 1, got {capacity}"
            )
        self.name = name
        self.capacity = capacity
        self._ring: deque[tuple[float, float]] = deque(maxlen=capacity)
        #: lifetime count, including samples that have been overwritten
        self.total_appends = 0

    def append(self, t: float, value: float) -> None:
        self._ring.append((t, value))
        self.total_appends += 1

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Samples lost to wraparound (lifetime appends minus retained)."""
        return self.total_appends - len(self._ring)

    def points(self) -> list[tuple[float, float]]:
        """Retained ``(t, value)`` pairs, oldest first."""
        return list(self._ring)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.points())

    def times(self) -> list[float]:
        return [t for t, _ in self._ring]

    def values(self) -> list[float]:
        return [v for _, v in self._ring]

    def latest(self) -> tuple[float, float] | None:
        if not self._ring:
            return None
        return self._ring[-1]

    def __repr__(self) -> str:
        return (f"TimeSeries({self.name!r}, {len(self._ring)}/"
                f"{self.capacity} samples)")


def _flatten_metric(metric: Counter | Gauge | Histogram) -> dict[str, float]:
    """One metric's current values → {series key: numeric value}.

    Counters contribute their per-label values plus a ``_total``; gauges
    their per-label values; histograms their per-label count/sum/mean.
    Labels are keyed as in the metric's snapshot (``by_label``), which
    skips the snapshot's sorting and histogram buckets.
    """
    name = metric.name
    out: dict[str, float] = {}
    if metric.kind == "counter":
        out[f"{name}|_total"] = float(metric.total())
        for label, value in metric.by_label().items():
            if label != "_total":
                out[f"{name}|{label}"] = float(value)
    elif metric.kind == "gauge":
        for label, value in metric.by_label().items():
            out[f"{name}|{label}"] = float(value)
    elif metric.kind == "histogram":
        for label, (count, total) in metric.by_label().items():
            out[f"{name}|{label}|count"] = float(count)
            out[f"{name}|{label}|sum"] = float(total)
            if count:
                out[f"{name}|{label}|mean"] = total / count
    return out


class _Lane:
    """The series one key feeds; counters also feed a delta series and,
    from the second sample on, a rate series, from their previous value.
    Holding them saves the recorder two series lookups per counter key."""

    __slots__ = ("series", "delta", "rate", "previous")

    def __init__(self, series: TimeSeries, delta: TimeSeries | None):
        self.series = series
        self.delta = delta
        self.rate: TimeSeries | None = None
        self.previous: float | None = None


class MetricsRecorder:
    """Samples a :class:`MetricsRegistry` into ring-buffer time series.

    Each :meth:`sample` walks the registry's metrics and appends the current
    value of every metric/label to its series; for **counters** it also
    derives a ``delta`` series (increase since the previous sample) and a
    ``rate`` series (delta per second of wall time between samples), which is
    what "cache hit-rate over time" and "rows/sec per operator" are made of.

    Series keys are ``metric|label`` (``|_total`` for the counter aggregate,
    ``|label|count``/``sum``/``mean`` for histograms); derived counter series
    append ``|delta`` / ``|rate``.

    All public methods are thread-safe: a recorder started with
    :meth:`start` samples from a daemon thread while engines on other
    threads increment the same registry, and the underlying metrics guard their own
    updates, so a sample never sees a torn per-label write.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None, capacity: int = 240,
                 clock=perf_counter):
        self.registry = registry if registry is not None else global_registry()
        self.tracer = tracer
        self.capacity = capacity
        self._clock = clock
        self._series: dict[str, TimeSeries] = {}
        self._kinds: dict[str, str] = {}  # metric name -> kind, as sampled
        #: metric|label key -> the series it feeds and its counter state
        self._lanes: dict[str, _Lane] = {}
        self._prev_t: float | None = None
        self._origin: float | None = None
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.samples_taken = 0

    # -- sampling ---------------------------------------------------------

    def _get_series(self, key: str) -> TimeSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(key, self.capacity)
        return series

    def sample(self, t: float | None = None) -> float:
        """Take one sample of every metric; returns the sample time.

        ``t`` is seconds on the recorder's clock (defaults to now); the
        first sample establishes the origin, so exported times start near 0.
        """
        now = self._clock() if t is None else t
        metrics = self.registry.metrics()
        with self._lock:
            if self._origin is None:
                self._origin = now
            rel = now - self._origin
            elapsed = None if self._prev_t is None else rel - self._prev_t
            lanes = self._lanes
            for metric in metrics:
                kind = metric.kind
                self._kinds[metric.name] = kind
                is_counter = kind == "counter"
                for key, value in _flatten_metric(metric).items():
                    lane = lanes.get(key)
                    if lane is None:
                        lane = lanes[key] = _Lane(
                            self._get_series(key),
                            self._get_series(f"{key}|delta") if is_counter
                            else None)
                    lane.series.append(rel, value)
                    if lane.delta is None:
                        continue
                    previous = lane.previous
                    delta = value - previous if previous is not None else value
                    lane.previous = value
                    lane.delta.append(rel, delta)
                    if elapsed is not None and elapsed > 0:
                        if lane.rate is None:
                            lane.rate = self._get_series(f"{key}|rate")
                        lane.rate.append(rel, delta / elapsed)
            if self.tracer is not None:
                for name, roll in _span_rollup(self.tracer).items():
                    self._get_series(f"span.{name}|count").append(
                        rel, roll["count"]
                    )
                    self._get_series(f"span.{name}|total_ms").append(
                        rel, roll["total_ms"]
                    )
            self._prev_t = rel
            self.samples_taken += 1
        return rel

    # -- background sampling ----------------------------------------------

    def start(self, interval_s: float = 0.05) -> "MetricsRecorder":
        """Sample every ``interval_s`` seconds from a daemon thread."""
        if self._thread is not None:
            raise ObservabilityError("recorder already started")
        if interval_s <= 0:
            raise ObservabilityError(
                f"sampling interval must be positive, got {interval_s}"
            )
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                self.sample()

        self._thread = threading.Thread(
            target=loop, name="repro-metrics-recorder", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        """Stop the background thread (no-op if never started)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        if final_sample:
            self.sample()

    def __enter__(self) -> "MetricsRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop(final_sample=exc_type is None)
        return False

    def prune_label(self, label: Any) -> int:
        """Drop every retained series (and derived-series state) for a label.

        The recorder-side half of the session-cardinality fix: series keys
        are ``metric|label[|qualifier]``, so pruning matches on the label
        segment and also drops the key's lane (its counter delta/rate
        state) so a recycled label starts from a clean slate.  Returns the
        number of series removed.
        """
        wanted = str(label)

        def matches(key: str) -> bool:
            parts = key.split("|")
            return len(parts) > 1 and parts[1] == wanted

        with self._lock:
            doomed = [key for key in self._series if matches(key)]
            for key in doomed:
                del self._series[key]
            for key in [key for key in self._lanes if matches(key)]:
                del self._lanes[key]
        return len(doomed)

    # -- access -----------------------------------------------------------

    def series(self, key: str) -> TimeSeries | None:
        with self._lock:
            return self._series.get(key)

    def series_keys(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def latest(self, key: str) -> float | None:
        series = self.series(key)
        if series is None:
            return None
        point = series.latest()
        return point[1] if point is not None else None

    def rate(self, metric: str, label: str = "_total") -> TimeSeries | None:
        """The derived per-second rate series of a counter."""
        return self.series(f"{metric}|{label}|rate")

    def delta(self, metric: str, label: str = "_total") -> TimeSeries | None:
        """The derived per-interval increase series of a counter."""
        return self.series(f"{metric}|{label}|delta")

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Stable JSON-ready dump of every retained series.

        Shape (schema ``repro.timeseries/1``)::

            {"schema": "repro.timeseries/1",
             "samples": <samples taken>,
             "capacity": <ring capacity>,
             "series": {key: {"points": [[t, v], ...], "dropped": n}}}
        """
        with self._lock:
            return {
                "schema": TIMESERIES_SCHEMA,
                "samples": self.samples_taken,
                "capacity": self.capacity,
                "series": {
                    key: {
                        "points": [[round(t, 6), value]
                                   for t, value in series.points()],
                        "dropped": series.dropped,
                    }
                    for key, series in sorted(self._series.items())
                },
            }

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the latest sample of every series.

        Counters expose ``name_total``; derived delta/rate series and span
        rollups expose gauges.  Metric names are sanitized to the
        ``[a-zA-Z_:][a-zA-Z0-9_:]*`` charset; labels ride in ``{label="..."}``.
        """
        # family name -> (kind, [(label, value), ...]); families are emitted
        # contiguously under one # TYPE line, as the exposition format
        # requires.
        families: dict[str, tuple[str, list[tuple[str, float]]]] = {}
        with self._lock:
            for key in sorted(self._series):
                point = self._series[key].latest()
                if point is None:
                    continue
                parts = key.split("|")
                metric, qualifiers = parts[0], parts[1:]
                kind = self._kinds.get(metric)
                label = qualifiers[0] if qualifiers else "_total"
                suffix = "_" + "_".join(qualifiers[1:]) if len(qualifiers) > 1 \
                    else ""
                if kind == "counter" and not suffix:
                    prom_name = _prom_name(metric) + "_total"
                    prom_kind = "counter"
                else:
                    prom_name = _prom_name(metric + suffix)
                    prom_kind = "gauge"
                family = families.setdefault(prom_name, (prom_kind, []))
                family[1].append((label, point[1]))
        lines: list[str] = []
        for prom_name in sorted(families):
            prom_kind, samples = families[prom_name]
            lines.append(f"# TYPE {prom_name} {prom_kind}")
            for label, value in samples:
                rendered = repr(value) if value != int(value) else int(value)
                if label == "_total":
                    lines.append(f"{prom_name} {rendered}")
                else:
                    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
                    lines.append(
                        f'{prom_name}{{label="{escaped}"}} {rendered}'
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (f"MetricsRecorder({len(self._series)} series, "
                f"{self.samples_taken} samples)")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric/series key into a Prometheus metric name."""
    safe = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return safe or "_"


def _span_rollup(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Span name → {count, total_ms} for a tracer's completed spans."""
    rollup: dict[str, dict[str, float]] = {}
    for span in tracer.finished():
        entry = rollup.setdefault(span.name, {"count": 0, "total_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += span.duration_ms
    return rollup


def validate_timeseries(obj: Any) -> dict[str, Any]:
    """Check a :meth:`MetricsRecorder.snapshot` payload; returns it."""
    if not isinstance(obj, dict):
        raise ObservabilityError("timeseries snapshot must be an object")
    if obj.get("schema") != TIMESERIES_SCHEMA:
        raise ObservabilityError(
            f"timeseries schema must be {TIMESERIES_SCHEMA!r}, "
            f"got {obj.get('schema')!r}"
        )
    series = obj.get("series")
    if not isinstance(series, dict):
        raise ObservabilityError("timeseries snapshot needs a 'series' object")
    for key, entry in series.items():
        points = entry.get("points") if isinstance(entry, dict) else None
        if not isinstance(points, list):
            raise ObservabilityError(f"series {key!r} needs a 'points' list")
        for point in points:
            if (not isinstance(point, list) or len(point) != 2
                    or not all(isinstance(x, (int, float)) for x in point)):
                raise ObservabilityError(
                    f"series {key!r} points must be [t, value] pairs"
                )
    return obj
