"""Metrics: counters, gauges, fixed-bucket histograms with label attribution.

One :class:`MetricsRegistry` holds every metric for a scope (an engine, a
render, a benchmark run).  Each metric is identified by a dotted name and a
kind; re-requesting a name with a different kind is a hard error — that is
the conflict CI guards against — and the process-wide declaration table
(:func:`declare` / :func:`check_declarations`) catches the same clash across
modules that never share a registry.

Attribution is by label: every ``inc``/``set``/``observe`` takes an optional
hashable label (box id, plan node id, viewer pass name), so one metric holds
the whole per-box/per-node breakdown — this is the model that supersedes the
scattered ad-hoc counter dicts.  The per-label dicts are exposed directly
(``Counter.values``), which lets :class:`~repro.dataflow.engine.EngineStats`
stay a thin, dict-compatible view with zero copying.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Hashable, Iterable

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "declare",
    "declarations",
    "check_declarations",
    "global_registry",
]


class _Metric:
    kind = "metric"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        # Updates must be lock-protected: server pool workers increment
        # counters concurrently, and ``dict.get`` + assignment is not atomic.
        self._update_lock = threading.Lock()

    def reset(self) -> None:
        raise NotImplementedError

    def remove_label(self, label: Hashable) -> bool:
        """Forget one label's series; returns whether anything was removed.

        The cure for per-session label cardinality: a server that labels
        ``inc(label=sid)`` prunes the session's series when it dies, so
        exposition output stops growing without bound.  Counters and
        histograms *fold* the removed series into the unlabeled aggregate
        (``None``) rather than discarding it — totals stay monotone, so
        rate/delta consumers (:class:`~repro.obs.timeseries.MetricsRecorder`)
        never see a counter go backwards.  Gauges are last-write-wins and
        simply drop the series.
        """
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def _label_key(label: Hashable | None) -> str:
    """Stable JSON-safe rendering of a label for snapshots."""
    if label is None:
        return "_total"
    return str(label)


def _by_key(values: dict[Hashable, Any]) -> dict[str, Any]:
    """``values`` keyed by :func:`_label_key`, in insertion order; of two
    labels with the same key, the later-inserted one wins.  The dict is
    copied first, so a concurrent update cannot change it mid-read."""
    return {_label_key(label): value for label, value in list(values.items())}


class Counter(_Metric):
    """A monotonically increasing count, broken down by label."""

    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        #: label -> count; exposed raw so views (EngineStats) share storage.
        self.values: dict[Hashable, int | float] = {}

    def inc(self, amount: int | float = 1, label: Hashable = None) -> None:
        with self._update_lock:
            self.values[label] = self.values.get(label, 0) + amount

    def value(self, label: Hashable = None) -> int | float:
        return self.values.get(label, 0)

    def total(self) -> int | float:
        return sum(self.values.values())

    def reset(self) -> None:
        with self._update_lock:
            self.values.clear()

    def remove_label(self, label: Hashable) -> bool:
        with self._update_lock:
            removed = self.values.pop(label, None)
            if removed is None:
                return False
            if label is not None:
                # Fold into the aggregate so total() never regresses.
                self.values[None] = self.values.get(None, 0) + removed
            return True

    def by_label(self) -> dict[str, int | float]:
        """Each label's count, keyed as in :meth:`snapshot` but unsorted."""
        return _by_key(self.values)

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "total": self.total(),
            "by_label": dict(sorted(self.by_label().items())),
        }


class Gauge(_Metric):
    """A last-write-wins value per label (buffer sizes, cache entries)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self.values: dict[Hashable, float] = {}

    def set(self, value: float, label: Hashable = None) -> None:
        with self._update_lock:
            self.values[label] = value

    def value(self, label: Hashable = None) -> float:
        return self.values.get(label, 0.0)

    def reset(self) -> None:
        with self._update_lock:
            self.values.clear()

    def remove_label(self, label: Hashable) -> bool:
        with self._update_lock:
            return self.values.pop(label, None) is not None

    def by_label(self) -> dict[str, float]:
        """Each label's value, keyed as in :meth:`snapshot` but unsorted."""
        return _by_key(self.values)

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "by_label": dict(sorted(self.by_label().items())),
        }


class Histogram(_Metric):
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``buckets`` are the finite upper bounds; an implicit +inf bucket catches
    the rest.  Per label it tracks bucket counts plus count/sum/min/max, so
    snapshots can report means without storing observations.
    """

    kind = "histogram"

    DEFAULT_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0)

    def __init__(self, name: str, description: str = "",
                 buckets: Iterable[float] | None = None):
        super().__init__(name, description)
        bounds = tuple(sorted(buckets if buckets is not None
                              else self.DEFAULT_BUCKETS))
        if not bounds:
            raise ObservabilityError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        self.bounds = bounds
        # label -> [bucket counts..., overflow]
        self._counts: dict[Hashable, list[int]] = {}
        self._stats: dict[Hashable, list[float]] = {}  # count, sum, min, max

    def observe(self, value: float, label: Hashable = None) -> None:
        with self._update_lock:
            counts = self._counts.get(label)
            if counts is None:
                counts = self._counts[label] = [0] * (len(self.bounds) + 1)
                self._stats[label] = [0, 0.0, value, value]
            # Inclusive upper bounds: an observation equal to a bound counts
            # in that bound's bucket.
            counts[bisect_left(self.bounds, value)] += 1
            stats = self._stats[label]
            stats[0] += 1
            stats[1] += value
            if value < stats[2]:
                stats[2] = value
            if value > stats[3]:
                stats[3] = value

    def count(self, label: Hashable = None) -> int:
        stats = self._stats.get(label)
        return int(stats[0]) if stats else 0

    def by_label(self) -> dict[str, tuple[int, float]]:
        """Each label's ``(count, sum)``, keyed as in :meth:`snapshot` but
        unsorted: what means and rates need, without the buckets."""
        return _by_key({label: (int(stats[0]), stats[1])
                        for label, stats in list(self._stats.items())})

    def mean(self, label: Hashable = None) -> float:
        stats = self._stats.get(label)
        if not stats or not stats[0]:
            raise ObservabilityError(
                f"histogram {self.name!r} has no observations for {label!r}"
            )
        return stats[1] / stats[0]

    def reset(self) -> None:
        with self._update_lock:
            self._counts.clear()
            self._stats.clear()

    def remove_label(self, label: Hashable) -> bool:
        with self._update_lock:
            counts = self._counts.pop(label, None)
            stats = self._stats.pop(label, None)
            if counts is None:
                return False
            if label is not None and stats is not None:
                # Fold bucket counts and count/sum/min/max into the
                # aggregate series so distribution totals stay monotone.
                base = self._counts.get(None)
                if base is None:
                    self._counts[None] = list(counts)
                    self._stats[None] = list(stats)
                else:
                    for i, c in enumerate(counts):
                        base[i] += c
                    base_stats = self._stats[None]
                    base_stats[0] += stats[0]
                    base_stats[1] += stats[1]
                    base_stats[2] = min(base_stats[2], stats[2])
                    base_stats[3] = max(base_stats[3], stats[3])
            return True

    def snapshot(self) -> dict[str, Any]:
        by_label: dict[str, Any] = {}
        for label in sorted(self._counts, key=_label_key):
            count, total, low, high = self._stats[label]
            by_label[_label_key(label)] = {
                "count": int(count),
                "sum": total,
                "min": low,
                "max": high,
                "buckets": dict(
                    zip([str(b) for b in self.bounds] + ["+inf"],
                        self._counts[label])
                ),
            }
        return {"kind": self.kind, "bounds": list(self.bounds),
                "by_label": by_label}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create metric store for one scope.

    ``counter``/``gauge``/``histogram`` are idempotent for a matching kind
    and raise :class:`ObservabilityError` on a kind conflict.  The snapshot
    is a stable, sorted, JSON-ready dict — the machine-readable run summary.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, description: str, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObservabilityError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, cannot re-register as "
                        f"{cls.kind}"
                    )
                return existing
            declare(name, cls.kind)
            metric = cls(name, description, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get(Gauge, name, description)

    def histogram(self, name: str, description: str = "",
                  buckets: Iterable[float] | None = None) -> Histogram:
        return self._get(Histogram, name, description, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def metrics(self) -> list[_Metric]:
        """Every registered metric, in registration order."""
        return list(self._metrics.values())

    def reset(self) -> None:
        """Zero every metric, keeping registrations."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()

    def prune_label(self, label: Hashable) -> int:
        """Remove ``label``'s series from every metric; returns how many
        metrics held it.

        The registry-wide half of the session-cardinality fix: dropping a
        server session prunes its ``server.commands{label=sid}``-style
        series in one call instead of leaking one family row per session
        ever hosted.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return sum(1 for metric in metrics if metric.remove_label(label))

    def snapshot(self) -> dict[str, Any]:
        """Stable machine-readable dump: {name: {kind, ...}} sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


# ---------------------------------------------------------------------------
# Process-wide declaration table (cross-registry conflict detection)
# ---------------------------------------------------------------------------

_DECLARED: dict[str, str] = {}
_DECLARED_LOCK = threading.Lock()


def declare(name: str, kind: str) -> None:
    """Record that ``name`` is a metric of ``kind`` anywhere in the process.

    Raises :class:`ObservabilityError` when the same name was previously
    declared with a different kind — even by a different registry.  This is
    the invariant the CI telemetry job enforces.
    """
    if kind not in _KINDS:
        raise ObservabilityError(
            f"unknown metric kind {kind!r}; known: {', '.join(sorted(_KINDS))}"
        )
    with _DECLARED_LOCK:
        existing = _DECLARED.get(name)
        if existing is not None and existing != kind:
            raise ObservabilityError(
                f"metric {name!r} declared as both {existing!r} and {kind!r}"
            )
        _DECLARED[name] = kind


def declarations() -> dict[str, str]:
    """A copy of the process-wide name → kind declaration table."""
    with _DECLARED_LOCK:
        return dict(_DECLARED)


def check_declarations() -> list[str]:
    """Re-validate the declaration table; returns sorted metric names.

    The table cannot hold a conflict (``declare`` raises on insert), so a
    clean return means every metric name observed by this process so far has
    exactly one kind.
    """
    with _DECLARED_LOCK:
        return sorted(_DECLARED)


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The default process-wide registry (render/scene counters land here)."""
    return _GLOBAL_REGISTRY
