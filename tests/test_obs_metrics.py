"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    declarations,
    declare,
    global_registry,
)


class TestCounter:
    def test_inc_by_label(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2, label=7)
        counter.inc(label=7)
        assert counter.value() == 1
        assert counter.value(7) == 3
        assert counter.value("missing") == 0
        assert counter.total() == 4

    def test_values_dict_is_shared_storage(self):
        # EngineStats depends on this: the exposed dict IS the storage, so a
        # view holding it sees updates and reset in place.
        counter = Counter("c")
        view = counter.values
        counter.inc(label=1)
        assert view == {1: 1}
        counter.reset()
        assert view == {}
        assert counter.values is view

    def test_snapshot_sorted_and_json_ready(self):
        counter = Counter("c")
        counter.inc(label="b")
        counter.inc(label="a")
        counter.inc(5)
        snap = counter.snapshot()
        assert snap == {
            "kind": "counter",
            "total": 7,
            "by_label": {"_total": 5, "a": 1, "b": 1},
        }


    def test_snapshot_keys_sorted_and_later_label_wins(self):
        # Labels 1 and "1" render to one key; the later-inserted keeps it.
        for metric, update in ((Counter("c"), "inc"), (Gauge("g"), "set")):
            getattr(metric, update)(2, label="b")
            getattr(metric, update)(3, label=1)
            getattr(metric, update)(4, label="1")
            getattr(metric, update)(5, label=None)
            by_label = metric.snapshot()["by_label"]
            assert list(by_label.items()) == [("1", 4), ("_total", 5), ("b", 2)]
            assert metric.by_label() == {"b": 2, "1": 4, "_total": 5}


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3.0, label="x")
        gauge.set(5.0, label="x")
        assert gauge.value("x") == 5.0
        assert gauge.value("other") == 0.0
        assert gauge.snapshot()["by_label"] == {"x": 5.0}


class TestHistogram:
    def test_by_label_is_count_and_sum(self):
        hist = Histogram("h", buckets=[1.0])
        hist.observe(0.5, label="a")
        hist.observe(3.0, label="a")
        hist.observe(7.0)
        assert hist.by_label() == {"a": (2, 3.5), "_total": (1, 7.0)}

    def test_bucketing_and_stats(self):
        hist = Histogram("h", buckets=[1.0, 10.0])
        for value in (0.5, 1.0, 2.0, 100.0):
            hist.observe(value)
        assert hist.count() == 4
        assert hist.mean() == pytest.approx(25.875)
        snap = hist.snapshot()["by_label"]["_total"]
        assert snap["min"] == 0.5 and snap["max"] == 100.0
        # 0.5 and 1.0 land at or under the 1.0 bound; 2.0 under 10.0;
        # 100.0 overflows.
        assert snap["buckets"] == {"1.0": 2, "10.0": 1, "+inf": 1}

    def test_bucket_edge_values_are_inclusive(self):
        # Observations exactly on a bucket bound land IN that bucket
        # (upper bounds are inclusive, Prometheus-style); the next float
        # up overflows to the following bucket.
        hist = Histogram("h", buckets=[1.0, 10.0, 100.0])
        for value in (1.0, 10.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()["by_label"]["_total"]
        assert snap["buckets"] == {"1.0": 1, "10.0": 1, "100.0": 1,
                                   "+inf": 0}
        import math

        hist.observe(math.nextafter(100.0, math.inf))
        snap = hist.snapshot()["by_label"]["_total"]
        assert snap["buckets"]["+inf"] == 1
        assert snap["max"] > 100.0

    def test_mean_without_observations_raises(self):
        hist = Histogram("h", buckets=[1.0])
        with pytest.raises(ObservabilityError):
            hist.mean()

    def test_empty_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=[])


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("test.reg.fires")
        second = registry.counter("test.reg.fires")
        assert first is second
        assert "test.reg.fires" in registry
        assert registry.get("test.reg.fires") is first

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("test.reg.conflict")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("test.reg.conflict")

    def test_cross_registry_conflict_raises_via_declarations(self):
        MetricsRegistry().counter("test.reg.crossconflict")
        with pytest.raises(ObservabilityError, match="declared as both"):
            MetricsRegistry().histogram("test.reg.crossconflict")

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("test.reg.reset")
        counter.inc(3)
        registry.reset()
        assert registry.counter("test.reg.reset") is counter
        assert counter.total() == 0

    def test_snapshot_stable_order(self):
        registry = MetricsRegistry()
        registry.counter("test.reg.snap.b").inc()
        registry.counter("test.reg.snap.a").inc(2)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["test.reg.snap.a"]["total"] == 2


class TestDeclarations:
    def test_redeclare_same_kind_ok(self):
        declare("test.decl.stable", "counter")
        declare("test.decl.stable", "counter")
        assert declarations()["test.decl.stable"] == "counter"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown metric kind"):
            declare("test.decl.bogus", "timer")

    def test_declarations_returns_copy(self):
        table = declarations()
        table["test.decl.mutated"] = "counter"
        assert "test.decl.mutated" not in declarations()

    def test_engine_taxonomy_declared_after_use(self):
        # Creating an EngineStats registers the engine counters process-wide.
        from repro.dataflow.engine import EngineStats

        EngineStats()
        table = declarations()
        for name in ("engine.box.fires", "engine.cache.hits",
                     "engine.cache.misses"):
            assert table[name] == "counter"


class TestRemoveLabel:
    """The session-cardinality fix: pruning a label must not make any
    counter-like total go backwards (MetricsRecorder derives deltas/rates
    from totals), so counters and histograms fold into the aggregate."""

    def test_counter_folds_removed_series_into_aggregate(self):
        counter = Counter("c")
        counter.inc(3)
        counter.inc(5, label="sid-1")
        counter.inc(2, label="sid-2")
        assert counter.remove_label("sid-1") is True
        assert "sid-1" not in counter.values
        assert counter.value() == 8  # 3 + folded 5
        assert counter.value("sid-2") == 2
        assert counter.total() == 10  # monotone across the prune
        assert counter.remove_label("sid-1") is False

    def test_counter_remove_unlabeled_series_discards(self):
        counter = Counter("c")
        counter.inc(4)
        assert counter.remove_label(None) is True
        assert counter.total() == 0

    def test_gauge_drop_is_plain_removal(self):
        gauge = Gauge("g")
        gauge.set(1.0)
        gauge.set(9.0, label="sid-1")
        assert gauge.remove_label("sid-1") is True
        # Last-write-wins semantics: folding a dead gauge into the
        # aggregate would fabricate a reading, so the series just goes.
        assert gauge.value() == 1.0
        assert "sid-1" not in gauge.snapshot()["by_label"]
        assert gauge.remove_label("missing") is False

    def test_histogram_folds_buckets_and_stats(self):
        hist = Histogram("h", buckets=[1.0, 10.0])
        hist.observe(0.5)
        hist.observe(5.0, label="sid-1")
        hist.observe(200.0, label="sid-1")
        assert hist.remove_label("sid-1") is True
        assert hist.count() == 3
        snap = hist.snapshot()["by_label"]
        assert list(snap) == ["_total"]
        agg = snap["_total"]
        assert agg["buckets"] == {"1.0": 1, "10.0": 1, "+inf": 1}
        assert agg["min"] == 0.5 and agg["max"] == 200.0
        assert agg["sum"] == pytest.approx(205.5)

    def test_histogram_fold_into_empty_aggregate(self):
        hist = Histogram("h", buckets=[1.0])
        hist.observe(0.5, label="sid-1")
        assert hist.remove_label("sid-1") is True
        assert hist.count() == 1
        assert hist.mean() == pytest.approx(0.5)

    def test_registry_prune_label_sweeps_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("test.prune.cmds").inc(label="sid-9")
        registry.histogram("test.prune.ms",
                           buckets=[10.0]).observe(3.0, label="sid-9")
        registry.gauge("test.prune.depth").set(2.0, label="sid-9")
        registry.counter("test.prune.other").inc(label="elsewhere")
        assert registry.prune_label("sid-9") == 3
        assert registry.prune_label("sid-9") == 0
        assert registry.counter("test.prune.cmds").total() == 1
        assert "sid-9" not in registry.counter("test.prune.cmds").values

    def test_recorder_prune_label_clears_series_and_derived_state(self):
        from repro.obs import MetricsRecorder

        registry = MetricsRegistry()
        registry.counter("test.prune.rec").inc(5, label="sid-3")
        recorder = MetricsRecorder(registry=registry)
        recorder.sample()
        assert recorder.series("test.prune.rec|sid-3") is not None
        removed = recorder.prune_label("sid-3")
        assert removed >= 1
        assert recorder.series("test.prune.rec|sid-3") is None
        # After the registry-side prune, the next sample derives from the
        # folded aggregate without a negative delta blowing up.
        registry.prune_label("sid-3")
        recorder.sample()
        assert recorder.series("test.prune.rec|sid-3") is None


def test_global_registry_is_a_singleton():
    assert global_registry() is global_registry()
    assert isinstance(global_registry(), MetricsRegistry)
