"""Tests: the process-wide result cache and storage-epoch invalidation.

The cache's contract: a lookup may only hit while no table the plan *reads*
has been mutated since the entry was stored.  Entries stamped with a
per-table epoch dict (``table_epochs`` over the plan's ``plan_read_set``)
survive mutations of unrelated tables; entries stamped with the legacy
global-epoch int keep the conservative any-mutation-evicts semantics.
Entries pin their leaf source objects so the id()-based fingerprint keys
stay unambiguous.

The engine-level contract: ``Engine(cache=True)`` yields values identical
to an uncached engine (down to rendered pixels), shares results across
engines, reports hit/miss in EXPLAIN, and never serves rows from before a
table change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import scenarios
from repro.data.weather import build_weather_database
from repro.data.workloads import build_pairs_tables
from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.explain import explain, explain_data
from repro.dataflow.graph import Program
from repro.dbms import plan as P
from repro.dbms.catalog import Database
from repro.dbms.parser import parse_predicate
from repro.dbms.plan_rewrite import columnarize_plan
from repro.dbms.result_cache import (
    ResultCache,
    cache_enabled,
    plan_fingerprint,
    plan_read_set,
    result_cache,
    set_cache_enabled,
)
from repro.dbms.relation import (
    RowSet,
    Table,
    bump_storage_epoch,
    bump_table_epoch,
    storage_epoch,
    table_epoch,
    table_epochs,
)
from repro.dbms.tuples import Schema
from repro.dbms.update import ScriptedDialog, generic_update

NUMS = Schema([("n", "int"), ("label", "text")])


def num_rows(count: int) -> RowSet:
    return RowSet.from_dicts(
        NUMS, [{"n": i, "label": f"row{i}"} for i in range(count)]
    )


def plan_over(rows: RowSet) -> P.PlanNode:
    return P.RestrictNode(
        P.ScanNode(rows), parse_predicate("n % 2 == 0", rows.schema)
    )


def fresh_entry(cache: ResultCache, rows: RowSet):
    key, pins = plan_fingerprint(plan_over(rows))
    result = tuple(plan_over(rows).execute())
    cache.store(key, result, pins, storage_epoch())
    return key, result


class TestHitAndMiss:
    def test_store_then_lookup_round_trips(self):
        cache = ResultCache()
        rows = num_rows(40)
        key, result = fresh_entry(cache, rows)
        hit = cache.lookup(key)
        assert hit is not None
        assert hit[0] == result

    def test_unknown_key_misses(self):
        cache = ResultCache()
        assert cache.lookup(("nope",)) is None

    def test_counters_track_hits_and_misses(self):
        cache = ResultCache()
        rows = num_rows(10)
        before = cache.stats()
        key, __ = fresh_entry(cache, rows)
        cache.lookup(key)
        cache.lookup(("unknown",))
        after = cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1


class TestEpochInvalidation:
    def test_any_table_mutation_invalidates_everything(self):
        cache = ResultCache()
        key, __ = fresh_entry(cache, num_rows(20))
        unrelated = Table("Unrelated", Schema([("x", "int")]))
        unrelated.insert({"x": 1})
        assert cache.lookup(key) is None    # stale: epoch moved

    @pytest.mark.parametrize("mutate", [
        lambda t: t.insert({"x": 9}),
        lambda t: t.insert_many([{"x": 9}, {"x": 10}]),
        lambda t: t.delete_where(lambda row: row["x"] > 0),
        lambda t: t.update_where(lambda row: row["x"] == 1, {"x": 5}),
        lambda t: t.clear(),
    ])
    def test_every_mutator_bumps_the_epoch(self, mutate):
        table = Table("T", Schema([("x", "int")]))
        table.insert({"x": 1})
        before = storage_epoch()
        mutate(table)
        assert storage_epoch() > before

    def test_store_refused_if_epoch_moved_during_execution(self):
        # An update racing a plan execution must not publish stale rows
        # under a fresh-looking key.
        cache = ResultCache()
        rows = num_rows(20)
        key, pins = plan_fingerprint(plan_over(rows))
        epoch_before = storage_epoch()
        result = tuple(plan_over(rows).execute())
        bump_storage_epoch()    # the "concurrent" update
        cache.store(key, result, pins, epoch_before)
        assert cache.lookup(key) is None

    def test_snapshot_identity_renews_after_mutation(self):
        # After a mutation the table snapshot is a new object, so new plans
        # fingerprint to a *different* key — old entries cannot be confused
        # with post-update results even apart from the epoch check.
        table = Table("T", NUMS)
        table.insert_many(
            {"n": i, "label": str(i)} for i in range(5)
        )
        first = table.snapshot()
        assert table.snapshot() is first    # memoized while unchanged
        table.insert({"n": 99, "label": "new"})
        assert table.snapshot() is not first


class TestLimitsAndEviction:
    def test_lru_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        keys = []
        for count in (3, 4, 5):
            key, __ = fresh_entry(cache, num_rows(count))
            keys.append(key)
        assert cache.lookup(keys[0]) is None
        assert cache.lookup(keys[2]) is not None
        assert len(cache) == 2

    def test_lookup_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        first, __ = fresh_entry(cache, num_rows(3))
        second, __ = fresh_entry(cache, num_rows(4))
        cache.lookup(first)                      # first is now most recent
        third, __ = fresh_entry(cache, num_rows(5))
        assert cache.lookup(first) is not None
        assert cache.lookup(second) is None

    def test_oversized_results_not_stored(self):
        cache = ResultCache(max_rows=10)
        rows = num_rows(50)
        key, pins = plan_fingerprint(plan_over(rows))
        result = tuple(plan_over(rows).execute())
        cache.store(key, result, pins, storage_epoch())
        assert len(cache) == 0

    def test_clear_empties(self):
        cache = ResultCache()
        fresh_entry(cache, num_rows(5))
        cache.clear()
        assert len(cache) == 0


def named_table(name: str, count: int = 10) -> Table:
    table = Table(name, NUMS)
    table.insert_many(
        {"n": i, "label": f"{name}{i}"} for i in range(count)
    )
    return table


def named_plan(table: Table) -> P.PlanNode:
    return P.RestrictNode(
        P.ScanNode(table.snapshot(), name=table.name),
        parse_predicate("n % 2 == 0", table.schema),
    )


def table_entry(cache: ResultCache, table: Table):
    """Store a plan over ``table`` stamped with its per-table epoch dict."""
    node = named_plan(table)
    key, pins = plan_fingerprint(node)
    tables = plan_read_set(node)
    assert tables == frozenset({table.name})
    result = tuple(named_plan(table).execute())
    cache.store(key, result, pins, table_epochs(tables))
    return key, result


class TestPerTableEpochs:
    def test_read_set_of_named_scans(self):
        ta, tb = named_table("RSA"), named_table("RSB")
        union = P.UnionNode(
            P.ScanNode(ta.snapshot(), name=ta.name),
            P.ScanNode(tb.snapshot(), name=tb.name),
        )
        assert plan_read_set(union) == frozenset({"RSA", "RSB"})

    def test_unnamed_leaf_disables_the_read_set(self):
        # An anonymous RowSet scan can't be attributed to a table: the plan
        # falls back to the conservative global epoch.
        anonymous = P.ScanNode(num_rows(4))
        assert plan_read_set(anonymous) is None
        mixed = P.UnionNode(
            P.ScanNode(named_table("RSM").snapshot(), name="RSM"), anonymous)
        assert plan_read_set(mixed) is None

    def test_bump_table_epoch_is_per_table(self):
        before_x = table_epoch("EpochX")
        before_y = table_epoch("EpochY")
        assert bump_table_epoch("EpochX") == before_x + 1
        assert table_epochs({"EpochX", "EpochY"}) == {
            "EpochX": before_x + 1, "EpochY": before_y}

    def test_table_mutations_bump_both_epochs(self):
        table = named_table("EpochBoth")
        global_before = storage_epoch()
        per_table_before = table_epoch("EpochBoth")
        table.insert({"n": 99, "label": "new"})
        assert storage_epoch() > global_before
        assert table_epoch("EpochBoth") == per_table_before + 1

    def test_mutating_unrelated_table_keeps_entry(self):
        # The regression this feature exists for: a cached plan reading
        # only B must survive writes to A.
        cache = ResultCache()
        ta, tb = named_table("KeepA"), named_table("KeepB")
        key, result = table_entry(cache, tb)
        ta.insert({"n": 77, "label": "unrelated write"})
        hit = cache.lookup(key)
        assert hit is not None and hit[0] == result
        tb.insert({"n": 78, "label": "related write"})
        assert cache.lookup(key) is None

    def test_store_after_a_mutation_sweeps_stale_entries(self):
        # Entries a write obsoleted are never looked up again (the new
        # snapshot fingerprints differently); they must not keep their rows
        # alive until LRU order reaches them.
        cache = ResultCache()
        ta, tb = named_table("SweepA"), named_table("SweepB")
        table_entry(cache, ta)
        key_b, __ = table_entry(cache, tb)
        evictions = cache.stats()["evictions"]
        ta.insert({"n": 90, "label": "obsoletes A's entry"})
        assert len(cache) == 2
        key_a, __ = table_entry(cache, ta)     # the first store sweeps
        assert len(cache) == 2
        assert cache.stats()["evictions"] == evictions + 1
        assert cache.lookup(key_a) is not None
        assert cache.lookup(key_b) is not None

    def test_int_epoch_entries_keep_global_semantics(self):
        cache = ResultCache()
        key, __ = fresh_entry(cache, num_rows(10))     # int-stamped
        named_table("GlobalSem").insert({"n": 1, "label": "any write"})
        assert cache.lookup(key) is None

    def test_store_refused_if_read_table_moved_during_execution(self):
        cache = ResultCache()
        table = named_table("RaceT")
        node = named_plan(table)
        key, pins = plan_fingerprint(node)
        epochs = table_epochs(plan_read_set(node))
        result = tuple(named_plan(table).execute())
        table.insert({"n": 50, "label": "concurrent"})
        cache.store(key, result, pins, epochs)
        assert cache.lookup(key) is None

    def test_generic_update_evicts_only_its_table(self):
        # §8 acceptance: a screen-object update on A leaves cached plans
        # over B live.
        from repro.dbms.update import ScriptedDialog, generic_update

        cache = ResultCache()
        ta, tb = named_table("UpdA"), named_table("UpdB")
        key_b, __ = table_entry(cache, tb)
        row = next(iter(ta.snapshot()))
        outcome = generic_update(ta, row, ScriptedDialog({"label": "edited"}))
        assert outcome.applied
        assert cache.lookup(key_b) is not None


def test_singleton_is_shared():
    assert result_cache() is result_cache()


def test_stopping_a_server_empties_the_result_cache():
    from repro.obs.metrics import MetricsRegistry
    from repro.protocol import FrameReply, OpenProgram, Render
    from repro.server import ServerThread, connect

    assert not cache_enabled()
    with ServerThread(build_weather_database(),
                      registry=MetricsRegistry()) as srv:
        with connect(f"ws://{srv.host}:{srv.port}/ws") as client:
            assert client.request(OpenProgram(name="fig4")).ok
            frame = client.request(Render(window="stations"))
            assert isinstance(frame, FrameReply)
        assert len(result_cache()) > 0
    # The entries pinned the stopped server's table snapshots.
    assert not cache_enabled()
    assert len(result_cache()) == 0


# ---------------------------------------------------------------------------
# Plan fingerprints
# ---------------------------------------------------------------------------


def restrict(child: P.PlanNode, source: str) -> P.RestrictNode:
    return P.RestrictNode(child, parse_predicate(source, child.schema))


def chain(rows: RowSet) -> P.PlanNode:
    return P.ProjectNode(restrict(P.ScanNode(rows), "n % 3 != 0"), ["n"])


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        rows = num_rows(50)
        first = plan_fingerprint(chain(rows))
        second = plan_fingerprint(chain(rows))
        assert first is not None and second is not None
        assert first[0] == second[0]

    def test_distinguishes_sources_and_predicates(self):
        rows, other = num_rows(50), num_rows(50)
        base = plan_fingerprint(chain(rows))[0]
        assert plan_fingerprint(chain(other))[0] != base
        different = P.ProjectNode(
            restrict(P.ScanNode(rows), "n % 5 != 0"), ["n"]
        )
        assert plan_fingerprint(different)[0] != base

    def test_unseeded_sample_is_unfingerprintable(self):
        rows = num_rows(50)
        assert plan_fingerprint(P.SampleNode(P.ScanNode(rows), 0.5)) is None

    def test_fingerprints_through_lazy_boundary(self):
        # Two CacheNodes over *different* lazies with identical plans over
        # the same source must agree — that is what lets independent engines
        # share one cache entry.
        rows = num_rows(50)
        one = P.CacheNode(P.LazyRowSet(chain(rows)))
        two = P.CacheNode(P.LazyRowSet(chain(rows)))
        assert plan_fingerprint(one)[0] == plan_fingerprint(two)[0]

    def test_columnarized_plan_keeps_its_fingerprint(self):
        # Keys are backend-independent: a result computed on either
        # backend serves both.
        rows = num_rows(1000)
        row_key = plan_fingerprint(chain(rows))[0]
        root, __ = columnarize_plan(chain(rows))
        assert "<columnar>" in root.explain(with_stats=False)
        assert plan_fingerprint(root)[0] == row_key

    def test_pins_reference_leaf_sources(self):
        rows = num_rows(20)
        __, pins = plan_fingerprint(chain(rows))
        assert rows in pins


# ---------------------------------------------------------------------------
# Engine integration: Engine(cache=...) and the render path
# ---------------------------------------------------------------------------


@pytest.fixture
def clean_cache():
    result_cache().clear()
    yield
    result_cache().clear()


def join_program():
    left, right = build_pairs_tables(120, 5, seed=9)
    db = Database("engine_cache")
    db.add_table(left)
    db.add_table(right)
    program = Program("join")
    src_l = program.add_box(AddTableBox(table="Left"))
    src_r = program.add_box(AddTableBox(table="Right"))
    join = program.add_box(JoinBox(left_key="key", right_key="ref"))
    keep = program.add_box(RestrictBox(predicate="measure > 0.5"))
    program.connect(src_l, "out", join, "left")
    program.connect(src_r, "out", join, "right")
    program.connect(join, "out", keep, "in")
    return db, program, keep


def forced_rows(db, program, box_id, **knobs):
    return tuple(Engine(program, db, **knobs).output_of(box_id).rows.force())


def plan_statuses(report) -> set:
    return {
        plan["cache"]
        for box in report["boxes"]
        for output in box["outputs"]
        for plan in output.get("plans", ())
    }


@pytest.mark.usefixtures("clean_cache")
class TestEngineKnob:
    def test_cached_engine_matches_uncached(self):
        db, program, keep = join_program()
        uncached = forced_rows(db, program, keep, cache=False)
        assert forced_rows(db, program, keep, cache=True) == uncached
        assert forced_rows(db, program, keep, cache=True) == uncached

    def test_cache_off_stores_nothing(self):
        db, program, keep = join_program()
        engine = Engine(program, db, cache=False)
        assert engine.cache is False
        engine.output_of(keep)
        assert result_cache().stats()["entries"] == 0

    def test_cross_engine_cache_hit(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, cache=True)
        before = result_cache().stats()
        second = forced_rows(db, program, keep, cache=True)
        after = result_cache().stats()
        assert second == first
        assert after["hits"] > before["hits"]

    def test_process_default_applies(self):
        db, program, keep = join_program()
        assert cache_enabled() is False
        assert Engine(program, db).cache is False
        previous = set_cache_enabled(True)
        try:
            assert Engine(program, db).cache is True      # no explicit knob
            assert Engine(program, db, cache=False).cache is False
        finally:
            set_cache_enabled(previous)


@pytest.mark.usefixtures("clean_cache")
class TestExplainVisibility:
    def test_explain_data_reports_miss_on_first_engine(self):
        db, program, keep = join_program()
        engine = Engine(program, db, cache=True)
        engine.output_of(keep)
        report = explain_data(program, db, engine=engine)
        assert "miss" in plan_statuses(report)

    def test_explain_data_reports_hit_on_second_engine(self):
        db, program, keep = join_program()
        forced_rows(db, program, keep, cache=True)
        engine = Engine(program, db, cache=True)
        engine.output_of(keep)
        report = explain_data(program, db, engine=engine)
        assert "hit" in plan_statuses(report)

    def test_text_explain_mentions_cache_status(self):
        db, program, keep = join_program()
        forced_rows(db, program, keep, cache=True)
        engine = Engine(program, db, cache=True)
        engine.output_of(keep)
        text = explain(program, db, engine=engine)
        assert "result cache: hit" in text


@pytest.mark.usefixtures("clean_cache")
class TestEngineInvalidation:
    def test_table_insert_invalidates_engine_results(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, cache=True)
        db.table("Right").insert({"ref": 1, "measure": 0.9})
        second = forced_rows(db, program, keep, cache=True)
        assert len(second) == len(first) + 1

    def test_generic_update_invalidates(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, cache=True)
        table = db.table("Right")
        victim = next(row for row in table.snapshot()
                      if row["measure"] <= 0.5)
        result = generic_update(
            table, victim, ScriptedDialog({"measure": "0.99"})
        )
        assert result.applied
        second = forced_rows(db, program, keep, cache=True)
        assert len(second) == len(first) + 1


@pytest.mark.usefixtures("clean_cache")
class TestPixelIdenticalRenders:
    BUILDS = (
        scenarios.build_fig1_table_view,
        scenarios.build_fig4_station_map,
        scenarios.build_fig7_overlay,
    )

    def test_figure_renders_identically_cold_and_warm(self):
        for build in self.BUILDS:
            result_cache().clear()
            db = build_weather_database(extra_stations=10, every_days=90)
            uncached = build(db)
            window = (uncached.named.get("window")
                      or uncached.named.get("map_window"))
            baseline = window.render().pixels.copy()

            previous = set_cache_enabled(True)
            try:
                cached = build(db)
                window = (cached.named.get("window")
                          or cached.named.get("map_window"))
                cold = window.render().pixels.copy()
                # Render again so the second pass is served from the cache.
                warm = window.render().pixels.copy()
            finally:
                set_cache_enabled(previous)
            assert np.array_equal(baseline, cold), build.__name__
            assert np.array_equal(baseline, warm), build.__name__
