"""Tests: lineage capture, the why-provenance walk, and the overhead budget.

The acceptance criteria pinned here: identity-breaking operators record
output → input mappings into ring-capped per-node stores; :func:`why` on the
fig4 scatter traces a picked mark to the exact base-table rows; the row
and columnar backends agree on lineage for randomized plans (a 30-seed
property test); the disabled-path cost stays under 5% of a render;
and the CLI surface (``repro why``, ``repro stats --json`` pre-registration)
holds its contract.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import pytest

from repro import cli
from repro.dbms import plan as P
from repro.dbms.parser import parse_predicate
from repro.dbms.plan_rewrite import columnarize_plan
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema
from repro.obs import Tracer, push_tracer
from repro.obs.lineage import (
    DEFAULT_MAX_MAPPINGS,
    DROPPED_COUNTER,
    LINEAGE_SCHEMA,
    MAPPINGS_COUNTER,
    WALKS_COUNTER,
    LineageConfig,
    LineageStore,
    _Incomplete,
    _Walker,
    active_lineage,
    lineage_capture,
    lineage_config_from_env,
    render_why,
    resolve_lineage_config,
    set_default_lineage_config,
    why,
)
from repro.obs.metrics import global_registry

DATA = Schema([("n", "int"), ("g", "int"), ("v", "int")])


def data_rows(count: int, groups: int = 3) -> RowSet:
    return RowSet.from_dicts(
        DATA,
        [{"n": i, "g": i % groups, "v": i * 7 % 50} for i in range(count)],
    )


def fig4_window(db):
    scenario = cli._FIGURES["fig4"](db)
    session = scenario.session
    return session.window(sorted(session.windows)[0])


def mark_center(window):
    item = window.viewer.render().all_items()[0]
    x0, y0, x1, y1 = item.bbox
    return (x0 + x1) / 2, (y0 + y1) / 2, item


class TestConfig:
    def test_env_off_means_none(self):
        for env in ({}, {"REPRO_LINEAGE": ""}, {"REPRO_LINEAGE": "0"}):
            assert lineage_config_from_env(env) is None

    def test_env_on_with_cap_override(self):
        config = lineage_config_from_env(
            {"REPRO_LINEAGE": "1", "REPRO_LINEAGE_MAX": "123"})
        assert config is not None
        assert config.max_mappings == 123

    def test_env_bad_cap_falls_back_to_default(self):
        config = lineage_config_from_env(
            {"REPRO_LINEAGE": "1", "REPRO_LINEAGE_MAX": "lots"})
        assert config.max_mappings == DEFAULT_MAX_MAPPINGS

    def test_cap_floor_is_one(self):
        assert LineageConfig(max_mappings=0).max_mappings == 1

    def test_resolve_trio_mirrors_columnar_convention(self):
        previous = set_default_lineage_config(None)
        try:
            assert resolve_lineage_config(None) is None
            assert resolve_lineage_config(False) is None
            assert isinstance(resolve_lineage_config(True), LineageConfig)
            explicit = LineageConfig(max_mappings=7)
            assert resolve_lineage_config(explicit) is explicit
            set_default_lineage_config(explicit)
            assert resolve_lineage_config(None) is explicit
            assert resolve_lineage_config(True) is explicit
            assert resolve_lineage_config(False) is None
        finally:
            set_default_lineage_config(previous)


class TestStoreAndCapture:
    def test_record_and_identity_lookup(self):
        rows = list(data_rows(4))
        with lineage_capture(LineageConfig()) as state:
            store = LineageStore(state)
            store.record(rows[2], (rows[0], rows[1]), tag=1)
            assert store.lookup(rows[2]) == ((rows[0], rows[1]), 1)
            assert len(store) == 1
            # Lookup matches by identity, not value: an equal twin misses.
            twin = list(data_rows(4))[2]
            assert twin == rows[2]
            assert store.lookup(twin) is None

    def test_ring_cap_evicts_oldest_and_counts_drops(self):
        rows = list(data_rows(6))
        with lineage_capture(LineageConfig(max_mappings=2)) as state:
            store = LineageStore(state)
            for out in rows[:3]:
                store.record(out, (rows[3],))
            assert len(store) == 2
            assert state.dropped == 1
            assert store.lookup(rows[0]) is None        # evicted first
            assert store.lookup(rows[2]) is not None

    def test_capture_exit_flushes_counters(self):
        rows = list(data_rows(4))
        mappings = global_registry().counter(*MAPPINGS_COUNTER)
        dropped = global_registry().counter(*DROPPED_COUNTER)
        before = mappings.total(), dropped.total()
        with lineage_capture(LineageConfig(max_mappings=2)) as state:
            store = LineageStore(state)
            for out in rows[:3]:
                store.record(out, (rows[3],))
        assert mappings.total() == before[0] + 3
        assert dropped.total() == before[1] + 1
        assert state.recorded == 0                       # tallies flushed

    def test_disabled_capture_yields_none(self):
        with lineage_capture(False) as state:
            assert state is None

    def test_nested_captures_restore_previous(self):
        ambient = active_lineage()
        with lineage_capture(True) as outer:
            assert active_lineage() is outer
            with lineage_capture(True) as inner:
                assert active_lineage() is inner
            assert active_lineage() is outer
        assert active_lineage() is ambient


class TestOperatorCapture:
    def test_identity_preserving_ops_record_nothing(self):
        rows = data_rows(10)
        node = P.RestrictNode(
            P.ScanNode(rows, name="T"), parse_predicate("n % 2 == 0", DATA))
        with lineage_capture(True) as state:
            out = list(node.rows_iter())
            assert state.recorded == 0
        stored = list(rows)
        assert all(any(o is r for r in stored) for o in out)

    def test_project_records_one_to_one(self):
        rows = data_rows(8)
        node = P.ProjectNode(P.ScanNode(rows, name="T"), ["n"])
        with lineage_capture(True):
            out = list(node.rows_iter())
        store = node.lineage
        assert store is not None and len(store) == len(out)
        stored = list(rows)
        for pos, o in enumerate(out):
            (source,), __ = store.lookup(o)
            assert source is stored[pos]

    def test_groupby_records_every_member(self):
        rows = data_rows(9, groups=3)
        node = P.GroupByNode(
            P.ScanNode(rows, name="T"), ["g"], [("count", "n", "cnt")])
        with lineage_capture(True):
            out = list(node.rows_iter())
        store = node.lineage
        members = [store.lookup(o)[0] for o in out]
        assert sum(len(group) for group in members) == 9
        for o, group in zip(out, members):
            assert all(row["g"] == o["g"] for row in group)

    def test_union_walk_routes_to_the_producing_side(self):
        left, right = data_rows(3), data_rows(4)
        node = P.UnionNode(
            P.ScanNode(left, name="L"), P.ScanNode(right, name="R"))
        with lineage_capture(True):
            out = list(node.rows_iter())
        walker = _Walker()
        walker.walk(node, out[0])
        walker.walk(node, out[-1])
        assert [table for table, __ in walker.rows] == ["L", "R"]

    def test_join_walk_reaches_both_sides(self):
        left, right = data_rows(6), data_rows(6)
        node = P.HashJoinNode(
            P.ScanNode(left, name="L"), P.ScanNode(right, name="R"),
            "n", "n")
        with lineage_capture(True):
            out = list(node.rows_iter())
        walker = _Walker()
        walker.walk(node, out[0])
        assert sorted(table for table, __ in walker.rows) == ["L", "R"]

    def test_explain_annotates_store_sizes(self):
        node = P.ProjectNode(P.ScanNode(data_rows(5), name="T"), ["n"])
        with lineage_capture(True):
            list(node.rows_iter())
        assert "lineage=5" in P.explain_plan(node)


class TestWhyOnFigures:
    def test_fig4_mark_traces_to_station_rows(self, weather_db):
        window = fig4_window(weather_db)
        px, py, item = mark_center(window)
        doc = why(window, px, py)
        assert doc["schema"] == LINEAGE_SCHEMA
        assert doc["picked"] and doc["complete"]
        assert doc["mark"]["relation"] == item.relation_name
        assert doc["rows"]
        assert all(entry["table"] == "Stations" for entry in doc["rows"])
        # Restrict/Scan is identity-preserving: the base row IS the mark's.
        expected = dict(zip(item.row.schema.names, item.row.values))
        assert doc["rows"][0]["values"] == expected

    def test_why_counts_walks(self, weather_db):
        window = fig4_window(weather_db)
        walks = global_registry().counter(*WALKS_COUNTER)
        before = walks.total()
        why(window, -10.0, -10.0)
        assert walks.total() == before + 1

    def test_miss_reports_unpicked(self, weather_db):
        window = fig4_window(weather_db)
        doc = why(window, -10.0, -10.0)
        assert not doc["picked"] and not doc["complete"]
        assert doc["rows"] == [] and doc["path"] is None
        assert "no mark at" in render_why(doc)

    def test_render_why_tree_shape(self, weather_db):
        window = fig4_window(weather_db)
        px, py, __ = mark_center(window)
        text = render_why(why(window, px, py))
        assert "mark at" in text
        assert "Scan" in text and "<- table 'Stations'" in text
        assert "base row(s)" in text
        assert "(provenance incomplete)" not in text


class TestReplay:
    def test_uncaptured_run_replays_to_the_same_base_row(self, monkeypatch):
        # Simulate a plan that executed with capture off (also neutralizes
        # the REPRO_LINEAGE=1 CI leg's ambient capture for this test).
        monkeypatch.setattr("repro.obs.lineage._ACTIVE", None)
        rows = data_rows(10)
        lazy = P.LazyRowSet(
            P.ProjectNode(P.ScanNode(rows, name="T"), ["n", "v"]))
        out = list(lazy)
        walker = _Walker()
        walker.walk_lazy(lazy, out[3])
        assert walker.replayed
        assert len(walker.rows) == 1
        table, base = walker.rows[0]
        assert table == "T" and base["n"] == 3

    def test_unseeded_sample_blocks_replay(self, monkeypatch):
        monkeypatch.setattr("repro.obs.lineage._ACTIVE", None)
        rows = data_rows(30)
        lazy = P.LazyRowSet(
            P.ProjectNode(
                P.SampleNode(P.ScanNode(rows, name="T"), 0.9, seed=None),
                ["n"]))
        out = list(lazy)
        assert out, "expected the 90% sample to keep some of 30 rows"
        with pytest.raises(_Incomplete):
            _Walker().walk_lazy(lazy, out[0])


class TestCrossBackendProperty:
    """Acceptance: identical base rows under the row and columnar backends."""

    @pytest.mark.parametrize("seed", range(30))
    def test_backends_agree_on_base_rows(self, seed):
        rng = random.Random(seed)
        count = rng.randrange(40, 120)
        groups = rng.choice([3, 5, 7])
        mod = rng.choice([2, 3, 4])
        rows = RowSet.from_dicts(
            DATA,
            [{"n": i, "g": i % groups, "v": rng.randrange(100)}
             for i in range(count)],
        )

        def build() -> P.PlanNode:
            scan = P.ScanNode(rows, name="Base")
            kept = P.RestrictNode(
                scan, parse_predicate(f"n % {mod} == 0", DATA))
            return P.GroupByNode(
                kept, ["g"], [("count", "n", "cnt"), ("sum", "v", "total")])

        def run(root: P.PlanNode):
            with lineage_capture(True):
                return list(root.rows_iter())

        def base_rows(root: P.PlanNode, out, index: int):
            walker = _Walker()
            walker.walk(root, out[index])
            assert all(table == "Base" for table, __ in walker.rows)
            return sorted(tuple(row.values) for __, row in walker.rows)

        serial_root = build()
        serial_out = run(serial_root)
        assert serial_out
        index = rng.randrange(len(serial_out))
        expected = base_rows(serial_root, serial_out, index)
        assert expected, "a group must trace to at least one base row"

        columnar_root, __ = columnarize_plan(build())
        columnar_out = run(columnar_root)
        assert columnar_out == serial_out
        assert base_rows(columnar_root, columnar_out, index) == expected


class TestEngineKnob:
    def _program(self):
        from repro.dataflow.boxes_db import AddTableBox, ProjectBox
        from repro.dataflow.graph import Program

        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        proj = program.add_box(ProjectBox(fields=["name", "state"]))
        program.connect(src, "out", proj, "in")
        return program, proj

    def test_lineage_kwarg_resolves_like_columnar(self, weather_db):
        from repro.dataflow.engine import Engine

        previous = set_default_lineage_config(None)
        try:
            program, __ = self._program()
            assert Engine(program, weather_db).lineage is None
            enabled = Engine(program, weather_db, lineage=True)
            assert isinstance(enabled.lineage, LineageConfig)
            assert Engine(program, weather_db, lineage=False).lineage is None
            explicit = LineageConfig(max_mappings=9)
            assert Engine(
                program, weather_db, lineage=explicit).lineage is explicit
        finally:
            set_default_lineage_config(previous)

    def test_engine_forces_under_capture(self, weather_db):
        from repro.dataflow.engine import Engine

        program, proj = self._program()
        engine = Engine(program, weather_db, lineage=True)
        mappings = global_registry().counter(*MAPPINGS_COUNTER)
        before = mappings.total()
        rows = engine.output_of(proj).rows
        assert len(rows) > 0
        assert mappings.total() >= before + len(rows)


class TestOverheadBudget:
    def test_disabled_lineage_under_five_percent_of_fig4(self, weather_db):
        # Analytic bound, mirroring the tracer's: the disabled path is one
        # active_lineage() read per operator open, and operator opens are
        # bounded by the spans an enabled render records.  (span count) x
        # (measured per-call cost) must stay under 5% of the render time.
        scenario = cli._FIGURES["fig4"](weather_db)
        session = scenario.session
        name = sorted(session.windows)[0]
        tracer = Tracer(enabled=True)
        session.engine.invalidate()
        with push_tracer(tracer):
            session.window(name).render()
        span_count = len(tracer.finished())

        calls = 50_000
        start = perf_counter()
        for __ in range(calls):
            active_lineage()
        per_call_s = (perf_counter() - start) / calls

        best = min(_timed(lambda: (session.engine.invalidate(),
                                   session.window(name).render()))
                   for __ in range(3))
        assert span_count * per_call_s < 0.05 * best, (
            f"{span_count} opens x {per_call_s * 1e9:.0f}ns "
            f"vs render {best * 1e3:.1f}ms"
        )


def _timed(fn):
    start = perf_counter()
    fn()
    return perf_counter() - start


class TestEpochGauge:
    def test_mutation_publishes_labeled_gauge(self):
        from repro.dbms.relation import Table, table_epoch

        table = Table("GaugeT", DATA)
        table.insert({"n": 1, "g": 0, "v": 0})
        gauge = global_registry().get("storage.epoch")
        assert gauge is not None
        assert gauge.value(label="GaugeT") == table_epoch("GaugeT")

    def test_metrics_recorder_samples_per_table_series(self):
        from repro.dbms.relation import Table, table_epoch
        from repro.obs import MetricsRecorder

        table = Table("GaugeSampled", DATA)
        table.insert({"n": 1, "g": 0, "v": 0})
        recorder = MetricsRecorder()
        recorder.sample()
        series = recorder.series("storage.epoch|GaugeSampled")
        assert series is not None
        assert series.points()[-1][1] == table_epoch("GaugeSampled")


class TestCLI:
    @pytest.fixture(scope="class")
    def cli_pixel(self):
        # The CLI builds its own database; compute a hit pixel under the
        # same construction parameters as _cmd_why.
        from repro.data.weather import build_weather_database

        db = build_weather_database(extra_stations=40, every_days=30)
        window = fig4_window(db)
        px, py, __ = mark_center(window)
        return px, py

    def test_why_json_document(self, capsys, cli_pixel):
        px, py = cli_pixel
        assert cli.main(
            ["why", "--px", str(px), "--py", str(py), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == LINEAGE_SCHEMA
        assert doc["picked"] and doc["complete"]
        assert doc["rows"] and doc["rows"][0]["table"] == "Stations"

    def test_why_human_tree(self, capsys, cli_pixel):
        px, py = cli_pixel
        assert cli.main(["why", "--px", str(px), "--py", str(py)]) == 0
        out = capsys.readouterr().out
        assert "mark at" in out and "base row(s)" in out

    def test_why_strict_miss_fails(self, capsys):
        assert cli.main(
            ["why", "--px", "-10", "--py", "-10", "--strict"]) == 1
        assert "no mark at" in capsys.readouterr().out

    def test_stats_json_preregisters_lineage_counters(self, capsys):
        # PR-5/PR-7 convention: cold runs still emit the full counter set.
        assert cli.main(["stats", "--figure", "fig4", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        for counter in ("lineage.mappings", "lineage.dropped",
                        "lineage.walks"):
            assert counter in summary["metrics"], counter
