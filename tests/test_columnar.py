"""Unit + integration tests: the columnar execution backend.

Covers the batch container (repro.dbms.columnar), the expression compiler
(repro.dbms.expr_compile), every vectorized kernel against its serial row
twin, the per-subtree backend selection in ``columnarize_plan`` /
``optimize_plan``, the planverify adapter invariants, EXPLAIN/backend
annotation, the optimizer on real engine demands, and pixel equality
between the default path and the row reference (``row_backend()``) for
every paper figure scenario.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

from repro.dbms import plan as P
from repro.dbms import types as T
from repro.dbms.columnar import ColumnBatch
from repro.dbms.expr_compile import (
    VectorFallback,
    compile_expression,
    compile_predicate,
    vectorizable,
)
from repro.dbms.parser import parse_expression, parse_predicate
from repro.dbms.plan_rewrite import columnarize_plan, optimize_plan
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema
from repro.obs import global_registry
from row_reference import row_backend

NUMS = Schema([("n", "int"), ("x", "float"), ("label", "text")])

# Canonical declarations — must match the emitting kernels in repro.dbms.plan.
_BATCHES = ("columnar.batches", "column batches produced by columnar kernels")
_FALLBACK = ("columnar.fallback",
             "column batches re-evaluated on the row path after a data hazard")


def num_rows(count: int, seed: int = 11) -> RowSet:
    rng = random.Random(seed)
    return RowSet.from_dicts(NUMS, [
        {"n": rng.randint(-50, 50), "x": rng.uniform(-10.0, 10.0),
         "label": rng.choice(["a", "b", "c"])}
        for __ in range(count)
    ])


def values_of(node: P.PlanNode) -> list[list]:
    return [row.values for row in node.execute()]


def fallback_delta(fn):
    counter = global_registry().counter(*_FALLBACK)
    before = counter.value()
    result = fn()
    return result, counter.value() - before


# ---------------------------------------------------------------------------
# ColumnBatch
# ---------------------------------------------------------------------------


class TestColumnBatch:
    def test_roundtrip_preserves_identity(self):
        rows = num_rows(10).rows
        batch = ColumnBatch.from_rows(NUMS, rows)
        assert list(batch.to_rows()) == list(rows)
        # Unmodified batches hand back the *same* Tuple objects.
        assert all(a is b for a, b in zip(batch.to_rows(), rows))

    def test_dtypes(self):
        batch = ColumnBatch.from_rows(NUMS, num_rows(5).rows)
        assert batch.column("n").dtype == np.int64
        assert batch.column("x").dtype == np.float64
        assert batch.column("label").dtype == object

    def test_take_mask_keeps_identity(self):
        rows = num_rows(20).rows
        batch = ColumnBatch.from_rows(NUMS, rows)
        mask = batch.column("n") > 0
        kept = batch.take_mask(mask)
        expected = [row for row, keep in zip(rows, mask) if keep]
        assert list(kept.to_rows()) == expected
        assert all(a is b for a, b in zip(kept.to_rows(), expected))

    def test_concat_and_slice(self):
        rows = num_rows(30).rows
        first = ColumnBatch.from_rows(NUMS, rows[:12])
        second = ColumnBatch.from_rows(NUMS, rows[12:])
        merged = ColumnBatch.concat([first, second])
        assert len(merged) == 30
        assert list(merged.slice(5, 9).to_rows()) == list(rows[5:9])

    def test_project_and_rename(self):
        batch = ColumnBatch.from_rows(NUMS, num_rows(6).rows)
        projected = batch.project(["x", "n"])
        assert [f.name for f in projected.schema.fields] == ["x", "n"]
        renamed = batch.rename("n", "m")
        assert renamed.column("m").tolist() == batch.column("n").tolist()

    def test_batch_memo_lives_with_its_row_set(self):
        def run(rows):
            plan = P.RestrictNode(P.ScanNode(rows),
                                  parse_predicate("x > 0.0", NUMS))
            root, __ = columnarize_plan(plan)
            return list(root.rows_iter())

        rows = num_rows(300)
        first = run(rows)
        batch = rows.column_batch
        assert batch is not None
        assert run(rows) == first
        assert rows.column_batch is batch    # converted once, then reused
        column = weakref.ref(batch.column("x"))
        del rows, batch, first
        gc.collect()
        assert column() is None    # freed with the row set


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


class TestExprCompile:
    def compiled(self, source: str, schema: Schema = NUMS):
        return compile_expression(parse_expression(source, schema), schema)

    def test_arithmetic_and_comparison_compile(self):
        batch = ColumnBatch.from_rows(NUMS, num_rows(50).rows)
        program = self.compiled("n * 2 + 1")
        assert program is not None
        assert program(batch).tolist() == \
            [n * 2 + 1 for n in batch.column("n").tolist()]
        mask = compile_predicate(
            parse_predicate("(x > 0.0) and (n < 10)", NUMS), NUMS)
        assert mask is not None
        assert mask(batch).tolist() == [
            x > 0.0 and n < 10
            for x, n in zip(batch.column("x"), batch.column("n"))
        ]

    def test_transcendentals_stay_on_the_row_backend(self):
        # Math library differences could change pixels; sin/cos/log are
        # deliberately not vectorized.
        assert self.compiled("sin(x)") is None
        assert not vectorizable(parse_expression("sin(x)", NUMS), NUMS)

    def test_division_hazard_raises_vector_fallback(self):
        rows = RowSet.from_dicts(NUMS, [
            {"n": 2, "x": 1.0, "label": "a"},
            {"n": 0, "x": 2.0, "label": "b"},
        ])
        program = self.compiled("10 / n")
        with pytest.raises(VectorFallback):
            program(ColumnBatch.from_rows(NUMS, rows.rows))

    def test_huge_int_comparison_falls_back(self):
        rows = RowSet.from_dicts(NUMS, [
            {"n": 2 ** 60, "x": 1.0, "label": "a"},
        ])
        program = compile_predicate(parse_predicate("n > 100.0", NUMS), NUMS)
        with pytest.raises(VectorFallback):
            program(ColumnBatch.from_rows(NUMS, rows.rows))

    def test_type_errors_do_not_compile(self):
        assert compile_predicate(
            parse_expression("n + 1", NUMS), NUMS) is None


# ---------------------------------------------------------------------------
# Kernels against their serial twins
# ---------------------------------------------------------------------------


def columnarized(root: P.PlanNode) -> P.PlanNode:
    new_root, log = columnarize_plan(root)
    assert any("columnarized" in line for line in log), log
    return new_root


class TestKernelEquivalence:
    def test_restrict(self):
        rows = num_rows(1000)
        pred = parse_predicate("(n > -10) and (x < 5.0)", NUMS)
        serial = values_of(P.RestrictNode(P.ScanNode(rows), pred))
        vector = values_of(columnarized(
            P.RestrictNode(P.ScanNode(rows), pred)))
        assert serial == vector

    def test_restrict_short_circuit_hazard_falls_back(self):
        rows = RowSet.from_dicts(NUMS, [
            {"n": n, "x": float(n), "label": "a"} for n in (4, 0, -3, 2)
        ])
        pred = parse_predicate("(n > 0) and (10 / n > 3)", NUMS)
        serial = values_of(P.RestrictNode(P.ScanNode(rows), pred))
        (vector, fell_back) = fallback_delta(lambda: values_of(
            columnarized(P.RestrictNode(P.ScanNode(rows), pred))))
        assert serial == vector
        assert fell_back >= 1

    def test_project_rename_chain(self):
        rows = num_rows(500)
        def build():
            return P.RenameNode(
                P.ProjectNode(
                    P.RestrictNode(P.ScanNode(rows),
                                   parse_predicate("n >= 0", NUMS)),
                    ["x", "n"],
                ),
                "n", "m",
            )
        assert values_of(build()) == values_of(columnarized(build()))

    def test_orderby_is_stable_and_matches(self):
        rows = num_rows(800)
        for descending in (False, True):
            def build():
                return P.OrderByNode(P.ScanNode(rows), ["n"],
                                     descending=descending)
            assert values_of(build()) == values_of(columnarized(build())), \
                f"descending={descending}"

    def test_distinct(self):
        dup_schema = Schema([("n", "int"), ("x", "float")])
        rng = random.Random(5)
        rows = RowSet.from_dicts(dup_schema, [
            {"n": rng.randint(0, 5), "x": rng.choice([0.0, -0.0, 1.5])}
            for __ in range(400)
        ])
        def build():
            return P.DistinctNode(P.ScanNode(rows))
        assert values_of(build()) == values_of(columnarized(build()))

    def test_hash_join(self):
        left_schema = Schema([("key", "int"), ("a", "float")])
        right_schema = Schema([("ref", "int"), ("b", "text")])
        rng = random.Random(6)
        left = RowSet.from_dicts(left_schema, [
            {"key": i, "a": rng.uniform(0, 1)} for i in range(80)
        ])
        right = RowSet.from_dicts(right_schema, [
            {"ref": rng.randint(0, 99), "b": f"r{i}"} for i in range(400)
        ])
        def build():
            return P.HashJoinNode(P.ScanNode(left), P.ScanNode(right),
                                  "key", "ref")
        assert values_of(build()) == values_of(columnarized(build()))

    def test_limit_kernel_by_explicit_construction(self):
        rows = num_rows(700)
        serial = values_of(P.LimitNode(P.ScanNode(rows), 123))
        vector = values_of(P.ToRowsNode(P.ColumnarLimitNode(
            P.ToColumnsNode(P.ScanNode(rows), batch_rows=100), 123)))
        assert serial == vector

    def test_small_batch_rows_round_trip(self):
        # A non-leaf child is re-batched at ToColumns' batch_rows, so the
        # kernel sees 16 batches (the last one partial).
        rows = num_rows(1000)
        pred = parse_predicate("x > 0.0", NUMS)
        serial = values_of(P.RestrictNode(P.ScanNode(rows), pred))
        batches = global_registry().counter(*_BATCHES)
        before = batches.value()
        root = P.ToRowsNode(P.ColumnarRestrictNode(
            P.ToColumnsNode(P.LimitNode(P.ScanNode(rows), 1000),
                            batch_rows=64),
            pred))
        assert values_of(root) == serial
        assert batches.value() - before >= 16


# ---------------------------------------------------------------------------
# Backend selection and EXPLAIN fidelity
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_log_names_the_selected_subtree(self):
        rows = num_rows(50)
        root, log = columnarize_plan(
            P.OrderByNode(P.ScanNode(rows), ["n"]))
        assert isinstance(root, P.ToRowsNode)
        assert any("columnarized subtree at OrderBy" in line for line in log)

    def test_limit_is_never_auto_selected(self):
        rows = num_rows(50)
        root, log = columnarize_plan(
            P.LimitNode(
                P.RestrictNode(P.ScanNode(rows),
                               parse_predicate("n > 0", NUMS)),
                5,
            ))
        assert type(root) is P.LimitNode          # stays on the row backend
        assert isinstance(root.children[0], P.ToRowsNode)

    def test_text_sort_keys_not_worthwhile(self):
        rows = num_rows(50)
        root, log = columnarize_plan(
            P.OrderByNode(P.ScanNode(rows), ["label"]))
        assert type(root) is P.OrderByNode
        assert log == []

    def test_explain_counters_fold_back_to_serial_values(self):
        rows = num_rows(1000)
        pred = parse_predicate("n > 0", NUMS)
        serial = P.RestrictNode(P.ScanNode(rows), pred)
        serial.execute()

        template = P.RestrictNode(P.ScanNode(rows), pred)
        root, __ = columnarize_plan(template)
        root.execute()
        # The kernels fold rows_in/rows_out/opens into the serial nodes
        # they replaced, so EXPLAIN reads backend-independently.
        assert template.stats.rows_in == serial.stats.rows_in
        assert template.stats.rows_out == serial.stats.rows_out
        assert template.stats.opens == serial.stats.opens
        scan_t, scan_s = template.children[0], serial.children[0]
        assert scan_t.stats.rows_out == scan_s.stats.rows_out
        assert scan_t.stats.batches == scan_s.stats.batches

    def test_explain_text_tags_columnar_nodes(self):
        rows = num_rows(100)
        root, __ = columnarize_plan(
            P.RestrictNode(P.ScanNode(rows), parse_predicate("n > 0", NUMS)))
        root.execute()
        text = root.explain()
        assert "Restrict[(n > 0)] <columnar>" in text
        assert "ToColumns" in text and "ToRows" in text

    def test_optimize_plan_composes_and_verifies(self):
        from repro.analyze.planverify import assert_valid_plan

        rows = num_rows(2000)
        pred = parse_predicate("x > 0.0", NUMS)
        serial = values_of(P.RestrictNode(P.ScanNode(rows), pred))
        previous = P.plan_verifier()
        P.set_plan_verifier(assert_valid_plan)
        try:
            root, log = optimize_plan(P.RestrictNode(P.ScanNode(rows), pred))
            assert isinstance(root, P.ToRowsNode)
            assert values_of(root) == serial
        finally:
            P.set_plan_verifier(previous)


class TestPlanVerifierInvariants:
    def test_missing_to_columns_adapter_fails(self):
        from repro.analyze.planverify import verify_plan

        rows = num_rows(10)
        bad = P.ColumnarProjectNode(P.ScanNode(rows), ["n"])
        report = verify_plan(bad)
        assert not report.ok
        assert "ToColumns" in report.render()

    def test_missing_to_rows_adapter_fails(self):
        from repro.analyze.planverify import verify_plan

        rows = num_rows(10)
        bad = P.LimitNode(P.ToColumnsNode(P.ScanNode(rows)), 3)
        report = verify_plan(bad)
        assert not report.ok

    def test_well_formed_region_verifies(self):
        from repro.analyze.planverify import assert_valid_plan

        rows = num_rows(10)
        root = columnarized(
            P.OrderByNode(P.ScanNode(rows), ["n"]))
        assert_valid_plan(root)


# ---------------------------------------------------------------------------
# Engine integration and figure-scenario equivalence
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def build(self, db):
        from repro.dataflow.boxes_db import AddTableBox, RestrictBox
        from repro.dataflow.graph import Program

        program = Program("columnar-engine")
        src = program.add_box(AddTableBox(table="Stations"))
        keep = program.add_box(RestrictBox(predicate="altitude > 50.0"))
        program.connect(src, "out", keep, "in")
        return program, keep

    def test_engine_columnar_rows_identical(self, stations_db):
        from repro.dataflow.engine import Engine

        program, keep = self.build(stations_db)
        with row_backend():
            serial = tuple(Engine(program, stations_db)
                           .output_of(keep, "out").rows.force())
        columnar = tuple(Engine(program, stations_db)
                         .output_of(keep, "out").rows.force())
        assert serial == columnar

    def test_explain_data_reports_backend_per_node(self, stations_db):
        from repro.dataflow.engine import Engine
        from repro.dataflow.explain import explain_data

        program, keep = self.build(stations_db)
        engine = Engine(program, stations_db, cache=False)
        engine.output_of(keep, "out").rows.force()
        nodes = [node for plan in plans_of(explain_data(
                     program, engine=engine, box_id=keep))
                 for node in walk_tree(plan["tree"])]
        backends = {node["backend"] for node in nodes}
        assert backends == {"row", "columnar"}

    def test_explain_data_columnar_backend_by_default(self, stations_db):
        from repro.dataflow.engine import Engine
        from repro.dataflow.explain import explain_data

        program, keep = self.build(stations_db)
        engine = Engine(program, stations_db)
        engine.output_of(keep, "out").rows.force()
        (plan,) = plans_of(explain_data(program, engine=engine, box_id=keep))
        assert plan["tree"]["op"] == "ToRows"
        assert plan["tree"]["children"][0]["backend"] == "columnar"

    def test_explain_data_row_backend_under_row_reference(self, stations_db):
        from repro.dataflow.engine import Engine
        from repro.dataflow.explain import explain_data

        program, keep = self.build(stations_db)
        engine = Engine(program, stations_db)
        with row_backend():
            engine.output_of(keep, "out").rows.force()
        (plan,) = plans_of(explain_data(program, engine=engine, box_id=keep))
        assert {node["backend"] for node in walk_tree(plan["tree"])} == {"row"}


def walk_tree(tree):
    yield tree
    for child in tree["children"]:
        yield from walk_tree(child)


def plans_of(data):
    return [plan for box in data["boxes"]
            for output in box["outputs"] for plan in output["plans"]]


class TestOptimizerOnDemand:
    """Every engine demand runs ``optimize_plan`` on the unstarted plan."""

    def demand(self, db, *boxes):
        from repro.dataflow.boxes_db import AddTableBox
        from repro.dataflow.engine import Engine
        from repro.dataflow.explain import explain_data
        from repro.dataflow.graph import Program

        program = Program("optimizer-on-demand")
        upstream = program.add_box(AddTableBox(table="Stations"))
        for box in boxes:
            box_id = program.add_box(box)
            program.connect(upstream, "out", box_id, "in")
            upstream = box_id
        engine = Engine(program, db, cache=False)
        rows = engine.output_of(upstream, "out").rows.force()
        with row_backend():
            reference = Engine(program, db, cache=False).output_of(
                upstream, "out").rows.force()
        assert rows == reference
        (plan,) = plans_of(explain_data(program, engine=engine,
                                        box_id=upstream))
        return plan["tree"]

    def test_stacked_restricts_stop_at_the_box_boundary(self, stations_db):
        # Each box wraps its plan in a lazy set and downstream boxes read
        # it through a Cache node, which the rewrites never cross: the
        # demanded box's Restrict runs columnar over the upstream plan,
        # and the two predicates are not merged.
        from repro.dataflow.boxes_db import RestrictBox

        tree = self.demand(stations_db,
                           RestrictBox(predicate="altitude > 50.0"),
                           RestrictBox(predicate="latitude > 30.0"))
        ops = [(node["op"], node["backend"]) for node in walk_tree(tree)]
        assert ops[:4] == [("ToRows", "row"), ("Restrict", "columnar"),
                           ("ToColumns", "columnar"), ("Cache", "row")]
        restricts = [node["describe"] for node in walk_tree(tree)
                     if node["op"] == "Restrict"]
        assert restricts == ["Restrict[(latitude > 30.0)]",
                             "Restrict[(altitude > 50.0)]"]

    def test_numeric_join_runs_columnar_with_no_knob(self, weather_db):
        from repro.dataflow.boxes_db import AddTableBox, JoinBox
        from repro.dataflow.engine import Engine
        from repro.dataflow.explain import explain_data
        from repro.dataflow.graph import Program

        program = Program("columnar-join")
        stations = program.add_box(AddTableBox(table="Stations"))
        observations = program.add_box(AddTableBox(table="Observations"))
        join = program.add_box(JoinBox(left_key="station_id",
                                       right_key="station_id"))
        program.connect(stations, "out", join, "left")
        program.connect(observations, "out", join, "right")
        engine = Engine(program, weather_db, cache=False)
        rows = engine.output_of(join, "out").rows.force()
        with row_backend():
            reference = Engine(program, weather_db, cache=False).output_of(
                join, "out").rows.force()
        assert rows == reference
        (plan,) = plans_of(explain_data(program, engine=engine, box_id=join))
        assert plan["tree"]["op"] == "ToRows"
        ops = {(node["op"], node["backend"])
               for node in walk_tree(plan["tree"])}
        assert ("HashJoin", "columnar") in ops


FIGURES = [
    "build_fig1_table_view",
    "build_fig4_station_map",
    "build_fig7_overlay",
    "build_fig8_wormholes",
    "build_fig9_magnifier",
    "build_fig10_stitch",
    "build_fig11_replicate",
]


@pytest.mark.parametrize("builder_name", FIGURES)
def test_figure_pixels_identical_row_vs_columnar(weather_db, builder_name):
    """Every paper figure renders the same pixels and SceneStats on the
    default (optimized) path as on the row reference."""
    from repro.core import scenarios

    build = getattr(scenarios, builder_name)

    def canvases():
        scenario = build(weather_db)
        return {
            name: (window.render().pixels.copy(),
                   window.viewer.last_result.stats.to_dict())
            for name, window in sorted(scenario.named.items())
            if hasattr(window, "render")
        }

    with row_backend():
        row_renders = canvases()
    col_renders = canvases()
    assert row_renders.keys() == col_renders.keys()
    assert row_renders, builder_name
    for name, (row_pixels, row_stats) in row_renders.items():
        col_pixels, col_stats = col_renders[name]
        assert np.array_equal(row_pixels, col_pixels), \
            f"{builder_name}: window {name!r} pixels differ"
        assert row_stats == col_stats, name
