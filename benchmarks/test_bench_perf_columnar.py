"""Perf-8: the columnar execution backend (row vs vectorized kernels).

Workloads shaped like the paper's interactive hot paths — a scatter
viewport restrict and the Stations⋈Observations-style join feeding a slider
restrict — each run twice: once on the serial row backend, once with
``columnarize_plan`` selecting vectorized numpy kernels.  The deep-zoom
culling render compares the viewer's vectorized cull kernel with the
per-tuple reference loop the same way.  Rows, order, and pixels are
asserted identical between the arms (each is an implementation ablation,
not a semantics change); the timing arms + speedups are recorded to
``BENCH_columnar.json`` and gated by ``repro bench-diff`` in CI.  See
``docs/COLUMNAR.md``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from cull_reference import reference_culling
from repro.data.workloads import build_pairs_tables, build_points_database
from repro.dataflow.boxes_attr import SetAttributeBox
from repro.dataflow.boxes_db import AddTableBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dbms import plan as P
from repro.dbms.parser import parse_predicate
from repro.dbms.plan_rewrite import columnarize_plan
from repro.obs import global_registry
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite

_ROUNDS = 3

# Canonical declarations — must match the emitting kernels in repro.dbms.plan.
_BATCHES = ("columnar.batches", "column batches produced by columnar kernels")
_FALLBACK = ("columnar.fallback",
             "column batches re-evaluated on the row path after a data hazard")


def _pull(node):
    return [row for batch in node.open() for row in batch]


def _best_of(make, run, rounds=_ROUNDS):
    best = float("inf")
    out = None
    for __ in range(rounds):
        subject = make()
        start = time.perf_counter()
        out = run(subject)
        best = min(best, time.perf_counter() - start)
    return best, out


def _counter_deltas(fn):
    """Run ``fn`` and return (result, columnar batch/fallback deltas)."""
    registry = global_registry()
    batches = registry.counter(*_BATCHES)
    fallback = registry.counter(*_FALLBACK)
    before = (batches.value(), fallback.value())
    result = fn()
    return result, {
        "columnar.batches": batches.value() - before[0],
        "columnar.fallback": fallback.value() - before[1],
    }


def _entry(name, workload, row_s, col_s, counters):
    return {
        "name": name,
        "workload": workload,
        "arms": {
            "row": {"seconds": round(row_s, 6)},
            "columnar": {"seconds": round(col_s, 6)},
        },
        "speedup": round(row_s / col_s, 2),
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# Arm 1: a viewport-cull-shaped Restrict over a scatter
# ---------------------------------------------------------------------------

def test_perf_columnar_fast_scatter_cull(points_db_20k, record_columnar):
    """The viewport cull predicate over 20k points, row vs vectorized.

    A deep zoom's viewport window written as a query: four numeric
    comparisons conjoined, almost everything filtered out.  The row arm evaluates the predicate tuple-at-a-time through the
    expression interpreter; the columnar arm compiles it to numpy mask
    arithmetic over whole-column batches.
    """
    rows = points_db_20k.table("Points").snapshot()
    predicate = parse_predicate(
        "(x_pos > -5.0) and (x_pos < 5.0) and "
        "(y_pos > -4.0) and (y_pos < 4.0)",
        rows.schema,
    )

    def row_plan():
        return P.RestrictNode(P.ScanNode(rows, name="Points"), predicate)

    def columnar_plan():
        root, __ = columnarize_plan(row_plan())
        return root

    row_s, row_rows = _best_of(row_plan, _pull, rounds=5)
    (col_s, col_rows), counters = _counter_deltas(
        lambda: _best_of(columnar_plan, _pull, rounds=5))
    assert [r.values for r in row_rows] == [r.values for r in col_rows]
    assert counters["columnar.fallback"] == 0
    speedup = row_s / col_s
    record_columnar(_entry(
        "fast_scatter_cull_restrict",
        {"points": 20_000, "kept": len(row_rows)},
        row_s, col_s, counters,
    ))
    assert speedup >= 15.0


# ---------------------------------------------------------------------------
# Arm 2: the deep-zoom culling render, end to end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scatter_100k():
    """A 100k-point scatter: big enough that cull evaluation dominates."""
    db = build_points_database(100_000, seed=3)
    program = Program()
    src = program.add_box(AddTableBox(table="Points"))
    set_x = program.add_box(SetAttributeBox(name="x", definition="x_pos"))
    set_y = program.add_box(SetAttributeBox(name="y", definition="y_pos"))
    display = program.add_box(
        SetAttributeBox(
            name="display",
            definition="combine(filled_circle(2), "
                       "offset(text_of(point_id), 0, -6))",
        )
    )
    program.connect(src, "out", set_x, "in")
    program.connect(set_x, "out", set_y, "in")
    program.connect(set_y, "out", display, "in")
    return Engine(program, db).output_of(display)


def test_perf_columnar_culling_render(scatter_100k, record_columnar):
    """Full deep-zoom renders: the per-tuple reference loop vs the cull
    kernel.

    The kernel masks location columns memoized on the row set (converted
    once, by the untimed first render); the reference evaluates every
    tuple's location per render.  The comparison covers the whole pipeline
    (cull + drawables for the survivors), which is what a viewer actually
    pays per pan/zoom step.
    """
    view = ViewState(center=(0.0, 0.0), elevation=30.0, viewport=(320, 240))

    def render(_=None):
        canvas = Canvas(320, 240)
        render_composite(canvas, scatter_100k, view, stats=SceneStats())
        return canvas

    with reference_culling():
        reference_s, reference_canvas = _best_of(lambda: None, render)
    render()
    (kernel_s, kernel_canvas), counters = _counter_deltas(
        lambda: _best_of(lambda: None, render))
    assert np.array_equal(reference_canvas.pixels, kernel_canvas.pixels)
    speedup = reference_s / kernel_s
    record_columnar({
        "name": "culling_deep_zoom_render",
        "workload": {"points": 100_000, "viewport": [320, 240]},
        "arms": {
            "reference": {"seconds": round(reference_s, 6)},
            "kernel": {"seconds": round(kernel_s, 6)},
        },
        "speedup": round(speedup, 2),
        "counters": counters,
    })
    assert speedup >= 5.0


# ---------------------------------------------------------------------------
# Arm 3: hash join feeding a selective restrict (deferred materialization)
# ---------------------------------------------------------------------------

def test_perf_columnar_join_restrict(record_columnar):
    """Stations⋈Observations-shaped join under a selective slider restrict.

    The row arm materializes every joined tuple and then interprets the
    predicate per row; the columnar arm probes with sorted key arrays,
    filters the joined *columns*, and only builds tuples for the few
    survivors — the deferred-materialization win columnar execution is for.
    """
    left, right = build_pairs_tables(800, 8, seed=7)
    left_rows, right_rows = left.snapshot(), right.snapshot()

    def row_plan():
        join = P.HashJoinNode(
            P.ScanNode(left_rows, name="Left"),
            P.ScanNode(right_rows, name="Right"),
            "key", "ref",
        )
        predicate = parse_predicate("measure > 0.97", join.schema)
        return P.RestrictNode(join, predicate)

    def columnar_plan():
        root, __ = columnarize_plan(row_plan())
        return root

    row_s, row_rows_out = _best_of(row_plan, _pull, rounds=5)
    (col_s, col_rows_out), counters = _counter_deltas(
        lambda: _best_of(columnar_plan, _pull, rounds=5))
    assert [r.values for r in row_rows_out] == \
        [r.values for r in col_rows_out]
    assert counters["columnar.fallback"] == 0
    speedup = row_s / col_s
    record_columnar(_entry(
        "join_selective_restrict",
        {"left_rows": 800, "right_rows": 6_400,
         "kept": len(row_rows_out)},
        row_s, col_s, counters,
    ))
    assert speedup >= 5.0
