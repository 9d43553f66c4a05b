"""Perf-8: the columnar execution backend (row vs vectorized kernels).

Workloads shaped like the paper's interactive hot paths — a scatter
viewport restrict and the Stations⋈Observations-style join feeding a slider
restrict — each run twice: once on the serial row backend, once with
``columnarize_plan`` selecting vectorized numpy kernels.  The deep-zoom
culling render compares the viewer's vectorized cull kernel with the
per-tuple reference loop the same way.  Rows, order, and pixels are
asserted identical between the arms (each is an implementation ablation,
not a semantics change), and each test gates the median of its
interleaved per-round speedups.  See ``docs/COLUMNAR.md``.
"""

from __future__ import annotations

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

#: Median row / columnar time of the viewport restrict.  On a 2-vCPU VM it
#: read 138-155 over six runs, and 69-92 with the columnar arm planted to
#: run twice.
CULL_RESTRICT_MIN_SPEEDUP = 110.0

#: Median reference / kernel time per deep-zoom render.  On a 2-vCPU VM
#: it read 453-479 over three runs (440-451 alone), and 225-248 with the
#: kernel arm planted to run twice.
CULLING_RENDER_MIN_SPEEDUP = 320.0

#: Kernel renders per timed arm: one takes about 3 ms, too short to time
#: alone against the reference's one second.
_KERNEL_RENDERS = 20

#: Median row / columnar time of the join-restrict.  On a 2-vCPU VM it
#: read 28.2-35.6 over six runs, and 13.1-16.4 with the columnar arm
#: planted to run twice.
JOIN_RESTRICT_MIN_SPEEDUP = 20.0

# Canonical declarations — must match the emitting kernels in repro.dbms.plan.
_BATCHES = ("columnar.batches", "column batches produced by columnar kernels")
_FALLBACK = ("columnar.fallback",
             "column batches re-evaluated on the row path after a data hazard")


def _pull(node):
    return [row for batch in node.open() for row in batch]


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


# ---------------------------------------------------------------------------
# Arm 1: a viewport-cull-shaped Restrict over a scatter
# ---------------------------------------------------------------------------

def test_perf_columnar_fast_scatter_cull(points_db_20k, median_ratio):
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

    row_rows = _pull(row_plan())
    col_rows, counters = _counter_deltas(lambda: _pull(columnar_plan()))
    assert [r.values for r in row_rows] == [r.values for r in col_rows]
    assert counters["columnar.batches"] > 0
    assert counters["columnar.fallback"] == 0
    ratio, rounds = median_ratio((row_plan, _pull), (columnar_plan, _pull))
    assert ratio >= CULL_RESTRICT_MIN_SPEEDUP, (
        f"row / columnar viewport restrict time {ratio:.1f} < "
        f"{CULL_RESTRICT_MIN_SPEEDUP} (rounds {rounds})")


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


def test_perf_columnar_culling_render(scatter_100k, median_ratio):
    """Full deep-zoom renders: the per-tuple reference loop vs the cull
    kernel.

    The kernel masks location columns memoized on the row set (converted
    once, by the untimed first render); the reference evaluates every
    tuple's location per render.  The comparison covers the whole pipeline
    (cull + drawables for the survivors), which is what a viewer actually
    pays per pan/zoom step.
    """
    view = ViewState(center=(0.0, 0.0), elevation=30.0, viewport=(320, 240))

    def render():
        canvas = Canvas(320, 240)
        render_composite(canvas, scatter_100k, view, stats=SceneStats())
        return canvas

    def reference():
        with reference_culling():
            return render()

    def kernel():
        for __ in range(_KERNEL_RENDERS):
            render()

    assert np.array_equal(reference().pixels, render().pixels)
    ratio, rounds = median_ratio(reference, kernel, rounds=5, best_of=1,
                                 calls=(1, _KERNEL_RENDERS))
    assert ratio >= CULLING_RENDER_MIN_SPEEDUP, (
        f"reference / kernel deep-zoom render time {ratio:.1f} < "
        f"{CULLING_RENDER_MIN_SPEEDUP} (rounds {rounds})")


# ---------------------------------------------------------------------------
# Arm 3: hash join feeding a selective restrict (deferred materialization)
# ---------------------------------------------------------------------------

def test_perf_columnar_join_restrict(median_ratio):
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

    row_rows_out = _pull(row_plan())
    col_rows_out, counters = _counter_deltas(lambda: _pull(columnar_plan()))
    assert [r.values for r in row_rows_out] == \
        [r.values for r in col_rows_out]
    assert counters["columnar.batches"] > 0
    assert counters["columnar.fallback"] == 0
    ratio, rounds = median_ratio((row_plan, _pull), (columnar_plan, _pull))
    assert ratio >= JOIN_RESTRICT_MIN_SPEEDUP, (
        f"row / columnar join-restrict time {ratio:.1f} < "
        f"{JOIN_RESTRICT_MIN_SPEEDUP} (rounds {rounds})")
