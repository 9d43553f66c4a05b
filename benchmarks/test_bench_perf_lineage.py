"""Lineage arms: capture cost on a recording plan and on a full render.

With capture on, cost stays within a small constant factor of capture
off while every identity-breaking output row gains a recorded mapping
(docs/OBSERVABILITY.md, "Lineage & why-provenance").  The ratio tests
gate capture / disabled time of both workloads in the same process.
"""

from __future__ import annotations

import pytest

from repro.dataflow.boxes_attr import SetAttributeBox
from repro.dataflow.boxes_db import AddTableBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dbms import plan as P
from repro.dbms.parser import parse_predicate
from repro.obs.lineage import lineage_capture
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite


@pytest.fixture(scope="module")
def points_rows(points_db_20k):
    return points_db_20k.table("Points").snapshot()


@pytest.fixture(scope="module")
def scatter(points_db_20k):
    program = Program()
    src = program.add_box(AddTableBox(table="Points"))
    set_x = program.add_box(SetAttributeBox(name="x", definition="x_pos"))
    set_y = program.add_box(SetAttributeBox(name="y", definition="y_pos"))
    display = program.add_box(
        SetAttributeBox(name="display", definition="filled_circle(2)")
    )
    program.connect(src, "out", set_x, "in")
    program.connect(set_x, "out", set_y, "in")
    program.connect(set_y, "out", display, "in")
    engine = Engine(program, points_db_20k)
    return engine.output_of(display)


DEEP_ZOOM = ViewState(center=(0.0, 0.0), elevation=30.0, viewport=(320, 240))


def aggregate_plan(rows) -> P.GroupByNode:
    scan = P.ScanNode(rows, name="Points")
    kept = P.RestrictNode(scan, parse_predicate("value > 25.0", rows.schema))
    return P.GroupByNode(
        kept, ["category"],
        [("count", "point_id", "cnt"), ("avg", "value", "mean_value")],
    )


@pytest.mark.parametrize("capture", [False, True],
                         ids=["disabled", "capture"])
def test_perf_lineage_groupby_20k(benchmark, points_rows, capture):
    """A recording operator over 20k rows, with and without capture."""

    def run():
        node = aggregate_plan(points_rows)
        if capture:
            with lineage_capture(True):
                return node, list(node.rows_iter())
        return node, list(node.rows_iter())

    node, out = benchmark(run)
    assert out, "the aggregation must produce groups"
    if capture:
        store = node.lineage
        assert store is not None and len(store) == len(out)


@pytest.mark.parametrize("capture", [False, True],
                         ids=["disabled", "capture"])
def test_perf_lineage_render_deep_zoom(benchmark, scatter, capture):
    """The culling render under ambient capture vs. without.

    The cull path is identity-preserving (synthesized Restricts), so the
    capture arm measures pure bookkeeping overhead on a render-shaped
    workload — the cost a user pays for leaving REPRO_LINEAGE=1 on.
    """

    def render():
        canvas = Canvas(320, 240)
        stats = SceneStats()
        if capture:
            with lineage_capture(True) as state:
                render_composite(canvas, scatter, DEEP_ZOOM, stats=stats)
                return stats, state
        render_composite(canvas, scatter, DEEP_ZOOM, stats=stats)
        return stats, None

    stats, state = benchmark(render)
    assert stats.tuples_considered == 20_000
    assert stats.culled_by_viewport > 19_000


#: Median capture / disabled time of each workload below.  On a 2-vCPU VM
#: they read 0.99-1.02 (group-by) and 0.97-1.01 (render) over six runs,
#: and 1.99-2.04 and 1.99-2.18 with the capture arm planted to run twice.
CAPTURE_MAX_RATIO = 1.5

#: Deep-zoom renders per timed arm.
_RENDERS = 100


def _gate(ratio, rounds, what):
    assert ratio <= CAPTURE_MAX_RATIO, (
        f"capture / disabled {what} time {ratio:.2f} > {CAPTURE_MAX_RATIO} "
        f"(rounds {rounds})")


def test_perf_lineage_groupby_capture_ratio(points_rows, median_ratio):
    def run():
        list(aggregate_plan(points_rows).rows_iter())

    def captured():
        with lineage_capture(True):
            run()

    _gate(*median_ratio(captured, run), "group-by")


def test_perf_lineage_render_capture_ratio(scatter, median_ratio):
    def run():
        for __ in range(_RENDERS):
            render_composite(Canvas(320, 240), scatter, DEEP_ZOOM,
                             stats=SceneStats())

    def captured():
        with lineage_capture(True):
            run()

    _gate(*median_ratio(captured, run), "deep-zoom render")
