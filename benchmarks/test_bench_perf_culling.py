"""Perf-3: viewer-side filtering "to the ranges specified by the sliders ...
and to the visible real estate on the screen" (§2).

Renders a 20k-point canvas zoomed deep into a small region with culling on
and off.  The shape claim: with culling, render cost tracks the few visible
tuples; without it, every tuple's drawables are constructed and clipped.
Culling is semantics-preserving (identical pixels — property-tested in
tests/test_property_render.py).

The display compiles to a mark table, so no-culling also measures the
mark-table renderer over every row; the ratio arm gates it against the
per-tuple reference loop (tests/cull_reference.py) in the same process.
"""

from __future__ import annotations

import math
import statistics
import time

import pytest

from cull_reference import reference_culling

from repro.dataflow.boxes_attr import SetAttributeBox
from repro.dataflow.boxes_db import AddTableBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.data.workloads import build_points_table
from repro.dbms.catalog import Database
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite


def scatter_of(db):
    """The Perf-3 scatter over ``db``'s Points table."""
    program = Program()
    src = program.add_box(AddTableBox(table="Points"))
    set_x = program.add_box(SetAttributeBox(name="x", definition="x_pos"))
    set_y = program.add_box(SetAttributeBox(name="y", definition="y_pos"))
    display = program.add_box(
        SetAttributeBox(
            name="display",
            definition="combine(filled_circle(2), offset(text_of(point_id), 0, -6))",
        )
    )
    program.connect(src, "out", set_x, "in")
    program.connect(set_x, "out", set_y, "in")
    program.connect(set_y, "out", display, "in")
    engine = Engine(program, db)
    return engine.output_of(display)


@pytest.fixture(scope="module")
def scatter(points_db_20k):
    return scatter_of(points_db_20k)


DEEP_ZOOM = ViewState(center=(0.0, 0.0), elevation=30.0, viewport=(320, 240))


@pytest.mark.parametrize("cull", [True, False], ids=["culling", "no-culling"])
def test_perf_culling_deep_zoom(benchmark, scatter, cull):
    def render():
        canvas = Canvas(320, 240)
        stats = SceneStats()
        render_composite(canvas, scatter, DEEP_ZOOM, cull=cull, stats=stats)
        return canvas, stats

    canvas, stats = benchmark(render)
    assert stats.tuples_considered == 20_000
    if cull:
        # The deep zoom sees well under 1% of the points.
        assert stats.culled_by_viewport > 19_000
        assert stats.drawables_painted < 600
    else:
        assert stats.culled_by_viewport == 0
        assert stats.drawables_painted == 40_000


def test_perf_culling_pushdown_plan_stats(scatter):
    """The deep zoom culls before display evaluation: the cull node's row
    counts show display functions evaluated for strictly fewer tuples than
    are considered."""
    stats = SceneStats()
    render_composite(Canvas(320, 240), scatter, DEEP_ZOOM, stats=stats)
    (node,) = stats.cull_plans
    assert node.rows_in == 20_000
    assert node.rows_out < node.rows_in
    # Only the survivors reach display-function evaluation (some of those
    # still bbox-clip: the cull margin keeps anchors near the edge).
    assert stats.tuples_rendered <= node.rows_out
    assert node.rows_out < 600


def test_perf_culling_zoom_sweep(benchmark, scatter):
    """Flying downward: render cost should fall as the view narrows."""
    def sweep():
        rendered = []
        for elevation in (1100.0, 300.0, 80.0, 20.0):
            view = ViewState(center=(0.0, 0.0), elevation=elevation,
                             viewport=(320, 240))
            stats = SceneStats()
            render_composite(Canvas(320, 240), scatter, view, stats=stats)
            rendered.append(stats.tuples_rendered)
        return rendered

    rendered = benchmark(sweep)
    assert rendered[0] > rendered[-1]
    assert all(earlier >= later for earlier, later in zip(rendered, rendered[1:]))


#: The reference loop must take at least this many times as long as the
#: mark-table path over the same no-cull frame.  On a 2-vCPU VM the median
#: of the rounds below read 78-114, and 35-54 with the mark path (table
#: evaluation and draw_marks) planted to run twice.
MARK_TABLE_MIN_RATIO = 60.0


def test_perf_culling_mark_table_vs_per_tuple_ratio(scatter):
    """Same process, same frame: the no-cull 20k scatter through the mark
    table and through the per-tuple reference loop.  Each round times the
    two back to back, so host speed cancels out of its ratio; the median
    round is gated."""
    def render():
        stats = SceneStats()
        start = time.perf_counter()
        render_composite(Canvas(320, 240), scatter, DEEP_ZOOM, cull=False,
                         stats=stats)
        assert stats.drawables_painted == 40_000
        return time.perf_counter() - start

    def reference():
        with reference_culling():
            return render()

    render()
    ratios = []
    for __ in range(5):
        compiled = min(render() for __ in range(5))
        per_tuple = reference()
        compiled = min(compiled, *(render() for __ in range(5)))
        ratios.append(per_tuple / compiled)
    ratio = statistics.median(ratios)
    assert ratio >= MARK_TABLE_MIN_RATIO, (
        f"per-tuple / mark-table render time {ratio:.1f} < "
        f"{MARK_TABLE_MIN_RATIO} (rounds {[round(r, 1) for r in ratios]})")


#: Deep-zoom frame time over 200k points / over 20k at the same density:
#: the sorted-x index scans a strip of the world, which grows with the
#: square root of the row count, not with the row count.  On a 2-vCPU VM
#: the median of the rounds below read 1.17-1.21, and 4.74-5.87 with the
#: viewport cull planted back to a scan of every row.
CULL_SCALING_MAX_RATIO = 3.0


@pytest.fixture(scope="module")
def scatter_sizes():
    """The scatter over 20k and 200k points at one density: the larger
    world is sqrt(10) times as wide, so a view holds as many points."""
    sizes = {}
    for count in (20_000, 200_000):
        db = Database("points")
        db.add_table(build_points_table(
            "Points", count, seed=3, spread=1000.0 * math.sqrt(count / 20_000)))
        sizes[count] = scatter_of(db)
    return sizes


def test_perf_culling_scales_with_the_view_not_the_relation(scatter_sizes):
    """Same process, same deep-zoom culled view (no slider) over 20k and
    200k points, timed back to back each round; the median round's ratio
    is gated.  A cull that tests every row reads about the row ratio."""
    def render(count):
        stats = SceneStats()
        start = time.perf_counter()
        render_composite(Canvas(320, 240), scatter_sizes[count], DEEP_ZOOM,
                         stats=stats)
        elapsed = time.perf_counter() - start
        assert stats.tuples_considered == count
        assert stats.drawables_painted < 600
        return elapsed

    for count in scatter_sizes:
        render(count)    # location columns and index built: not timed
    ratios = []
    for __ in range(7):
        small = min(render(20_000) for __ in range(5))
        large = min(render(200_000) for __ in range(5))
        small = min(small, *(render(20_000) for __ in range(5)))
        ratios.append(large / small)
    ratio = statistics.median(ratios)
    assert ratio <= CULL_SCALING_MAX_RATIO, (
        f"200k / 20k deep-zoom render time {ratio:.2f} > "
        f"{CULL_SCALING_MAX_RATIO} (rounds {[round(r, 2) for r in ratios]})")
