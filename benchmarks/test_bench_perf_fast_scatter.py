"""Perf-7: the cull kernel over a large scatter (an implementation ablation).

The viewer culls over location columns memoized on the row set -- a
slider mask, and the viewport test over the rows a range search of the
sorted x column finds -- and a display that reads no fields is computed once per
relation.  The arms compare that kernel with the per-tuple reference loop
(tests/cull_reference.py) at deep zoom (almost everything culled) and
overview (every point painted).  Equivalence is property-tested in
tests/test_fast_scatter.py.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from cull_reference import reference_culling
from repro.dataflow.boxes_attr import AddAttributeBox, SetAttributeBox
from repro.dataflow.boxes_db import AddTableBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite


@pytest.fixture(scope="module")
def scatter(points_db_20k):
    program = Program()
    src = program.add_box(AddTableBox(table="Points"))
    set_x = program.add_box(SetAttributeBox(name="x", definition="x_pos"))
    set_y = program.add_box(SetAttributeBox(name="y", definition="y_pos"))
    display = program.add_box(
        SetAttributeBox(name="display", definition="filled_circle(2, 'blue')")
    )
    slider = program.add_box(
        AddAttributeBox(name="value_dim", definition="value", location=True)
    )
    program.connect(src, "out", set_x, "in")
    program.connect(set_x, "out", set_y, "in")
    program.connect(set_y, "out", display, "in")
    program.connect(display, "out", slider, "in")
    return Engine(program, points_db_20k).output_of(slider)


VIEWS = {
    "deep-zoom": ViewState(center=(0.0, 0.0), elevation=30.0,
                           viewport=(320, 240)),
    "overview": ViewState(center=(0.0, 0.0), elevation=1100.0,
                          viewport=(320, 240)),
}


@pytest.mark.parametrize("where", list(VIEWS))
@pytest.mark.parametrize("path", ["kernel", "reference"])
def test_perf_cull_kernel(benchmark, scatter, where, path):
    view = VIEWS[where]

    def render():
        stats = SceneStats()
        render_composite(Canvas(320, 240), scatter, view, stats=stats)
        return stats

    if path == "reference":
        with reference_culling():
            stats = benchmark(render)
    else:
        stats = benchmark(render)
    assert stats.tuples_considered == 20_000
    assert len(stats.cull_plans) == (path == "kernel")


# ---------------------------------------------------------------------------
# Location memo: repeated pan/zoom renders over one row set
# ---------------------------------------------------------------------------

_ARMS = {"cold": False, "warm": True}    # arm -> location memo kept?
_RENDERS = 10   # re-renders of one viewport (the pan-and-return pattern)
_ROUNDS = 5


def test_perf_scatter_cache_speedup(scatter, record_parallel):
    """Re-rendering one viewport must reuse the memoized location columns,
    pixel-identically.

    The cold arm empties the row set's location memo before every render,
    so each render converts the x, y and slider columns again; the warm arm
    converts them once and then only masks.  Deep zoom is the
    representative view: culling 20k tuples dominates, drawing the few
    survivors is cheap.  Rounds alternate the arms, so a host slowdown
    lands on both rather than skewing the speedup.
    """
    view = VIEWS["deep-zoom"]
    rows = scatter.rows
    best = dict.fromkeys(_ARMS, float("inf"))
    canvases: dict[str, Canvas] = {}
    for __ in range(_ROUNDS):
        for arm, kept in _ARMS.items():
            rows.location_memo = None
            start = time.perf_counter()
            for __ in range(_RENDERS):
                if not kept:
                    rows.location_memo = None
                canvas = Canvas(320, 240)
                render_composite(canvas, scatter, view, stats=SceneStats())
            best[arm] = min(best[arm], time.perf_counter() - start)
            canvases[arm] = canvas
    arms = {arm: {"memo": kept, "seconds": round(best[arm], 6)}
            for arm, kept in _ARMS.items()}
    assert len(rows.location_memo) == 1    # one key: the memo engaged
    assert np.array_equal(canvases["cold"].pixels, canvases["warm"].pixels)
    speedup = arms["cold"]["seconds"] / arms["warm"]["seconds"]
    record_parallel({
        "name": "scatter_repeated_renders",
        "workload": {"points": 20_000, "renders": _RENDERS,
                     "viewport": [320, 240]},
        "arms": arms,
        "speedup": round(speedup, 2),
    })
    assert speedup >= 1.8
