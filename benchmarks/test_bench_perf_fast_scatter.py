"""Perf-7: plan culling of a large scatter (an implementation ablation).

For x/y bound to stored columns, slider and viewport culling run as a
synthesized plan — on the columnar backend at this size — and a display
that reads no fields is computed once per relation.  The arms compare that
path with the row-at-a-time loop at deep zoom (almost everything culled)
and overview (every point painted).  Equivalence is property-tested in
tests/test_fast_scatter.py.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.render.scene as scene
from repro.dataflow.boxes_attr import AddAttributeBox, SetAttributeBox
from repro.dataflow.boxes_db import AddTableBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dbms.result_cache import result_cache, set_cache_enabled
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
@pytest.mark.parametrize("path", ["plan", "row_loop"])
def test_perf_plan_cull(benchmark, monkeypatch, scatter, where, path):
    view = VIEWS[where]
    if path == "row_loop":
        monkeypatch.setattr(scene, "_try_plan_cull", lambda *a, **k: None)

    def render():
        stats = SceneStats()
        render_composite(Canvas(320, 240), scatter, view, stats=stats)
        return stats

    stats = benchmark(render)
    assert stats.tuples_considered == 20_000
    assert len(stats.cull_plans) == (path == "plan")


# ---------------------------------------------------------------------------
# Result cache: repeated pan/zoom renders through the cull-plan cache
# ---------------------------------------------------------------------------

_ARMS = {"cold": False, "warm": True}    # arm -> result cache on?
_RENDERS = 10   # re-renders of one viewport (the pan-and-return pattern)
_ROUNDS = 5


def test_perf_scatter_cache_speedup(scatter, record_parallel, monkeypatch):
    """Re-rendering one viewport must hit the result cache, pixel-identically.

    The columnar cutoff is raised past the source size so every render
    runs the viewport-cull plan on the row backend, the configuration the
    committed baseline records; the result cache fronts that plan.
    The cold arm (cache off) re-runs the cull per render; the warm arm
    (cache on) pays one miss and then reuses the kept-row fragment.  Deep
    zoom is the representative view: culling 20k tuples dominates, drawing
    the few survivors is cheap.  Rounds alternate the arms, so a host
    slowdown lands on both rather than skewing the speedup.
    """
    view = VIEWS["deep-zoom"]
    cache = result_cache()
    monkeypatch.setattr(scene, "_COLUMNAR_CULL_MIN_ROWS", len(scatter) + 1)
    best = dict.fromkeys(_ARMS, float("inf"))
    canvases: dict[str, Canvas] = {}
    for __ in range(_ROUNDS):
        for arm, enabled in _ARMS.items():
            previous = set_cache_enabled(enabled)
            try:
                cache.clear()
                start = time.perf_counter()
                for __ in range(_RENDERS):
                    canvas = Canvas(320, 240)
                    render_composite(canvas, scatter, view,
                                     stats=SceneStats())
                best[arm] = min(best[arm], time.perf_counter() - start)
            finally:
                set_cache_enabled(previous)
            canvases[arm] = canvas
    arms = {arm: {"cache": enabled, "seconds": round(best[arm], 6)}
            for arm, enabled in _ARMS.items()}
    stats = cache.stats()
    assert stats["hits"] >= _RENDERS - 1    # the cull-plan cache engaged
    assert np.array_equal(canvases["cold"].pixels, canvases["warm"].pixels)
    speedup = arms["cold"]["seconds"] / arms["warm"]["seconds"]
    record_parallel({
        "name": "scatter_repeated_renders",
        "workload": {"points": 20_000, "renders": _RENDERS,
                     "viewport": [320, 240]},
        "arms": arms,
        "speedup": round(speedup, 2),
        "cache": {"hits": stats["hits"], "misses": stats["misses"]},
    })
    assert speedup >= 1.8
