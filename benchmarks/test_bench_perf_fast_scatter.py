"""Perf-7: the vectorized scatter fast path (an implementation ablation).

For the common scatter shape — x/y bound to stored columns, a constant
display — location extraction and culling run over numpy arrays instead of
per-tuple virtual rows.  The shape claim: the fast path wins and the win
grows with the culled fraction (deep zoom); equivalence is property-tested
in tests/test_fast_scatter.py.
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
@pytest.mark.parametrize("path", ["fast", "general"])
def test_perf_fast_scatter(benchmark, scatter, where, path):
    view = VIEWS[where]
    original = scene._try_fast_scatter
    if path == "general":
        scene._try_fast_scatter = lambda *a, **k: None
    try:
        def render():
            stats = SceneStats()
            render_composite(Canvas(320, 240), scatter, view, stats=stats)
            return stats

        stats = benchmark(render)
    finally:
        scene._try_fast_scatter = original
    assert stats.tuples_considered == 20_000


# ---------------------------------------------------------------------------
# Result cache: repeated pan/zoom renders through the cull-plan cache
# ---------------------------------------------------------------------------

_ARMS = {"cold": False, "warm": True}    # arm -> result cache on?
_RENDERS = 10   # re-renders of one viewport (the pan-and-return pattern)
_ROUNDS = 5


def test_perf_scatter_cache_speedup(scatter, record_parallel):
    """Re-rendering one viewport must hit the result cache, pixel-identically.

    The fast scatter path is disabled so every render goes through the
    synthesized viewport-cull plan — the code path the result cache fronts.
    The cold arm (cache off) re-runs the cull per render; the warm arm
    (cache on) pays one miss and then reuses the kept-row fragment.  Deep
    zoom is the representative view: culling 20k tuples dominates, drawing
    the few survivors is cheap.  Rounds alternate the arms, so a host
    slowdown lands on both rather than skewing the speedup.
    """
    view = VIEWS["deep-zoom"]
    cache = result_cache()
    original = scene._try_fast_scatter
    scene._try_fast_scatter = lambda *a, **k: None
    best = dict.fromkeys(_ARMS, float("inf"))
    canvases: dict[str, Canvas] = {}
    try:
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
    finally:
        scene._try_fast_scatter = original
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
