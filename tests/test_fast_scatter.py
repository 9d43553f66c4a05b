"""Unit + property tests: culling through a synthesized plan must be an
invisible optimization — same pixels, items, and statistics as the
row-at-a-time loop, on both sides of the row/columnar backend cutoff."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.render.scene as scene
from repro.data.workloads import build_points_table
from repro.dbms.parser import parse_expression
from repro.dbms.relation import Method
from repro.display.defaults import default_displayable
from repro.display.displayable import Composite
from repro.obs import global_registry
from repro.render.canvas import Canvas
from repro.render.scene import SceneStats, ViewState, render_composite

CONSTANT = "filled_circle(2, 'blue')"
TUPLE_DEPENDENT = "filled_circle(max(value / 20, 1.0))"

#: Row counts on each side of ``scene._COLUMNAR_CULL_MIN_ROWS``, each with a
#: display that reads no fields and one that does.
CASES = [(count, display) for count in (120, 2_000)
         for display in (CONSTANT, TUPLE_DEPENDENT)]


@lru_cache(maxsize=None)
def scatter_relation(count=200, seed=5, display=CONSTANT, with_slider=True):
    table = build_points_table("Points", count, seed=seed, spread=400.0)
    relation = default_displayable(table)
    relation = relation.with_method_added(
        Method("x", "float", parse_expression("x_pos"))
    )
    relation = relation.with_method_added(
        Method("y", "float", parse_expression("y_pos"))
    )
    relation = relation.with_method_added(
        Method("display", "drawables", parse_expression(display))
    )
    if with_slider:
        relation = relation.with_slider_added("value")
    return relation


def render(relation, view):
    canvas = Canvas(*view.viewport)
    stats = SceneStats()
    items = render_composite(canvas, relation, view, stats=stats)
    return canvas, stats, items


def render_both(relation, view):
    """Render through the cull plan and through the row loop."""
    planned = render(relation, view)
    original = scene._try_plan_cull
    scene._try_plan_cull = lambda *a, **k: None
    try:
        looped = render(relation, view)
    finally:
        scene._try_plan_cull = original
    assert len(planned[1].cull_plans) == 1
    assert not looped[1].cull_plans
    return planned, looped


STAT_FIELDS = ("tuples_considered", "tuples_rendered", "culled_by_slider",
               "culled_by_viewport", "drawables_painted")


class TestEquivalence:
    VIEW = ViewState(center=(0.0, 0.0), elevation=150.0, viewport=(200, 160))

    def test_pixels_identical(self):
        for count, display in CASES:
            relation = scatter_relation(count=count, display=display)
            (plan, __, __i), (loop, __s, __si) = render_both(
                relation, self.VIEW
            )
            assert np.array_equal(plan.pixels, loop.pixels), (count, display)

    def test_items_identical(self):
        for count, display in CASES:
            relation = scatter_relation(count=count, display=display)
            (__, __s, plan_items), (__c, __t, loop_items) = render_both(
                relation, self.VIEW
            )
            assert plan_items, (count, display)
            assert len(plan_items) == len(loop_items), (count, display)
            for plan, loop in zip(plan_items, loop_items):
                assert plan.bbox == loop.bbox
                assert plan.row is loop.row
                assert plan.tuple_index == loop.tuple_index
                assert plan.drawable_kind == loop.drawable_kind

    def test_stats_identical(self):
        view = ViewState(center=(0.0, 0.0), elevation=150.0,
                         viewport=(200, 160),
                         slider_ranges={"value": (0.0, 50.0)})
        for count, display in CASES:
            relation = scatter_relation(count=count, display=display)
            (__, plan_stats, __i), (__c, loop_stats, __si) = render_both(
                relation, view
            )
            assert plan_stats.culled_by_slider > 0
            for field in STAT_FIELDS:
                assert getattr(plan_stats, field) == \
                    getattr(loop_stats, field), (count, display, field)

    @given(
        count=st.sampled_from([120, 2_000]),
        display=st.sampled_from([CONSTANT, TUPLE_DEPENDENT]),
        center_x=st.floats(-300, 300), center_y=st.floats(-300, 300),
        elevation=st.floats(min_value=10.0, max_value=2000.0),
        low=st.floats(0.0, 50.0), high=st.floats(50.0, 100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_equivalence(self, count, display, center_x, center_y,
                                  elevation, low, high):
        relation = scatter_relation(count=count, seed=9, display=display)
        view = ViewState(center=(center_x, center_y), elevation=elevation,
                         viewport=(120, 96),
                         slider_ranges={"value": (low, high)})
        (plan, plan_stats, plan_items), (loop, loop_stats, loop_items) = \
            render_both(relation, view)
        assert np.array_equal(plan.pixels, loop.pixels)
        for field in STAT_FIELDS:
            assert getattr(plan_stats, field) == getattr(loop_stats, field)
        assert [(i.bbox, i.tuple_index) for i in plan_items] == \
            [(i.bbox, i.tuple_index) for i in loop_items]


class TestApplicability:
    VIEW = ViewState(center=(0.0, 0.0), elevation=150.0, viewport=(120, 96))

    def run_plan(self, relation, view=None):
        entry = Composite([relation]).entries[0]
        return scene._try_plan_cull(
            Canvas(120, 96), entry, view or self.VIEW, None, 0, SceneStats()
        )

    def test_applies_to_fieldref_scatter(self):
        assert self.run_plan(scatter_relation()) is not None

    def test_small_relations_fall_back(self):
        """Below the cutoff the plan runs on the row backend, above it on
        the columnar one."""
        batches = global_registry().counter(
            "columnar.batches", "column batches produced by columnar kernels"
        )
        for count, columnar in ((10, False), (2_000, True)):
            before = batches.value()
            assert self.run_plan(scatter_relation(count=count)) is not None
            assert (batches.value() > before) is columnar, count

    def test_computed_location_falls_back(self):
        relation = scatter_relation()
        relation = relation.with_method_replaced(
            Method("x", "float", parse_expression("x_pos * 2"))
        )
        assert self.run_plan(relation) is None

    def test_int_method_over_float_column_falls_back(self):
        # Coercion would reject x_pos's non-integral values; the plan would
        # read them raw instead.
        relation = scatter_relation().with_method_replaced(
            Method("x", "int", parse_expression("x_pos"))
        )
        assert self.run_plan(relation) is None

    def test_default_location_falls_back(self):
        table = build_points_table("Points", 100, seed=2)
        relation = default_displayable(table)
        assert self.run_plan(relation) is None

    def test_fast_path_is_faster_on_deep_zoom(self):
        import time

        relation = scatter_relation(count=20_000, seed=4)
        view = ViewState(center=(0.0, 0.0), elevation=20.0,
                         viewport=(160, 120))

        start = time.perf_counter()
        render_composite(Canvas(160, 120), relation, view)
        plan_elapsed = time.perf_counter() - start

        original = scene._try_plan_cull
        scene._try_plan_cull = lambda *a, **k: None
        try:
            start = time.perf_counter()
            render_composite(Canvas(160, 120), relation, view)
            loop_elapsed = time.perf_counter() - start
        finally:
            scene._try_plan_cull = original
        assert plan_elapsed < loop_elapsed
