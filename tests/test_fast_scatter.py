"""Unit + property tests: the viewer's cull kernel — array work over
memoized location columns, the viewport searched through a sorted-x index
— must be an invisible optimization.  Every case renders through the
kernel and through the per-tuple reference loop (tests/cull_reference.py)
and compares pixels, rendered items (row identity, tuple index, bbox) and
scene statistics."""

from __future__ import annotations

import gc
import math
import sys
import threading
import time
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.render.scene as scene
from cull_reference import reference_culling
from repro.core.scenarios import build_fig8_wormholes
from repro.data.weather import build_weather_database
from repro.data.workloads import POINTS_SCHEMA, build_points_table
from repro.dbms.parser import parse_expression
from repro.dbms.plan import LazyRowSet, ScanNode
from repro.dbms.relation import Method, Table
from repro.dbms.tuples import Schema
from repro.display.defaults import default_displayable
from repro.display.displayable import Composite, CompositeEntry
from repro.errors import EvaluationError
from repro.render.canvas import Canvas
from repro.render.scene import (
    SceneStats,
    ViewState,
    location_columns,
    render_composite,
)

CONSTANT = "filled_circle(2, 'blue')"
TUPLE_DEPENDENT = "filled_circle(max(value / 20, 1.0))"

#: A small and a larger scatter, each with a display that reads no fields
#: and one that does.
CASES = [(count, display) for count in (120, 2_000)
         for display in (CONSTANT, TUPLE_DEPENDENT)]


def with_location(relation, x="x_pos", y="y_pos", display=CONSTANT,
                  slider=True):
    relation = relation.with_method_added(
        Method("x", "float", parse_expression(x))
    )
    relation = relation.with_method_added(
        Method("y", "float", parse_expression(y))
    )
    relation = relation.with_method_added(
        Method("display", "drawables", parse_expression(display))
    )
    return relation.with_slider_added("value") if slider else relation


@lru_cache(maxsize=None)
def scatter_relation(count=200, seed=5, display=CONSTANT, with_slider=True,
                     x="x_pos", y="y_pos"):
    table = build_points_table("Points", count, seed=seed, spread=400.0)
    return with_location(default_displayable(table), x=x, y=y,
                         display=display, slider=with_slider)


def render(displayable, view, cull=True):
    canvas = Canvas(*view.viewport)
    stats = SceneStats()
    items = render_composite(canvas, displayable, view, cull=cull,
                             stats=stats)
    return canvas, stats, items


def render_both(displayable, view, cull=True):
    """Render through the kernel and through the per-tuple reference."""
    kernel = render(displayable, view, cull)
    with reference_culling():
        reference = render(displayable, view, cull)
    assert not reference[1].cull_plans
    return kernel, reference


STAT_FIELDS = ("tuples_considered", "tuples_rendered", "culled_by_slider",
               "culled_by_viewport", "relations_culled_by_elevation",
               "drawables_painted")


def assert_parity(displayable, view, cull=True):
    """Pixels, items and statistics agree; returns the kernel's stats."""
    (canvas, stats, items), (ref_canvas, ref_stats, ref_items) = \
        render_both(displayable, view, cull)
    assert np.array_equal(canvas.pixels, ref_canvas.pixels)
    for field in STAT_FIELDS:
        assert getattr(stats, field) == getattr(ref_stats, field), field
    assert len(items) == len(ref_items)
    for item, ref in zip(items, ref_items):
        assert item.bbox == ref.bbox
        assert item.row is ref.row
        assert item.tuple_index == ref.tuple_index
        assert item.relation_name == ref.relation_name
        assert item.drawable_kind == ref.drawable_kind
    return stats


class TestEquivalence:
    VIEW = ViewState(center=(0.0, 0.0), elevation=150.0, viewport=(200, 160))

    def test_pixels_identical(self):
        for count, display in CASES:
            relation = scatter_relation(count=count, display=display)
            (kernel, __, __i), (loop, __s, __si) = render_both(
                relation, self.VIEW
            )
            assert np.array_equal(kernel.pixels, loop.pixels), (count, display)

    def test_items_identical(self):
        for count, display in CASES:
            relation = scatter_relation(count=count, display=display)
            (__, __s, kernel_items), (__c, __t, loop_items) = render_both(
                relation, self.VIEW
            )
            assert kernel_items, (count, display)
            assert len(kernel_items) == len(loop_items), (count, display)
            for kernel, loop in zip(kernel_items, loop_items):
                assert kernel.bbox == loop.bbox
                assert kernel.row is loop.row
                assert kernel.tuple_index == loop.tuple_index
                assert kernel.drawable_kind == loop.drawable_kind

    def test_stats_identical(self):
        view = ViewState(center=(0.0, 0.0), elevation=150.0,
                         viewport=(200, 160),
                         slider_ranges={"value": (0.0, 50.0)})
        for count, display in CASES:
            relation = scatter_relation(count=count, display=display)
            (__, kernel_stats, __i), (__c, loop_stats, __si) = render_both(
                relation, view
            )
            assert kernel_stats.culled_by_slider > 0
            for field in STAT_FIELDS:
                assert getattr(kernel_stats, field) == \
                    getattr(loop_stats, field), (count, display, field)
            (node,) = kernel_stats.cull_plans
            assert node.rows_in == count
            assert node.in_ranges == count - kernel_stats.culled_by_slider
            assert node.rows_out == \
                node.in_ranges - kernel_stats.culled_by_viewport

    @given(
        count=st.sampled_from([120, 2_000]),
        display=st.sampled_from([CONSTANT, TUPLE_DEPENDENT]),
        computed=st.booleans(),
        center_x=st.floats(-300, 300), center_y=st.floats(-300, 300),
        elevation=st.floats(min_value=10.0, max_value=2000.0),
        low=st.floats(0.0, 50.0), high=st.floats(50.0, 100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_equivalence(self, count, display, computed, center_x,
                                  center_y, elevation, low, high):
        x = "x_pos * 1.5 - 20.0" if computed else "x_pos"
        relation = scatter_relation(count=count, seed=9, display=display,
                                    x=x)
        view = ViewState(center=(center_x, center_y), elevation=elevation,
                         viewport=(120, 96),
                         slider_ranges={"value": (low, high)})
        assert_parity(relation, view)


class TestParityCases:
    """The relation shapes the kernel must treat exactly like the loop."""

    VIEW = ViewState(center=(10.0, -5.0), elevation=160.0, viewport=(160, 120),
                     slider_ranges={"value": (20.0, 70.0)})

    def test_stored_columns(self):
        # x, y and the slider are stored columns: converted, not evaluated.
        table = Table("Stored", Schema([("x", "float"), ("y", "int"),
                                        ("value", "float")]))
        points = build_points_table("Points", 400, seed=3, spread=400.0)
        table.insert_many(
            {"x": row["x_pos"], "y": int(row["y_pos"]), "value": row["value"]}
            for row in points
        )
        relation = default_displayable(table).with_method_added(
            Method("display", "drawables", parse_expression(TUPLE_DEPENDENT))
        ).with_slider_added("value")
        assert [scene._stored_position(relation, attr)
                for attr in relation.location_attrs] == [0, 1, 2]
        stats = assert_parity(relation, self.VIEW)
        assert stats.culled_by_slider and stats.culled_by_viewport

    def test_computed_locations(self):
        relation = scatter_relation(
            count=500, x="x_pos * 0.5 + value", y="if value > 50.0 "
            "then y_pos else 0.0 - y_pos", display=TUPLE_DEPENDENT,
        )
        assert scene._stored_position(relation, "x") is None
        stats = assert_parity(relation, self.VIEW)
        assert stats.tuples_rendered

    def test_default_location(self):
        table = build_points_table("Points", 60, seed=2)
        relation = default_displayable(table).with_slider_added("value")
        view = ViewState(center=(0.0, 20.0), elevation=10.0,
                         viewport=(200, 160),
                         slider_ranges={"value": (10.0, 80.0)})
        stats = assert_parity(relation, view)
        assert stats.culled_by_viewport and stats.tuples_rendered

    def test_nan_locations(self):
        # NaN is not a legal float value, but infinities are, and an
        # infinite offset over an infinite location yields NaN.
        table = Table("Points", POINTS_SCHEMA)
        inf = math.inf
        table.insert_many(
            {"point_id": i, "x_pos": x, "y_pos": y, "value": v,
             "category": "a"}
            for i, (x, y, v) in enumerate([
                (0.0, 0.0, 50.0), (inf, 1.0, 50.0), (1.0, -inf, 50.0),
                (2.0, 2.0, inf), (1e308, 0.0, 50.0), (-inf, 0.0, -inf),
                (3.0, -3.0, 50.0),
            ])
        )
        relation = with_location(default_displayable(table))
        for x in ("x_pos", "x_pos * 2.0"):
            relation = relation.with_method_replaced(
                Method("x", "float", parse_expression(x))
            )
            composite = Composite([
                CompositeEntry(relation),
                CompositeEntry(relation, {"x": inf, "value": -inf}),
                CompositeEntry(relation, {"y": -inf, "value": inf}),
            ])
            stats = assert_parity(composite, self.VIEW)
            assert stats.tuples_considered == 21
            assert stats.tuples_rendered == 2
            assert stats.culled_by_slider and stats.culled_by_viewport

    def test_composite_offsets(self):
        base = scatter_relation(count=300, display=TUPLE_DEPENDENT)
        composite = Composite([
            CompositeEntry(base, {"x": 35.5, "y": -12.25, "value": 15.0}),
            CompositeEntry(scatter_relation(count=300, x="x_pos + 1.0"),
                           {"y": 40.0}),
        ])
        stats = assert_parity(composite, self.VIEW)
        assert len(stats.cull_plans) == 2

    def test_unbounded_and_bounded_sliders(self):
        relation = scatter_relation(count=300).with_slider_added("point_id")
        for ranges in ({}, {"value": (30.0, 60.0)},
                       {"point_id": (50.0, 120.0)},
                       {"value": (30.0, 60.0), "point_id": (50.0, 120.0)},
                       {"other": (0.0, 1.0)}):
            view = ViewState(center=(0.0, 0.0), elevation=400.0,
                             viewport=(160, 120), slider_ranges=ranges)
            stats = assert_parity(relation, view)
            assert bool(stats.culled_by_slider) == any(
                dim in ranges for dim in ("value", "point_id"))

    def test_cull_false(self):
        relation = scatter_relation(count=300, display=TUPLE_DEPENDENT)
        stats = assert_parity(relation, self.VIEW, cull=False)
        assert stats.tuples_rendered == 300
        assert not stats.cull_plans
        assert stats.culled_by_slider == stats.culled_by_viewport == 0

    def test_negative_elevations(self):
        relation = scatter_relation(
            count=300, display=TUPLE_DEPENDENT).with_range(-500.0, 500.0)
        view = ViewState(center=(5.0, 5.0), elevation=-150.0,
                         viewport=(160, 120),
                         slider_ranges={"value": (10.0, 90.0)})
        assert assert_parity(relation, view).tuples_rendered


@pytest.fixture(scope="module")
def fig8():
    db = build_weather_database(extra_stations=4, every_days=60)
    return build_fig8_wormholes(db)


class TestSeriesShapedJoin:
    """fig8's temperature series: a Stations⋈Observations join whose x is
    computed from the observation date and y from station and value."""

    @pytest.mark.parametrize("center,elevation", [
        ((200.0, 5 * 60.0 + 25.0), 150.0),
        ((350.0, 12 * 60.0 + 10.0), 80.0),
        ((200.0, 600.0), 1500.0),
    ])
    def test_series_window(self, fig8, center, elevation):
        relation = fig8.named["series_window"].viewer.displayable()
        assert scene._stored_position(relation, "x") is None
        view = ViewState(center=center, elevation=elevation,
                         viewport=(640, 480))
        stats = assert_parity(relation, view)
        assert stats.tuples_considered == len(relation)

    def test_wormholes_render_nested_passes(self, fig8):
        # Zoomed onto New Orleans the map shows wormholes whose frames
        # render the series canvas: nested passes go through the kernel too.
        viewer = fig8.named["map_window"].viewer
        viewer._sync_views()
        view = viewer.views["main"].copy()
        view.center = (-90.07, 29.95)
        view.elevation = 1.5
        view.viewport = (320, 240)
        canvas, stats, items = render(viewer.displayable(), view)
        assert any(item.drawable_kind == "viewer" for item in items)
        assert_parity(viewer.displayable(), view)


def points_relation(rows, x="x_pos"):
    return with_location(default_displayable(rows, name="Points"), x=x)


class TestLocationMemo:
    def test_columns_match_location_of(self):
        relation = scatter_relation(count=50, x="x_pos * 3.0 - value")
        columns = location_columns(relation)
        expected = [relation.location_of(view) for view in relation.views()]
        assert [tuple(c[i] for c in columns) for i in range(50)] == expected
        assert location_columns(relation) is columns   # memoized

    def test_memo_on_lazy_row_set(self):
        snapshot = build_points_table("Points", 200, seed=1).snapshot()
        rows = LazyRowSet(ScanNode(snapshot, name="Points"))
        assert rows.location_memo is None
        relation = points_relation(rows)
        columns = location_columns(relation)
        assert location_columns(relation) is columns
        assert len(rows.location_memo) == 1
        assert snapshot.location_memo is None    # memo lives on its own set

    def test_memo_lives_with_its_row_set(self):
        rows = build_points_table("Points", 300, seed=2).snapshot()
        relation = points_relation(rows, x="x_pos + 1.0")
        column = weakref.ref(location_columns(relation)[0])
        assert column() is not None
        del rows, relation
        gc.collect()
        assert column() is None    # freed with the row set

    def test_memo_stays_bounded(self):
        rows = build_points_table("Points", 100, seed=3).snapshot()
        relation = points_relation(rows)
        for step in range(3 * scene._LOCATION_MEMO_ENTRIES):
            relation = relation.with_method_replaced(
                Method("x", "float", parse_expression(f"x_pos + {step}.0"))
            )
            assert location_columns(relation)[0][0] == \
                relation.location_of(relation.view_at(0))[0]
            assert len(rows.location_memo) <= scene._LOCATION_MEMO_ENTRIES

    def test_concurrent_viewers_share_one_memo(self):
        # Server pool threads render one row set at once.  A racing publish
        # may lose a memo entry (it is recomputed), never a value, and the
        # memo stays bounded.
        rows = build_points_table("Points", 300, seed=5).snapshot()
        relations = [points_relation(rows, x=f"x_pos * {k}.0")
                     for k in range(1, 7)]
        expected = [[r.location_of(v)[0] for v in r.views()]
                    for r in relations]
        errors: list[str] = []

        def viewer(worker):
            for step in range(40):
                k = (worker + step) % len(relations)
                if location_columns(relations[k])[0].tolist() != expected[k]:
                    errors.append(f"worker {worker} step {step}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=viewer, args=(w,))
                       for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(rows.location_memo) <= scene._LOCATION_MEMO_ENTRIES

    def test_failing_location_memoizes_nothing(self):
        rows = build_points_table("Points", 40, seed=4).snapshot()
        relation = points_relation(rows).with_method_replaced(
            Method("x", "int", parse_expression("x_pos"))
        )
        for __ in range(2):
            with pytest.raises(EvaluationError):
                location_columns(relation)
        assert not rows.location_memo
        with pytest.raises(EvaluationError):
            render(relation, ViewState(viewport=(64, 48)))


class TestApplicability:
    """How each location attribute turns into a column."""

    VIEW = ViewState(center=(0.0, 0.0), elevation=150.0, viewport=(120, 96))

    def test_applies_to_fieldref_scatter(self):
        """x/y bound to stored columns convert directly, no evaluation."""
        relation = scatter_relation()
        schema = relation.rows.schema
        assert scene._stored_position(relation, "x") == \
            schema.position("x_pos")
        assert scene._stored_position(relation, "value") == \
            schema.position("value")

    def test_computed_location_falls_back(self):
        """A computed x is evaluated once per row set (by a compiled
        kernel; tests/test_location_kernels.py covers when location_of
        runs instead)."""
        relation = scatter_relation().with_method_replaced(
            Method("x", "float", parse_expression("x_pos * 2"))
        )
        assert scene._stored_position(relation, "x") is None
        x = location_columns(relation)[0]
        assert x.tolist() == [2 * row["x_pos"] for row in relation.rows]
        assert_parity(relation, self.VIEW)

    def test_int_method_over_float_column_falls_back(self):
        # Coercion rejects x_pos's non-integral values, so the column's raw
        # value is not the attribute's: it must be evaluated (and fail).
        relation = scatter_relation().with_method_replaced(
            Method("x", "int", parse_expression("x_pos"))
        )
        assert scene._stored_position(relation, "x") is None
        with pytest.raises(EvaluationError):
            location_columns(relation)

    def test_default_location_falls_back(self):
        """Without custom x/y a tuple sits at (0, sequence number)."""
        table = build_points_table("Points", 100, seed=2)
        x, y = location_columns(default_displayable(table))
        assert not x.any()
        assert y.tolist() == list(range(100))

    def test_fast_path_is_faster_on_deep_zoom(self):
        relation = scatter_relation(count=20_000, seed=4)
        view = ViewState(center=(0.0, 0.0), elevation=20.0,
                         viewport=(160, 120))
        render_composite(Canvas(160, 120), relation, view)   # memo warm

        start = time.perf_counter()
        render_composite(Canvas(160, 120), relation, view)
        kernel_elapsed = time.perf_counter() - start

        with reference_culling():
            start = time.perf_counter()
            render_composite(Canvas(160, 120), relation, view)
            loop_elapsed = time.perf_counter() - start
        assert kernel_elapsed < loop_elapsed
