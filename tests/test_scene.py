"""Unit tests: view states and tuple-wise scene rendering (render.scene)."""

from __future__ import annotations

import pytest

from repro.dbms.parser import parse_expression
from repro.dbms.relation import Method, RowSet
from repro.dbms.tuples import Schema
from repro.display.displayable import Composite, DisplayableRelation, Group
from repro.display.drawables import (
    Circle,
    Line,
    Polygon,
    Rectangle,
    Style,
    ViewerDrawable,
)
from repro.errors import ViewerError
from repro.render.canvas import Canvas
from repro.render.scene import (
    CanvasDef,
    SceneStats,
    ViewState,
    render_composite,
    render_group,
)

SCHEMA = Schema([("label", "text"), ("px", "float"), ("py", "float"),
                 ("level", "float")])


def dotted_relation(name="dots", rows=None, display="filled_circle(2)"):
    data = rows or [
        {"label": "origin", "px": 0.0, "py": 0.0, "level": 1.0},
        {"label": "east", "px": 10.0, "py": 0.0, "level": 2.0},
        {"label": "north", "px": 0.0, "py": 10.0, "level": 3.0},
    ]
    relation = DisplayableRelation(RowSet.from_dicts(SCHEMA, data), name=name)
    relation = relation.with_method_added(Method("x", "float", parse_expression("px")))
    relation = relation.with_method_added(Method("y", "float", parse_expression("py")))
    return relation.with_method_added(
        Method("display", "drawables", parse_expression(display))
    )


class TestViewState:
    def test_zero_elevation_rejected(self):
        with pytest.raises(ViewerError):
            ViewState(elevation=0.0)

    def test_negative_elevation_allowed_for_underside(self):
        view = ViewState(elevation=-10.0)
        assert view.visible_world_width == 10.0

    def test_scale_from_elevation(self):
        view = ViewState(elevation=100.0, viewport=(200, 100))
        assert view.scale == 2.0  # 200 px / 100 world units
        assert view.visible_world_height == 50.0

    def test_world_screen_roundtrip(self):
        view = ViewState(center=(5.0, -3.0), elevation=40.0, viewport=(400, 300))
        px, py = view.to_screen(7.5, -1.0)
        assert view.to_world(px, py) == pytest.approx((7.5, -1.0))

    def test_center_maps_to_viewport_middle(self):
        view = ViewState(center=(5.0, 5.0), elevation=10.0, viewport=(100, 80))
        assert view.to_screen(5.0, 5.0) == (50.0, 40.0)

    def test_y_axis_flipped(self):
        view = ViewState(center=(0.0, 0.0), elevation=10.0, viewport=(100, 100))
        __, py_up = view.to_screen(0.0, 1.0)
        __, py_down = view.to_screen(0.0, -1.0)
        assert py_up < 50 < py_down

    def test_world_bounds(self):
        view = ViewState(center=(0.0, 0.0), elevation=10.0, viewport=(100, 50))
        x0, y0, x1, y1 = view.world_bounds()
        assert (x1 - x0) == pytest.approx(10.0)
        assert (y1 - y0) == pytest.approx(5.0)

    def test_copy_is_deep_for_sliders(self):
        view = ViewState(slider_ranges={"alt": (0.0, 1.0)})
        clone = view.copy()
        clone.slider_ranges["alt"] = (5.0, 6.0)
        assert view.slider_ranges["alt"] == (0.0, 1.0)


class TestRenderComposite:
    def view(self, **kwargs):
        defaults = dict(center=(0.0, 0.0), elevation=40.0, viewport=(200, 200))
        defaults.update(kwargs)
        return ViewState(**defaults)

    def test_renders_each_tuple(self):
        canvas = Canvas(200, 200)
        stats = SceneStats()
        items = render_composite(canvas, dotted_relation(), self.view(),
                                 stats=stats)
        assert stats.tuples_rendered == 3
        assert len(items) == 3
        assert canvas.count_nonbackground() > 0

    def test_items_carry_provenance(self):
        canvas = Canvas(200, 200)
        items = render_composite(canvas, dotted_relation(), self.view())
        assert {item.relation_name for item in items} == {"dots"}
        assert {item.row["label"] for item in items} == {"origin", "east", "north"}

    def test_viewport_culling(self):
        view = self.view(center=(1000.0, 1000.0))
        stats = SceneStats()
        canvas = Canvas(200, 200)
        render_composite(canvas, dotted_relation(), view, stats=stats)
        assert stats.culled_by_viewport == 3
        assert canvas.count_nonbackground() == 0

    def test_cull_false_paints_anyway_offscreen_safe(self):
        view = self.view(center=(1000.0, 1000.0))
        stats = SceneStats()
        canvas = Canvas(200, 200)
        render_composite(canvas, dotted_relation(), view, cull=False, stats=stats)
        assert stats.culled_by_viewport == 0
        assert canvas.count_nonbackground() == 0  # clipped at paint

    def test_slider_culling(self):
        relation = dotted_relation().with_slider_added("level")
        view = self.view(slider_ranges={"level": (0.0, 1.5)})
        stats = SceneStats()
        render_composite(Canvas(200, 200), relation, view, stats=stats)
        assert stats.culled_by_slider == 2
        assert stats.tuples_rendered == 1

    def test_relation_without_dim_invariant_to_slider(self):
        # §6.1: relations lacking a dimension ignore its slider.
        relation = dotted_relation()
        view = self.view(slider_ranges={"level": (99.0, 100.0)})
        stats = SceneStats()
        render_composite(Canvas(200, 200), relation, view, stats=stats)
        assert stats.tuples_rendered == 3

    def test_elevation_range_culls_whole_relation(self):
        relation = dotted_relation().with_range(0.0, 10.0)
        stats = SceneStats()
        render_composite(Canvas(200, 200), relation, self.view(elevation=50.0),
                         stats=stats)
        assert stats.relations_culled_by_elevation == 1
        assert stats.tuples_considered == 0

    def test_drawing_order_later_on_top(self):
        red = dotted_relation("red", display="filled_circle(4, 'red')")
        blue = dotted_relation("blue", display="filled_circle(4, 'blue')")
        canvas = Canvas(200, 200)
        render_composite(canvas, Composite([red, blue]), self.view())
        center = canvas.pixel(100, 100)
        assert center == (38, 89, 166)  # blue painted last

    def test_composite_entry_offset_shifts(self):
        base = dotted_relation("base")
        composite = Composite([base]).overlay(
            dotted_relation("shifted", display="filled_circle(2, 'red')"),
            offset={"x": 15.0},
        )
        canvas = Canvas(200, 200)
        items = render_composite(canvas, composite, self.view())
        base_x = [i.bbox[0] for i in items if i.relation_name == "base"]
        shifted_x = [i.bbox[0] for i in items if i.relation_name == "shifted"]
        assert min(shifted_x) > min(base_x)

    def test_default_display_renders_text_rows(self):
        relation = DisplayableRelation(
            RowSet.from_dicts(SCHEMA, [
                {"label": "a", "px": 0.0, "py": 0.0, "level": 0.0},
                {"label": "b", "px": 0.0, "py": 0.0, "level": 0.0},
            ]),
            name="plain",
        )
        canvas = Canvas(400, 200)
        view = ViewState(center=(15.0, -0.5), elevation=40.0, viewport=(400, 200))
        stats = SceneStats()
        render_composite(canvas, relation, view, stats=stats)
        assert stats.tuples_rendered == 2
        assert canvas.count_nonbackground() > 50


#: Stroked drawables whose unpadded bbox is anchor ± 3 on both axes.
THICK = Style(line_width=5)
STROKED = {
    "line": Line((6.0, 6.0), offset=(-3.0, -3.0), style=THICK),
    "circle": Circle(3.0, style=THICK),
    "rectangle": Rectangle(6.0, 6.0, style=THICK),
    "polygon": Polygon([(-3.0, -3.0), (3.0, -3.0), (0.0, 3.0)], style=THICK),
    "viewer": ViewerDrawable("elsewhere", 6.0, 6.0, style=THICK),
}


class TestThickStrokeCulling:
    """A stroke paints ``line_width // 2`` pixels beyond its outline, so a
    drawable whose outline ends just off the canvas can still paint visible
    pixels; culling must keep it."""

    WIDTH, HEIGHT = 40, 30
    # Screen anchors whose unpadded bbox ends 1.6 px past the top/left edge
    # or 1.4 px past the bottom/right one (beyond the cull's 1 px slack),
    # while the rounded outline still lies within 2 px of the canvas.
    ANCHORS = {
        "top": (20.0, -4.6),
        "bottom": (20.0, HEIGHT + 4.4),
        "left": (-4.6, 15.0),
        "right": (WIDTH + 4.4, 15.0),
    }

    def render(self, drawable, anchor, cull):
        rows = [{"label": "s", "px": anchor[0] - self.WIDTH / 2,
                 "py": self.HEIGHT / 2 - anchor[1], "level": 0.0}]
        relation = DisplayableRelation(RowSet.from_dicts(SCHEMA, rows), name="s")
        relation = relation.with_method_added(Method("x", "float", parse_expression("px")))
        relation = relation.with_method_added(Method("y", "float", parse_expression("py")))
        relation = relation.with_method_added(
            Method("display", "drawables", lambda row: [drawable]))
        canvas = Canvas(self.WIDTH, self.HEIGHT)
        view = ViewState(center=(0.0, 0.0), elevation=float(self.WIDTH),
                         viewport=(self.WIDTH, self.HEIGHT))
        render_composite(canvas, relation, view, cull=cull)
        return canvas

    @pytest.mark.parametrize("edge", sorted(ANCHORS))
    @pytest.mark.parametrize("kind", sorted(STROKED))
    def test_cull_keeps_strokes_straddling_the_edge(self, kind, edge):
        anchor = self.ANCHORS[edge]
        culled = self.render(STROKED[kind], anchor, cull=True)
        unculled = self.render(STROKED[kind], anchor, cull=False)
        assert unculled.count_nonbackground() > 0
        assert culled.ppm_bytes() == unculled.ppm_bytes()

    @pytest.mark.parametrize("kind", sorted(STROKED))
    def test_bbox_covers_the_stroke(self, kind):
        drawable = STROKED[kind]
        assert drawable.bbox(10.0, 10.0, 1.0) == (5.0, 5.0, 15.0, 15.0)


class TestWormholeRendering:
    def test_nested_canvas_painted(self):
        inner = dotted_relation("inner", display="filled_circle(8, 'red')")
        outer = dotted_relation(
            "outer",
            rows=[{"label": "hole", "px": 0.0, "py": 0.0, "level": 0.0}],
            display="wormhole('dest', 80, 60, 40, 0, 0)",
        )

        def resolver(name):
            assert name == "dest"
            return CanvasDef(Composite([inner]), {}, 1.0)

        canvas = Canvas(200, 200)
        view = ViewState(center=(0.0, 0.0), elevation=40.0, viewport=(200, 200))
        render_composite(canvas, outer, view, resolver=resolver)
        # Red of the nested render visible inside the frame region.
        assert (220, 50, 47) in canvas.colors_used()

    def test_depth_limit_stops_recursion(self):
        # A canvas containing a wormhole to itself must terminate.
        loop = dotted_relation(
            "loop",
            rows=[{"label": "hole", "px": 0.0, "py": 0.0, "level": 0.0}],
            display="wormhole('self', 80, 60, 40, 0, 0)",
        )

        def resolver(name):
            return CanvasDef(Composite([loop]), {}, 1.0)

        canvas = Canvas(200, 200)
        view = ViewState(center=(0.0, 0.0), elevation=40.0, viewport=(200, 200))
        render_composite(canvas, loop, view, resolver=resolver)  # must return

    def test_group_destination_renders_members(self):
        # A wormhole onto a canvas showing a group renders every member
        # inside the frame (the render_group branch of nested rendering).
        inner = dotted_relation("inner", display="filled_circle(6, 'red')")
        group = Group([
            ("left", Composite([inner])),
            ("right", Composite([inner.with_name("other")])),
        ])
        outer = dotted_relation(
            "outer",
            rows=[{"label": "hole", "px": 0.0, "py": 0.0, "level": 0.0}],
            display="wormhole('dest', 160, 100, 40, 0, 0)",
        )

        def resolver(name):
            return CanvasDef(group, {}, 1.0)

        canvas = Canvas(240, 200)
        view = ViewState(center=(0.0, 0.0), elevation=40.0, viewport=(240, 200))
        render_composite(canvas, outer, view, resolver=resolver)
        assert (220, 50, 47) in canvas.colors_used()

    def test_without_resolver_frame_only(self):
        outer = dotted_relation(
            "outer",
            rows=[{"label": "hole", "px": 0.0, "py": 0.0, "level": 0.0}],
            display="wormhole('dest', 80, 60, 40, 0, 0)",
        )
        canvas = Canvas(200, 200)
        view = ViewState(center=(0.0, 0.0), elevation=40.0, viewport=(200, 200))
        items = render_composite(canvas, outer, view)
        assert len(items) == 1
        assert items[0].drawable_kind == "viewer"


class TestRenderGroup:
    def make_group(self):
        return Group(
            [
                ("left", Composite([dotted_relation("l")])),
                ("right", Composite([dotted_relation("r")])),
            ]
        )

    def views(self, group):
        return {
            name: ViewState(center=(0.0, 0.0), elevation=40.0)
            for name in group.member_names()
        }

    def test_each_member_rendered_in_cell(self):
        group = self.make_group()
        canvas = Canvas(400, 200)
        results = render_group(canvas, group, self.views(group))
        assert set(results) == {"left", "right"}
        assert canvas.region_nonbackground(0, 0, 200, 200) > 0
        assert canvas.region_nonbackground(200, 0, 400, 200) > 0

    def test_item_bboxes_in_canvas_coordinates(self):
        group = self.make_group()
        canvas = Canvas(400, 200)
        results = render_group(canvas, group, self.views(group))
        right_xs = [item.bbox[0] for item in results["right"]]
        assert all(x >= 200 for x in right_xs)

    def test_independent_member_views(self):
        group = self.make_group()
        views = self.views(group)
        views["right"] = ViewState(center=(1000.0, 0.0), elevation=40.0)
        canvas = Canvas(400, 200)
        results = render_group(canvas, group, views)
        assert len(results["left"]) == 3
        assert len(results["right"]) == 0  # panned away

    def test_missing_view_state_rejected(self):
        group = self.make_group()
        with pytest.raises(ViewerError, match="no view state"):
            render_group(Canvas(400, 200), group, {"left": ViewState()})

    def test_tabular_layout_cells(self):
        group = Group(
            [(f"m{i}", Composite([dotted_relation(f"r{i}")])) for i in range(4)],
            layout="tabular",
            table_shape=(2, 2),
        )
        canvas = Canvas(200, 200)
        views = {name: ViewState(elevation=40.0) for name in group.member_names()}
        results = render_group(canvas, group, views)
        assert len(results) == 4
        # Bottom-right cell has content.
        assert canvas.region_nonbackground(100, 100, 200, 200) > 0
