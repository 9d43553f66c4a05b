"""Primitives at an infinite or NaN coordinate paint, or emit, nothing.

A computed location can overflow: ``x_pos * 10.0`` is infinite for a row
whose ``x_pos`` is 1e308.  With culling off such a row reaches the surface,
where the raster canvas must count the op and paint nothing, as
``fill_circles`` always did, and the SVG surface must emit no element (SVG
has no ``inf`` or ``nan``).  Pinned here through ``Session.execute`` and by
direct calls on both surfaces.

Outlines (lines, rectangle, circle and polygon outlines) rasterize in
integer pixel steps, so the same holds for them at a finite coordinate
past int64 pixels (``all_near``): a ``line_to(1e300, 0)`` used to raise a
raw ``OverflowError`` out of ``Session.execute``, culled or not.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.dbms.catalog import Database
from repro.dbms.tuples import Schema
from repro.protocol import FrameReply, Render
from repro.render.canvas import BLACK, Canvas
from repro.render.svg import SvgCanvas, render_svg
from repro.ui.session import Session

SCHEMA = Schema([("label", "text"), ("x_pos", "float"), ("y_pos", "float")])
ROWS = [("a", 0.0, 0.0), ("b", 1.5, -1.0), ("c", -2.0, 1.0)]
#: ``x_pos * 10.0`` overflows to +inf and -inf on these rows.
OVERFLOWING = [("big", 1e308, 0.5), ("small", -1e308, -0.5)]
DISPLAYS = ["text_of('hi')", "circle(3)", "line_to(5, 5)",
            "filled_circle(3, 'red')", "point()", "rect(4, 4)",
            "filled_rect(4, 4)"]
NON_FINITE_SVG = re.compile(r'="[^"]*\b(inf|nan)\b', re.IGNORECASE)


def frame(rows, display: str, cull: bool = False) -> tuple[bytes, str]:
    """The PNG (through ``Session.execute``) and SVG of a view of ``rows``
    drawn with ``display`` at x = ``x_pos * 10.0``, uncull'd unless
    ``cull``."""
    db = Database()
    table = db.create_table("Points", SCHEMA)
    for row in rows:
        table.insert(row)
    session = Session(db, "nonfinite")
    tail = session.add_table("Points")
    for name, definition in (("x", "x_pos * 10.0"), ("y", "y_pos * 10.0"),
                             ("display", display)):
        box = session.add_box("SetAttribute",
                              {"name": name, "definition": definition})
        session.connect(tail, "out", box, "in")
        tail = box
    session.add_viewer(tail, name="v", width=96, height=72)
    session.pan_to("v", 0.0, 0.0)
    reply = session.execute(Render(window="v", format="png", cull=cull))
    assert isinstance(reply, FrameReply), reply
    svg = render_svg(session.window("v").viewer, cull=cull).svg_document()
    return reply.data_bytes(), svg


@pytest.mark.parametrize("display", DISPLAYS)
def test_overflowing_location_paints_nothing_without_culling(display):
    png, svg = frame(ROWS + OVERFLOWING, display)
    clean_png, clean_svg = frame(ROWS, display)
    assert png == clean_png
    assert svg == clean_svg
    assert not NON_FINITE_SVG.search(svg)
    assert clean_png != frame([], display)[0]


def primitive_calls(value: float) -> list:
    """One call of every coordinate-taking primitive, each with ``value``
    in one coordinate, as (method name, args)."""
    return [
        ("set_pixel", (value, 2.0, BLACK)),
        ("draw_line", (1.0, 1.0, value, 5.0, BLACK)),
        ("draw_line", (value, 1.0, 6.0, 5.0, BLACK, 3)),
        ("draw_rect", (1.0, value, 6.0, 5.0, BLACK)),
        ("fill_rect", (1.0, 1.0, 6.0, value, BLACK)),
        ("draw_circle", (value, 5.0, 3.0, BLACK)),
        ("draw_circle", (5.0, 5.0, value, BLACK)),
        ("fill_circles", ((value,), (5.0,), 3.0, BLACK)),
        ("draw_polygon", ([(1.0, 1.0), (value, 5.0), (8.0, 2.0)], BLACK)),
        ("fill_polygon", ([(1.0, 1.0), (8.0, value), (8.0, 2.0)], BLACK)),
        ("draw_text", (2.0, value, "hi", BLACK)),
    ]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_raster_primitives_count_and_skip_non_finite(value):
    canvas = Canvas(16, 12)
    for name, args in primitive_calls(value):
        getattr(canvas, name)(*args)
    canvas.blit(Canvas(4, 4, background=BLACK), value, 1.0)
    assert canvas.count_nonbackground() == 0
    # Every call but set_pixel counts: the rect and the triangle outline
    # are four and three lines.
    assert canvas.draw_ops == 1 + 1 + 4 + 1 + 2 + 1 + 3 + 1 + 1 + 1


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_svg_primitives_emit_nothing_non_finite(value):
    surface = SvgCanvas(16, 12)
    for name, args in primitive_calls(value):
        getattr(surface, name)(*args)
    surface.blit(SvgCanvas(4, 4), value, 1.0)
    surface.fill_circles((1.0,), (1.0,), value, BLACK)
    assert surface.elements == []
    assert not NON_FINITE_SVG.search(surface.svg_document())


# -- finite, but past int64 pixels ---------------------------------------------

#: x = ``x_pos * 10.0`` is +-1e299: finite, far past int64 pixels.
FAR = [("far", 1e298, 0.5), ("west", -1e298, -0.5)]
OUTLINES = ["circle(3)", "line_to(5, 5)", "rect(4, 4)"]


@pytest.mark.parametrize("display", DISPLAYS)
def test_a_location_past_int64_pixels_paints_nothing(display):
    png, svg = frame(ROWS + FAR, display)
    clean_png, clean_svg = frame(ROWS, display)
    assert png == clean_png
    if display in OUTLINES:
        assert svg == clean_svg


@pytest.mark.parametrize("cull", [True, False])
@pytest.mark.parametrize("display, same_as", [
    ("line_to(1e300, 0)", "nothing()"),
    ("line_to(0, -1e300)", "nothing()"),
    ("combine(circle(2), line_to(1e300, 1e300))", "circle(2)"),
])
def test_a_line_to_past_int64_pixels_paints_nothing(display, same_as, cull):
    assert frame(ROWS, display, cull) == frame(ROWS, same_as, cull)


def outline_calls(value: float) -> list:
    return [(name, args) for name, args in primitive_calls(value)
            if name in ("draw_line", "draw_rect", "draw_circle",
                        "draw_polygon")]


@pytest.mark.parametrize("value", [1e300, -1e300, 2.0 ** 63, -(2.0 ** 62)])
def test_outlines_past_int64_pixels_count_and_paint_nothing(value):
    canvas = Canvas(16, 12)
    surface = SvgCanvas(16, 12)
    for name, args in outline_calls(value):
        getattr(canvas, name)(*args)
        getattr(surface, name)(*args)
    assert canvas.count_nonbackground() == 0
    # Two lines, a rect's four edges, two circles, a triangle's three.
    assert canvas.draw_ops == 1 + 1 + 4 + 1 + 1 + 3
    assert surface.elements == []


def test_a_line_within_int64_pixels_stays_exact():
    # Slope 1/2 from the origin: Bresenham's y is (x + 1) // 2, halves up.
    # The int64 steps would overflow this far out; Python ints do not.
    canvas = Canvas(64, 48)
    canvas.draw_line(0.0, 0.0, 2.0 ** 61, 2.0 ** 60, BLACK)
    painted = {(x, y) for y in range(48) for x in range(64)
               if canvas.pixel(x, y) == BLACK}
    assert painted == {(x, (x + 1) // 2) for x in range(64)}
    ring = Canvas(64, 48)    # a circle through the canvas from far away
    ring.draw_circle(-(2.0 ** 40), 20.0, 2.0 ** 40 + 10.0, BLACK)
    assert {x for y in range(48) for x in range(64)
            if ring.pixel(x, y) == BLACK} == {10}
