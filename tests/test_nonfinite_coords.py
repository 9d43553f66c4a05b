"""Primitives at an infinite or NaN coordinate paint, or emit, nothing.

A computed location can overflow: ``x_pos * 10.0`` is infinite for a row
whose ``x_pos`` is 1e308.  With culling off such a row reaches the surface,
where the raster canvas must count the op and paint nothing, as
``fill_circles`` always did, and the SVG surface must emit no element (SVG
has no ``inf`` or ``nan``).  Pinned here through ``Session.execute`` and by
direct calls on both surfaces.
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


def frame(rows, display: str) -> tuple[bytes, str]:
    """The PNG (through ``Session.execute``) and SVG of an uncull'd view
    of ``rows`` drawn with ``display`` at x = ``x_pos * 10.0``."""
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
    reply = session.execute(Render(window="v", format="png", cull=False))
    assert isinstance(reply, FrameReply), reply
    svg = render_svg(session.window("v").viewer, cull=False).svg_document()
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
