"""The per-pixel raster loops: the semantic reference for the canvas kernels.

``Canvas.draw_line``, ``draw_circle``, ``draw_text`` and ``fill_circles``
paint with numpy writes.  The functions here are the loops they replaced,
kept as the definition of the pixels they must produce: a Bresenham walk,
the midpoint circle and a glyph walk, each painting one point at a time
through :func:`reference_thick_point`, and the disc's row loop, one run
per row.  ``tests/test_raster_kernels.py`` compares the two pixel for
pixel, and :func:`reference_raster` swaps these loops into ``Canvas`` so
whole figures can be rendered through them (``Canvas.draw_marks`` then
paints each mark through them in turn).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from repro.display.marks import paint_each
from repro.render.canvas import Canvas
from repro.render.font import CHAR_WIDTH, glyph_rows


def reference_thick_point(canvas: Canvas, x: int, y: int, color,
                          width: int) -> None:
    """One pixel for ``width <= 1``, else the clipped square of side
    ``2 * (width // 2) + 1`` centred on (x, y)."""
    if width <= 1:
        if canvas.in_bounds(x, y):
            canvas.pixels[y, x] = color
        return
    half = width // 2
    x0 = max(0, x - half)
    y0 = max(0, y - half)
    x1 = min(canvas.width, x + half + 1)
    y1 = min(canvas.height, y + half + 1)
    if x0 < x1 and y0 < y1:
        canvas.pixels[y0:y1, x0:x1] = color


def reference_draw_line(canvas: Canvas, x0, y0, x1, y1, color,
                        width: int = 1) -> None:
    """Bresenham line with optional thickness."""
    canvas.draw_ops += 1
    ix0, iy0, ix1, iy1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
    dx = abs(ix1 - ix0)
    dy = -abs(iy1 - iy0)
    sx = 1 if ix0 < ix1 else -1
    sy = 1 if iy0 < iy1 else -1
    err = dx + dy
    x, y = ix0, iy0
    while True:
        reference_thick_point(canvas, x, y, color, width)
        if x == ix1 and y == iy1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def reference_draw_circle(canvas: Canvas, cx, cy, radius, color,
                          width: int = 1) -> None:
    """Midpoint circle."""
    canvas.draw_ops += 1
    r = int(round(radius))
    if r <= 0:
        reference_thick_point(canvas, int(round(cx)), int(round(cy)), color,
                              width)
        return
    cxi, cyi = int(round(cx)), int(round(cy))
    x, y = r, 0
    err = 1 - r
    while x >= y:
        for px, py in (
            (cxi + x, cyi + y), (cxi - x, cyi + y),
            (cxi + x, cyi - y), (cxi - x, cyi - y),
            (cxi + y, cyi + x), (cxi - y, cyi + x),
            (cxi + y, cyi - x), (cxi - y, cyi - x),
        ):
            reference_thick_point(canvas, px, py, color, width)
        y += 1
        if err < 0:
            err += 2 * y + 1
        else:
            x -= 1
            err += 2 * (y - x) + 1


def reference_fill_circle(canvas: Canvas, cx, cy, radius, color) -> None:
    """A filled disc, one clipped run per row; a radius ``<= 0`` paints
    the pixel nearest the centre."""
    canvas.draw_ops += 1
    r = radius
    if r <= 0:
        canvas.set_pixel(cx, cy, color)
        return
    y0 = max(0, int(math.floor(cy - r)))
    y1 = min(canvas.height - 1, int(math.ceil(cy + r)))
    for y in range(y0, y1 + 1):
        dy = y - cy
        span = r * r - dy * dy
        if span < 0:
            continue
        half = math.sqrt(span)
        x0 = max(0, int(round(cx - half)))
        x1 = min(canvas.width - 1, int(round(cx + half)))
        if x0 <= x1:
            canvas.pixels[y, x0 : x1 + 1] = color


def reference_fill_circles(canvas: Canvas, cx, cy, radius, color) -> None:
    """:func:`reference_fill_circle` at each centre in turn."""
    for x, y in zip(cx, cy):
        reference_fill_circle(canvas, float(x), float(y), radius, color)


def reference_draw_text(canvas: Canvas, x, y, text: str, color) -> None:
    """Paint ``text`` with its top-left corner at (x, y), glyph pixel by
    glyph pixel."""
    canvas.draw_ops += 1
    cursor = int(round(x))
    top = int(round(y))
    for char in text:
        rows = glyph_rows(char)
        for row_index, row_bits in enumerate(rows):
            py = top + row_index
            if not 0 <= py < canvas.height:
                continue
            for col in range(CHAR_WIDTH):
                if row_bits & (1 << (CHAR_WIDTH - 1 - col)):
                    px = cursor + col
                    if 0 <= px < canvas.width:
                        canvas.pixels[py, px] = color
        cursor += CHAR_WIDTH + 1


@contextmanager
def reference_raster():
    """Paint every ``Canvas`` line, circle outline, disc and text through
    the reference loops for the duration of the block; a mark table's
    marks are painted one primitive call each (``paint_each``), in paint
    order, so they take those loops too."""
    names = ("draw_line", "draw_circle", "draw_text", "fill_circle",
             "fill_circles", "draw_marks")
    saved = [getattr(Canvas, name) for name in names]
    Canvas.draw_line = reference_draw_line
    Canvas.draw_circle = reference_draw_circle
    Canvas.draw_text = reference_draw_text
    Canvas.fill_circle = reference_fill_circle
    Canvas.fill_circles = reference_fill_circles
    Canvas.draw_marks = paint_each
    try:
        yield
    finally:
        for name, method in zip(names, saved):
            setattr(Canvas, name, method)
