"""SVG vector export: an alternative surface for the scene builder.

:class:`SvgCanvas` implements the same drawing protocol as the raster
:class:`~repro.render.canvas.Canvas` (lines, rectangles, circles, polygons,
text, blitting of nested surfaces) but accumulates SVG elements instead of
painting pixels.  Any render path that accepts a canvas accepts an
``SvgCanvas`` — nested group cells, wormhole previews, and magnifying
glasses work because the scene builder constructs sub-surfaces with
``type(canvas)(w, h)``.

Use :meth:`Viewer.render` with a raster canvas for picking and pixel
assertions; use :func:`render_svg`/:meth:`SvgCanvas.to_svg` when you want a
scalable artifact to open in a browser.

As on the raster canvas, a primitive with an infinite or NaN coordinate (or
circle radius) emits nothing: SVG has no such numbers.
"""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import escape

from repro.display.drawables import Color, resolve_color
from repro.display.marks import MarkBatch, paint_each
from repro.errors import DisplayError
from repro.render.canvas import all_finite, all_near
from repro.render.font import CHAR_WIDTH

__all__ = ["SvgCanvas", "render_svg"]


def _rgb(color: Color) -> str:
    r, g, b = color
    return f"rgb({r},{g},{b})"


class SvgCanvas:
    """A drawing surface that records SVG elements.

    Mirrors the raster canvas API used by drawables and the scene builder.
    Elements clip to the canvas bounds via an SVG clip path rather than
    per-primitive clipping.
    """

    def __init__(self, width: int, height: int, background: Color = (255, 255, 255)):
        if width < 1 or height < 1:
            raise DisplayError(f"canvas size must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.background = resolve_color(background)
        self.elements: list[str] = []

    # ------------------------------------------------------------------
    # The surface protocol
    # ------------------------------------------------------------------

    def clear(self) -> None:
        self.elements.clear()

    def set_pixel(self, x: float, y: float, color: Color) -> None:
        if not all_finite(x, y):
            return
        self.elements.append(
            f'<rect x="{x - 0.5:.2f}" y="{y - 0.5:.2f}" width="1" height="1" '
            f'fill="{_rgb(color)}"/>'
        )

    def draw_line(self, x0, y0, x1, y1, color: Color, width: int = 1) -> None:
        if not all_near(x0, y0, x1, y1):
            return
        self.elements.append(
            f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
            f'stroke="{_rgb(color)}" stroke-width="{width}"/>'
        )

    def draw_rect(self, x0, y0, x1, y1, color: Color, width: int = 1) -> None:
        if not all_near(x0, y0, x1, y1):
            return
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        self.elements.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{y1 - y0:.2f}" fill="none" stroke="{_rgb(color)}" '
            f'stroke-width="{width}"/>'
        )

    def fill_rect(self, x0, y0, x1, y1, color: Color) -> None:
        if not all_finite(x0, y0, x1, y1):
            return
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        self.elements.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{y1 - y0:.2f}" fill="{_rgb(color)}"/>'
        )

    def draw_circle(self, cx, cy, radius, color: Color, width: int = 1) -> None:
        if not all_near(cx, cy, radius):
            return
        self.elements.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{max(radius, 0.5):.2f}" '
            f'fill="none" stroke="{_rgb(color)}" stroke-width="{width}"/>'
        )

    def fill_circle(self, cx, cy, radius, color: Color) -> None:
        self.fill_circles((cx,), (cy,), radius, color)

    def fill_circles(self, cx, cy, radius, color: Color) -> None:
        """One ``<circle>`` per finite centre, in order."""
        if not all_finite(radius):
            return
        tail = f'" r="{max(radius, 0.5):.2f}" fill="{_rgb(color)}"/>'
        self.elements.extend(
            f'<circle cx="{x:.2f}" cy="{y:.2f}{tail}' for x, y in zip(cx, cy)
            if all_finite(x, y)
        )

    def draw_marks(self, marks: MarkBatch) -> None:
        """One element per mark, in paint order (:func:`paint_each`)."""
        paint_each(self, marks)

    def draw_polygon(self, points, color: Color, width: int = 1) -> None:
        if not all_near(*(v for point in points for v in point)):
            return
        joined = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.elements.append(
            f'<polygon points="{joined}" fill="none" '
            f'stroke="{_rgb(color)}" stroke-width="{width}"/>'
        )

    def fill_polygon(self, points, color: Color) -> None:
        if not all_finite(*(v for point in points for v in point)):
            return
        joined = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.elements.append(
            f'<polygon points="{joined}" fill="{_rgb(color)}"/>'
        )

    def draw_text(self, x, y, text: str, color: Color) -> None:
        # The raster path paints 5x7 glyphs with the top-left at (x, y);
        # match its metrics so layouts agree between surfaces.
        if not all_finite(x, y):
            return
        size = 9
        self.elements.append(
            f'<text x="{x:.2f}" y="{y + 7:.2f}" font-family="monospace" '
            f'font-size="{size}" textLength="{len(text) * (CHAR_WIDTH + 1):.0f}" '
            f'fill="{_rgb(color)}">{escape(text)}</text>'
        )

    def blit(self, other: "SvgCanvas", x: float, y: float) -> None:
        """Embed another SVG surface translated to (x, y)."""
        if not isinstance(other, SvgCanvas):
            raise DisplayError(
                "SvgCanvas can only blit other SvgCanvas surfaces"
            )
        if not all_finite(x, y):
            return
        inner = "\n".join(other.elements)
        self.elements.append(
            f'<g transform="translate({x:.2f},{y:.2f})">'
            f'<rect x="0" y="0" width="{other.width}" height="{other.height}" '
            f'fill="{_rgb(other.background)}"/>{inner}</g>'
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def svg_document(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<defs><clipPath id="frame"><rect x="0" y="0" '
            f'width="{self.width}" height="{self.height}"/></clipPath></defs>\n'
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" '
            f'fill="{_rgb(self.background)}"/>\n'
            f'<g clip-path="url(#frame)">\n{body}\n</g>\n</svg>\n'
        )

    def to_svg(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.svg_document())
        return path

    def __repr__(self) -> str:
        return f"SvgCanvas({self.width}x{self.height}, {len(self.elements)} elements)"


def render_svg(viewer, cull: bool = True) -> SvgCanvas:
    """Render a viewer's current position as SVG.

    The vector twin of :meth:`Viewer.render`: same displayable, same view
    states, SVG elements instead of pixels.
    """
    from repro.display.displayable import Group, ensure_composite
    from repro.render.scene import render_composite, render_group

    displayable = viewer._sync_views()
    canvas = SvgCanvas(viewer.width, viewer.height)
    if isinstance(displayable, Group):
        render_group(canvas, displayable, viewer.views, viewer.resolver,
                     cull=cull)
    else:
        view = viewer.views[next(iter(viewer.views))]
        view.viewport = (viewer.width, viewer.height)
        render_composite(canvas, ensure_composite(displayable), view,
                         viewer.resolver, cull=cull)
    return canvas
