"""Primitive drawable objects (Section 5.1).

"The primitive drawables include: point, line, rectangle, circle, polygon,
text, and viewer.  Each primitive drawable has an offset, a color, and a
style."  Viewers-as-drawables implement wormholes (Section 6.2).

A drawable paints itself onto a *surface* — any object offering the pixel
primitives of :class:`repro.render.canvas.Canvas` — at an anchor position in
screen pixels.  Geometry is expressed either in ``screen`` units (constant
size under zoom: labels, markers) or ``world`` units (scales with zoom: map
line segments).  Offsets use the world orientation (positive y is up) and are
flipped onto the screen's downward y axis at paint time.

Drawable constructors are registered in the expression language so display
attributes are ordinary expressions over the base tuple, e.g.::

    combine(circle(4.0, 'blue'), offset(text_of(name), 0, -10))
"""

from __future__ import annotations

from math import isfinite
from typing import Any, Sequence

from repro.dbms import types as T
from repro.dbms.expr import FunctionDef, register_function
from repro.errors import DisplayError, TypeCheckError

__all__ = [
    "Color",
    "NAMED_COLORS",
    "resolve_color",
    "Style",
    "Drawable",
    "Point",
    "Line",
    "Rectangle",
    "Circle",
    "Polygon",
    "Text",
    "ViewerDrawable",
]

Color = tuple[int, int, int]

NAMED_COLORS: dict[str, Color] = {
    "black": (0, 0, 0),
    "white": (255, 255, 255),
    "red": (220, 50, 47),
    "green": (66, 133, 66),
    "blue": (38, 89, 166),
    "yellow": (212, 182, 38),
    "orange": (222, 120, 31),
    "purple": (108, 60, 133),
    "cyan": (42, 161, 152),
    "magenta": (211, 54, 130),
    "gray": (128, 128, 128),
    "lightgray": (200, 200, 200),
    "darkgray": (64, 64, 64),
    "brown": (133, 94, 66),
}


def resolve_color(color: Any) -> Color:
    """Accept a color name or an RGB triple; return an RGB triple."""
    if isinstance(color, str):
        try:
            return NAMED_COLORS[color.lower()]
        except KeyError as exc:
            known = ", ".join(sorted(NAMED_COLORS))
            raise DisplayError(f"unknown color {color!r}; known: {known}") from exc
    if (
        isinstance(color, (tuple, list))
        and len(color) == 3
        and all(isinstance(c, int) and 0 <= c <= 255 for c in color)
    ):
        return (color[0], color[1], color[2])
    raise DisplayError(f"illegal color {color!r}; want a name or an RGB triple")


class Style:
    """Stroke/fill style shared by all drawables."""

    __slots__ = ("line_width", "filled")

    def __init__(self, line_width: int = 1, filled: bool = False):
        if line_width < 1:
            raise DisplayError(f"line width must be >= 1, got {line_width}")
        self.line_width = line_width
        self.filled = filled

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Style)
            and self.line_width == other.line_width
            and self.filled == other.filled
        )

    def __repr__(self) -> str:
        return f"Style(line_width={self.line_width}, filled={self.filled})"


def _not_finite(what: str, values: tuple) -> DisplayError:
    """The error for geometry the rasterizer cannot place: an infinite or
    NaN offset, size or delta (a literal such as ``1e400`` parses as inf).
    Callers test with ``isfinite`` inline: drawables are built per tuple."""
    return DisplayError(f"{what} must be finite, got {values}")


class Drawable:
    """Base drawable: offset + color + style + unit system."""

    kind = "abstract"

    def __init__(
        self,
        offset: tuple[float, float] = (0.0, 0.0),
        color: Any = "black",
        style: Style | None = None,
        units: str = "screen",
    ):
        if units not in ("screen", "world"):
            raise DisplayError(f"units must be 'screen' or 'world', got {units!r}")
        self.offset = (float(offset[0]), float(offset[1]))
        if not (isfinite(self.offset[0]) and isfinite(self.offset[1])):
            raise _not_finite("drawable offset", self.offset)
        self.color = resolve_color(color)
        self.style = style or Style()
        self.units = units

    # -- geometry helpers ------------------------------------------------

    def _scale(self, world_scale: float) -> float:
        return world_scale if self.units == "world" else 1.0

    def _origin(
        self, anchor_x: float, anchor_y: float, world_scale: float
    ) -> tuple[float, float]:
        s = self._scale(world_scale)
        return anchor_x + self.offset[0] * s, anchor_y - self.offset[1] * s

    def with_offset(self, dx: float, dy: float) -> "Drawable":
        """A copy shifted by (dx, dy) in this drawable's units."""
        offset = (self.offset[0] + dx, self.offset[1] + dy)
        if not (isfinite(offset[0]) and isfinite(offset[1])):
            raise _not_finite("drawable offset", offset)
        clone = self.copy()
        clone.offset = offset
        return clone

    def with_color(self, color: Any) -> "Drawable":
        clone = self.copy()
        clone.color = resolve_color(color)
        return clone

    def copy(self) -> "Drawable":
        raise NotImplementedError

    # -- rendering protocol ----------------------------------------------

    def paint(
        self, surface: Any, anchor_x: float, anchor_y: float, world_scale: float
    ) -> None:
        """Paint onto ``surface`` anchored at screen pixel (anchor_x, anchor_y)."""
        raise NotImplementedError

    def bbox(
        self, anchor_x: float, anchor_y: float, world_scale: float
    ) -> tuple[float, float, float, float]:
        """Screen-pixel bounding box (x0, y0, x1, y1) of the painted pixels —
        used for culling and picking."""
        raise NotImplementedError

    def _stroked(
        self, box: tuple[float, float, float, float]
    ) -> tuple[float, float, float, float]:
        """An outline's ``box`` grown by the stroke: the rasterizer paints a
        square of half side ``line_width // 2`` around every outline point."""
        pad = self.style.line_width // 2
        return (box[0] - pad, box[1] - pad, box[2] + pad, box[3] + pad)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(offset={self.offset}, color={self.color}, "
            f"units={self.units!r})"
        )


class Point(Drawable):
    """A single marker, drawn as a small filled square of the line width."""

    kind = "point"

    def copy(self) -> "Point":
        return Point(self.offset, self.color, self.style, self.units)

    def paint(self, surface, anchor_x, anchor_y, world_scale) -> None:
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        half = max(0, self.style.line_width - 1)
        surface.fill_rect(x - half, y - half, x + half, y + half, self.color)

    def bbox(self, anchor_x, anchor_y, world_scale):
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        half = max(1, self.style.line_width)
        return (x - half, y - half, x + half, y + half)


class Line(Drawable):
    """A segment from the (offset) anchor to anchor + delta.

    ``delta`` uses the drawable's units and world orientation, which makes a
    relation of map segments directly displayable: each tuple anchors one
    endpoint, the delta reaches the other.
    """

    kind = "line"

    def __init__(
        self,
        delta: tuple[float, float],
        offset: tuple[float, float] = (0.0, 0.0),
        color: Any = "black",
        style: Style | None = None,
        units: str = "screen",
    ):
        super().__init__(offset, color, style, units)
        self.delta = (float(delta[0]), float(delta[1]))
        if not (isfinite(self.delta[0]) and isfinite(self.delta[1])):
            raise _not_finite("line delta", self.delta)

    def copy(self) -> "Line":
        return Line(self.delta, self.offset, self.color, self.style, self.units)

    def _endpoints(self, anchor_x, anchor_y, world_scale):
        x0, y0 = self._origin(anchor_x, anchor_y, world_scale)
        s = self._scale(world_scale)
        return x0, y0, x0 + self.delta[0] * s, y0 - self.delta[1] * s

    def paint(self, surface, anchor_x, anchor_y, world_scale) -> None:
        x0, y0, x1, y1 = self._endpoints(anchor_x, anchor_y, world_scale)
        surface.draw_line(x0, y0, x1, y1, self.color, self.style.line_width)

    def bbox(self, anchor_x, anchor_y, world_scale):
        x0, y0, x1, y1 = self._endpoints(anchor_x, anchor_y, world_scale)
        return self._stroked((min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)))


class Rectangle(Drawable):
    """An axis-aligned rectangle centered on the (offset) anchor."""

    kind = "rectangle"

    def __init__(
        self,
        width: float,
        height: float,
        offset: tuple[float, float] = (0.0, 0.0),
        color: Any = "black",
        style: Style | None = None,
        units: str = "screen",
    ):
        super().__init__(offset, color, style, units)
        if not (isfinite(width) and isfinite(height)):
            raise _not_finite("rectangle size", (width, height))
        if width < 0 or height < 0:
            raise DisplayError(f"rectangle size must be non-negative, got {width}x{height}")
        self.width = float(width)
        self.height = float(height)

    def copy(self) -> "Rectangle":
        return Rectangle(
            self.width, self.height, self.offset, self.color, self.style, self.units
        )

    def _corners(self, anchor_x, anchor_y, world_scale):
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        s = self._scale(world_scale)
        hw = self.width * s / 2.0
        hh = self.height * s / 2.0
        return x - hw, y - hh, x + hw, y + hh

    def paint(self, surface, anchor_x, anchor_y, world_scale) -> None:
        x0, y0, x1, y1 = self._corners(anchor_x, anchor_y, world_scale)
        if self.style.filled:
            surface.fill_rect(x0, y0, x1, y1, self.color)
        else:
            surface.draw_rect(x0, y0, x1, y1, self.color, self.style.line_width)

    def bbox(self, anchor_x, anchor_y, world_scale):
        box = self._corners(anchor_x, anchor_y, world_scale)
        return box if self.style.filled else self._stroked(box)


class Circle(Drawable):
    """A circle of a given radius centered on the (offset) anchor."""

    kind = "circle"

    def __init__(
        self,
        radius: float,
        offset: tuple[float, float] = (0.0, 0.0),
        color: Any = "black",
        style: Style | None = None,
        units: str = "screen",
    ):
        super().__init__(offset, color, style, units)
        if not isfinite(radius):
            raise _not_finite("circle radius", (radius,))
        if radius < 0:
            raise DisplayError(f"circle radius must be non-negative, got {radius}")
        self.radius = float(radius)

    def copy(self) -> "Circle":
        return Circle(self.radius, self.offset, self.color, self.style, self.units)

    def paint(self, surface, anchor_x, anchor_y, world_scale) -> None:
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        r = self.radius * self._scale(world_scale)
        if self.style.filled:
            surface.fill_circle(x, y, r, self.color)
        else:
            surface.draw_circle(x, y, r, self.color, self.style.line_width)

    def bbox(self, anchor_x, anchor_y, world_scale):
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        r = self.radius * self._scale(world_scale)
        box = (x - r, y - r, x + r, y + r)
        return box if self.style.filled else self._stroked(box)


class Polygon(Drawable):
    """A closed polygon; vertices are relative to the (offset) anchor."""

    kind = "polygon"

    def __init__(
        self,
        vertices: Sequence[tuple[float, float]],
        offset: tuple[float, float] = (0.0, 0.0),
        color: Any = "black",
        style: Style | None = None,
        units: str = "screen",
    ):
        super().__init__(offset, color, style, units)
        if len(vertices) < 3:
            raise DisplayError(
                f"polygon needs at least 3 vertices, got {len(vertices)}"
            )
        self.vertices = [(float(vx), float(vy)) for vx, vy in vertices]
        if not all(isfinite(x) and isfinite(y) for x, y in self.vertices):
            raise _not_finite("polygon vertices", tuple(self.vertices))

    def copy(self) -> "Polygon":
        return Polygon(self.vertices, self.offset, self.color, self.style, self.units)

    def _screen_vertices(self, anchor_x, anchor_y, world_scale):
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        s = self._scale(world_scale)
        return [(x + vx * s, y - vy * s) for vx, vy in self.vertices]

    def paint(self, surface, anchor_x, anchor_y, world_scale) -> None:
        pts = self._screen_vertices(anchor_x, anchor_y, world_scale)
        if self.style.filled:
            surface.fill_polygon(pts, self.color)
        else:
            surface.draw_polygon(pts, self.color, self.style.line_width)

    def bbox(self, anchor_x, anchor_y, world_scale):
        pts = self._screen_vertices(anchor_x, anchor_y, world_scale)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        box = (min(xs), min(ys), max(xs), max(ys))
        return box if self.style.filled else self._stroked(box)


class Text(Drawable):
    """A text label; always screen units (legibility is zoom-invariant).

    The anchor is the center of the rendered string, matching how station
    names sit centered beneath their circles in Figure 4.
    """

    kind = "text"

    CHAR_WIDTH = 6  # 5x7 bitmap glyphs plus 1px spacing
    CHAR_HEIGHT = 7

    def __init__(
        self,
        text: str,
        offset: tuple[float, float] = (0.0, 0.0),
        color: Any = "black",
        style: Style | None = None,
    ):
        super().__init__(offset, color, style, units="screen")
        self.text = str(text)

    def copy(self) -> "Text":
        return Text(self.text, self.offset, self.color, self.style)

    def paint(self, surface, anchor_x, anchor_y, world_scale) -> None:
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        width = len(self.text) * self.CHAR_WIDTH
        surface.draw_text(x - width / 2.0, y - self.CHAR_HEIGHT / 2.0, self.text, self.color)

    def bbox(self, anchor_x, anchor_y, world_scale):
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        half_w = len(self.text) * self.CHAR_WIDTH / 2.0
        half_h = self.CHAR_HEIGHT / 2.0
        return (x - half_w, y - half_h, x + half_w, y + half_h)


class ViewerDrawable(Drawable):
    """A viewer onto another canvas — the wormhole primitive (Section 6.2).

    "A viewer drawable requires several parameters, including the size for
    the viewer, a destination canvas, the elevation from which the canvas is
    viewed, and the initial location."

    Destination canvases are referenced by name and resolved against a canvas
    registry at render/traversal time, so display attributes remain ordinary
    expressions of the base tuple (here the initial location is typically a
    function of the tuple, e.g. the station's id on a time-series canvas).
    """

    kind = "viewer"

    def __init__(
        self,
        destination: str,
        width: float = 60.0,
        height: float = 40.0,
        dest_elevation: float = 100.0,
        dest_location: tuple[float, float] = (0.0, 0.0),
        offset: tuple[float, float] = (0.0, 0.0),
        color: Any = "blue",
        style: Style | None = None,
    ):
        super().__init__(offset, color, style, units="screen")
        if not destination:
            raise DisplayError("wormhole needs a destination canvas name")
        geometry = (width, height, dest_elevation, *dest_location)
        if not all(map(isfinite, geometry)):
            raise _not_finite("viewer geometry", geometry)
        if width <= 0 or height <= 0:
            raise DisplayError(f"viewer size must be positive, got {width}x{height}")
        if dest_elevation <= 0:
            raise DisplayError(
                f"destination elevation must be positive, got {dest_elevation}"
            )
        self.destination = destination
        self.width = float(width)
        self.height = float(height)
        self.dest_elevation = float(dest_elevation)
        self.dest_location = (float(dest_location[0]), float(dest_location[1]))

    def copy(self) -> "ViewerDrawable":
        return ViewerDrawable(
            self.destination,
            self.width,
            self.height,
            self.dest_elevation,
            self.dest_location,
            self.offset,
            self.color,
            self.style,
        )

    def frame(self, anchor_x, anchor_y, world_scale):
        """The wormhole's screen rectangle (x0, y0, x1, y1)."""
        x, y = self._origin(anchor_x, anchor_y, world_scale)
        return (
            x - self.width / 2.0,
            y - self.height / 2.0,
            x + self.width / 2.0,
            y + self.height / 2.0,
        )

    def paint(self, surface, anchor_x, anchor_y, world_scale) -> None:
        # The frame only; nested canvas content is painted by the scene
        # builder, which holds the canvas registry.
        x0, y0, x1, y1 = self.frame(anchor_x, anchor_y, world_scale)
        surface.draw_rect(x0, y0, x1, y1, self.color, max(1, self.style.line_width))

    def bbox(self, anchor_x, anchor_y, world_scale):
        return self._stroked(self.frame(anchor_x, anchor_y, world_scale))


# ---------------------------------------------------------------------------
# Expression-language constructors
# ---------------------------------------------------------------------------


def display_text(value: Any) -> str:
    """The string ``text_of(value)`` shows: a string as it is, any other
    value through its type's default display (§5.2)."""
    if isinstance(value, str):
        return value
    return T.infer_type(value).default_display(value)


def _expect_numeric(arg_types, positions, name):
    for pos in positions:
        if not T.numeric(arg_types[pos]):
            raise TypeCheckError(
                f"{name} argument {pos + 1} must be numeric, got {arg_types[pos]}"
            )


def _register_constructors() -> None:
    def point_infer(arg_types):
        if len(arg_types) == 0:
            return T.DRAWABLES
        if len(arg_types) == 1 and arg_types[0] is T.TEXT:
            return T.DRAWABLES
        raise TypeCheckError("point() or point(color)")

    register_function(
        FunctionDef(
            "point",
            point_infer,
            lambda *a: [Point(color=a[0] if a else "black")],
            "A point marker.",
        )
    )

    def circle_infer(arg_types):
        if len(arg_types) not in (1, 2):
            raise TypeCheckError("circle(radius) or circle(radius, color)")
        _expect_numeric(arg_types, [0], "circle")
        if len(arg_types) == 2 and arg_types[1] is not T.TEXT:
            raise TypeCheckError("circle color must be a text name")
        return T.DRAWABLES

    register_function(
        FunctionDef(
            "circle",
            circle_infer,
            lambda radius, color="black": [Circle(float(radius), color=color)],
            "A circle of a given radius (screen px).",
        )
    )

    def filled_circle_apply(radius, color="black"):
        return [Circle(float(radius), color=color, style=Style(filled=True))]

    register_function(
        FunctionDef("filled_circle", circle_infer, filled_circle_apply, "A disc.")
    )

    def rect_infer(arg_types):
        if len(arg_types) not in (2, 3):
            raise TypeCheckError("rect(width, height) or rect(width, height, color)")
        _expect_numeric(arg_types, [0, 1], "rect")
        if len(arg_types) == 3 and arg_types[2] is not T.TEXT:
            raise TypeCheckError("rect color must be a text name")
        return T.DRAWABLES

    register_function(
        FunctionDef(
            "rect",
            rect_infer,
            lambda w, h, color="black": [Rectangle(float(w), float(h), color=color)],
            "An outlined rectangle (screen px).",
        )
    )
    register_function(
        FunctionDef(
            "filled_rect",
            rect_infer,
            lambda w, h, color="black": [
                Rectangle(float(w), float(h), color=color, style=Style(filled=True))
            ],
            "A filled rectangle (screen px).",
        )
    )

    def line_infer(arg_types):
        if len(arg_types) not in (2, 3):
            raise TypeCheckError("line_to(dx, dy) or line_to(dx, dy, color)")
        _expect_numeric(arg_types, [0, 1], "line_to")
        if len(arg_types) == 3 and arg_types[2] is not T.TEXT:
            raise TypeCheckError("line color must be a text name")
        return T.DRAWABLES

    register_function(
        FunctionDef(
            "line_to",
            line_infer,
            lambda dx, dy, color="black": [
                Line((float(dx), float(dy)), color=color, units="world")
            ],
            "A world-unit segment from the tuple position to position+(dx,dy).",
        )
    )

    def text_infer(arg_types):
        if len(arg_types) not in (1, 2):
            raise TypeCheckError("text_of(value) or text_of(value, color)")
        if len(arg_types) == 2 and arg_types[1] is not T.TEXT:
            raise TypeCheckError("text color must be a text name")
        return T.DRAWABLES

    def text_apply(value, color="black"):
        return [Text(display_text(value), color=color)]

    register_function(
        FunctionDef("text_of", text_infer, text_apply, "A centered text label.")
    )

    def combine_infer(arg_types):
        if len(arg_types) < 1:
            raise TypeCheckError("combine needs at least one drawable list")
        for pos, at in enumerate(arg_types):
            if at is not T.DRAWABLES:
                raise TypeCheckError(
                    f"combine argument {pos + 1} must be drawables, got {at}"
                )
        return T.DRAWABLES

    register_function(
        FunctionDef(
            "combine",
            combine_infer,
            lambda *lists: [d for sub in lists for d in sub],
            "Concatenate drawable lists; later entries paint on top (§5.1).",
        )
    )

    def offset_infer(arg_types):
        if len(arg_types) != 3:
            raise TypeCheckError("offset(drawables, dx, dy)")
        if arg_types[0] is not T.DRAWABLES:
            raise TypeCheckError("first argument must be drawables")
        _expect_numeric(arg_types, [1, 2], "offset")
        return T.DRAWABLES

    register_function(
        FunctionDef(
            "offset",
            offset_infer,
            lambda drawables, dx, dy: [
                d.with_offset(float(dx), float(dy)) for d in drawables
            ],
            "Shift every drawable by (dx, dy) in its own units.",
        )
    )

    def recolor_infer(arg_types):
        if len(arg_types) != 2 or arg_types[0] is not T.DRAWABLES or arg_types[1] is not T.TEXT:
            raise TypeCheckError("recolor(drawables, color)")
        return T.DRAWABLES

    register_function(
        FunctionDef(
            "recolor",
            recolor_infer,
            lambda drawables, color: [d.with_color(color) for d in drawables],
            "Recolor every drawable.",
        )
    )

    def nothing_infer(arg_types):
        if arg_types:
            raise TypeCheckError("nothing() takes no arguments")
        return T.DRAWABLES

    register_function(
        FunctionDef("nothing", nothing_infer, lambda: [], "An empty display.")
    )

    def wormhole_infer(arg_types):
        if len(arg_types) != 6:
            raise TypeCheckError(
                "wormhole(destination, width, height, dest_elevation, init_x, init_y)"
            )
        if arg_types[0] is not T.TEXT:
            raise TypeCheckError("wormhole destination must be a text canvas name")
        _expect_numeric(arg_types, [1, 2, 3, 4, 5], "wormhole")
        return T.DRAWABLES

    register_function(
        FunctionDef(
            "wormhole",
            wormhole_infer,
            lambda dest, w, h, elev, ix, iy: [
                ViewerDrawable(
                    dest,
                    float(w),
                    float(h),
                    float(elev),
                    (float(ix), float(iy)),
                )
            ],
            "A viewer drawable onto another canvas (Section 6.2).",
        )
    )


_register_constructors()
