"""The raster canvas: a numpy RGB framebuffer with clipped drawing primitives.

This is the stand-in for the X11/Tk surface the original system painted on.
It offers exactly the primitives the paper's drawables need — lines
(Bresenham with width), rectangles, circles (midpoint), polygons (scanline
fill), bitmap text — plus blitting (for nested wormhole/magnifier viewers),
PPM and PNG export, and an ASCII view for terminals and tests.

Lines, circle outlines and text are computed as whole point sets or masks
(closed-form Bresenham and midpoint points, the font's glyph table), and
filled discs as the row runs of any number of discs at once
(:meth:`Canvas.fill_circles`; ``fill_circle`` is one disc of it); each is
painted with one numpy write.  :meth:`Canvas.draw_marks` paints a whole
relation's marks of every kind that way at once, overlaps resolved in
paint order.  ``tests/raster_reference.py`` holds the per-pixel and
per-row loops they must match (``reference_fill_circle`` for the discs).

PNG export (:meth:`Canvas.png_bytes`) reads the whole frame once, to find
the painted pixels; packing their palette indices costs time in proportion
to them, and deflate sees a fixed-size, mostly zero index image.
``reference_png_bytes`` in ``tests/png_reference.py`` is the dense encoder
whose bytes it must equal.

All coordinates are float pixels (x right, y down) and are clipped to the
canvas bounds; drawing off-canvas is silently partial, never an error.  A
primitive with an infinite or NaN coordinate, or a circle outline with such
a radius, still counts as a draw op but paints nothing, as
:meth:`Canvas.fill_circles` does for such a centre.
"""

from __future__ import annotations

import functools
import math
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.display.drawables import Color, resolve_color
from repro.display.marks import (
    PAINT_CIRCLE,
    PAINT_DISC,
    PAINT_FILL,
    PAINT_LINE,
    PAINT_RECT,
    MarkBatch,
    MarkGroup,
)
from repro.errors import DisplayError
from repro.obs.trace import current_tracer
from repro.render.font import CHAR_HEIGHT, text_mask

__all__ = ["Canvas", "WHITE", "BLACK", "all_finite", "all_near"]

WHITE: Color = (255, 255, 255)
BLACK: Color = (0, 0, 0)


def all_finite(*values: float) -> bool:
    """Whether every coordinate is finite; a primitive paints nothing at an
    infinite or NaN coordinate (also used by the SVG surface)."""
    return all(map(math.isfinite, values))


_FAR = 2.0 ** 62
"""Pixel coordinates past which a stroked outline paints nothing."""


def all_near(*values: float) -> bool:
    """Whether every coordinate (or radius) is finite and below ``_FAR``
    pixels in magnitude.  Lines, rectangle, circle and polygon outlines
    rasterize in integer pixel steps; past int64 pixels those cannot be
    held, so an outline with such a coordinate paints (or, on the SVG
    surface, emits) nothing, as at a non-finite one."""
    return all(abs(value) < _FAR for value in values)


def _color_key(color: Color) -> int:
    """The 24-bit key of one colour: ``r | g << 8 | b << 16``."""
    r, g, b = color
    return r | g << 8 | b << 16


def _painted_pixels(pixels: np.ndarray,
                    background: Color) -> tuple[np.ndarray, np.ndarray]:
    """The row-major flat positions, ascending, and the 24-bit keys (see
    :func:`_color_key`) of the pixels that differ from ``background``.

    One dense pass reads the pixels in blocks of eight, 24 bytes each, as
    three ``uint64`` words, and compares them with the background's words;
    a grey background is one word value, so its comparison is one
    contiguous scalar pass.  Only the blocks that differ, and the last
    ``count % 8`` pixels that fill no block, are keyed, so all work after
    that pass is proportional to the painted pixels.
    """
    height, width, _ = pixels.shape
    count = height * width
    flat = np.ascontiguousarray(pixels).reshape(count, 3)
    blocks = count // 8
    words = flat[:blocks * 8].reshape(-1).view(np.uint64).reshape(blocks, 3)
    pattern = np.frombuffer(bytes(background) * 8, dtype=np.uint64)
    r, g, b = background
    differs = words != (pattern[0] if r == g == b else pattern)
    # The differing words of one block are adjacent: keep each block once.
    hits = np.flatnonzero(differs) // 3
    hits = hits[np.diff(hits, prepend=-1) != 0]
    candidates = np.concatenate(((hits[:, None] * 8 + np.arange(8)).ravel(),
                                 np.arange(blocks * 8, count)))
    rgb = np.concatenate((words[hits].view(np.uint8).reshape(-1, 3),
                          flat[blocks * 8:])).astype(np.uint32)
    keys = rgb[:, 0] | rgb[:, 1] << 8 | rgb[:, 2] << 16
    painted = keys != _color_key(background)
    return candidates[painted], keys[painted]


#: x and y signs of the four mirror images of an octant point; the other
#: four octants swap the point's coordinates.
_OCTANT_SIGNS = np.array([[[1], [-1], [1], [-1]], [[1], [1], [-1], [-1]]])


def _offset_reach(centre: int, size: int, half: int) -> tuple[int, int]:
    """The offsets t >= 0, as an inclusive range, for which ``centre + t``
    or ``centre - t`` lies within ``half`` of the span [0, size)."""
    low, high = -half - centre, size - 1 + half - centre
    return max(0, low, -high), max(high, -low)


_STAMP_RADIUS = 2048
"""Circle outlines below this radius are stamped (:func:`_circle_stamp`):
at most about 5.7 r points each."""


_NOTHING = np.zeros(0, dtype=np.intp)


class _Stamp(NamedTuple):
    """A fixed set of pixels as offsets from an integer anchor, with their
    extent (an empty stamp's extent reaches no canvas)."""

    dx: np.ndarray
    dy: np.ndarray
    low_x: int
    high_x: int
    low_y: int
    high_y: int


def _stamp(dx: np.ndarray, dy: np.ndarray) -> _Stamp:
    if not len(dx):
        return _Stamp(dx, dy, 0, -1, 0, -1)
    return _Stamp(dx, dy, int(dx.min()), int(dx.max()), int(dy.min()),
                  int(dy.max()))


@functools.lru_cache(maxsize=256)
def _circle_stamp(r: int) -> _Stamp:
    """Every point of the midpoint circle of radius ``r`` as offsets from
    its centre: each octant row y = 0 ... last at column
    ``floor(sqrt(r² - y²) + 0.5)``, mirrored as :meth:`Canvas._circle_points`
    mirrors it; a radius <= 0 is the centre alone."""
    if r <= 0:
        return _stamp(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    y = np.arange((1 + math.isqrt(8 * r * r - 7)) // 4 + 1)
    x = (np.sqrt(r * r - y * y) + 0.5).astype(np.int64)
    return _stamp((np.concatenate((x, y)) * _OCTANT_SIGNS[0]).ravel(),
                  (np.concatenate((y, x)) * _OCTANT_SIGNS[1]).ravel())


@functools.lru_cache(maxsize=1024)
def _text_stamp(text: str) -> _Stamp:
    """The lit pixels of ``text``'s :func:`text_mask`, as offsets from its
    top-left corner."""
    rows, cols = np.nonzero(text_mask(text))
    return _stamp(cols, rows)


def _broadcast(value, count: int) -> np.ndarray:
    """A per-mark column: an array as it is, a constant repeated."""
    return np.broadcast_to(value, (count,))


def _distinct(values: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values (as Python values) and each value's position
    among them; one value is the common case and skips the sort."""
    if len(values) and (values == values[0]).all():
        return [values[0].item()], np.zeros(len(values), dtype=np.intp)
    distinct, position = np.unique(values, return_inverse=True)
    return distinct.tolist(), position


def _ragged(starts: np.ndarray,
            counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each i, the integers starts[i], starts[i] + 1, ... (counts[i] of
    them), all concatenated, and the i each belongs to."""
    ends = counts.cumsum()
    owner = np.repeat(np.arange(len(counts)), counts)
    values = np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - (ends - counts), counts)
    return owner, values


def _parts(counts: np.ndarray, limit: int):
    """Slices of consecutive items whose counts add up to at most
    ``limit``; an item over the limit is a slice of its own."""
    ends = counts.cumsum()
    if not len(ends) or ends[-1] <= limit:
        yield slice(0, len(counts))
        return
    first = 0
    while first < len(counts):
        base = int(ends[first - 1]) if first else 0
        stop = max(first + 1,
                   int(np.searchsorted(ends, base + limit, side="right")))
        yield slice(first, stop)
        first = stop


def _piece_limit(canvas: "Canvas") -> int:
    """Pixels a mark kernel computes at once: a few canvases' worth."""
    return max(4 * canvas.width * canvas.height, 1 << 16)


def _last_writes(keys: list[np.ndarray], marks: int) -> np.ndarray:
    """Of the write keys ``flat * marks + mark``, the one with the largest
    mark for each pixel ``flat``, ascending."""
    keys = np.sort(np.concatenate(keys))
    flat = keys // marks
    return keys[np.append(flat[1:] != flat[:-1], True)] if len(keys) else keys


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


class Canvas:
    """A width x height RGB framebuffer."""

    def __init__(self, width: int, height: int, background: Color = WHITE):
        if width < 1 or height < 1:
            raise DisplayError(f"canvas size must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.background = resolve_color(background)
        self.pixels = np.empty((self.height, self.width, 3), dtype=np.uint8)
        #: Primitive draw calls since creation (lines, fills, text, blits);
        #: surfaced as the ``render.draw_ops`` metric and span attribute.
        self.draw_ops = 0
        self.clear()

    def clear(self) -> None:
        r, g, b = self.background
        if r == g == b:
            # A grey is one byte value everywhere: a flat fill, ~100x
            # cheaper than broadcasting a 3-tuple over every pixel.
            self.pixels.fill(r)
        else:
            self.pixels[:, :] = self.background

    # ------------------------------------------------------------------
    # Pixel access
    # ------------------------------------------------------------------

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def set_pixel(self, x: float, y: float, color: Color) -> None:
        if not all_finite(x, y):
            return
        xi, yi = int(round(x)), int(round(y))
        if self.in_bounds(xi, yi):
            self.pixels[yi, xi] = color

    def pixel(self, x: int, y: int) -> Color:
        if not self.in_bounds(x, y):
            raise DisplayError(f"pixel ({x}, {y}) outside {self.width}x{self.height}")
        r, g, b = self.pixels[y, x]
        return (int(r), int(g), int(b))

    def count_nonbackground(self) -> int:
        """Number of painted pixels — the workhorse assertion in tests."""
        return len(_painted_pixels(self.pixels, self.background)[0])

    def colors_used(self) -> set[Color]:
        """Distinct non-background colors present on the canvas."""
        _, keys = _painted_pixels(self.pixels, self.background)
        return {(k & 0xFF, k >> 8 & 0xFF, k >> 16)
                for k in np.unique(keys).tolist()}

    def region_nonbackground(self, x0: int, y0: int, x1: int, y1: int) -> int:
        """Painted pixels within a clipped rectangle."""
        x0 = max(0, x0)
        y0 = max(0, y0)
        x1 = min(self.width, x1)
        y1 = min(self.height, y1)
        if x0 >= x1 or y0 >= y1:
            return 0
        return len(_painted_pixels(self.pixels[y0:y1, x0:x1],
                                   self.background)[0])

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def _paint_points(self, xs: np.ndarray, ys: np.ndarray, color: Color,
                      width: int) -> None:
        """Paint the square of side ``2 * (width // 2) + 1`` centred on each
        int64 point (xs[i], ys[i]) — one pixel for ``width <= 1`` — clipped
        to the canvas.

        Single pixels are one fancy-index write.  Squares are marked on a
        boolean grid over the points' extent, widened one axis at a time by
        OR-ing shifted copies, and painted with one masked write, so the
        memory stays within the points plus their extent on the canvas,
        whatever the width.
        """
        half = max(0, width // 2)
        # Viewed as unsigned, coordinates below -half wrap past any canvas
        # size, so one comparison per axis keeps the squares that can reach
        # the canvas.
        inside = ((xs + half).view(np.uint64) < self.width + 2 * half) & (
            (ys + half).view(np.uint64) < self.height + 2 * half)
        xs, ys = xs[inside], ys[inside]
        if not half:
            self.pixels[ys, xs] = color
            return
        if not len(xs):
            return
        x_low, y_low = int(xs.min()), int(ys.min())
        marks = np.zeros((int(ys.max()) - y_low + 1, int(xs.max()) - x_low + 1),
                         dtype=bool)
        marks[ys - y_low, xs - x_low] = True
        side = 2 * half + 1
        rows = np.zeros((marks.shape[0], marks.shape[1] + side - 1), dtype=bool)
        for shift in range(side):
            rows[:, shift:shift + marks.shape[1]] |= marks
        squares = np.zeros((rows.shape[0] + side - 1, rows.shape[1]), dtype=bool)
        for shift in range(side):
            squares[shift:shift + rows.shape[0]] |= rows
        left, top = x_low - half, y_low - half
        x0, y0 = max(0, left), max(0, top)
        x1 = min(self.width, left + squares.shape[1])
        y1 = min(self.height, top + squares.shape[0])
        self.pixels[y0:y1, x0:x1][
            squares[y0 - top:y1 - top, x0 - left:x1 - left]] = color

    def draw_line(
        self, x0: float, y0: float, x1: float, y1: float, color: Color, width: int = 1
    ) -> None:
        """Bresenham line with optional thickness (:meth:`_line_points`)."""
        self.draw_ops += 1
        if not all_near(x0, y0, x1, y1):
            return
        self._paint_points(*self._line_points(x0, y0, x1, y1, width), color,
                           width)

    def _line_points(self, x0: float, y0: float, x1: float, y1: float,
                     width: int) -> tuple[np.ndarray, np.ndarray]:
        """The points of a finite Bresenham line that can reach the canvas.

        Bresenham's walk steps the major axis (the longer of |dx|, |dy|)
        once per point; after k steps the minor axis has stepped
        ``(2 k d_minor + d_major) // (2 d_major)`` times, the integer
        nearest ``k d_minor / d_major`` (halves round up).  The points come
        from that closed form, only for the steps whose major coordinate
        lies within the stroke's half width of the canvas, in int64 steps
        or, where those could overflow (ends far past the canvas), in
        Python ints.  The ends are below ``_FAR`` pixels (:func:`all_near`).
        """
        ix0, iy0, ix1, iy1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
        sx = 1 if ix0 < ix1 else -1
        sy = 1 if iy0 < iy1 else -1
        dx, dy = abs(ix1 - ix0), abs(iy1 - iy0)
        x_major = dx >= dy
        if x_major:
            start, step, size, major, minor = ix0, sx, self.width, dx, dy
        else:
            start, step, size, major, minor = iy0, sy, self.height, dy, dx
        half = max(0, width // 2)
        # Steps k with start + step * k in [-half, size - 1 + half].
        low, high = sorted(((-half - start) * step, (size - 1 + half - start) * step))
        k = np.arange(max(0, low), min(major, high) + 1)
        along = start + step * k
        if len(k) and int(k[-1]) * 2 * minor + 2 * major >= 2 ** 63:
            across = np.array([(steps * 2 * minor + major) // (2 * major)
                               for steps in k.tolist()], dtype=object)
            if x_major:
                return along, (iy0 + sy * across).astype(np.int64)
            return (ix0 + sx * across).astype(np.int64), along
        across = (k * (2 * minor) + major) // (2 * major or 1)
        if x_major:
            return along, iy0 + sy * across
        return ix0 + sx * across, along

    def draw_rect(
        self, x0: float, y0: float, x1: float, y1: float, color: Color, width: int = 1
    ) -> None:
        if not all_near(x0, y0, x1, y1):
            # One op per edge, as drawn; no edge of it paints.
            self.draw_ops += 4
            return
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        self.draw_line(x0, y0, x1, y0, color, width)
        self.draw_line(x1, y0, x1, y1, color, width)
        self.draw_line(x1, y1, x0, y1, color, width)
        self.draw_line(x0, y1, x0, y0, color, width)

    def fill_rect(self, x0: float, y0: float, x1: float, y1: float, color: Color) -> None:
        self.draw_ops += 1
        if not all_finite(x0, y0, x1, y1):
            return
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        xi0 = max(0, int(round(x0)))
        yi0 = max(0, int(round(y0)))
        xi1 = min(self.width, int(round(x1)) + 1)
        yi1 = min(self.height, int(round(y1)) + 1)
        if xi0 < xi1 and yi0 < yi1:
            self.pixels[yi0:yi1, xi0:xi1] = color

    def draw_circle(
        self, cx: float, cy: float, radius: float, color: Color, width: int = 1
    ) -> None:
        """Midpoint circle (:meth:`_circle_points`)."""
        self.draw_ops += 1
        if not all_near(cx, cy, radius):
            return
        self._paint_points(*self._circle_points(cx, cy, radius, width), color,
                           width)

    def _circle_points(self, cx: float, cy: float, radius: float,
                       width: int) -> tuple[np.ndarray, np.ndarray]:
        """The points of a finite midpoint circle that can reach the canvas.

        The midpoint walk visits each octant row y = 0, 1, ... while x >= y,
        at the column x(y) nearest ``sqrt(r² - y²)``, and mirrors it into
        the eight octants.  In closed form x(y) is
        ``floor(sqrt(r² - y²) + 0.5)``, computed in float64; that is exact
        for r < 2**24, since r² - y² is an integer, so its root lies at
        least about 1 / (8 x) from the nearest half, far beyond the two
        roundings' error of about x / 2**52.  x(y) >= y holds exactly while
        2y² - y + 1 <= r², so the last row is the integer part of
        (1 + sqrt(8r² - 7)) / 4.  Only rows whose mirrored points can reach
        the canvas are computed, so the work is bounded by the canvas size,
        not the radius.  A radius that rounds to 0 or less is its centre.
        The centre and radius are below ``_FAR`` pixels (:func:`all_near`);
        a radius whose square overflows int64 takes the roots in Python
        ints.
        """
        r = int(round(radius))
        cxi, cyi = int(round(cx)), int(round(cy))
        if r <= 0:
            return np.array([cxi]), np.array([cyi])
        last = (1 + math.isqrt(8 * r * r - 7)) // 4
        half = max(0, width // 2)
        # Every octant point offsets the centre by ±y along one axis, so a
        # row y can paint only if that offset reaches the canvas on an axis.
        (low_a, high_a), (low_b, high_b) = sorted((
            _offset_reach(cxi, self.width, half),
            _offset_reach(cyi, self.height, half),
        ))
        high_a, high_b = min(high_a, last), min(high_b, last)
        y = np.concatenate((np.arange(low_a, high_a + 1),
                            np.arange(max(low_b, high_a + 1), high_b + 1)))
        if r * r < 2 ** 63:
            squares = r * r - y * y
        else:
            squares = np.array([float(r * r - row * row)
                                for row in y.tolist()])
        x = (np.sqrt(squares) + 0.5).astype(np.int64)
        across = np.concatenate((x, y))
        down = np.concatenate((y, x))
        return ((cxi + across * _OCTANT_SIGNS[0]).ravel(),
                (cyi + down * _OCTANT_SIGNS[1]).ravel())

    def fill_circle(self, cx: float, cy: float, radius: float, color: Color) -> None:
        self.fill_circles((cx,), (cy,), radius, color)

    def fill_circles(self, cx, cy, radius: float, color: Color) -> None:
        """Discs of one ``radius`` centred on (cx[i], cy[i]), one draw op
        each, painted with one numpy write per grid of discs
        (:meth:`_disc_pixels`).

        The discs share one colour, so their paint order does not matter.
        A radius ``<= 0`` paints the pixel nearest each centre; a radius
        that is not finite, or a centre that is not finite, paints nothing,
        as :meth:`draw_circle` does.
        """
        centres = np.array((cx, cy), dtype=np.float64).reshape(2, -1)
        self.draw_ops += centres.shape[1]
        r = float(radius)
        if not math.isfinite(r):
            return
        target = self.pixels.reshape(-1).view("V3")
        color = np.array(color, dtype=np.uint8).view("V3")[0]
        for flat, __ in self._disc_pixels(centres[0], centres[1], r):
            target[flat] = color

    def _disc_pixels(self, cx: np.ndarray, cy: np.ndarray, radius):
        """Yield ``(flat, disc)`` pieces: the row-major canvas index of each
        pixel the discs of radius ``radius`` (one for all, or one each)
        centred on (cx[i], cy[i]) paint, and the disc's position i.

        Each disc paints what the row loop ``reference_fill_circle`` in
        ``tests/raster_reference.py`` paints: every canvas row y in
        [floor(cy - r), ceil(cy + r)] with ``span = r² - (y - cy)² >= 0``
        gets the run [round(cx - √span), round(cx + √span)], clipped to the
        canvas.  ``np.rint`` rounds half to even, as ``round`` does.  A
        radius ``<= 0`` paints the pixel nearest the centre; a disc with a
        coordinate or radius that is not finite paints nothing.

        A disc spans fewer than ``2r + 4`` rows and its runs fewer than
        ``2r + 3`` columns, so the rows and then the pixels of many discs
        are one padded grid, masked to each disc's runs; discs of several
        radii whose grids round up to the same power of two share the
        largest one.  Discs are taken a canvas area of grid cells at a
        time, so the working arrays stay within a few canvases in size
        however many discs there are.
        """
        width, height = self.width, self.height
        if np.ndim(radius) == 0:
            radius = float(radius)
            if not math.isfinite(radius):
                return
            finite = np.isfinite(cx) & np.isfinite(cy)
            index = np.arange(len(cx)) if finite.all() else finite.nonzero()[0]
            if radius <= 0:
                yield self._nearest(cx, cy, index)
                return
            rows = min(height, int(min(2 * radius, height)) + 4)
            cols = min(width, int(min(2 * radius, width)) + 3)
            groups = [(index, rows, cols)]
        else:
            radii, __ = _distinct(radius)
            if len(radii) == 1:
                yield from self._disc_pixels(cx, cy, radii[0])
                return
            finite = np.isfinite(cx) & np.isfinite(cy) & np.isfinite(radius)
            yield self._nearest(cx, cy, (finite & (radius <= 0)).nonzero()[0])
            index = (finite & (radius > 0)).nonzero()[0]
            r = radius[index]
            rows = np.minimum(height, np.minimum(2 * r, height).astype(np.int64) + 4)
            cols = np.minimum(width, np.minimum(2 * r, width).astype(np.int64) + 3)
            grids = np.ceil(np.log2(np.maximum(rows, cols))).astype(np.int64)
            groups = []
            for grid in np.unique(grids).tolist():
                same = grids == grid
                groups.append((index[same], int(rows[same].max()),
                               int(cols[same].max())))
        for index, rows, cols in groups:
            # Discs whose rows or runs all miss the canvas paint nothing:
            # a run [round(cx - h), round(cx + h)] with h <= r reaches it
            # only if cx + r >= -0.5 and cx - r <= width - 0.5.
            r = radius if np.ndim(radius) == 0 else radius[index]
            x, y = cx[index], cy[index]
            index = index[(np.ceil(y + r) >= 0) & (np.floor(y - r) < height)
                          & (x + r >= -0.5) & (x - r <= width - 0.5)]
            step = max(1, width * height // (rows * cols))
            for first in range(0, len(index), step):
                chunk = index[first:first + step]
                r = radius if np.ndim(radius) == 0 else radius[chunk]
                flat, which = self._disc_grid(cx[chunk], cy[chunk], r, rows,
                                              cols)
                yield flat, chunk[which]

    def _nearest(self, cx: np.ndarray, cy: np.ndarray,
                 index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pixel nearest each centre at ``index`` (a disc of radius
        ``<= 0``), as canvas indices with their positions."""
        # Clipped first: an index beyond the canvas is all that matters.
        xs = np.rint(np.clip(cx[index], -1.0, self.width)).astype(np.int64)
        ys = np.rint(np.clip(cy[index], -1.0, self.height)).astype(np.int64)
        return self._inside(xs, ys, index)

    def _disc_grid(self, cx: np.ndarray, cy: np.ndarray, r: np.ndarray,
                   rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """The pixels of the discs centred on (cx, cy), through (disc, row)
        and (disc, row, column) grids of ``rows`` rows and ``cols`` columns
        (see :meth:`_disc_pixels`): canvas indices and disc positions."""
        top = np.maximum(np.floor(cy - r), 0.0)
        bottom = np.minimum(np.ceil(cy + r), self.height - 1.0)
        y = top[:, None] + np.arange(rows, dtype=np.float64)
        dy = y - cy[:, None]
        r2 = r * r
        span = (r2[:, None] if np.ndim(r2) else r2) - dy * dy
        half = np.sqrt(np.maximum(span, 0.0))
        x0 = np.maximum(np.rint(cx[:, None] - half), 0.0)
        x1 = np.minimum(np.rint(cx[:, None] + half), self.width - 1.0)
        runs = (y <= bottom[:, None]) & (span >= 0)
        x = x0[..., None] + np.arange(cols, dtype=np.float64)
        cells = ((x <= x1[..., None]) & runs[..., None]).ravel().nonzero()[0]
        # Exact integers: every painted index is a canvas pixel.
        flat = ((y * self.width)[..., None] + x).reshape(-1)[cells]
        return flat.astype(np.int64), cells // (rows * cols)

    def draw_marks(self, marks: MarkBatch) -> None:
        """Paint a relation's marks (:class:`~repro.display.marks.MarkBatch`)
        as if each were drawn in paint order by its primitive --
        ``draw_line``, ``draw_circle``, ``fill_circle``, ``draw_rect``,
        ``fill_rect`` or ``draw_text``, at width 1 -- and count those
        primitives' draw ops.

        Each group's kernel computes the canvas pixels of all its marks at
        once (:meth:`_group_pixels`), with the primitives' closed forms.
        Marks of one colour are written as their pixels come; otherwise
        each pixel takes the colour of the last mark in paint order that
        covers it, so overlaps resolve as sequential drawing does, and
        every pixel is written once.
        """
        groups = marks.groups
        self.draw_ops += sum(len(g.order) * (4 if g.paint == PAINT_RECT else 1)
                             for g in groups)
        groups = [g for g in groups if len(g.order)]
        if not groups:
            return
        # Pixels and colours as 3-byte scalars: one element per pixel.
        target = self.pixels.reshape(-1).view("V3")
        palette = np.array(marks.palette, dtype=np.uint8).view("V3").ravel()
        colors = {g.color if np.ndim(g.color) == 0 else -1 for g in groups}
        if len(colors) == 1 and -1 not in colors:
            color = palette[colors.pop()]
            for group in groups:
                for flat, __ in self._group_pixels(group, marks.texts):
                    target[flat] = color
            return
        # The colour of every mark, by its rank in paint order.
        ranked = np.zeros(marks.bound, dtype=np.intp)
        keys: list[np.ndarray] = []
        size, limit = 0, _piece_limit(self)
        for group in groups:
            ranked[group.order] = group.color
            for flat, which in self._group_pixels(group, marks.texts):
                keys.append(flat * marks.bound + group.order[which])
                size += len(flat)
                if size > limit:
                    keys = [_last_writes(keys, marks.bound)]
                    size = len(keys[0])
        if keys:
            last = _last_writes(keys, marks.bound)
            target[last // marks.bound] = palette[ranked[last % marks.bound]]

    def _group_pixels(self, group: MarkGroup, texts: tuple[str, ...]):
        """Yield ``(flat, mark)`` pieces: the row-major canvas index of every
        pixel a group's marks paint and the mark painting it.  Pieces hold
        at most a few canvases' worth of pixels (a single mark's may exceed
        it) and come in no particular order."""
        limit = _piece_limit(self)
        paint, coords = group.paint, group.coords
        count = len(group.order)
        if paint == PAINT_LINE:
            yield from self._line_pixels(np.array(coords), np.arange(count), limit)
        elif paint == PAINT_RECT:
            # A rectangle outline is its four edges, as draw_rect draws them.
            corners = np.array(coords)
            finite = (np.abs(corners) < _FAR).all(axis=0).nonzero()[0]
            x0, y0, x1, y1 = corners[:, finite]
            x0, x1 = np.minimum(x0, x1), np.maximum(x0, x1)
            y0, y1 = np.minimum(y0, y1), np.maximum(y0, y1)
            edges = np.array((
                np.concatenate((x0, x1, x1, x0)),
                np.concatenate((y0, y0, y1, y1)),
                np.concatenate((x1, x1, x0, x0)),
                np.concatenate((y0, y1, y1, y0)),
            ))
            yield from self._line_pixels(edges, np.tile(finite, 4), limit)
        elif paint == PAINT_CIRCLE:
            yield from self._circle_pixels(*coords, limit)
        elif paint == PAINT_DISC:
            yield from self._disc_pixels(*coords)
        elif paint == PAINT_FILL:
            yield from self._fill_pixels(np.array(coords), limit)
        else:
            yield from self._text_pixels(*coords, _broadcast(group.text, count),
                                         texts, limit)

    def _inside(self, xs: np.ndarray, ys: np.ndarray,
                owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The canvas indices of the int64 points on the canvas, with their
        owners (``_paint_points`` of width 1)."""
        # Viewed as unsigned, negative coordinates wrap past any canvas.
        inside = (xs.view(np.uint64) < self.width) & (
            ys.view(np.uint64) < self.height)
        return ys[inside] * self.width + xs[inside], owner[inside]

    def _line_pixels(self, ends: np.ndarray, owner: np.ndarray, limit: int):
        """Width-1 lines between (ends[0], ends[1]) and (ends[2], ends[3]):
        :meth:`_line_points` for many lines at once, with int64 steps.
        Lines with an end beyond 2**40 pixels, where those could overflow
        (on canvases up to 2**20 pixels across), take :meth:`_line_points`
        itself; lines with an end past ``_FAR`` paint nothing."""
        width, height = self.width, self.height
        rounded = np.rint(ends)
        # NaN fails the comparisons too.
        reach = np.abs(rounded).max(axis=0)
        near = reach < 2.0 ** 40
        if not near.all():
            far = ~near & (reach < _FAR)
            for i in far.nonzero()[0].tolist():
                xs, ys = self._line_points(*ends[:, i].tolist(), 1)
                yield self._inside(xs, ys, np.full(len(xs), owner[i]))
            rounded, owner = rounded[:, near], owner[near]
        ix0, iy0, ix1, iy1 = rounded.astype(np.int64)
        sx = (ix0 < ix1) * 2 - 1
        sy = (iy0 < iy1) * 2 - 1
        dx, dy = np.abs(ix1 - ix0), np.abs(iy1 - iy0)
        # Integer selects: x_major picks the x-axis value of each pair.
        x_major = (dx >= dy).astype(np.int64)
        start = iy0 + (ix0 - iy0) * x_major
        step = sy + (sx - sy) * x_major
        major = dy + (dx - dy) * x_major
        minor = dx + (dy - dx) * x_major
        # Steps k with start + step * k on the canvas.
        a = -start * step
        b = (height - 1 + (width - height) * x_major - start) * step
        low = np.maximum(np.minimum(a, b), 0)
        counts = np.maximum(np.minimum(np.maximum(a, b), major) - low + 1, 0)
        for part in _parts(counts, limit):
            which, k = _ragged(low[part], counts[part])
            which += part.start
            along = start[which] + step[which] * k
            across = (k * (2 * minor[which]) + major[which]) // np.maximum(
                2 * major[which], 1)
            on_x = x_major[which]
            off_x = ix0[which] + sx[which] * across
            off_y = iy0[which] + sy[which] * across
            yield self._inside(off_x + (along - off_x) * on_x,
                               along + (off_y - along) * on_x, owner[which])

    def _circle_pixels(self, cx: np.ndarray, cy: np.ndarray, radius,
                       limit: int):
        """Width-1 circle outlines of radius ``radius`` (one for all, or one
        each) centred on (cx[i], cy[i]): :meth:`_circle_points` for many
        circles at once.

        Each rounded radius's points are computed once, every row of them
        (:func:`_circle_stamp`), and stamped at each centre; rows
        :meth:`_circle_points` skips cannot reach the canvas, so the pixels
        on it are the same.  Circles of radius ``_STAMP_RADIUS`` or more,
        or centred beyond 2**52 pixels, take :meth:`_circle_points`, whose
        work the canvas bounds.
        """
        if np.ndim(radius) == 0:
            r = float(radius)
            if not math.isfinite(r) or round(r) >= _STAMP_RADIUS:
                radius = np.full(len(cx), r)
        circles = np.array((cx, cy, radius)) if np.ndim(radius) else None
        x, y = np.rint(cx), np.rint(cy)
        # NaN fails the comparison too.
        near = np.maximum(np.abs(x), np.abs(y)) < 2.0 ** 52
        if circles is not None:
            rounded = np.rint(circles[2])
            near &= rounded < _STAMP_RADIUS
        index = np.arange(len(near))
        if not near.all():
            finite = (np.abs(x) < _FAR) & (np.abs(y) < _FAR)
            if circles is not None:
                finite &= np.abs(rounded) < _FAR
            for i in (finite & ~near).nonzero()[0].tolist():
                xs, ys = self._circle_points(
                    float(cx[i]), float(cy[i]),
                    radius if circles is None else float(circles[2, i]), 1)
                yield self._inside(xs, ys, np.full(len(xs), i))
            index = near.nonzero()[0]
            x, y = x[index], y[index]
        if circles is None:
            radii, stamp = [round(radius)], _NOTHING
        else:
            radii, stamp = _distinct(rounded[index].astype(np.int64))
        yield from self._stamp_pixels(
            x.astype(np.int64), y.astype(np.int64),
            [_circle_stamp(value) for value in radii], stamp, index, limit)

    def _text_pixels(self, x: np.ndarray, y: np.ndarray, text: np.ndarray,
                     texts: tuple[str, ...], limit: int):
        """``texts[text[i]]`` with its top-left corner at (x[i], y[i]), as
        :meth:`draw_text` paints it: each string's ink
        (:func:`_text_stamp`) stamped at its rounded corners."""
        left, top = np.rint(x), np.rint(y)
        # The rows and the left edge, which need no string, rule most
        # strings off the canvas out (NaN fails too); beyond 2**52 pixels
        # none can reach it.
        index = ((top < self.height) & (top > -CHAR_HEIGHT)
                 & (left < self.width) & (left > -2.0 ** 52)).nonzero()[0]
        strings, stamp = _distinct(text[index])
        yield from self._stamp_pixels(
            left[index].astype(np.int64), top[index].astype(np.int64),
            [_text_stamp(texts[string]) for string in strings], stamp, index,
            limit)

    def _stamp_pixels(self, x: np.ndarray, y: np.ndarray, stamps: list,
                      stamp: np.ndarray, owner: np.ndarray, limit: int):
        """Stamp ``stamps[stamp[i]]`` at (x[i], y[i]), for the marks whose
        stamp's extent reaches the canvas; pixels belong to ``owner[i]``."""
        if not len(x):
            return
        extent = np.array([s[2:] for s in stamps], dtype=np.int64).T
        if len(stamps) > 1:
            extent = extent[:, stamp]
        on = ((x >= -extent[1]) & (x < self.width - extent[0])
              & (y >= -extent[3]) & (y < self.height - extent[2])).nonzero()[0]
        x, y, owner = x[on], y[on], owner[on]
        if len(stamps) == 1:
            (dx, dy, *__), = stamps
            step = max(1, limit // max(1, len(dx)))
            for first in range(0, len(x), step):
                part = slice(first, first + step)
                yield self._inside(
                    (x[part, None] + dx).ravel(), (y[part, None] + dy).ravel(),
                    np.repeat(owner[part], len(dx)))
            return
        sizes = np.array([len(s.dx) for s in stamps], dtype=np.int64)
        dx = np.concatenate([s.dx for s in stamps])
        dy = np.concatenate([s.dy for s in stamps])
        stamp = stamp[on]
        starts = (sizes.cumsum() - sizes)[stamp]
        counts = sizes[stamp]
        for part in _parts(counts, limit):
            which, point = _ragged(starts[part], counts[part])
            which += part.start
            yield self._inside(x[which] + dx[point], y[which] + dy[point],
                               owner[which])

    def _fill_pixels(self, corners: np.ndarray, limit: int):
        """Filled rectangles between corners (corners[0], corners[1]) and
        (corners[2], corners[3]), as :meth:`fill_rect` fills them."""
        finite = np.isfinite(corners).all(axis=0).nonzero()[0]
        x0, y0, x1, y1 = corners[:, finite]
        # Clipped as floats: round(x) + 1 beyond the canvas clips the same.
        left = np.maximum(np.rint(np.minimum(x0, x1)), 0.0)
        right = np.minimum(np.rint(np.maximum(x0, x1)) + 1.0, self.width)
        top = np.maximum(np.rint(np.minimum(y0, y1)), 0.0)
        bottom = np.minimum(np.rint(np.maximum(y0, y1)) + 1.0, self.height)
        keep = ((left < right) & (top < bottom)).nonzero()[0]
        left, top = left[keep].astype(np.int64), top[keep].astype(np.int64)
        span = right[keep].astype(np.int64) - left
        counts = span * (bottom[keep].astype(np.int64) - top)
        owner = finite[keep]
        for part in _parts(counts, limit):
            which, cell = _ragged(np.zeros(len(counts[part]), dtype=np.int64),
                                  counts[part])
            which += part.start
            row, col = np.divmod(cell, span[which])
            yield ((top[which] + row) * self.width + left[which] + col,
                   owner[which])

    def draw_polygon(
        self, points: list[tuple[float, float]], color: Color, width: int = 1
    ) -> None:
        if len(points) < 2:
            return
        if not all_near(*(v for point in points for v in point)):
            # One op per edge, as drawn; no edge of it paints.
            self.draw_ops += len(points)
            return
        for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
            self.draw_line(x0, y0, x1, y1, color, width)

    def fill_polygon(self, points: list[tuple[float, float]], color: Color) -> None:
        """Even-odd scanline fill."""
        self.draw_ops += 1
        if len(points) < 3 or not all_finite(
                *(v for point in points for v in point)):
            return
        ys = [p[1] for p in points]
        y0 = max(0, int(math.floor(min(ys))))
        y1 = min(self.height - 1, int(math.ceil(max(ys))))
        n = len(points)
        for y in range(y0, y1 + 1):
            scan = y + 0.5
            crossings: list[float] = []
            for i in range(n):
                ax, ay = points[i]
                bx, by = points[(i + 1) % n]
                if (ay <= scan < by) or (by <= scan < ay):
                    t = (scan - ay) / (by - ay)
                    crossings.append(ax + t * (bx - ax))
            crossings.sort()
            for left, right in zip(crossings[::2], crossings[1::2]):
                xi0 = max(0, int(round(left)))
                xi1 = min(self.width - 1, int(round(right)))
                if xi0 <= xi1:
                    self.pixels[y, xi0 : xi1 + 1] = color

    def draw_text(self, x: float, y: float, text: str, color: Color) -> None:
        """Paint ``text`` with its top-left corner at (x, y): one masked
        write of the string's glyph mask (:func:`text_mask`), clipped."""
        self.draw_ops += 1
        if not all_finite(x, y):
            return
        left, top = int(round(x)), int(round(y))
        mask = text_mask(text)
        x0, y0 = max(0, left), max(0, top)
        x1 = min(self.width, left + mask.shape[1])
        y1 = min(self.height, top + CHAR_HEIGHT)
        if x0 < x1 and y0 < y1:
            region = self.pixels[y0:y1, x0:x1]
            region[mask[y0 - top:y1 - top, x0 - left:x1 - left]] = color

    # ------------------------------------------------------------------
    # Composition and export
    # ------------------------------------------------------------------

    def blit(self, other: "Canvas", x: float, y: float) -> None:
        """Paint another canvas onto this one with top-left at (x, y)."""
        self.draw_ops += 1
        if not all_finite(x, y):
            return
        xi, yi = int(round(x)), int(round(y))
        src_x0 = max(0, -xi)
        src_y0 = max(0, -yi)
        dst_x0 = max(0, xi)
        dst_y0 = max(0, yi)
        copy_w = min(other.width - src_x0, self.width - dst_x0)
        copy_h = min(other.height - src_y0, self.height - dst_y0)
        if copy_w <= 0 or copy_h <= 0:
            return
        self.pixels[dst_y0 : dst_y0 + copy_h, dst_x0 : dst_x0 + copy_w] = other.pixels[
            src_y0 : src_y0 + copy_h, src_x0 : src_x0 + copy_w
        ]

    def ppm_bytes(self) -> bytes:
        """The binary PPM (P6) encoding — the server's raw frame payload."""
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.pixels.tobytes()

    def to_ppm(self, path: str | Path) -> Path:
        """Write a binary PPM (P6) image — viewable by any image tool."""
        path = Path(path)
        with current_tracer().span("canvas.export", format="ppm",
                                   px=self.width * self.height):
            path.write_bytes(self.ppm_bytes())
        return path

    def png_bytes(self) -> bytes:
        """The PNG encoding, stdlib zlib only: indexed colour when the frame
        has at most 256 colours, else 8-bit RGB.

        The palette is the background followed by the other colours in
        ascending 24-bit key order, stored at the smallest bit depth (1, 2,
        4 or 8) that holds it, so the bytes depend only on the pixels and
        the background colour — equal frames encode to equal bytes.

        Indexed scanlines deflate with the run-length strategy (``Z_RLE``:
        matches only against the previous byte).  A frame's index rows are
        long runs of the background index, so this costs about a quarter of
        the default strategy's time for a few percent more bytes.  RGB
        scanlines keep the default strategy, whose distant matches they
        need (RLE can be 10x larger there).

        Cost: one comparison pass over the frame's bytes
        (:func:`_painted_pixels`), then work in proportion to the painted
        pixels (their keys, palette indices and packed bits), then deflate
        over ``height * (1 + row bytes)`` bytes of scanlines.  The dense
        index image and its copies are never built.
        """
        positions, keys = _painted_pixels(self.pixels, self.background)
        colors = np.unique(keys)
        if len(colors) < 256:
            palette = np.concatenate(
                ([_color_key(self.background)], colors)).astype(np.uint32)
            depth = next(d for d in (1, 2, 4, 8) if len(palette) <= 1 << d)
            per_byte = 8 // depth
            # Each scanline is filter byte 0 (None), then the indices
            # packed leftmost pixel in the high-order bits, padded to a
            # whole byte.  The background is index 0, so only painted
            # pixels set bits; pixels that share a byte set disjoint bits.
            stride = 1 + -(-self.width // per_byte)
            raw = np.zeros(self.height * stride, dtype=np.uint8)
            row, col = np.divmod(positions, self.width)
            index = np.searchsorted(colors, keys) + 1
            shift = 8 - depth - depth * (col % per_byte)
            np.bitwise_or.at(raw, row * stride + 1 + col // per_byte,
                             (index << shift).astype(np.uint8))
            rgb = np.stack(
                [palette & 0xFF, palette >> 8 & 0xFF, palette >> 16], axis=1)
            color_type = 3
            plte = _png_chunk(b"PLTE", rgb.astype(np.uint8).tobytes())
            deflate = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
        else:
            # PNG palettes hold at most 256 entries: fall back to RGB.
            raw = np.zeros((self.height, 1 + 3 * self.width), dtype=np.uint8)
            raw[:, 1:] = self.pixels.reshape(self.height, -1)
            color_type, depth, plte = 2, 8, b""
            deflate = zlib.compressobj(6)
        header = struct.pack(">IIBBBBB", self.width, self.height, depth,
                             color_type, 0, 0, 0)
        return (
            b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", header)
            + plte
            + _png_chunk(b"IDAT", deflate.compress(raw) + deflate.flush())
            + _png_chunk(b"IEND", b"")
        )

    def to_png(self, path: str | Path) -> Path:
        """Write a PNG (see :meth:`png_bytes`) using only the stdlib."""
        path = Path(path)
        with current_tracer().span("canvas.export", format="png",
                                   px=self.width * self.height):
            path.write_bytes(self.png_bytes())
        return path

    def to_ascii(self, columns: int = 80) -> str:
        """Downsample to an ASCII view (darker pixels → denser glyphs)."""
        columns = max(1, min(columns, self.width))
        cell_w = self.width / columns
        rows = max(1, int(round(self.height / (cell_w * 2))))
        cell_h = self.height / rows
        ramp = " .:-=+*#%@"
        lines = []
        luminance = self.pixels.astype(np.float64).mean(axis=2)
        for row in range(rows):
            y0 = int(row * cell_h)
            y1 = max(y0 + 1, int((row + 1) * cell_h))
            line_chars = []
            for col in range(columns):
                x0 = int(col * cell_w)
                x1 = max(x0 + 1, int((col + 1) * cell_w))
                mean = luminance[y0:y1, x0:x1].mean()
                darkness = 1.0 - mean / 255.0
                index = min(len(ramp) - 1, int(darkness * (len(ramp) - 1) + 0.5))
                line_chars.append(ramp[index])
            lines.append("".join(line_chars).rstrip())
        return "\n".join(lines)

    def copy(self) -> "Canvas":
        clone = Canvas(self.width, self.height, self.background)
        clone.pixels[:, :] = self.pixels
        return clone

    def __repr__(self) -> str:
        return f"Canvas({self.width}x{self.height})"
