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
painted with one numpy write.  ``tests/raster_reference.py`` holds the
per-pixel and per-row loops they must match (``reference_fill_circle`` for
the discs).

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

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.display.drawables import Color, resolve_color
from repro.errors import DisplayError
from repro.obs.trace import current_tracer
from repro.render.font import CHAR_HEIGHT, text_mask

__all__ = ["Canvas", "WHITE", "BLACK"]

WHITE: Color = (255, 255, 255)
BLACK: Color = (0, 0, 0)


def all_finite(*values: float) -> bool:
    """Whether every coordinate is finite; a primitive paints nothing at an
    infinite or NaN coordinate (also used by the SVG surface)."""
    return all(map(math.isfinite, values))


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
        """Bresenham line with optional thickness.

        Bresenham's walk steps the major axis (the longer of |dx|, |dy|)
        once per point; after k steps the minor axis has stepped
        ``(2 k d_minor + d_major) // (2 d_major)`` times, the integer
        nearest ``k d_minor / d_major`` (halves round up).  The points come
        from that closed form, only for the steps whose major coordinate
        lies within the stroke's half width of the canvas.
        """
        self.draw_ops += 1
        if not all_finite(x0, y0, x1, y1):
            return
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
        across = (k * (2 * minor) + major) // (2 * major or 1)
        if x_major:
            self._paint_points(along, iy0 + sy * across, color, width)
        else:
            self._paint_points(ix0 + sx * across, along, color, width)

    def draw_rect(
        self, x0: float, y0: float, x1: float, y1: float, color: Color, width: int = 1
    ) -> None:
        if not all_finite(x0, y0, x1, y1):
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
        """Midpoint circle.

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
        not the radius.
        """
        self.draw_ops += 1
        if not all_finite(cx, cy, radius):
            return
        r = int(round(radius))
        cxi, cyi = int(round(cx)), int(round(cy))
        if r <= 0:
            self._paint_points(np.array([cxi]), np.array([cyi]), color, width)
            return
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
        x = (np.sqrt(r * r - y * y) + 0.5).astype(np.int64)
        across = np.concatenate((x, y))
        down = np.concatenate((y, x))
        self._paint_points(
            (cxi + across * _OCTANT_SIGNS[0]).ravel(),
            (cyi + down * _OCTANT_SIGNS[1]).ravel(),
            color, width,
        )

    def fill_circle(self, cx: float, cy: float, radius: float, color: Color) -> None:
        self.fill_circles((cx,), (cy,), radius, color)

    def fill_circles(self, cx, cy, radius: float, color: Color) -> None:
        """Discs of one ``radius`` centred on (cx[i], cy[i]), one draw op
        each, painted with one numpy write.

        Each disc paints what the row loop ``reference_fill_circle`` in
        ``tests/raster_reference.py`` paints: every canvas row y in
        [floor(cy - r), ceil(cy + r)] with ``span = r² - (y - cy)² >= 0``
        gets the run [round(cx - √span), round(cx + √span)], clipped to the
        canvas.  ``np.rint`` rounds half to even, as ``round`` does.  A
        radius ``<= 0`` paints the pixel nearest each centre; a NaN radius,
        or a centre that is not finite, paints nothing.

        The discs share one colour, so their paint order does not matter.
        A disc spans fewer than ``2r + 4`` rows and its runs fewer than
        ``2r + 3`` columns, so the rows and then the pixels of every disc
        are one padded grid, masked to the runs.  Discs are taken a canvas
        area of grid cells at a time, so the working arrays stay within a
        few canvases in size however many discs there are.
        """
        centres = np.array((cx, cy), dtype=np.float64).reshape(2, -1)
        self.draw_ops += centres.shape[1]
        r = float(radius)
        if math.isnan(r):
            return
        finite = np.isfinite(centres).all(axis=0)
        if not finite.all():
            centres = centres[:, finite]
        cx, cy = centres
        width, height = self.width, self.height
        if r <= 0:
            # Clipped first: an index beyond the canvas is all that matters.
            self._paint_points(
                np.rint(np.clip(cx, -1.0, width)).astype(np.int64),
                np.rint(np.clip(cy, -1.0, height)).astype(np.int64),
                color, 1)
            return
        rows = min(height, int(min(2 * r, height)) + 4)
        cols = min(width, int(min(2 * r, width)) + 3)
        top = np.maximum(np.floor(cy - r), 0.0)
        bottom = np.minimum(np.ceil(cy + r), height - 1.0)
        step = max(1, width * height // (rows * cols))
        for first in range(0, len(cx), step):
            chunk = slice(first, first + step)
            self._fill_discs(cx[chunk], cy[chunk], top[chunk], bottom[chunk],
                             r, rows, cols, color)

    def _fill_discs(self, cx: np.ndarray, cy: np.ndarray, top: np.ndarray,
                    bottom: np.ndarray, r: float, rows: int, cols: int,
                    color: Color) -> None:
        """Paint the discs centred on (cx, cy) whose rows on the canvas are
        [top, bottom], through (disc, row) and (disc, row, column) grids of
        ``rows`` rows and ``cols`` columns (see :meth:`fill_circles`)."""
        y = top[:, None] + np.arange(rows, dtype=np.float64)
        dy = y - cy[:, None]
        span = r * r - dy * dy
        half = np.sqrt(np.maximum(span, 0.0))
        x0 = np.maximum(np.rint(cx[:, None] - half), 0.0)
        x1 = np.minimum(np.rint(cx[:, None] + half), self.width - 1.0)
        runs = (y <= bottom[:, None]) & (span >= 0)
        x = x0[..., None] + np.arange(cols, dtype=np.float64)
        paint = (x <= x1[..., None]) & runs[..., None]
        # Exact integers: every painted index is a canvas pixel.
        flat = (y * self.width)[..., None] + x
        self.pixels.reshape(-1, 3)[flat[paint].astype(np.int64)] = color

    def draw_polygon(
        self, points: list[tuple[float, float]], color: Color, width: int = 1
    ) -> None:
        if len(points) < 2:
            return
        if not all_finite(*(v for point in points for v in point)):
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
