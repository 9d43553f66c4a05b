"""The raster canvas: a numpy RGB framebuffer with clipped drawing primitives.

This is the stand-in for the X11/Tk surface the original system painted on.
It offers exactly the primitives the paper's drawables need — lines
(Bresenham with width), rectangles, circles (midpoint), polygons (scanline
fill), bitmap text — plus blitting (for nested wormhole/magnifier viewers),
PPM and PNG export, and an ASCII view for terminals and tests.

All coordinates are float pixels (x right, y down) and are clipped to the
canvas bounds; drawing off-canvas is silently partial, never an error.
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
from repro.render.font import CHAR_HEIGHT, CHAR_WIDTH, glyph_rows

__all__ = ["Canvas", "WHITE", "BLACK"]

WHITE: Color = (255, 255, 255)
BLACK: Color = (0, 0, 0)


def _color_key(color: Color) -> int:
    """The 24-bit key of one colour: ``r | g << 8 | b << 16``."""
    r, g, b = color
    return r | g << 8 | b << 16


def _pixel_keys(pixels: np.ndarray) -> np.ndarray:
    """Every pixel's 24-bit colour key (see :func:`_color_key`), shape (h, w).

    One pass: an unaligned little-endian ``uint32`` view at a 3-byte stride
    reads each pixel plus the next pixel's red byte, which the mask drops.
    The last pixel has no next byte, so it is keyed on its own.
    """
    height, width, _ = pixels.shape
    flat = np.ascontiguousarray(pixels).reshape(-1)
    count = height * width
    keys = np.empty(count, dtype=np.uint32)
    keys[:-1] = np.ndarray((count - 1,), dtype="<u4", buffer=flat,
                           strides=(3,))
    keys &= 0xFFFFFF
    keys[-1] = _color_key(tuple(int(v) for v in flat[-3:]))
    return keys.reshape(height, width)


def _pack_indices(index: np.ndarray, depth: int) -> np.ndarray:
    """Pack palette indices into PNG scanline bytes, leftmost pixel in the
    high-order bits; rows are padded to whole bytes."""
    if depth == 1:
        return np.packbits(index, axis=1)
    per_byte = 8 // depth
    height, width = index.shape
    padded = np.zeros((height, -(-width // per_byte) * per_byte), np.uint8)
    padded[:, :width] = index
    packed = padded[:, 0::per_byte] << (8 - depth)
    for slot in range(1, per_byte):
        packed |= padded[:, slot::per_byte] << (8 - depth * (slot + 1))
    return packed


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
        keys = _pixel_keys(self.pixels)
        return int(np.count_nonzero(keys != _color_key(self.background)))

    def colors_used(self) -> set[Color]:
        """Distinct non-background colors present on the canvas."""
        keys = _pixel_keys(self.pixels)
        painted = keys[keys != _color_key(self.background)]
        return {
            (int(k) & 0xFF, int(k) >> 8 & 0xFF, int(k) >> 16)
            for k in np.unique(painted)
        }

    def region_nonbackground(self, x0: int, y0: int, x1: int, y1: int) -> int:
        """Painted pixels within a clipped rectangle."""
        x0 = max(0, x0)
        y0 = max(0, y0)
        x1 = min(self.width, x1)
        y1 = min(self.height, y1)
        if x0 >= x1 or y0 >= y1:
            return 0
        keys = _pixel_keys(self.pixels[y0:y1, x0:x1])
        return int(np.count_nonzero(keys != _color_key(self.background)))

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def _thick_point(self, x: int, y: int, color: Color, width: int) -> None:
        if width <= 1:
            if self.in_bounds(x, y):
                self.pixels[y, x] = color
            return
        half = width // 2
        x0 = max(0, x - half)
        y0 = max(0, y - half)
        x1 = min(self.width, x + half + 1)
        y1 = min(self.height, y + half + 1)
        if x0 < x1 and y0 < y1:
            self.pixels[y0:y1, x0:x1] = color

    def draw_line(
        self, x0: float, y0: float, x1: float, y1: float, color: Color, width: int = 1
    ) -> None:
        """Bresenham line with optional thickness."""
        self.draw_ops += 1
        ix0, iy0, ix1, iy1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
        dx = abs(ix1 - ix0)
        dy = -abs(iy1 - iy0)
        sx = 1 if ix0 < ix1 else -1
        sy = 1 if iy0 < iy1 else -1
        err = dx + dy
        x, y = ix0, iy0
        while True:
            self._thick_point(x, y, color, width)
            if x == ix1 and y == iy1:
                break
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x += sx
            if e2 <= dx:
                err += dx
                y += sy

    def draw_rect(
        self, x0: float, y0: float, x1: float, y1: float, color: Color, width: int = 1
    ) -> None:
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        self.draw_line(x0, y0, x1, y0, color, width)
        self.draw_line(x1, y0, x1, y1, color, width)
        self.draw_line(x1, y1, x0, y1, color, width)
        self.draw_line(x0, y1, x0, y0, color, width)

    def fill_rect(self, x0: float, y0: float, x1: float, y1: float, color: Color) -> None:
        self.draw_ops += 1
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
        """Midpoint circle."""
        self.draw_ops += 1
        r = int(round(radius))
        if r <= 0:
            self._thick_point(int(round(cx)), int(round(cy)), color, width)
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
                self._thick_point(px, py, color, width)
            y += 1
            if err < 0:
                err += 2 * y + 1
            else:
                x -= 1
                err += 2 * (y - x) + 1

    def fill_circle(self, cx: float, cy: float, radius: float, color: Color) -> None:
        self.draw_ops += 1
        r = radius
        if r <= 0:
            self.set_pixel(cx, cy, color)
            return
        y0 = max(0, int(math.floor(cy - r)))
        y1 = min(self.height - 1, int(math.ceil(cy + r)))
        for y in range(y0, y1 + 1):
            dy = y - cy
            span = r * r - dy * dy
            if span < 0:
                continue
            half = math.sqrt(span)
            x0 = max(0, int(round(cx - half)))
            x1 = min(self.width - 1, int(round(cx + half)))
            if x0 <= x1:
                self.pixels[y, x0 : x1 + 1] = color

    def draw_polygon(
        self, points: list[tuple[float, float]], color: Color, width: int = 1
    ) -> None:
        if len(points) < 2:
            return
        for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
            self.draw_line(x0, y0, x1, y1, color, width)

    def fill_polygon(self, points: list[tuple[float, float]], color: Color) -> None:
        """Even-odd scanline fill."""
        self.draw_ops += 1
        if len(points) < 3:
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
        """Paint ``text`` with its top-left corner at (x, y)."""
        self.draw_ops += 1
        cursor = int(round(x))
        top = int(round(y))
        for char in text:
            rows = glyph_rows(char)
            for row_index, row_bits in enumerate(rows):
                py = top + row_index
                if not 0 <= py < self.height:
                    continue
                for col in range(CHAR_WIDTH):
                    if row_bits & (1 << (CHAR_WIDTH - 1 - col)):
                        px = cursor + col
                        if 0 <= px < self.width:
                            self.pixels[py, px] = color
            cursor += CHAR_WIDTH + 1

    # ------------------------------------------------------------------
    # Composition and export
    # ------------------------------------------------------------------

    def blit(self, other: "Canvas", x: float, y: float) -> None:
        """Paint another canvas onto this one with top-left at (x, y)."""
        self.draw_ops += 1
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
        """
        keys = _pixel_keys(self.pixels)
        background = _color_key(self.background)
        painted = keys != background
        colors, inverse = np.unique(keys[painted], return_inverse=True)
        if len(colors) < 256:
            palette = np.concatenate(([background], colors)).astype(np.uint32)
            depth = next(d for d in (1, 2, 4, 8) if len(palette) <= 1 << d)
            index = np.zeros(keys.shape, dtype=np.uint8)
            index[painted] = inverse + 1
            scanlines = _pack_indices(index, depth)
            rgb = np.stack(
                [palette & 0xFF, palette >> 8 & 0xFF, palette >> 16], axis=1)
            color_type = 3
            plte = _png_chunk(b"PLTE", rgb.astype(np.uint8).tobytes())
        else:
            # PNG palettes hold at most 256 entries: fall back to RGB.
            scanlines = self.pixels.reshape(self.height, self.width * 3)
            color_type, depth, plte = 2, 8, b""
        header = struct.pack(">IIBBBBB", self.width, self.height, depth,
                             color_type, 0, 0, 0)
        # Each scanline gets filter byte 0 (None).
        raw = np.zeros((self.height, 1 + scanlines.shape[1]), dtype=np.uint8)
        raw[:, 1:] = scanlines
        return (
            b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", header)
            + plte
            + _png_chunk(b"IDAT", zlib.compress(raw, level=6))
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
