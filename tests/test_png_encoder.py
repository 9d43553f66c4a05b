"""The canvas PNG encoder against the reference decoder, and the colour-key
canvas queries against their per-channel numpy definitions."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from png_reference import chunks, decode, header
from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.render.canvas import Canvas


def distinct_colors(count: int) -> list[tuple[int, int, int]]:
    """``count`` distinct colours, none of them white (the default
    background) and none grey."""
    return [(i % 256, 254 - i // 2 % 128, (i * 37 + 1) % 256) for i in range(count)]


def canvas_with_colors(total: int, width: int = 37) -> Canvas:
    """A white canvas showing exactly ``total`` distinct colours, background
    included, the non-background ones each on one pixel."""
    others = distinct_colors(total - 1)
    height = max(1, -(-len(others) // width) + 1)
    canvas = Canvas(width, height)
    for i, color in enumerate(others):
        canvas.set_pixel(i % width, i // width, color)
    return canvas


def assert_round_trip(canvas: Canvas) -> bytes:
    data = canvas.png_bytes()
    info = header(data)
    assert (info["width"], info["height"]) == (canvas.width, canvas.height)
    np.testing.assert_array_equal(decode(data), canvas.pixels)
    return data


def ihdr_format(canvas: Canvas) -> tuple[int, int]:
    info = header(canvas.png_bytes())
    return info["color_type"], info["depth"]


class TestSyntheticCanvases:
    @pytest.mark.parametrize(
        "total,expected",
        [
            (1, (3, 1)),
            (2, (3, 1)),
            (3, (3, 2)),
            (4, (3, 2)),
            (5, (3, 4)),
            (16, (3, 4)),
            (17, (3, 8)),
            (256, (3, 8)),
            (257, (2, 8)),
        ],
    )
    def test_color_count_picks_type_and_depth(self, total, expected):
        canvas = canvas_with_colors(total)
        assert len(canvas.colors_used()) == total - 1
        assert_round_trip(canvas)
        assert ihdr_format(canvas) == expected

    def test_one_by_one(self):
        blank = Canvas(1, 1)
        assert_round_trip(blank)
        assert ihdr_format(blank) == (3, 1)
        painted = Canvas(1, 1)
        painted.set_pixel(0, 0, (1, 2, 3))
        assert_round_trip(painted)
        assert ihdr_format(painted) == (3, 1)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 6, 7, 9, 10, 13, 15])
    @pytest.mark.parametrize("total", [2, 3, 5, 17])
    def test_widths_that_leave_partial_bytes(self, width, total):
        canvas = canvas_with_colors(total, width=width)
        # Paint the last column too, so padding bits sit next to ink.
        canvas.fill_rect(width - 1, 0, width - 1, canvas.height - 1,
                         distinct_colors(1)[0])
        assert_round_trip(canvas)

    def test_background_absent_from_frame(self):
        canvas = Canvas(11, 5)
        canvas.fill_rect(0, 0, 10, 4, (200, 0, 0))
        canvas.fill_rect(0, 0, 2, 2, (0, 0, 200))
        assert canvas.count_nonbackground() == 11 * 5
        assert_round_trip(canvas)
        # Palette: the unused background, then the two colours.
        assert ihdr_format(canvas) == (3, 2)

    def test_non_grey_background(self):
        canvas = Canvas(9, 7, background=(10, 200, 30))
        canvas.draw_line(0, 0, 8, 6, (0, 0, 0))
        canvas.set_pixel(4, 1, (255, 255, 255))
        assert_round_trip(canvas)
        assert ihdr_format(canvas) == (3, 2)

    def test_palette_is_background_then_ascending_keys(self):
        canvas = Canvas(4, 2, background=(10, 200, 30))
        canvas.set_pixel(0, 0, (0, 0, 9))  # key 9 << 16
        canvas.set_pixel(1, 0, (7, 0, 0))  # key 7
        canvas.set_pixel(2, 0, (0, 8, 0))  # key 8 << 8
        plte = dict(chunks(canvas.png_bytes()))[b"PLTE"]
        assert plte == bytes([10, 200, 30, 7, 0, 0, 0, 8, 0, 0, 0, 9])

    def test_rgb_fallback_has_no_palette(self):
        tags = [tag for tag, _ in chunks(canvas_with_colors(257).png_bytes())]
        assert tags == [b"IHDR", b"IDAT", b"IEND"]

    def test_equal_pixels_encode_to_equal_bytes(self):
        def draw() -> Canvas:
            canvas = Canvas(23, 19)
            canvas.fill_circle(10, 9, 6, (0, 0, 255))
            canvas.draw_text(1, 1, "Hi", (0, 0, 0))
            canvas.draw_line(0, 18, 22, 0, (255, 0, 0))
            return canvas

        first, second = draw(), draw()
        assert first.png_bytes() == second.png_bytes()
        assert first.copy().png_bytes() == first.png_bytes()
        many = canvas_with_colors(257)
        assert many.copy().png_bytes() == many.png_bytes()

    @pytest.mark.parametrize("total,strategy", [(5, zlib.Z_RLE),
                                                (257, zlib.Z_DEFAULT_STRATEGY)])
    def test_deflate_strategy_follows_colour_type(self, total, strategy):
        # Indexed scanlines deflate run-length only; RGB scanlines keep the
        # default strategy, whose distant matches they need.
        data = canvas_with_colors(total).png_bytes()
        idat = dict(chunks(data))[b"IDAT"]
        deflate = zlib.compressobj(6, zlib.DEFLATED, 15, 8, strategy)
        raw = zlib.decompress(idat)
        assert deflate.compress(raw) + deflate.flush() == idat

    def test_encoding_leaves_pixels_unchanged(self):
        canvas = canvas_with_colors(5)
        before = canvas.pixels.copy()
        canvas.png_bytes()
        np.testing.assert_array_equal(canvas.pixels, before)


def reference_queries(canvas: Canvas) -> tuple[int, set, int]:
    """count_nonbackground, colors_used and a region count, computed per
    channel over every pixel."""
    background = np.array(canvas.background)
    painted = (canvas.pixels != background).any(axis=2)
    unique = np.unique(canvas.pixels.reshape(-1, 3), axis=0)
    colors = {tuple(int(v) for v in rgb) for rgb in unique} - {canvas.background}
    h, w = canvas.height, canvas.width
    region = int(painted[h // 4: h // 2 + 1, w // 3: w - 1].sum())
    return int(painted.sum()), colors, region


def assert_queries_match_reference(canvas: Canvas) -> None:
    h, w = canvas.height, canvas.width
    count, colors, region = reference_queries(canvas)
    assert canvas.count_nonbackground() == count
    assert canvas.colors_used() == colors
    assert canvas.region_nonbackground(w // 3, h // 4, w - 1, h // 2 + 1) == region


class TestColourKeyQueries:
    @pytest.mark.parametrize("total", [1, 2, 5, 257])
    def test_queries_match_per_channel_reference(self, total):
        assert_queries_match_reference(canvas_with_colors(total, width=13))

    def test_non_grey_background_and_last_pixel(self):
        canvas = Canvas(6, 4, background=(1, 2, 3))
        # Colours that differ from the background in one channel each,
        # including on the final pixel (keyed outside the strided view).
        canvas.set_pixel(0, 0, (1, 2, 4))
        canvas.set_pixel(5, 3, (0, 2, 3))
        canvas.set_pixel(2, 1, (1, 9, 3))
        assert_queries_match_reference(canvas)
        assert canvas.count_nonbackground() == 3


@pytest.fixture(scope="module")
def figure_db():
    return build_weather_database(extra_stations=10, every_days=60)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_frames_decode_to_their_pixels(figure_db, figure):
    session = FIGURES[figure](figure_db).session
    for name in sorted(session.windows):
        canvas = session.window(name).render()
        data = assert_round_trip(canvas)
        # Every figure draws a handful of named colours: always a palette.
        assert header(data)["color_type"] == 3
        assert_queries_match_reference(canvas)
