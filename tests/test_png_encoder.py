"""The canvas PNG encoder against the reference decoder and, byte for byte,
against the dense reference encoder; the colour-key canvas queries against
their per-channel numpy definitions."""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest

from png_reference import chunks, decode, header, reference_png_bytes
from repro.api import PanTo, SetElevation, SetSlider
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
    """Decode the canvas's PNG back to its pixels, and check that it is the
    dense reference encoder's PNG, byte for byte."""
    data = canvas.png_bytes()
    assert data == reference_png_bytes(canvas)
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

    @pytest.mark.parametrize("width", range(1, 18))
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


# -- more canvases, byte for byte against the dense reference encoder -------

#: Colour counts, background included, on each side of every depth and of
#: the 256-entry palette limit.
COLOR_TOTALS = (1, 2, 3, 4, 5, 16, 17, 256, 257)
#: Backgrounds: white (the default), another grey, and two non-greys.
BACKGROUNDS = ((255, 255, 255), (37, 37, 37), (10, 200, 30), (0, 0, 1))


def random_canvas(rng: random.Random, total: int) -> Canvas:
    """A seeded canvas of at most 64x48 showing ``total`` distinct colours.

    Widths are drawn freely, so rows end mid-byte at depths 1, 2 and 4.
    The background is sometimes painted over entirely (absent from the
    frame), and the last pixel is sometimes painted on purpose.
    """
    background = rng.choice(BACKGROUNDS)
    cover = total > 1 and rng.random() < 0.15
    # When the background is painted over, the frame needs ``total``
    # other colours to show ``total``.
    needed = total - 1 + cover
    while True:
        width, height = rng.randint(1, 64), rng.randint(1, 48)
        if width * height >= needed:
            break
    canvas = Canvas(width, height, background=background)
    colors: list[tuple[int, int, int]] = []
    seen = {background}
    while len(colors) < needed:
        color = tuple(rng.randrange(256) for _ in range(3))
        if color not in seen:
            seen.add(color)
            colors.append(color)
    count = width * height
    flat = canvas.pixels.reshape(-1, 3)
    if cover:
        # Every pixel painted: the background is the palette's unused entry.
        for spot in range(count):
            flat[spot] = colors[spot % len(colors)]
    elif colors:
        for spot in rng.choices(range(count), k=rng.randint(0, count)):
            flat[spot] = rng.choice(colors)
        if rng.random() < 0.3:
            flat[-1] = rng.choice(colors)
        # Painted last, so each colour keeps at least one pixel.
        for spot, color in zip(rng.sample(range(count), len(colors)), colors):
            flat[spot] = color
    return canvas


@pytest.mark.parametrize("total", COLOR_TOTALS)
def test_random_canvases_match_reference_encoder(total):
    rng = random.Random(total)
    for _ in range(50):
        canvas = random_canvas(rng, total)
        assert_round_trip(canvas)
        assert_queries_match_reference(canvas)
        assert len(canvas.colors_used()) >= total - 1


@pytest.mark.parametrize("background", BACKGROUNDS)
@pytest.mark.parametrize("size", [(1, 1), (7, 1), (8, 1), (9, 3), (64, 48)])
def test_blank_canvases_match_reference_encoder(background, size):
    canvas = Canvas(*size, background=background)
    assert_round_trip(canvas)
    assert canvas.count_nonbackground() == 0
    assert canvas.colors_used() == set()


@pytest.fixture(scope="module")
def full_db():
    """The full weather database the server hosts."""
    return build_weather_database()


def map_view(rng: random.Random, window: str, full_altitude: bool) -> list:
    """A view over Louisiana: pan, elevation and an altitude window."""
    low = 0.0 if full_altitude else rng.uniform(0.0, 150.0)
    high = 10_000.0 if full_altitude else low + rng.uniform(50.0, 300.0)
    return [
        PanTo(window=window, cx=rng.uniform(-94.0, -89.0),
              cy=rng.uniform(29.0, 33.0)),
        SetElevation(window=window, elevation=rng.uniform(1.0, 12.0)),
        SetSlider(window=window, dim="Altitude", low=low, high=high),
    ]


def series_view(rng: random.Random) -> list:
    """A view of one Louisiana station's band in the fig8 time series."""
    station = rng.randint(1, 18)
    return [
        PanTo(window="tempseries", cx=rng.uniform(0.0, 401.0),
              cy=station * 60.0 + rng.uniform(0.0, 50.0)),
        SetElevation(window="tempseries", elevation=rng.uniform(80.0, 200.0)),
    ]


@pytest.mark.parametrize("figure,window", [
    ("fig4", "stations"), ("fig7", "map"), ("fig8", "map"),
    ("fig8", "tempseries"),
])
def test_replayed_frames_match_reference_encoder(full_db, figure, window):
    session = FIGURES[figure](full_db).session
    rng = random.Random(f"{figure}/{window}")
    painted = 0
    for _ in range(25):
        view = (series_view(rng) if window == "tempseries"
                else map_view(rng, window, full_altitude=figure == "fig8"))
        for command in view:
            assert session.execute(command).kind == "reply"
        canvas = session.window(window).render()
        assert (canvas.width, canvas.height) == (640, 480)
        assert_round_trip(canvas)
        painted += canvas.count_nonbackground()
    assert painted > 0
