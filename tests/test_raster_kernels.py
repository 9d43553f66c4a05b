"""The canvas raster kernels against the per-pixel reference loops.

``Canvas.draw_line``, ``draw_circle`` and ``draw_text`` paint whole point
sets and glyph masks with numpy writes, and ``fill_circles`` paints many
discs' row runs with one; ``tests/raster_reference.py`` keeps the
Bresenham, midpoint, glyph and disc-row loops they replaced.  Every test
here paints the same primitive both ways onto equal canvases and compares
the pixels; ``draw_marks``, which paints many marks of every kind at once,
is compared with the same marks drawn one primitive call each.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import repro.render.canvas as canvas_module
import repro.render.font as font_module
from raster_reference import (
    reference_draw_circle,
    reference_draw_line,
    reference_draw_text,
    reference_fill_circle,
    reference_raster,
)
from repro.core.scenarios import FIGURES
from repro.data.weather import build_weather_database
from repro.display.marks import (
    PAINT_CIRCLE,
    PAINT_DISC,
    PAINT_FILL,
    PAINT_TEXT,
    MarkBatch,
    MarkGroup,
    paint_each,
)
from repro.render.canvas import Canvas
from repro.render.font import CHAR_HEIGHT, CHAR_WIDTH, GLYPHS

INK = (20, 40, 200)
#: Line endpoints in [-9, 9] overhang this canvas on every side.
LINE_CANVAS = (12, 11)


def assert_same_pixels(kernel, reference, size, *args) -> None:
    """Paint ``args`` with the kernel and the reference on equal blank
    canvases of ``size`` (width, height)."""
    painted, expected = Canvas(*size), Canvas(*size)
    kernel(painted, *args)
    reference(expected, *args)
    if not np.array_equal(painted.pixels, expected.pixels):
        diff = np.argwhere((painted.pixels != expected.pixels).any(axis=2))
        pytest.fail(f"{kernel.__name__}{args}: pixels differ at (y, x) {diff[:5].tolist()}")
    assert painted.draw_ops == expected.draw_ops == 1


class TestLines:
    """The closed-form Bresenham points and the clip to the canvas."""

    def test_every_endpoint_pair_width_1(self):
        for x0, y0, x1, y1 in itertools.product(range(-9, 10), repeat=4):
            assert_same_pixels(Canvas.draw_line, reference_draw_line, LINE_CANVAS,
                               x0, y0, x1, y1, INK, 1)

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_thick_strokes(self, width):
        # Every other coordinate: the stroke square does not depend on the
        # endpoints, so this keeps every octant, length parity and edge
        # overhang at a tenth of the full sweep's cost.
        for x0, y0, x1, y1 in itertools.product(range(-9, 10, 2), repeat=4):
            assert_same_pixels(Canvas.draw_line, reference_draw_line, LINE_CANVAS,
                               x0, y0, x1, y1, INK, width)

    @pytest.mark.parametrize("width", [0, 1, 2, 5])
    def test_fractional_and_long_lines(self, width):
        # Rounded float endpoints, and lines whose steps mostly fall far
        # outside the canvas.
        for x0, y0, x1, y1 in [(-0.5, 0.5, 10.49, 7.5), (1.5, -2.5, 2.5, 20.5),
                               (-4000, 5, 4000, 6), (6, -3000.2, 5, 2999.7),
                               (-500, -480, 520, 470), (11.6, 10.6, -0.4, -0.6)]:
            assert_same_pixels(Canvas.draw_line, reference_draw_line, LINE_CANVAS,
                               x0, y0, x1, y1, INK, width)

    @pytest.mark.parametrize("width", [101, 201])
    def test_wide_strokes_across_the_canvas(self, width):
        # Squares far wider than the canvas is tall, on canvas-length lines
        # in both axis orders and straddling every edge.
        for x0, y0, x1, y1 in [(0, 50, 639, 70), (-80, -30, 720, 130),
                               (320, -200, 300, 300), (600, 0, 10, 99),
                               (-60, 150, 700, 180)]:
            assert_same_pixels(Canvas.draw_line, reference_draw_line, (640, 100),
                               x0, y0, x1, y1, INK, width)

    def test_wide_stroke_memory_is_bounded_by_the_canvas(self):
        # The squares of a width-201 stroke along a 640 px line would be
        # 26M points, over a gigabyte as index arrays; the marks grid needs
        # its extent on the canvas only.
        import tracemalloc

        canvas = Canvas(640, 100)
        tracemalloc.start()
        try:
            canvas.draw_line(0, 50, 639, 50, INK, 201)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"
        assert (canvas.pixels == INK).all()


class TestCircles:
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("centre", [(20, 15), (0, 15), (39, 15), (20, 0),
                                        (20, 29)],
                             ids=["inside", "left", "right", "top", "bottom"])
    def test_radii_0_to_300(self, centre, width):
        for radius in range(301):
            assert_same_pixels(Canvas.draw_circle, reference_draw_circle,
                               (40, 30), *centre, radius, INK, width)

    @pytest.mark.parametrize("radius", [0.49, 0.5, 2.5, 3.5001, 7.2])
    def test_fractional_centre_and_radius(self, radius):
        for cx, cy in [(-0.5, 3.5), (4.49, -0.51), (38.7, 29.5)]:
            assert_same_pixels(Canvas.draw_circle, reference_draw_circle,
                               (40, 30), cx, cy, radius, INK, 2)

    @pytest.mark.parametrize("centre", [(-150, 15), (20, -130), (-90, -90),
                                        (170, 140)])
    def test_far_centres_whose_arc_crosses_the_canvas(self, centre):
        for radius in range(80, 260, 7):
            for width in (1, 4, 61):
                assert_same_pixels(Canvas.draw_circle, reference_draw_circle,
                                   (40, 30), *centre, radius, INK, width)

    def test_huge_radius_paints_its_arc_in_canvas_time(self):
        # The arc of a 2**24 - 1 px circle centred far left crosses a
        # 40 x 30 canvas as the column x = 20 (it bends by under a pixel
        # over 15 rows).  Only rows that reach the canvas are computed;
        # all ~11.9M octant rows would take about a gigabyte.
        r = 2**24 - 1
        canvas = Canvas(40, 30)
        canvas.draw_circle(20 - r, 15, r, INK, 1)
        painted = np.argwhere((canvas.pixels != 255).any(axis=2))
        assert painted.tolist() == [[y, 20] for y in range(30)]

    def test_octant_columns_exact_for_large_radii(self):
        # x(y) = floor(sqrt(r² - y²) + 0.5) in float64 against the integer
        # nearest root, near the documented 2**24 bound, where the
        # reference loop is too slow to run; and the last row's formula.
        def nearest_root(r: int, y: int) -> int:
            squares = r * r - y * y
            root = math.isqrt(squares)
            return root + (squares - root * root > root)

        for r in (2**24 - 1, 2**24 - 3, 12_345_677, 9_999_991):
            last = (1 + math.isqrt(8 * r * r - 7)) // 4
            assert nearest_root(r, last) >= last
            assert nearest_root(r, last + 1) < last + 1
            ys = sorted(set(range(200)) | set(range(last - 200, last + 1))
                        | {int(last * f) for f in np.linspace(0, 1, 2001)})
            y = np.array(ys, dtype=np.int64)
            x = (np.sqrt(r * r - y * y) + 0.5).astype(np.int64)
            assert x.tolist() == [nearest_root(r, yi) for yi in ys], r


def assert_discs_match(size, cx, cy, radius) -> None:
    """``fill_circles`` of every centre at once against
    ``reference_fill_circle`` of one centre at a time, on equal blank
    canvases of ``size`` (width, height): pixels and draw ops."""
    painted, expected = Canvas(*size), Canvas(*size)
    painted.fill_circles(np.array(cx, dtype=np.float64),
                         np.array(cy, dtype=np.float64), radius, INK)
    for x, y in zip(cx, cy):
        reference_fill_circle(expected, x, y, radius, INK)
    if not np.array_equal(painted.pixels, expected.pixels):
        diff = np.argwhere((painted.pixels != expected.pixels).any(axis=2))
        pytest.fail(f"fill_circles({cx}, {cy}, {radius}): pixels differ at "
                    f"(y, x) {diff[:5].tolist()}")
    assert painted.draw_ops == expected.draw_ops == len(cx)


class TestDiscs:
    """``fill_circles``: the disc row runs, their rounding and the clip."""

    SIZE = (24, 18)

    def test_random_fractional_centres_and_radii(self):
        rng = np.random.default_rng(7)
        for __ in range(400):
            radius = float(rng.choice([rng.uniform(0, 3), rng.uniform(0, 14)]))
            count = int(rng.integers(1, 6))
            cx = rng.uniform(-12, 36, count).tolist()
            cy = rng.uniform(-12, 30, count).tolist()
            for x, y in zip(cx, cy):
                assert_discs_match(self.SIZE, [x], [y], radius)
            assert_discs_match(self.SIZE, cx, cy, radius)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 7.0])
    def test_half_pixel_centres(self, radius):
        # Runs end at exact .5 here, where round-half-even and round-half-up
        # disagree: 0.5 -> 0, 1.5 -> 2, 2.5 -> 2.
        for cx, cy in itertools.product([-0.5, 0.5, 1.5, 2.5, 10.5, 11.0, 23.5],
                                        [-0.5, 0.5, 3.5, 8.0, 16.5, 17.5]):
            assert_discs_match(self.SIZE, [cx], [cy], radius)

    @pytest.mark.parametrize("radius", [1.0, 3.0, 6.4, 40.0])
    def test_discs_straddling_each_edge_or_off_canvas(self, radius):
        width, height = self.SIZE
        centres = [(-2.3, 9.0), (width + 1.7, 9.0), (12.0, -2.6), (12.0, height + 1.2),
                   (-1.0, -1.0), (width, height), (-radius - 1.6, 9.0),
                   (12.0, height + radius + 1.6), (-300.0, -300.0), (5e9, 7.0)]
        for cx, cy in centres:
            assert_discs_match(self.SIZE, [cx], [cy], radius)
        assert_discs_match(self.SIZE, *zip(*centres), radius)

    @pytest.mark.parametrize("radius", [0.0, -1.0, -0.5])
    def test_non_positive_radius_paints_the_nearest_pixel(self, radius):
        centres = [(0.0, 0.0), (2.5, 3.5), (3.5, 2.5), (-0.5, 4.0), (-0.51, 4.0),
                   (23.49, 17.5), (23.5, 5.0), (100.0, 100.0)]
        for cx, cy in centres:
            assert_discs_match(self.SIZE, [cx], [cy], radius)
        assert_discs_match(self.SIZE, *zip(*centres), radius)

    @pytest.mark.parametrize("radius", [0.1, 0.49, 0.5, 0.51, 0.7071, 0.99])
    def test_sub_pixel_radius(self, radius):
        # A disc under a pixel wide may paint nothing at all.
        for cx, cy in itertools.product([3.0, 3.25, 3.5, 3.75], [4.0, 4.5, 4.3]):
            assert_discs_match(self.SIZE, [cx], [cy], radius)

    def test_empty_batch(self):
        assert_discs_match(self.SIZE, [], [], 3.0)
        assert_discs_match(self.SIZE, [], [], 0.0)

    def test_non_finite_centres_and_radius_paint_nothing(self):
        canvas = Canvas(*self.SIZE)
        canvas.fill_circles([np.nan, np.inf, 5.0, -np.inf], [4.0, 4.0, np.nan, 4.0],
                            2.0, INK)
        canvas.fill_circles([5.0], [5.0], np.nan, INK)
        assert canvas.count_nonbackground() == 0
        assert canvas.draw_ops == 5
        # The finite discs of a mixed batch still paint.
        mixed, expected = Canvas(*self.SIZE), Canvas(*self.SIZE)
        mixed.fill_circles([np.nan, 6.2, 14.0], [3.0, 7.7, np.inf], 2.5, INK)
        reference_fill_circle(expected, 6.2, 7.7, 2.5, INK)
        np.testing.assert_array_equal(mixed.pixels, expected.pixels)

    def test_infinite_radius_paints_nothing(self):
        # As draw_circle and the SVG surface do: the op counts, no pixel.
        canvas = Canvas(*self.SIZE)
        canvas.fill_circles([5.0, 12.5], [4.0, 9.0], math.inf, INK)
        canvas.fill_circle(3.0, 3.0, -math.inf, INK)
        assert canvas.count_nonbackground() == 0
        assert canvas.draw_ops == 3

    def test_fill_circle_is_one_centre(self):
        painted, expected = Canvas(*self.SIZE), Canvas(*self.SIZE)
        painted.fill_circle(9.3, 7.5, 4.5, INK)
        reference_fill_circle(expected, 9.3, 7.5, 4.5, INK)
        np.testing.assert_array_equal(painted.pixels, expected.pixels)
        assert painted.draw_ops == expected.draw_ops == 1

    def test_overlapping_large_discs_stay_within_canvas_memory(self):
        # 4,000 discs of radius 500 over a 64 x 48 canvas: each covers the
        # canvas, so their grids would be ~12M cells at once; the kernel
        # takes a canvas area of cells at a time.
        import tracemalloc

        rng = np.random.default_rng(3)
        cx, cy = rng.uniform(0, 64, 4000), rng.uniform(0, 48, 4000)
        canvas = Canvas(64, 48)
        tracemalloc.start()
        try:
            canvas.fill_circles(cx, cy, 500.0, INK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"
        assert (canvas.pixels == INK).all()
        assert canvas.draw_ops == 4000


def random_marks(rng: np.random.Generator, size: tuple[int, int]) -> MarkBatch:
    """A few groups of every paint kind: coordinates on, near and far off
    the canvas (some beyond 2**52, some NaN or infinite), circle radii past
    the stamp limit, a shared radius or one each, four colours, and texts
    with unknown glyphs -- ranked in a shuffled paint order."""
    width, height = size
    texts = ("Baton Rouge", "", "é€ab", "X", "New Orleans 70112")
    groups, count = [], 0
    for __ in range(int(rng.integers(1, 7))):
        paint = int(rng.integers(0, PAINT_TEXT + 1))
        marks = int(rng.integers(0, 9))

        def coord(span):
            values = rng.uniform(-0.5 * span, 1.5 * span, marks)
            values[rng.random(marks) < 0.1] = rng.choice(
                [np.nan, np.inf, -np.inf, 3e16, -3e16, 1e300])
            return values

        x0, y0 = coord(width), coord(height)
        if paint in (PAINT_CIRCLE, PAINT_DISC):
            radius = rng.choice([rng.uniform(-1, 6), rng.uniform(0, 40),
                                 rng.uniform(2000, 5000)], marks)
            if paint == PAINT_DISC:
                radius[~np.isfinite(radius)] = 1.0
            coords = (x0, y0, radius if rng.random() < 0.5 else
                      float(radius[0]) if marks else 2.0)
        elif paint == PAINT_TEXT:
            coords = (x0, y0)
        else:
            coords = (x0, y0, coord(width), coord(height))
        color = (rng.integers(0, 4, marks) if rng.random() < 0.5
                 else int(rng.integers(0, 4)))
        text = rng.integers(0, len(texts), marks) if paint == PAINT_TEXT else None
        groups.append(MarkGroup(paint, coords, color, text,
                                np.arange(count, count + marks)))
        count += marks
    ranks = rng.permutation(count)
    groups = [group._replace(order=ranks[group.order]) for group in groups]
    palette = ((200, 30, 30), (30, 160, 30), (30, 30, 200), (10, 10, 10))
    return MarkBatch(tuple(groups), palette, texts, count)


class TestMarks:
    """``draw_marks`` against the same marks drawn one primitive call each,
    in paint order (``paint_each``): pixels and draw ops."""

    @pytest.mark.parametrize("size", [(24, 18), (64, 48)])
    def test_random_batches(self, size):
        rng = np.random.default_rng(size[0])
        raised = 0
        for __ in range(300):
            marks = random_marks(rng, size)
            painted, expected = Canvas(*size), Canvas(*size)
            # The line and circle primitives raise on a finite coordinate
            # past int64 pixels; drawn together or one by one, such a batch
            # raises (kinds paint in another order, so maybe another error).
            outcomes = []
            for paint, canvas in ((Canvas.draw_marks, painted),
                                  (paint_each, expected)):
                try:
                    paint(canvas, marks)
                    outcomes.append(False)
                except (OverflowError, TypeError, ValueError):
                    outcomes.append(True)
            assert outcomes[0] == outcomes[1]
            if outcomes[0]:
                raised += 1
                continue
            np.testing.assert_array_equal(painted.pixels, expected.pixels)
            assert painted.draw_ops == expected.draw_ops
        assert raised < 100

    def test_later_marks_win_overlaps(self):
        # Three discs over one pixel, ranked so the middle group paints last.
        marks = MarkBatch((
            MarkGroup(PAINT_DISC, (np.array([5.0]), np.array([5.0]), 3.0), 0,
                      None, np.array([0])),
            MarkGroup(PAINT_DISC, (np.array([6.0]), np.array([5.0]), 3.0), 1,
                      None, np.array([2])),
            MarkGroup(PAINT_FILL, (np.array([5.0]), np.array([5.0]),
                                   np.array([5.0]), np.array([5.0])), 2,
                      None, np.array([1])),
        ), ((255, 0, 0), (0, 255, 0), (0, 0, 255)), (), 3)
        canvas = Canvas(12, 12)
        canvas.draw_marks(marks)
        assert canvas.pixel(5, 5) == (0, 255, 0)
        assert canvas.pixel(2, 5) == (255, 0, 0)
        assert canvas.draw_ops == 3


class TestText:
    ALL = "".join(GLYPHS)
    STRINGS = [ALL, ALL.lower(), "Baton Rouge", "é€\x00ß☃Ab", ""]

    @pytest.mark.parametrize("text", STRINGS,
                             ids=["glyphs", "lowercase", "mixed", "unknown", "empty"])
    def test_clipped_at_each_edge(self, text):
        width = len(text) * (CHAR_WIDTH + 1)
        for x, y in [(3, 4), (-2.6, 4), (-width + 4, 4), (30, 4), (3, -3),
                     (3, -CHAR_HEIGHT + 1), (3, 8.4), (3, 10.6), (60, 40),
                     (-width, 4), (3, -CHAR_HEIGHT)]:
            assert_same_pixels(Canvas.draw_text, reference_draw_text,
                               (36, 12), x, y, text, INK)

    def test_every_glyph_alone(self):
        for char in list(GLYPHS) + ["a", "z", "é", "☃"]:
            assert_same_pixels(Canvas.draw_text, reference_draw_text,
                               (8, 9), 1, 1, char, INK)


@pytest.fixture(scope="module")
def figure_db():
    return build_weather_database(extra_stations=10, every_days=60)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figures_match_the_reference_raster(figure_db, figure):
    session = FIGURES[figure](figure_db).session
    for name in sorted(session.windows):
        window = session.window(name)
        painted = window.render()
        with reference_raster():
            expected = window.render()
        np.testing.assert_array_equal(painted.pixels, expected.pixels)
        assert painted.png_bytes() == expected.png_bytes()
        assert painted.draw_ops == expected.draw_ops


def module_dict_sizes(module) -> dict[str, int]:
    """The module's globals count and the size of each dict among them."""
    sizes = {"<globals>": len(vars(module))}
    sizes.update((name, len(value)) for name, value in vars(module).items()
                 if isinstance(value, dict))
    return sizes


def test_no_module_state_grows_with_input():
    before = [module_dict_sizes(canvas_module), module_dict_sizes(font_module)]
    canvas = Canvas(64, 48)
    for i in range(10_000):
        canvas.draw_text(i % 64 - 8, i % 48 - 3, chr(0x100 + i) + chr(0x4E00 + i),
                         INK)
        canvas.draw_circle(32, 24, 1 + i, INK, 1 + i % 3)
    after = [module_dict_sizes(canvas_module), module_dict_sizes(font_module)]
    assert after == before
