"""Unit tests: the raster canvas and bitmap font (repro.render)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DisplayError
from repro.render.canvas import Canvas
from repro.render.font import CHAR_HEIGHT, CHAR_WIDTH, GLYPHS, glyph_rows


class TestFont:
    def test_glyph_dimensions(self):
        for char, rows in GLYPHS.items():
            assert len(rows) == CHAR_HEIGHT, char
            assert all(row < (1 << CHAR_WIDTH) for row in rows), char

    def test_lowercase_folds_to_uppercase(self):
        assert glyph_rows("a") == GLYPHS["A"]

    def test_unknown_renders_box(self):
        rows = glyph_rows("é")
        assert rows[0] == 0b11111  # hollow box marker

    def test_space_is_blank(self):
        assert all(row == 0 for row in glyph_rows(" "))

    def test_digits_and_punctuation_present(self):
        for char in "0123456789.,:-+()%/":
            assert any(glyph_rows(char)), char


class TestCanvasBasics:
    def test_starts_clear(self):
        canvas = Canvas(10, 8)
        assert canvas.count_nonbackground() == 0
        assert canvas.pixel(0, 0) == (255, 255, 255)

    def test_bad_size(self):
        with pytest.raises(DisplayError):
            Canvas(0, 10)

    def test_set_and_read_pixel(self):
        canvas = Canvas(10, 10)
        canvas.set_pixel(3, 4, (1, 2, 3))
        assert canvas.pixel(3, 4) == (1, 2, 3)
        assert canvas.count_nonbackground() == 1

    def test_out_of_bounds_read_rejected(self):
        canvas = Canvas(4, 4)
        with pytest.raises(DisplayError):
            canvas.pixel(4, 0)

    def test_out_of_bounds_write_silent(self):
        canvas = Canvas(4, 4)
        canvas.set_pixel(-1, -1, (0, 0, 0))
        canvas.set_pixel(100, 100, (0, 0, 0))
        assert canvas.count_nonbackground() == 0

    def test_clear_resets(self):
        canvas = Canvas(4, 4)
        canvas.fill_rect(0, 0, 3, 3, (9, 9, 9))
        canvas.clear()
        assert canvas.count_nonbackground() == 0

    @pytest.mark.parametrize("background", [
        (255, 255, 255), (128, 128, 128), (0, 0, 0), (10, 200, 30),
        (255, 255, 0),
    ])
    def test_clear_paints_the_background_everywhere(self, background):
        canvas = Canvas(7, 5, background)
        canvas.fill_rect(1, 1, 4, 3, (9, 99, 199))
        canvas.clear()
        expected = np.empty((5, 7, 3), dtype=np.uint8)
        expected[:, :] = background
        assert np.array_equal(canvas.pixels, expected)

    def test_copy_is_independent(self):
        canvas = Canvas(4, 4)
        clone = canvas.copy()
        canvas.set_pixel(0, 0, (1, 1, 1))
        assert clone.count_nonbackground() == 0


class TestPrimitives:
    def test_horizontal_line_length(self):
        canvas = Canvas(32, 32)
        canvas.draw_line(2, 10, 20, 10, (0, 0, 0))
        assert canvas.count_nonbackground() == 19

    def test_diagonal_line(self):
        canvas = Canvas(32, 32)
        canvas.draw_line(0, 0, 10, 10, (0, 0, 0))
        assert canvas.pixel(5, 5) == (0, 0, 0)

    def test_thick_line(self):
        thin = Canvas(32, 32)
        thin.draw_line(5, 5, 25, 5, (0, 0, 0), width=1)
        thick = Canvas(32, 32)
        thick.draw_line(5, 5, 25, 5, (0, 0, 0), width=3)
        assert thick.count_nonbackground() > 2 * thin.count_nonbackground()

    def test_line_clipped(self):
        canvas = Canvas(16, 16)
        canvas.draw_line(-50, 8, 50, 8, (0, 0, 0))
        assert canvas.count_nonbackground() == 16

    def test_fill_rect_area(self):
        canvas = Canvas(32, 32)
        canvas.fill_rect(4, 4, 7, 7, (0, 0, 0))
        assert canvas.count_nonbackground() == 16

    def test_fill_rect_corner_order_irrelevant(self):
        a = Canvas(16, 16)
        a.fill_rect(2, 2, 6, 6, (0, 0, 0))
        b = Canvas(16, 16)
        b.fill_rect(6, 6, 2, 2, (0, 0, 0))
        assert np.array_equal(a.pixels, b.pixels)

    def test_draw_rect_is_outline(self):
        canvas = Canvas(32, 32)
        canvas.draw_rect(4, 4, 10, 10, (0, 0, 0))
        assert canvas.pixel(4, 4) == (0, 0, 0)
        assert canvas.pixel(7, 7) == (255, 255, 255)

    def test_circle_symmetry(self):
        canvas = Canvas(64, 64)
        canvas.draw_circle(32, 32, 10, (0, 0, 0))
        assert canvas.pixel(42, 32) == (0, 0, 0)
        assert canvas.pixel(22, 32) == (0, 0, 0)
        assert canvas.pixel(32, 42) == (0, 0, 0)
        assert canvas.pixel(32, 22) == (0, 0, 0)
        assert canvas.pixel(32, 32) == (255, 255, 255)

    def test_fill_circle_area_close_to_pi_r_squared(self):
        canvas = Canvas(64, 64)
        canvas.fill_circle(32, 32, 10, (0, 0, 0))
        area = canvas.count_nonbackground()
        assert abs(area - 3.14159 * 100) < 30

    def test_tiny_circle_degenerates_to_point(self):
        canvas = Canvas(8, 8)
        canvas.fill_circle(4, 4, 0.0, (0, 0, 0))
        assert canvas.count_nonbackground() == 1

    def test_polygon_fill_triangle(self):
        canvas = Canvas(32, 32)
        canvas.fill_polygon([(4, 4), (28, 4), (16, 28)], (0, 0, 0))
        assert canvas.pixel(16, 10) == (0, 0, 0)
        assert canvas.pixel(2, 28) == (255, 255, 255)

    def test_polygon_outline(self):
        canvas = Canvas(32, 32)
        canvas.draw_polygon([(4, 4), (28, 4), (16, 28)], (0, 0, 0))
        assert canvas.pixel(16, 4) == (0, 0, 0)

    def test_text_width(self):
        canvas = Canvas(128, 16)
        canvas.draw_text(0, 0, "IIII", (0, 0, 0))
        cols = np.where((canvas.pixels != 255).any(axis=2).any(axis=0))[0]
        assert cols.max() < 4 * (CHAR_WIDTH + 1)

    def test_text_clipped_vertically(self):
        canvas = Canvas(64, 4)
        canvas.draw_text(0, -3, "HELLO", (0, 0, 0))
        assert canvas.count_nonbackground() > 0  # bottom rows visible


class TestCompositionExport:
    def test_blit_places_content(self):
        small = Canvas(8, 8)
        small.fill_rect(0, 0, 7, 7, (0, 0, 0))
        big = Canvas(32, 32)
        big.blit(small, 10, 10)
        assert big.pixel(10, 10) == (0, 0, 0)
        assert big.pixel(9, 9) == (255, 255, 255)

    def test_blit_clips_at_edges(self):
        small = Canvas(8, 8)
        small.fill_rect(0, 0, 7, 7, (0, 0, 0))
        big = Canvas(16, 16)
        big.blit(small, 12, 12)  # partially off
        big.blit(small, -4, -4)
        big.blit(small, 100, 100)  # fully off
        assert big.count_nonbackground() == 16 + 16

    def test_ppm_export(self, tmp_path):
        canvas = Canvas(4, 3)
        canvas.set_pixel(0, 0, (10, 20, 30))
        path = canvas.to_ppm(tmp_path / "out.ppm")
        data = path.read_bytes()
        assert data.startswith(b"P6\n4 3\n255\n")
        assert len(data) == len(b"P6\n4 3\n255\n") + 4 * 3 * 3

    def test_png_export(self, tmp_path):
        from png_reference import decode, header

        canvas = Canvas(8, 6)
        canvas.set_pixel(2, 3, (10, 20, 30))
        path = canvas.to_png(tmp_path / "out.png")
        data = path.read_bytes()
        assert data.startswith(b"\x89PNG\r\n\x1a\n")
        info = header(data)
        assert (info["width"], info["height"]) == (8, 6)
        # Decode the file and check the pixel round-trips.
        pixels = decode(data)
        assert tuple(pixels[3, 2]) == (10, 20, 30)
        np.testing.assert_array_equal(pixels, canvas.pixels)

    def test_ascii_dimensions(self):
        canvas = Canvas(100, 50)
        art = canvas.to_ascii(columns=40)
        lines = art.split("\n")
        assert all(len(line) <= 40 for line in lines)

    def test_ascii_dark_pixels_visible(self):
        canvas = Canvas(40, 20)
        canvas.fill_rect(0, 0, 39, 19, (0, 0, 0))
        art = canvas.to_ascii(columns=20)
        assert "@" in art

    def test_region_nonbackground(self):
        canvas = Canvas(32, 32)
        canvas.fill_rect(0, 0, 7, 7, (0, 0, 0))
        assert canvas.region_nonbackground(0, 0, 8, 8) == 64
        assert canvas.region_nonbackground(16, 16, 32, 32) == 0
        assert canvas.region_nonbackground(-5, -5, 4, 4) == 16

    def test_colors_used(self):
        canvas = Canvas(8, 8)
        canvas.set_pixel(0, 0, (1, 2, 3))
        canvas.set_pixel(1, 1, (4, 5, 6))
        assert canvas.colors_used() == {(1, 2, 3), (4, 5, 6)}
