"""Unit tests for canvas drawing."""

import numpy as np
import pytest

from repro.core.geometry import Rect
from repro.uifw.drawing import Canvas, digits_bounds, texture


@pytest.fixture
def buffer():
    return np.zeros((32, 24), dtype=np.uint8)


@pytest.fixture
def canvas(buffer):
    return Canvas(buffer)


def test_texture_is_deterministic():
    assert np.array_equal(texture("key", 8, 8), texture("key", 8, 8))


def test_texture_differs_per_key():
    assert not np.array_equal(texture("a", 8, 8), texture("b", 8, 8))


def test_texture_is_cached():
    assert texture("cache-me", 4, 4) is texture("cache-me", 4, 4)


def test_fill_rect(canvas, buffer):
    canvas.fill_rect(Rect(2, 3, 4, 5), 200)
    assert np.all(buffer[3:8, 2:6] == 200)
    assert buffer[2, 2] == 0


def test_fill_rect_clips_to_canvas(canvas, buffer):
    canvas.fill_rect(Rect(20, 28, 10, 10), 99)
    assert np.all(buffer[28:, 20:] == 99)


def test_frame_rect_draws_border_only(canvas, buffer):
    canvas.frame_rect(Rect(1, 1, 5, 5), 50)
    assert buffer[1, 1] == 50
    assert buffer[5, 5] == 50
    assert buffer[3, 3] == 0


def test_blit_texture_matches_texture(canvas, buffer):
    canvas.blit_texture(Rect(0, 0, 6, 6), "blit")
    assert np.array_equal(buffer[:6, :6], texture("blit", 6, 6))


def test_blit_texture_partially_offscreen(canvas, buffer):
    canvas.blit_texture(Rect(20, 0, 10, 4), "edge")
    # Only the on-screen sub-block is drawn, with matching texels.
    assert np.array_equal(
        buffer[:4, 20:24], texture("edge", 10, 4)[:, :4]
    )


def test_draw_digits_changes_pixels_per_minute(canvas, buffer):
    canvas.draw_digits(2, 2, "10:00", 255)
    first = buffer.copy()
    canvas.fill(0)
    canvas.draw_digits(2, 2, "10:01", 255)
    assert not np.array_equal(first, buffer)


def test_digit_bounds_match_drawing(canvas):
    bounds = canvas.draw_digits(2, 2, "12:34")
    assert bounds == digits_bounds(2, 2, "12:34")
    assert bounds.w == 4 * 5
