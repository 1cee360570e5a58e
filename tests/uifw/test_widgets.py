"""Unit tests for widgets."""

import numpy as np
import pytest

from repro.core.geometry import Point, Rect
from repro.uifw.drawing import Canvas
from repro.uifw.widgets import (
    Button,
    Keyboard,
    ListView,
    ProgressBar,
    Spinner,
    StatusBar,
    TextField,
)


def render(widget, now=0, shape=(128, 72)):
    buffer = np.zeros(shape, dtype=np.uint8)
    widget.draw(Canvas(buffer), now)
    return buffer


class TestStatusBar:
    def test_clock_changes_each_minute(self):
        bar = StatusBar(72)
        assert not np.array_equal(
            render(bar, now=0), render(bar, now=60_000_000)
        )

    def test_clock_stable_within_minute(self):
        bar = StatusBar(72)
        assert np.array_equal(
            render(bar, now=1_000_000), render(bar, now=59_000_000)
        )

    def test_clock_rect_covers_the_changing_pixels(self):
        bar = StatusBar(72)
        a, b = render(bar, now=0), render(bar, now=60_000_000)
        diff_rows, diff_cols = np.nonzero(a != b)
        rect = bar.clock_rect
        assert all(rect.y <= r < rect.bottom for r in diff_rows)
        assert all(rect.x <= c < rect.right for c in diff_cols)


class TestTextField:
    def test_cursor_blinks(self):
        field = TextField(Rect(2, 2, 40, 9))
        field.focused = True
        assert not np.array_equal(
            render(field, now=0), render(field, now=500_000)
        )

    def test_content_changes_pixels(self):
        field = TextField(Rect(2, 2, 40, 9))
        empty = render(field)
        field.append("a")
        assert not np.array_equal(empty, render(field))

    def test_cursor_rect_moves_with_content(self):
        field = TextField(Rect(2, 2, 40, 9))
        before = field.cursor_rect
        field.append("ab")
        after = field.cursor_rect
        assert after.x == before.x + 2

    def test_clear_resets(self):
        field = TextField(Rect(2, 2, 40, 9))
        field.append("abc")
        field.clear()
        assert field.content == ""


class TestKeyboard:
    def test_every_key_hit_tests_to_itself(self):
        keyboard = Keyboard(72, 118)
        for row in Keyboard.ROWS:
            for char in row:
                center = keyboard.key_rect(char).center
                assert keyboard.key_at(center) == char

    def test_point_outside_returns_none(self):
        keyboard = Keyboard(72, 118)
        assert keyboard.key_at(Point(0, 0)) is None


class TestListView:
    def make(self):
        return ListView(Rect(0, 10, 72, 104), [f"i{k}" for k in range(24)], 14)

    def test_scroll_clamps_at_bounds(self):
        view = self.make()
        assert view.scroll_by(-50) == 0
        view.scroll_by(10_000)
        assert view.scroll_px == view.max_scroll

    def test_item_at_respects_scroll(self):
        view = self.make()
        assert view.item_at(Point(30, 12)) == 0
        view.scroll_by(28)
        assert view.item_at(Point(30, 12)) == 2

    def test_item_at_outside_rect(self):
        view = self.make()
        assert view.item_at(Point(30, 5)) is None

    def test_scroll_changes_rendering(self):
        view = self.make()
        before = render(view)
        view.scroll_by(28)
        assert not np.array_equal(before, render(view))


class TestProgressAndSpinner:
    def test_progress_fraction_changes_pixels(self):
        bar = ProgressBar(Rect(4, 4, 50, 6))
        bar.fraction = 0.2
        a = render(bar)
        bar.fraction = 0.8
        assert not np.array_equal(a, render(bar))

    def test_spinner_animates_over_time(self):
        spinner = Spinner(Rect(4, 4, 12, 12))
        spinner.active = True
        assert not np.array_equal(
            render(spinner, now=0), render(spinner, now=100_000)
        )

    def test_inactive_spinner_draws_nothing(self):
        spinner = Spinner(Rect(4, 4, 12, 12))
        assert np.all(render(spinner) == 0)


class TestButton:
    def test_disabled_button_not_tappable(self):
        button = Button(Rect(2, 2, 20, 10), "go")
        button.enabled = False
        assert not button.hit_test(Point(5, 5))

    def test_enabled_button_tappable(self):
        button = Button(Rect(2, 2, 20, 10), "go")
        assert button.hit_test(Point(5, 5))
