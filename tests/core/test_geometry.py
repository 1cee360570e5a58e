"""Unit and property tests for geometry primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.geometry import Point, Rect

rects = st.builds(
    Rect,
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(0, 60),
    st.integers(0, 60),
)


def test_rect_rejects_negative_dimensions():
    with pytest.raises(ValueError):
        Rect(0, 0, -1, 5)


def test_contains_is_half_open():
    rect = Rect(0, 0, 10, 10)
    assert rect.contains(Point(0, 0))
    assert rect.contains(Point(9, 9))
    assert not rect.contains(Point(10, 9))
    assert not rect.contains(Point(9, 10))


def test_center_of_even_rect():
    assert Rect(0, 0, 10, 20).center == Point(5, 10)


def test_intersection_of_overlapping():
    a = Rect(0, 0, 10, 10)
    b = Rect(5, 5, 10, 10)
    assert a.intersection(b) == Rect(5, 5, 5, 5)


def test_intersection_of_disjoint_has_zero_area():
    a = Rect(0, 0, 5, 5)
    b = Rect(10, 10, 5, 5)
    assert a.intersection(b).area == 0


def test_inset_shrinks_symmetrically():
    assert Rect(0, 0, 10, 10).inset(2) == Rect(2, 2, 6, 6)


def test_inset_floors_at_zero():
    assert Rect(0, 0, 3, 3).inset(5).area == 0


def test_point_distance():
    assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)


@given(rects, rects)
def test_intersection_commutes(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(rects)
def test_clamp_to_self_is_identity(rect):
    assert rect.clamped_to(rect) == rect
