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
points = st.builds(Point, st.integers(-100, 100), st.integers(-100, 100))


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


def test_union_contains_both():
    a = Rect(0, 0, 5, 5)
    b = Rect(10, 10, 5, 5)
    union = a.union(b)
    assert union == Rect(0, 0, 15, 15)


def test_union_with_empty_rect_returns_other():
    empty = Rect(3, 3, 0, 0)
    other = Rect(1, 1, 4, 4)
    assert empty.union(other) == other
    assert other.union(empty) == other


def test_inset_shrinks_symmetrically():
    assert Rect(0, 0, 10, 10).inset(2) == Rect(2, 2, 6, 6)


def test_inset_floors_at_zero():
    assert Rect(0, 0, 3, 3).inset(5).area == 0


def test_point_distance():
    assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)


def test_point_offset():
    assert Point(1, 2).offset(3, -1) == Point(4, 1)


@given(rects, rects)
def test_intersection_commutes(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(rects, rects)
def test_union_contains_intersection(a, b):
    union = a.union(b)
    inter = a.intersection(b)
    if inter.area:
        assert union.intersection(inter) == inter


@given(rects, points)
def test_contained_point_in_union(rect, point):
    other = Rect(0, 0, 4, 4)
    if rect.contains(point):
        assert rect.union(other).contains(point)


@given(rects)
def test_clamp_to_self_is_identity(rect):
    assert rect.clamped_to(rect) == rect
