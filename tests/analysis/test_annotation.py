"""Unit tests for the annotation database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AnnotationError
from repro.core.geometry import Rect
from repro.analysis.annotation import AnnotationDatabase, GestureInfo, LagAnnotation


def image(value=1):
    return np.full((8, 8), value, dtype=np.uint8)


def make_annotation(gesture=0, begin=1000, **kwargs):
    return LagAnnotation(
        gesture_index=gesture,
        label=f"lag{gesture}",
        category="common",
        begin_time_us=begin,
        image=image(),
        **kwargs,
    )


def test_annotations_sorted_by_begin_time():
    db = AnnotationDatabase("w", 8, 8)
    db.add(make_annotation(gesture=1, begin=5000))
    db.add(make_annotation(gesture=0, begin=1000))
    assert [a.gesture_index for a in db.annotations] == [0, 1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=20))
def test_insertion_order_equals_stable_sort(begins):
    """Equal begin times keep their insertion order, as a stable sort of
    the appended list would."""
    db = AnnotationDatabase("w", 8, 8)
    added = [make_annotation(gesture=g, begin=b) for g, b in enumerate(begins)]
    for annotation in added:
        db.add(annotation)
    assert db.annotations == sorted(added, key=lambda a: a.begin_time_us)


def test_duplicate_gesture_rejected():
    db = AnnotationDatabase("w", 8, 8)
    db.add(make_annotation(gesture=0))
    with pytest.raises(AnnotationError):
        db.add(make_annotation(gesture=0, begin=9999))


def test_image_shape_must_match_screen():
    db = AnnotationDatabase("w", 16, 16)
    with pytest.raises(AnnotationError):
        db.add(make_annotation())


def test_occurrence_must_be_positive():
    with pytest.raises(AnnotationError):
        make_annotation(occurrence=0)


def test_spurious_count():
    db = AnnotationDatabase("w", 8, 8)
    for index in range(3):
        db.add_gesture(GestureInfo(index, "tap", index * 1000))
    db.add(make_annotation(gesture=1, begin=1000))
    assert db.lag_count == 1
    assert db.spurious_count == 2


def test_annotation_for_gesture():
    db = AnnotationDatabase("w", 8, 8)
    db.add(make_annotation(gesture=2, begin=100))
    assert db.annotation_for_gesture(2) is not None
    assert db.annotation_for_gesture(5) is None


def test_save_load_roundtrip(tmp_path):
    db = AnnotationDatabase("workload-x", 8, 8)
    db.add_gesture(GestureInfo(0, "tap", 500))
    db.add_gesture(GestureInfo(1, "swipe", 9_000))
    db.add(
        make_annotation(
            gesture=0,
            begin=500,
            mask_rects=[Rect(1, 2, 3, 4)],
            tolerance_px=2,
            occurrence=2,
            threshold_us=150_000,
        )
    )
    db.save(tmp_path / "db")
    loaded = AnnotationDatabase.load(tmp_path / "db")
    assert loaded.workload_name == "workload-x"
    assert [g.kind for g in loaded.gestures] == ["tap", "swipe"]
    annotation = loaded.annotations[0]
    assert annotation.mask_rects == [Rect(1, 2, 3, 4)]
    assert annotation.tolerance_px == 2
    assert annotation.occurrence == 2
    assert annotation.threshold_us == 150_000
    assert np.array_equal(annotation.image, image())


def test_load_missing_directory_rejected(tmp_path):
    with pytest.raises(AnnotationError):
        AnnotationDatabase.load(tmp_path / "nope")
