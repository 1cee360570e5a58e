"""Unit and property tests for the RLE video container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CaptureError
from repro.capture.video import Video


def frame(value):
    return np.full((8, 8), value, dtype=np.uint8)


def make_video(values):
    """Record one frame per consecutive index from a value list."""
    video = Video(8, 8)
    for index, value in enumerate(values):
        video.record_frame(index, frame(value))
    video.finalize(len(values))
    return video


def test_identical_frames_collapse_into_one_segment():
    video = make_video([1, 1, 1, 1])
    assert video.segment_count == 1
    assert video.frame_count == 4


def test_changes_start_new_segments():
    video = make_video([1, 1, 2, 2, 1])
    assert video.segment_count == 3
    assert [s.length for s in video.segments()] == [2, 2, 1]


def test_frame_at_returns_correct_content():
    video = make_video([1, 1, 2, 3])
    assert video.frame_at(0)[0, 0] == 1
    assert video.frame_at(2)[0, 0] == 2
    assert video.frame_at(3)[0, 0] == 3


def test_frame_outside_range_rejected():
    video = make_video([1])
    with pytest.raises(CaptureError):
        video.frame_at(5)


def test_gap_filling_extends_previous_content():
    video = Video(8, 8)
    video.record_frame(0, frame(1))
    video.record_frame(10, frame(2))
    video.finalize(12)
    assert video.frame_at(5)[0, 0] == 1
    assert video.frame_at(10)[0, 0] == 2
    assert video.frame_count == 12


def test_same_index_recompose_replaces_content():
    video = Video(8, 8)
    video.record_frame(0, frame(1))
    video.record_frame(1, frame(2))
    video.record_frame(1, frame(3))  # second compose within the vsync
    video.finalize(2)
    assert video.frame_at(1)[0, 0] == 3
    assert video.segment_count == 2


def test_same_index_recompose_merging_back():
    video = Video(8, 8)
    video.record_frame(0, frame(1))
    video.record_frame(1, frame(2))
    video.record_frame(1, frame(1))  # reverts to previous content
    video.finalize(3)
    assert video.segment_count == 1
    assert video.frame_count == 3


def test_past_frame_rejected():
    video = Video(8, 8)
    video.record_frame(5, frame(1))
    with pytest.raises(CaptureError):
        video.record_frame(3, frame(2))


def test_wrong_shape_rejected():
    video = Video(8, 8)
    with pytest.raises(CaptureError):
        video.record_frame(0, np.zeros((4, 4), dtype=np.uint8))


def test_finalize_cannot_truncate():
    video = make_video([1, 2, 3])
    with pytest.raises(CaptureError):
        video.finalize(1)


def test_record_after_finalize_rejected():
    video = make_video([1])
    with pytest.raises(CaptureError):
        video.record_frame(5, frame(2))


def test_segments_between_clips_to_window():
    video = make_video([1, 1, 1, 2, 2, 3])
    clipped = list(video.segments_between(1, 5))
    assert [(s.start, s.end) for s in clipped] == [(1, 3), (3, 5)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
def test_rle_equals_frame_by_frame(values):
    """The RLE container must preserve exact frame-by-frame semantics."""
    video = make_video(values)
    assert video.frame_count == len(values)
    for index, value in enumerate(values):
        assert video.frame_at(index)[0, 0] == value
    # Segment lengths sum to the frame count and segments alternate content.
    segments = video.segments()
    assert sum(s.length for s in segments) == len(values)
    for a, b in zip(segments, segments[1:]):
        assert a.digest != b.digest
        assert a.end == b.start
