"""Tests for the streaming segment pipeline (frame taps).

The recording rules (gap fill, same-vsync replace, merge-back, the
rejected inputs) belong to :class:`SegmentStreamer`, so they are
asserted here, through a :class:`Video` tap's frame-by-frame read side.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnnotationDatabase,
    GestureInfo,
    LagAnnotation,
    OnlineMatcher,
)
from repro.core.engine import Engine
from repro.core.errors import CaptureError
from repro.capture import CaptureCard, FrameDigestTap, SegmentStreamer, Video
from repro.device.display import VSYNC_PERIOD_US, Display

from tests.conftest import record_video


def frame(value):
    return np.full((8, 8), value, dtype=np.uint8)


class CollectTap:
    def __init__(self):
        self.segments = []
        self.end_frame = None

    def on_segment(self, segment):
        assert self.end_frame is None, "segment after stop"
        self.segments.append((segment.start, segment.end, segment.key))

    def on_stop(self, end_frame):
        self.end_frame = end_frame


def record(ops, end, *taps):
    """Record (frame_index, value) ops into a Video, stopping at ``end``."""
    return record_video([(index, frame(value)) for index, value in ops], end, *taps)


def frame_by_frame(ops, end):
    """The value shown at every frame from the first recorded one to
    ``end``: the last value recorded at or before it."""
    shown = {}
    for index, value in ops:
        shown[index] = value  # a later compose of one vsync slot wins
    first = ops[0][0]
    values = []
    for index in range(first, end):
        values.append(shown.get(index, values[-1] if values else None))
    return first, values


def run_count(values):
    return sum(1 for a, b in zip([None, *values], values) if a != b)


# A recording schedule: non-decreasing frame indices (same-index
# recomposition allowed, gaps allowed) with small content values so
# replace/merge/extend paths all get exercised.
@st.composite
def schedules(draw):
    steps = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                          min_size=1, max_size=40))
    ops = []
    index = 0
    for advance, value in steps:
        index += advance  # 0 = recompose same vsync slot
        ops.append((index, value))
    end = index + 1 + draw(st.integers(0, 5))
    return ops, end


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_recorded_segments_equal_frame_by_frame_semantics(schedule):
    """Gap fill, same-vsync replace and merge-back leave exactly the
    maximal runs of the frame-by-frame sequence, and every tap on the
    stream sees the segments the Video keeps."""
    ops, end = schedule
    tap = CollectTap()
    video = record(ops, end, tap)
    first, values = frame_by_frame(ops, end)
    assert (video.start_frame, video.end_frame) == (first, end)
    for offset, value in enumerate(values):
        assert video.frame_at(first + offset)[0, 0] == value
    segments = video.segments()
    assert len(segments) == run_count(values)
    for a, b in zip(segments, segments[1:]):
        assert a.key != b.key
        assert a.end == b.start
    assert tap.segments == [(s.start, s.end, s.key) for s in segments]
    assert tap.end_frame == end


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_streamer_holds_at_most_two_pending_runs(schedule):
    """O(active-window): all but the last two runs recorded so far have
    already been emitted."""
    ops, end = schedule
    streamer = SegmentStreamer(8, 8)
    tap = CollectTap()
    streamer.add_tap(tap)
    for step, (index, value) in enumerate(ops, start=1):
        streamer.record_frame(index, frame(value))
        _first, values = frame_by_frame(ops[:step], index + 1)
        assert len(tap.segments) >= run_count(values) - 2
    streamer.finalize(end)
    assert len(tap.segments) == run_count(frame_by_frame(ops, end)[1])


def test_gap_filling_extends_previous_content():
    video = record([(0, 1), (10, 2)], 12)
    assert video.frame_at(5)[0, 0] == 1
    assert video.frame_at(10)[0, 0] == 2
    assert video.frame_count == 12


def test_same_index_recompose_replaces_content():
    # The second compose within the vsync of frame 1 replaces the first.
    video = record([(0, 1), (1, 2), (1, 3)], 2)
    assert video.frame_at(1)[0, 0] == 3
    assert video.segment_count == 2


def test_same_index_recompose_merging_back():
    # Frame 1 reverts to the previous content: one run again.
    video = record([(0, 1), (1, 2), (1, 1)], 3)
    assert video.segment_count == 1
    assert video.frame_count == 3


def test_frame_digest_tap_matches_manual_segment_digest():
    tap = FrameDigestTap()
    video = record([(0, 1), (1, 1), (2, 2), (5, 1)], 8, tap)
    manual = hashlib.blake2b(digest_size=16)
    for segment in video.segments():
        manual.update(segment.start.to_bytes(8, "big"))
        manual.update(segment.end.to_bytes(8, "big"))
        manual.update(segment.key)
    assert tap.hexdigest() == manual.hexdigest()
    assert tap.segment_count == video.segment_count == 3
    assert tap.end_frame == 8


def test_streamer_rejects_bad_input():
    streamer = SegmentStreamer(8, 8)
    with pytest.raises(CaptureError):
        streamer.record_frame(0, np.zeros((4, 4), dtype=np.uint8))  # wrong shape
    with pytest.raises(CaptureError):
        streamer.record_frame(-1, frame(0))
    with pytest.raises(CaptureError):
        streamer.finalize(3)  # empty
    streamer.record_frame(5, frame(1))
    with pytest.raises(CaptureError):
        streamer.record_frame(3, frame(2))  # past frame
    with pytest.raises(CaptureError):
        streamer.finalize(5)  # would truncate the last frame
    streamer.finalize(6)
    with pytest.raises(CaptureError):
        streamer.record_frame(7, frame(1))  # after finalize
    with pytest.raises(CaptureError):
        streamer.finalize(9)  # double finalize


# --- capture card tap delivery --------------------------------------------------


@pytest.fixture
def rig():
    engine = Engine()
    display = Display(engine, 8, 8)
    card = CaptureCard(display)
    return engine, display, card


def _run_capture(engine, display, card):
    value = [0]
    display.set_composer(lambda fb: fb.fill(value[0]))
    card.start(engine.now)

    def change(to):
        value[0] = to
        display.invalidate()

    engine.schedule_at(2 * VSYNC_PERIOD_US + 5, lambda: change(50))
    engine.schedule_at(5 * VSYNC_PERIOD_US + 5, lambda: change(7))
    engine.run_until(10 * VSYNC_PERIOD_US)
    return card.stop(engine.now)


def test_card_feeds_taps_and_stop_returns_nothing(rig):
    engine, display, card = rig
    tap = CollectTap()
    card.add_tap(tap)
    assert _run_capture(engine, display, card) is None
    assert tap.end_frame == 11
    assert len(tap.segments) == 3
    assert tap.segments[0][0] == 0
    assert tap.segments[-1][1] == 11


class _RecordingMatcher(OnlineMatcher):
    """An OnlineMatcher that also notes the stream it was fed."""

    def __init__(self, database):
        super().__init__(database)
        self.segments = []
        self.end_frame = None

    def on_segment(self, segment):
        self.segments.append((segment.start, segment.end, segment.key))
        super().on_segment(segment)

    def on_stop(self, end_frame):
        self.end_frame = end_frame
        super().on_stop(end_frame)


def test_video_matcher_and_digest_tap_share_one_stream(rig):
    """A Video is one more tap: beside an OnlineMatcher and a
    FrameDigestTap on the same card it sees the same segment sequence
    and end frame, and the card has no other capture mode."""
    engine, display, card = rig
    database = AnnotationDatabase("one-stream", 8, 8)
    database.add_gesture(GestureInfo(0, "tap", 0))
    database.add(
        LagAnnotation(
            gesture_index=0,
            label="to-fifty",
            category="simple_frequent",
            begin_time_us=0,
            image=frame(50),
            threshold_us=1_000_000,
        )
    )
    video, digest = Video(8, 8), FrameDigestTap()
    matcher = _RecordingMatcher(database)
    for tap in (video, matcher, digest):
        card.add_tap(tap)
    with pytest.raises(TypeError):
        card.start(engine.now, streaming=True)
    _run_capture(engine, display, card)

    kept = [(s.start, s.end, s.key) for s in video.segments()]
    assert len(kept) == 3
    assert matcher.segments == kept
    assert digest.segment_count == len(kept)
    manual = FrameDigestTap()
    for segment in video.segments():
        manual.on_segment(segment)
    assert digest.hexdigest() == manual.hexdigest()
    assert matcher.end_frame == digest.end_frame == video.end_frame == 11
    assert matcher.profile().lags[0].end_frame == 3


def test_add_tap_during_capture_rejected(rig):
    engine, _display, card = rig
    card.start(engine.now)
    with pytest.raises(CaptureError):
        card.add_tap(CollectTap())
