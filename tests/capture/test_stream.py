"""Tests for the streaming segment pipeline (frame taps)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.core.errors import CaptureError
from repro.capture import (
    CaptureCard,
    FrameDigestTap,
    SegmentStreamer,
    Video,
    replay_segments,
)
from repro.device.display import VSYNC_PERIOD_US, Display


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


def drive(recorder, ops, end):
    """Apply (frame_index, value) ops then finalize at ``end``."""
    for index, value in ops:
        recorder.record_frame(index, frame(value))
    recorder.finalize(end)


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
def test_streamed_segments_equal_video_segments(schedule):
    """The streamer's emitted segments are bit-identical to the batch
    video's — same RLE state machine, same boundaries, same digests."""
    ops, end = schedule
    video = Video(8, 8)
    drive(video, ops, end)

    streamer = SegmentStreamer(8, 8)
    tap = CollectTap()
    streamer.add_tap(tap)
    drive(streamer, ops, end)

    want = [(s.start, s.end, s.key) for s in video.segments()]
    assert tap.segments == want
    assert tap.end_frame == end


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_streamer_holds_at_most_two_pending_runs(schedule):
    """O(active-window): the streamer never buffers more than two runs."""
    ops, end = schedule
    streamer = SegmentStreamer(8, 8)
    streamer.add_tap(CollectTap())
    for index, value in ops:
        streamer.record_frame(index, frame(value))
        assert len(streamer.pending_segments()) <= 2
    streamer.finalize(end)
    assert streamer.pending_segments() == []


def test_frame_digest_tap_matches_manual_segment_digest():
    ops = [(0, 1), (1, 1), (2, 2), (5, 1)]
    video = Video(8, 8)
    drive(video, ops, 8)
    manual = hashlib.blake2b(digest_size=16)
    for segment in video.segments():
        manual.update(segment.start.to_bytes(8, "big"))
        manual.update(segment.end.to_bytes(8, "big"))
        manual.update(segment.key)

    streamer = SegmentStreamer(8, 8)
    tap = FrameDigestTap()
    streamer.add_tap(tap)
    drive(streamer, ops, 8)
    assert tap.hexdigest() == manual.hexdigest()
    assert tap.segment_count == video.segment_count
    assert tap.end_frame == 8

    # replay_segments (the batch path's tap feed) produces the same digest.
    replayed = FrameDigestTap()
    replay_segments(video.segments(), video.end_frame, replayed)
    assert replayed.hexdigest() == tap.hexdigest()


def test_streamer_rejects_bad_input_like_video():
    streamer = SegmentStreamer(8, 8)
    with pytest.raises(CaptureError):
        streamer.record_frame(0, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(CaptureError):
        streamer.record_frame(-1, frame(0))
    with pytest.raises(CaptureError):
        streamer.finalize(3)  # empty
    streamer.record_frame(5, frame(1))
    with pytest.raises(CaptureError):
        streamer.record_frame(3, frame(2))  # past frame
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


def _run_capture(engine, display, card, streaming):
    value = [0]
    display.set_composer(lambda fb: fb.fill(value[0]))
    card.start(engine.now, streaming=streaming)

    def change(to):
        value[0] = to
        display.invalidate()

    engine.schedule_at(2 * VSYNC_PERIOD_US + 5, lambda: change(50))
    engine.schedule_at(5 * VSYNC_PERIOD_US + 5, lambda: change(7))
    engine.run_until(10 * VSYNC_PERIOD_US)
    return card.stop(engine.now)


def test_streaming_card_feeds_taps_and_returns_no_video(rig):
    engine, display, card = rig
    tap = CollectTap()
    card.add_tap(tap)
    video = _run_capture(engine, display, card, streaming=True)
    assert video is None
    assert tap.end_frame == 11
    assert len(tap.segments) == 3
    assert tap.segments[0][0] == 0
    assert tap.segments[-1][1] == 11


def test_batch_card_feeds_taps_identically(rig):
    engine, display, card = rig
    tap = FrameDigestTap()
    card.add_tap(tap)
    video = _run_capture(engine, display, card, streaming=False)
    assert video is not None
    manual = FrameDigestTap()
    replay_segments(video.segments(), video.end_frame, manual)
    assert tap.hexdigest() == manual.hexdigest()


def test_streaming_vs_batch_digests_identical():
    for streaming in (True, False):
        engine = Engine()
        display = Display(engine, 8, 8)
        card = CaptureCard(display)
        tap = FrameDigestTap()
        card.add_tap(tap)
        _run_capture(engine, display, card, streaming=streaming)
        if streaming:
            stream_digest = tap.hexdigest()
        else:
            assert tap.hexdigest() == stream_digest


def test_add_tap_during_capture_rejected(rig):
    engine, _display, card = rig
    card.start(engine.now, streaming=True)
    with pytest.raises(CaptureError):
        card.add_tap(CollectTap())
