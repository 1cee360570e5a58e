"""One segment state machine, two keyings; and the verdict-table matcher.

The demand pass's *shadow* stream is the capture's own
:class:`SegmentStreamer` keyed by interned state id instead of content
digest.  Fed the same frame sequence, both keyings must segment it
identically.
"""

import random

import numpy as np
import pytest

from repro.capture.stream import SegmentStreamer
from repro.core.errors import CaptureError
from repro.demand.tablematch import BLANK_STATE, TableMatcher


class _Collector:
    """A FrameTap double recording (start, end, segment) triples."""

    def __init__(self) -> None:
        self.segments = []
        self.end_frame = None

    def on_segment(self, segment) -> None:
        self.segments.append((segment.start, segment.end, segment))

    def on_stop(self, end_frame) -> None:
        self.end_frame = end_frame


def _distinct_frames(count: int, width: int = 4, height: int = 4):
    """Pairwise-distinct frames so id equality == content equality."""
    frames = []
    for value in range(count):
        frame = np.zeros((height, width), dtype=np.uint8)
        frame[0, 0] = value + 1
        frames.append(frame)
    return frames


def _shadow(tap):
    """A streamer keyed by state id, as the demand pass runs it."""
    streamer = SegmentStreamer(4, 4)
    streamer.add_tap(tap)
    return streamer


def _run_both(events, end_frame, states=8):
    """Feed the same (frame_index, state_id) sequence to both keyings."""
    frames = _distinct_frames(states)
    pixel_tap, shadow_tap = _Collector(), _Collector()
    pixel = SegmentStreamer(4, 4)
    pixel.add_tap(pixel_tap)
    shadow = _shadow(shadow_tap)
    for frame_index, state in events:
        pixel.record_frame(frame_index, frames[state])
        shadow.record(frame_index, state)
    pixel.finalize(end_frame)
    shadow.finalize(end_frame)
    pixel_segments = [
        (start, end, int(segment.content[0, 0]) - 1)
        for start, end, segment in pixel_tap.segments
    ]
    shadow_segments = [
        (start, end, segment.key) for start, end, segment in shadow_tap.segments
    ]
    # The state-id keying never holds pixels.
    assert all(segment.content is None for _s, _e, segment in shadow_tap.segments)
    return pixel_segments, shadow_segments, pixel_tap, shadow_tap


def test_shadow_matches_pixel_rle_on_a_simple_run():
    events = [(0, 0), (1, 0), (3, 1), (4, 1), (7, 2)]
    pixel, shadow, pixel_tap, shadow_tap = _run_both(events, end_frame=10)
    assert shadow == pixel
    assert shadow_tap.end_frame == pixel_tap.end_frame == 10


def test_shadow_replicates_same_vsync_replacement_and_merge_back():
    # Two composes inside one vsync replace; if the replacement equals
    # the previous run the length-1 run merges back into it.
    events = [(0, 0), (2, 1), (2, 0), (5, 2), (5, 3)]
    pixel, shadow, _p, _s = _run_both(events, end_frame=8)
    assert shadow == pixel


def test_shadow_matches_pixel_rle_on_random_sequences():
    rng = random.Random(2014)
    for _trial in range(50):
        frame_index = 0
        events = []
        for _step in range(rng.randrange(1, 40)):
            frame_index += rng.choice((0, 0, 1, 1, 2, 5))
            events.append((frame_index, rng.randrange(6)))
        pixel, shadow, _p, _s = _run_both(events, end_frame=frame_index + 3)
        assert shadow == pixel, events


def test_shadow_rejects_negative_first_frame():
    with pytest.raises(CaptureError):
        _shadow(_Collector()).record(-1, 0)


def test_shadow_rejects_out_of_order_frames():
    shadow = _shadow(_Collector())
    shadow.record(5, 0)
    with pytest.raises(CaptureError):
        shadow.record(3, 1)


def test_shadow_finalize_contract():
    with pytest.raises(CaptureError):
        _shadow(_Collector()).finalize(3)
    shadow = _shadow(_Collector())
    shadow.record(0, 0)
    shadow.record(4, 1)
    with pytest.raises(CaptureError):
        shadow.finalize(2)


class _FakeSegment:
    def __init__(self, start, end, key):
        self.start = start
        self.end = end
        self.key = key


def test_table_matcher_consults_the_verdict_table(gallery_database):
    matcher = TableMatcher(
        gallery_database,
        [frozenset({3, BLANK_STATE})] * len(gallery_database.annotations),
    )
    scan = matcher._scans[0]
    assert matcher._matches(scan, _FakeSegment(0, 1, 3))
    assert matcher._matches(scan, _FakeSegment(0, 1, BLANK_STATE))
    assert not matcher._matches(scan, _FakeSegment(0, 1, 4))
    # Activation needs no pixel mask: verdicts were precomputed under it.
    matcher._activate(scan)
    assert scan.mask is None
