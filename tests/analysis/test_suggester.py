"""Unit and property tests for the suggester algorithm (paper Fig. 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AnnotationError
from repro.core.geometry import Rect
from repro.analysis.diff import build_mask, frames_equal
from repro.analysis.suggester import (
    SuggesterConfig,
    Suggestion,
    change_string,
    iter_suggestions,
    reduction_factor,
    suggest,
)
from repro.capture.video import VideoSegment

from tests.conftest import record_video


def frame(value):
    return np.full((8, 8), value, dtype=np.uint8)


def make_video(values):
    return record_video(
        [(index, frame(value)) for index, value in enumerate(values)], len(values)
    )


def suggested_frames(values, start=0, end=None, **config):
    video = make_video(values)
    end = len(values) if end is None else end
    return [
        s.frame_index for s in suggest(video, start, end, SuggesterConfig(**config))
    ]


def test_paper_example_each_one_preceding_a_zero():
    # frames: A A B B B C D D -> changes at 2 (B), 5 (C), 6 (D)
    # B and D start still periods; C is immediately replaced.
    assert suggested_frames([1, 1, 2, 2, 2, 3, 4, 4]) == [2, 6]


def test_first_run_is_not_a_change():
    assert suggested_frames([1, 1, 1, 1]) == []


def test_final_still_period_is_suggested():
    assert suggested_frames([1, 2, 2]) == [1]


def test_change_on_last_frame_not_suggested():
    # A trailing single changed frame has no zero after it.
    assert suggested_frames([1, 1, 2]) == []
    assert suggested_frames([1, 1]) == []


def test_min_still_frames_prunes_short_periods():
    values = [1, 2, 2, 3, 3, 3, 3]
    assert suggested_frames(values) == [1, 3]
    assert suggested_frames(values, min_still_frames=3) == [3]


def test_mask_merges_runs_differing_only_in_masked_region():
    base = frame(1)
    blinked = base.copy()
    blinked[0, 0] = 255  # a blinking cursor pixel
    sequence = [base, base, blinked, blinked, base, base]
    video = record_video(enumerate(sequence), len(sequence))
    no_mask = suggest(video, 0, len(sequence), SuggesterConfig())
    masked = suggest(
        video,
        0,
        len(sequence),
        SuggesterConfig(mask_rects=(Rect(0, 0, 1, 1),)),
    )
    assert [s.frame_index for s in no_mask] == [2, 4]
    assert masked == []  # with the cursor masked nothing ever changes


def test_tolerance_handles_blinking_cursor():
    base = frame(1)
    blinked = base.copy()
    blinked[0, 0] = 255
    video = record_video(enumerate([base, blinked, base, blinked]), 4)
    assert suggest(video, 0, 4, SuggesterConfig(tolerance_px=1)) == []


def test_change_string_matches_paper_semantics():
    video = make_video([1, 1, 2, 2, 2, 3, 4, 4])
    # frame 1 vs 0: 0; 2 vs 1: 1; 3-4: 0 0; 5: 1; 6: 1; 7: 0
    assert change_string(video, 0, 8) == "0100110"


def test_reduction_factor():
    video = make_video([1] * 10 + [2] * 10)
    # 20-frame window, one suggestion -> factor 20.
    assert reduction_factor(video, 0, 20) == pytest.approx(20.0)


def test_invalid_config_rejected():
    with pytest.raises(AnnotationError):
        SuggesterConfig(tolerance_px=-1)
    with pytest.raises(AnnotationError):
        SuggesterConfig(min_still_frames=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=30))
def test_suggestions_are_exactly_ones_followed_by_zeros(values):
    """Property: suggested frames differ from their predecessor and equal
    their successor — the paper's definition."""
    video = make_video(values)
    bits = change_string(video, 0, len(values))
    suggested = suggested_frames(values)
    for index in suggested:
        assert values[index] != values[index - 1]
        assert values[index + 1] == values[index]
    # Completeness: every 1-followed-by-0 within the window is suggested.
    for position, bit in enumerate(bits[:-1]):
        frame_index = position + 1
        if bit == "1" and bits[position + 1] == "0":
            assert frame_index in suggested


# --- the eager full-window reference ----------------------------------------------


def reference_segments_between(video, start, end):
    """A linear filter over every segment (the pre-bisection walk)."""
    clipped = []
    for segment in video.segments():
        if segment.end <= start:
            continue
        if segment.start >= end:
            break
        clipped.append(
            VideoSegment(
                max(segment.start, start),
                min(segment.end, end),
                segment.content,
                segment.key,
            )
        )
    return clipped


def _reference_runs(video, start, end, config):
    segments = reference_segments_between(video, start, end)
    if not segments:
        return []
    mask = build_mask(segments[0].content.shape, list(config.mask_rects))
    runs = []
    run_start, run_len, prev = segments[0].start, segments[0].length, segments[0]
    for segment in segments[1:]:
        if frames_equal(prev.content, segment.content, mask, config.tolerance_px):
            run_len += segment.length
        else:
            runs.append((run_start, run_len))
            run_start, run_len = segment.start, segment.length
        prev = segment
    runs.append((run_start, run_len))
    return runs


def reference_suggest(video, start, end, config=None):
    """Every candidate of the window, computed eagerly over all of it."""
    config = config or SuggesterConfig()
    runs = _reference_runs(video, start, end, config)
    return [
        Suggestion(run_start, run_len - 1)
        for run_start, run_len in runs[1:]
        if run_len - 1 >= config.min_still_frames
    ]


def reference_change_string(video, start, end, config=None):
    config = config or SuggesterConfig()
    runs = _reference_runs(video, start, end, config)
    return "".join(
        ("1" if index else "") + "0" * (run_len - 1)
        for index, (_, run_len) in enumerate(runs)
    )


# --- random RLE videos ---------------------------------------------------------------

_BASE = frame(1)
_CURSOR = _BASE.copy()
_CURSOR[0, 0] = 255  # differs only inside the masked corner
_SPECK = _BASE.copy()
_SPECK[5, 5] = 9  # differs by one pixel, outside the mask
_PALETTE = (_BASE, _CURSOR, _SPECK, frame(2))
_CORNER = (Rect(0, 0, 1, 1),)


@st.composite
def rle_windows(draw):
    """A video of random still periods (possibly starting past frame 0)
    plus a window that may be empty, reversed, before the first frame,
    past the last one or exactly on a segment boundary."""
    offset = draw(st.integers(0, 4))
    periods = draw(
        st.lists(
            st.tuples(st.integers(0, len(_PALETTE) - 1), st.integers(1, 4)),
            min_size=1,
            max_size=12,
        )
    )
    frames = []
    index = offset
    for variant, length in periods:
        frames.append((index, _PALETTE[variant]))
        index += length
    video = record_video(frames, index)
    bounds = st.integers(offset - 3, index + 3)
    start = draw(st.one_of(bounds, st.sampled_from(_boundaries(video))))
    end = draw(st.one_of(bounds, st.sampled_from(_boundaries(video)), st.just(start)))
    config = SuggesterConfig(
        mask_rects=draw(st.sampled_from(((), _CORNER))),
        tolerance_px=draw(st.integers(0, 1)),
        min_still_frames=draw(st.integers(1, 3)),
    )
    return video, start, end, config


def _boundaries(video):
    return sorted({s.start for s in video.segments()} | {video.end_frame})


def _spans(segments):
    return [(s.start, s.end, s.content.tobytes(), s.key) for s in segments]


@settings(max_examples=200, deadline=None)
@given(rle_windows())
def test_segments_between_equals_linear_filter(case):
    video, start, end, _config = case
    assert _spans(video.segments_between(start, end)) == _spans(
        reference_segments_between(video, start, end)
    )


@settings(max_examples=200, deadline=None)
@given(rle_windows())
def test_iter_suggestions_equals_suggest_and_eager_reference(case):
    video, start, end, config = case
    streamed = list(iter_suggestions(video, start, end, config))
    assert streamed == suggest(video, start, end, config)
    assert streamed == reference_suggest(video, start, end, config)
    frames = [s.frame_index for s in streamed]
    assert frames == sorted(set(frames))  # strictly increasing


@settings(max_examples=200, deadline=None)
@given(rle_windows())
def test_change_string_unchanged(case):
    video, start, end, config = case
    assert change_string(video, start, end, config) == reference_change_string(
        video, start, end, config
    )
    assert change_string(video, start, end) == reference_change_string(
        video, start, end
    )


def test_iter_suggestions_is_lazy(monkeypatch):
    """The first candidate arrives after comparing only the segments up
    to the end of its still period."""
    import repro.analysis.suggester as suggester

    compared = []

    def counting(*args):
        compared.append(args)
        return frames_equal(*args)

    monkeypatch.setattr(suggester, "frames_equal", counting)
    video = make_video([1, 2, 2, 3, 3, 4, 4, 5, 5])
    first = next(iter_suggestions(video, 0, video.end_frame))
    assert first == Suggestion(1, 1)
    assert len(compared) == 2  # 1 vs 2 opens the run, 2 vs 3 closes it
