"""Unit tests for the matcher algorithm (paper §II-E), fed through the
capture's segment stream."""

import numpy as np
import pytest

from repro.core.errors import MatchError
from repro.core.geometry import Rect
from repro.analysis.annotation import AnnotationDatabase, GestureInfo, LagAnnotation
from repro.analysis.online import OnlineMatcher
from repro.device.display import VSYNC_PERIOD_US

from tests.conftest import record_video


def frame(value):
    return np.full((8, 8), value, dtype=np.uint8)


def match(db, contents):
    """The lag profile of one frame per content, streamed to the matcher."""
    matcher = OnlineMatcher(db)
    record_video(enumerate(contents), len(contents), matcher)
    return matcher.profile()


def match_values(db, values):
    return match(db, [frame(value) for value in values])


def make_db(annotations):
    db = AnnotationDatabase("test", 8, 8)
    for index, annotation in enumerate(annotations):
        db.add_gesture(GestureInfo(index, "tap", annotation.begin_time_us))
        db.add(annotation)
    return db


def annotation(gesture, begin_frame, image_value, **kwargs):
    return LagAnnotation(
        gesture_index=gesture,
        label=f"lag{gesture}",
        category="simple_frequent",
        begin_time_us=begin_frame * VSYNC_PERIOD_US,
        image=frame(image_value),
        threshold_us=1_000_000,
        **kwargs,
    )


def test_finds_first_occurrence():
    db = make_db([annotation(0, 1, 3)])
    profile = match_values(db, [1, 1, 1, 2, 2, 3, 3, 3])
    lag = profile.lags[0]
    assert lag.end_frame == 5
    assert lag.duration_us == 4 * VSYNC_PERIOD_US


def test_occurrence_two_skips_the_lookalike_beginning():
    # Screen: A A B B A A — the ending (A) looks like the beginning.
    db = make_db([annotation(0, 0, 1, occurrence=2)])
    lag = match_values(db, [1, 1, 2, 2, 1, 1]).lags[0]
    assert lag.end_frame == 4


def test_adjacent_matching_segments_count_as_one_run():
    # Masked region differs between frames 3 and 4 but both match the
    # ending image under the mask: they form ONE occurrence run.
    contents = [frame(1), frame(1), frame(2), frame(3), frame(3)]
    contents[3][0, 0] = 77  # difference only inside the mask
    ann = annotation(0, 0, 3, mask_rects=[Rect(0, 0, 1, 1)], occurrence=1)
    lag = match(make_db([ann]), contents).lags[0]
    assert lag.end_frame == 3


def test_missing_ending_raises_match_error():
    db = make_db([annotation(0, 0, 9)])
    with pytest.raises(MatchError):
        match_values(db, [1, 1, 2, 2])


def test_begin_outside_video_raises():
    db = make_db([annotation(0, 50, 1)])
    with pytest.raises(MatchError):
        match_values(db, [1, 1])


def test_duration_clamped_non_negative():
    # Ending matches the begin frame itself; sub-frame begin offset would
    # otherwise give a negative duration.
    ann = LagAnnotation(
        gesture_index=0,
        label="lag0",
        category="simple_frequent",
        begin_time_us=VSYNC_PERIOD_US + 10,  # inside frame 1
        image=frame(1),
        threshold_us=1_000_000,
    )
    lag = match_values(make_db([ann]), [1, 1, 1]).lags[0]
    assert lag.duration_us == 0


def test_tolerance_in_matching():
    noisy_end = frame(3)
    noisy_end[0, 0] = 4
    contents = [frame(1), frame(2), noisy_end]
    strict = make_db([annotation(0, 0, 3)])
    with pytest.raises(MatchError):
        match(strict, contents)
    tolerant = make_db([annotation(0, 0, 3, tolerance_px=1)])
    assert match(tolerant, contents).lags[0].end_frame == 2


def test_profile_preserves_lag_order_and_metadata():
    db = make_db(
        [annotation(0, 0, 2), annotation(1, 3, 3)]
    )
    profile = match_values(db, [1, 2, 2, 1, 3, 3])
    assert [lag.label for lag in profile.lags] == ["lag0", "lag1"]
    assert profile.lags[1].gesture_index == 1
