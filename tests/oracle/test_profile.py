"""Unit tests for frequency profiles."""

import pytest

from repro.core.errors import ReproError
from repro.oracle.profile import FrequencyProfile, ProfileSegment


def make_profile():
    return FrequencyProfile(
        [
            ProfileSegment(0, 1_000_000, 300_000),
            ProfileSegment(1_000_000, 3_000_000, 960_000),
            ProfileSegment(3_000_000, 4_000_000, 2_150_400),
        ]
    )


def test_empty_rejected():
    with pytest.raises(ReproError):
        FrequencyProfile([])


def test_gap_rejected():
    with pytest.raises(ReproError):
        FrequencyProfile(
            [ProfileSegment(0, 10, 1), ProfileSegment(20, 30, 2)]
        )


def test_zero_length_segments_dropped():
    profile = FrequencyProfile(
        [ProfileSegment(0, 0, 1), ProfileSegment(0, 10, 2)]
    )
    assert len(profile.segments) == 1


def test_from_transitions():
    profile = FrequencyProfile.from_transitions(
        [(0, 300_000), (500, 960_000)], end_us=1_000
    )
    assert [(s.start_us, s.end_us, s.freq_khz) for s in profile.segments] == [
        (0, 500, 300_000),
        (500, 1_000, 960_000),
    ]
    assert profile.end_us == 1_000


def test_from_transitions_empty_rejected():
    with pytest.raises(ReproError):
        FrequencyProfile.from_transitions([], end_us=100)


def test_window_clips_segments():
    profile = make_profile()
    window = profile.window(500_000, 3_500_000)
    assert [(s.start_us, s.end_us, s.freq_khz) for s in window] == [
        (500_000, 1_000_000, 300_000),
        (1_000_000, 3_000_000, 960_000),
        (3_000_000, 3_500_000, 2_150_400),
    ]
