"""Tests for the jank (dropped-frame) analysis extension."""

import pytest

from repro.core.errors import ReproError
from repro.device.display import VSYNC_PERIOD_US
from repro.metrics.jank import analyze_jank
from repro.oracle.builder import BusyTimeline


def timeline(*intervals):
    return BusyTimeline(list(intervals))


def test_idle_run_has_no_jank():
    result = analyze_jank(timeline(), 10 * VSYNC_PERIOD_US)
    assert result.frames_total == 10
    assert result.frames_janky == 0
    assert result.jank_ratio == 0.0


def test_fully_busy_run_drops_every_frame():
    end = 10 * VSYNC_PERIOD_US
    result = analyze_jank(timeline((0, end)), end)
    assert result.frames_janky == 10
    assert result.jank_ratio == 1.0


def test_partial_busy_frame_is_not_janky():
    # Busy for half of frame 0 only.
    result = analyze_jank(
        timeline((0, VSYNC_PERIOD_US // 2)), 4 * VSYNC_PERIOD_US
    )
    assert result.frames_janky == 0


def test_exact_frame_boundary_busy_counts():
    result = analyze_jank(
        timeline((VSYNC_PERIOD_US, 2 * VSYNC_PERIOD_US)),
        4 * VSYNC_PERIOD_US,
    )
    assert result.frames_janky == 1


def test_per_lag_jank_reporting():
    from repro.analysis.lagprofile import LagMeasurement, LagProfile

    lag = LagMeasurement(
        lag_index=0,
        gesture_index=0,
        label="busy-lag",
        category="common",
        begin_time_us=0,
        end_frame=3,
        duration_us=3 * VSYNC_PERIOD_US,
        threshold_us=4_000_000,
    )
    profile = LagProfile("w", (lag,))
    busy = timeline((0, 3 * VSYNC_PERIOD_US))
    result = analyze_jank(busy, 10 * VSYNC_PERIOD_US, profile)
    assert result.per_lag[0].frames_janky == 3
    assert result.per_lag[0].frames_total == 3
    assert result.lag_frames_janky == 3
    assert result.per_lag[0].label == "busy-lag"


def test_invalid_duration_rejected():
    with pytest.raises(ReproError):
        analyze_jank(timeline(), 0)


def test_jank_decreases_with_frequency(artifacts_ds03):
    """Replays at higher frequencies drop fewer frames — the paper's
    motivation for jank-dominated workloads."""
    from repro.harness.experiment import replay_run

    slow = replay_run(artifacts_ds03, "fixed:300000")
    fast = replay_run(artifacts_ds03, "fixed:2150400")
    slow_jank = analyze_jank(
        slow.busy_timeline, slow.duration_us, slow.lag_profile
    )
    fast_jank = analyze_jank(
        fast.busy_timeline, fast.duration_us, fast.lag_profile
    )
    assert slow_jank.frames_janky > fast_jank.frames_janky
    assert slow_jank.lag_frames_janky > fast_jank.lag_frames_janky
