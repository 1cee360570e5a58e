"""Edge cases for the irritation and jank metrics, surfaced by
synthetic sessions: zero-input sessions, back-to-back inputs inside one
settle window, and sessions ending mid-interaction."""

import pytest

from repro.analysis import AutoAnnotator, OnlineMatcher
from repro.apps import install_standard_apps
from repro.capture import CaptureCard, Video
from repro.core.errors import ReproError
from repro.core.simtime import seconds
from repro.device.device import Device
from repro.device.display import VSYNC_PERIOD_US
from repro.metrics.irritation import IrritationResult, irritation
from repro.metrics.jank import analyze_jank
from repro.oracle.builder import BusyTimeline
from repro.uifw.view import WindowManager
from repro.workloads.datasets import (
    DatasetSpec,
    dataset,
    register_dataset,
    unregister_dataset,
)
from repro.workloads.sessions import PlanStep

from tests.conftest import record_video


# --- irritation unit edges ------------------------------------------------------------


def test_irritation_of_zero_lags_is_zero():
    result = irritation([])
    assert result.total_us == 0
    assert result.total_seconds == 0.0
    assert result.lag_count == 0
    assert result.irritating_lag_count == 0


def test_lag_exactly_at_threshold_is_not_irritating():
    result = irritation([("tap", 150_000, 150_000)])
    assert result.total_us == 0
    assert not result.penalties[0].irritating
    just_over = irritation([("tap", 150_001, 150_000)])
    assert just_over.total_us == 1
    assert just_over.irritating_lag_count == 1


def test_negative_durations_and_thresholds_rejected():
    with pytest.raises(ReproError):
        irritation([("tap", -1, 100)])
    with pytest.raises(ReproError):
        irritation([("tap", 100, -1)])


def test_zero_duration_lag_contributes_nothing():
    result = irritation([("instant", 0, 0)])
    assert result.total_us == 0
    assert not result.penalties[0].irritating


# --- jank unit edges ------------------------------------------------------------------


def test_jank_of_empty_timeline_is_zero():
    result = analyze_jank(BusyTimeline([]), 10 * VSYNC_PERIOD_US)
    assert result.frames_total == 10
    assert result.frames_janky == 0
    assert result.jank_ratio == 0.0


def test_jank_duration_must_be_positive():
    with pytest.raises(ReproError):
        analyze_jank(BusyTimeline([]), 0)


def test_jank_partial_trailing_frame_is_not_counted():
    """A run ending mid-vsync only counts the full frames before it."""
    busy = BusyTimeline([(0, 3 * VSYNC_PERIOD_US)])
    result = analyze_jank(busy, 2 * VSYNC_PERIOD_US + VSYNC_PERIOD_US // 2)
    assert result.frames_total == 2
    assert result.frames_janky == 2


def test_jank_lag_window_shorter_than_one_frame():
    """A sub-frame lag (begin == end, or inside one vsync) has no frames."""
    from repro.analysis.lagprofile import LagMeasurement, LagProfile

    lag = LagMeasurement(
        lag_index=0,
        gesture_index=0,
        label="blink",
        category="typing",
        begin_time_us=5_000,
        end_frame=1,
        duration_us=0,
        threshold_us=150_000,
    )
    profile = LagProfile("edge", (lag,))
    result = analyze_jank(
        BusyTimeline([(0, VSYNC_PERIOD_US)]), 4 * VSYNC_PERIOD_US, profile
    )
    assert result.per_lag[0].frames_total == 0
    assert result.per_lag[0].frames_janky == 0


def test_jank_lag_extending_past_run_end():
    """A lag window past the busy trace's end reads as idle frames."""
    from repro.analysis.lagprofile import LagMeasurement, LagProfile

    lag = LagMeasurement(
        lag_index=0,
        gesture_index=0,
        label="tail",
        category="common",
        begin_time_us=2 * VSYNC_PERIOD_US,
        end_frame=9,
        duration_us=6 * VSYNC_PERIOD_US,
        threshold_us=1_000_000,
    )
    profile = LagProfile("edge", (lag,))
    result = analyze_jank(
        BusyTimeline([(0, 4 * VSYNC_PERIOD_US)]),
        8 * VSYNC_PERIOD_US,
        profile,
    )
    assert result.per_lag[0].frames_total == 6
    assert result.per_lag[0].frames_janky == 2


# --- synthetic-session edges ----------------------------------------------------------


def test_zero_input_session_records_and_scores_zero():
    """An empty plan: no gestures, no lags, zero irritation, jank runs."""
    from repro.harness.experiment import record_workload, replay_run

    spec = DatasetSpec(
        name="edge-empty",
        description="Zero-input session.",
        duration_us=seconds(5),
        plan_factory=lambda rng: iter(()),
    )
    register_dataset(spec)
    try:
        artifacts = record_workload(spec)
        assert artifacts.input_count == 0
        assert artifacts.classification.total_inputs == 0
        result = replay_run(artifacts, "ondemand")
        assert len(result.lag_profile.lags) == 0
        assert result.irritation_seconds() == 0.0
        assert isinstance(
            result.lag_profile.irritation(), IrritationResult
        )
        jank = analyze_jank(
            result.busy_timeline, result.duration_us, result.lag_profile
        )
        assert jank.per_lag == ()
        assert 0.0 <= jank.jank_ratio <= 1.0
    finally:
        unregister_dataset("edge-empty")


def test_back_to_back_inputs_inside_one_settle_window():
    """Two taps 120 ms apart (inside the 200 ms settle window) annotate
    and score as two distinct typing lags."""
    device = Device()
    wm = WindowManager(device)
    install_standard_apps(wm)
    device.set_governor("fixed:300000")
    card = CaptureCard(device.display)
    video = Video(device.display.width, device.display.height)
    card.add_tap(video)
    card.start(device.engine.now)
    launcher = wm.app("launcher")
    calculator = wm.app("calculator")
    touch = device.touchscreen
    touch.schedule_tap(seconds(1), launcher.tap_target("icon:calculator"))
    device.engine.schedule_at(
        seconds(8),
        lambda: touch.schedule_tap(seconds(9), calculator.tap_target("key:1")),
    )
    device.engine.schedule_at(
        seconds(8),
        lambda: touch.schedule_tap(
            seconds(9) + 120_000, calculator.tap_target("key:2")
        ),
    )
    device.run_for(seconds(14))
    card.stop(device.engine.now)
    database = AutoAnnotator("edge-burst").annotate(video, wm.journal)
    assert database.lag_count == 3  # launch + two key taps
    # Match the recording itself: stream its runs to the matcher again.
    matcher = OnlineMatcher(database)
    record_video(
        [(segment.start, segment.content) for segment in video.segments()],
        video.end_frame,
        matcher,
        width=video.width,
        height=video.height,
    )
    profile = matcher.profile()
    assert len(profile.lags) == 3
    key_lags = [lag for lag in profile.lags if "key:" in lag.label]
    assert len(key_lags) == 2
    assert all(lag.duration_us >= 0 for lag in profile.lags)
    # The metric accepts the profile whole.
    profile.irritation()


def test_session_ending_mid_interaction_still_records_cleanly():
    """A tap whose finger is down at the session deadline: the recorder
    waits for the in-flight gesture's interaction instead of cutting the
    video before it opens (regression for the quiescence race)."""
    from repro.harness.experiment import record_workload

    def plan(rng):
        yield PlanStep("tap", "launcher", "icon:gallery", 2_980_000)

    spec = DatasetSpec(
        name="edge-midflight",
        description="Tap straddling the deadline.",
        duration_us=seconds(3),
        plan_factory=plan,
    )
    register_dataset(spec)
    try:
        artifacts = record_workload(spec)
        assert artifacts.input_count == 1
        assert artifacts.database.lag_count == 1
        assert artifacts.duration_us > spec.duration_us
    finally:
        unregister_dataset("edge-midflight")
