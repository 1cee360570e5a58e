"""End-to-end pipeline properties (the paper's Fig. 4 whole loop)."""

from dataclasses import replace

import pytest

from repro.analysis import OnlineMatcher
from repro.apps import install_standard_apps
from repro.capture import CaptureCard
from repro.core.simtime import seconds
from repro.device.device import Device
from repro.replay import EventTrace, ReplayAgent
from repro.uifw.view import WindowManager

from tests.conftest import run_gallery_session


def replay_and_match(trace, database, governor, duration_s=30):
    device = Device()
    wm = WindowManager(device)
    install_standard_apps(wm)
    device.set_governor(governor)
    ReplayAgent(device.engine, device.input_subsystem).schedule(trace)
    card = CaptureCard(device.display)
    matcher = OnlineMatcher(database)
    card.add_tap(matcher)
    card.start(device.engine.now)
    device.run_for(seconds(duration_s))
    card.stop(device.engine.now)
    return matcher.profile(), wm


def test_matcher_agrees_with_ground_truth_across_frequencies(
    gallery_session, gallery_database
):
    """The matcher's lag lengths must track the replay device's own
    ground truth within one video frame at every frequency."""
    _dev, _wm, trace, _video = gallery_session
    for governor in ("fixed:300000", "fixed:960000", "fixed:2150400"):
        profile, wm = replay_and_match(trace, gallery_database, governor)
        truth = {
            r.gesture_index: r for r in wm.journal.interactions if r.complete
        }
        for lag in profile.lags:
            record = truth[lag.gesture_index]
            measured = lag.duration_us
            actual = record.end_time - record.begin_time
            assert measured == pytest.approx(actual, abs=40_000), (
                governor,
                lag.label,
            )


def test_lag_counts_constant_across_configurations(
    gallery_session, gallery_database
):
    """'Since the inputs are always the same … there will always be the
    same number of interaction lags' (paper §II-F)."""
    _dev, _wm, trace, _video = gallery_session
    counts = set()
    for governor in ("fixed:300000", "ondemand", "conservative"):
        profile, _wm2 = replay_and_match(trace, gallery_database, governor)
        counts.add(len(profile))
    assert counts == {gallery_database.lag_count}


def test_clock_mask_survives_shifted_replay(gallery_session, gallery_database):
    """Replaying later in wall-clock time changes the status-bar clock;
    the annotation masks must keep the matcher working."""
    _dev, _wm, trace, _video = gallery_session
    # The clock shows a different minute.
    shifted = EventTrace(
        [replace(event, timestamp=event.timestamp + seconds(130))
         for event in trace]
    )
    # Rebuild the database against the shifted gesture times.
    from repro.analysis.annotation import AnnotationDatabase, LagAnnotation

    shifted_db = AnnotationDatabase(
        gallery_database.workload_name,
        gallery_database.screen_width,
        gallery_database.screen_height,
    )
    for annotation in gallery_database.annotations:
        shifted_db.add(
            LagAnnotation(
                gesture_index=annotation.gesture_index,
                label=annotation.label,
                category=annotation.category,
                begin_time_us=annotation.begin_time_us + seconds(130),
                image=annotation.image,
                mask_rects=annotation.mask_rects,
                tolerance_px=annotation.tolerance_px,
                occurrence=annotation.occurrence,
                threshold_us=annotation.threshold_us,
            )
        )
    profile, _wm = replay_and_match(
        shifted, shifted_db, "fixed:960000", duration_s=160
    )
    assert len(profile) == gallery_database.lag_count


def test_replay_determinism_full_pipeline(gallery_session, gallery_database):
    _dev, _wm, trace, _video = gallery_session
    first, _ = replay_and_match(trace, gallery_database, "ondemand")
    second, _ = replay_and_match(trace, gallery_database, "ondemand")
    assert first.lags == second.lags


def test_higher_frequency_never_more_irritating(
    gallery_session, gallery_database
):
    _dev, _wm, trace, _video = gallery_session
    slow, _ = replay_and_match(trace, gallery_database, "fixed:300000")
    fast, _ = replay_and_match(trace, gallery_database, "fixed:2150400")
    assert (
        fast.irritation().total_us <= slow.irritation().total_us
    )
