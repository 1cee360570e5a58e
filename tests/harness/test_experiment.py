"""Tests for workload recording and replay runs."""

import pytest

from repro.harness.experiment import RECORDING_FREQ_KHZ, replay_run


def test_recording_produces_consistent_artifacts(artifacts_ds03):
    artifacts = artifacts_ds03
    assert artifacts.name == "03"
    assert artifacts.input_count == len(artifacts.database.gestures)
    assert artifacts.database.lag_count > 20
    assert artifacts.duration_us >= artifacts.spec.duration_us
    assert artifacts.database.gestures[0].down_time_us > 0


def test_recording_is_reproducible(artifacts_ds03):
    from repro.harness.experiment import record_workload
    from repro.workloads import dataset

    again = record_workload(dataset("03"))
    assert again.trace.events == artifacts_ds03.trace.events
    assert again.database.lag_count == artifacts_ds03.database.lag_count


def test_classification_matches_database(artifacts_ds03):
    classification = artifacts_ds03.classification
    assert classification.actual_lags == artifacts_ds03.database.lag_count
    assert (
        classification.total_inputs
        == classification.actual_lags + classification.spurious_lags
    )


def test_recording_frequency_is_the_minimum():
    assert RECORDING_FREQ_KHZ == 300_000


def test_replay_produces_full_lag_profile(artifacts_ds03):
    result = replay_run(artifacts_ds03, "fixed:960000")
    assert len(result.lag_profile) == artifacts_ds03.database.lag_count
    assert result.energy_j > result.dynamic_energy_j > 0
    assert result.busy_us > 0
    assert result.busy_timeline.busy_in(0, result.duration_us) == result.busy_us


def test_replay_at_slowest_matches_recording_lags(artifacts_ds03):
    """Replaying at the recording frequency reproduces the recorded lag
    timings (same speed, same workload)."""
    result = replay_run(artifacts_ds03, f"fixed:{RECORDING_FREQ_KHZ}")
    assert len(result.lag_profile) == artifacts_ds03.database.lag_count
    # Lags must all have been serviced within the run window.
    assert max(lag.duration_us for lag in result.lags) < artifacts_ds03.duration_us


def test_replay_faster_frequency_shortens_lags(artifacts_ds03):
    slow = replay_run(artifacts_ds03, "fixed:300000")
    fast = replay_run(artifacts_ds03, "fixed:2150400")
    slower_count = sum(
        1
        for _label, s, f in zip(
            [lag.label for lag in slow.lag_profile.lags],
            [lag.duration_us for lag in slow.lags],
            [lag.duration_us for lag in fast.lags],
        )
        if s >= f
    )
    assert slower_count >= len(slow.lag_profile) * 9 // 10


def test_replay_reps_differ_only_by_noise(artifacts_ds03):
    rep0 = replay_run(artifacts_ds03, "ondemand", rep=0)
    rep1 = replay_run(artifacts_ds03, "ondemand", rep=1)
    assert len(rep0.lag_profile) == len(rep1.lag_profile)
    assert rep0.energy_j != rep1.energy_j  # background noise differs


def test_replay_same_rep_is_deterministic(artifacts_ds03):
    a = replay_run(artifacts_ds03, "ondemand", rep=0)
    b = replay_run(artifacts_ds03, "ondemand", rep=0)
    assert a.energy_j == b.energy_j
    assert a.lags == b.lags
    assert a.transitions == b.transitions


def test_governor_tunables_passthrough(artifacts_ds03):
    hot = replay_run(artifacts_ds03, "interactive:hispeed=2150400")
    cold = replay_run(artifacts_ds03, "interactive:hispeed=652800")
    assert hot.dynamic_energy_j > cold.dynamic_energy_j
