"""Behavioural tests for the ondemand governor."""

import pytest

from repro.governors.ondemand import OndemandGovernor


def make(rig, **tunables):
    governor = OndemandGovernor(rig.context(), **tunables)
    governor.start()
    return governor


def test_jumps_to_max_under_sustained_load(rig):
    make(rig, sampling_rate_us=20_000)
    rig.submit_work(500e6)
    rig.run(100_000)
    assert rig.policy.current_khz == rig.policy.max_khz


def test_returns_toward_min_when_idle(rig):
    make(rig, sampling_rate_us=20_000, sampling_down_factor=1)
    rig.submit_work(100e6)
    rig.run(2_000_000)
    assert rig.policy.current_khz == rig.policy.min_khz


def test_proportional_target_below_threshold(rig):
    governor = make(rig, sampling_rate_us=100_000, up_threshold=95)
    # ~50% load in the first window: 15e6 cycles at 0.3 GHz = 50 ms.
    rig.submit_work(15e6)
    rig.run(100_000)
    # load 50 -> target = 50 * 300000 / 95 ~ 157 kkHz -> floor -> min.
    assert rig.policy.current_khz == rig.policy.min_khz
    assert governor.samples_taken == 1


def test_sampling_down_factor_holds_max(rig):
    make(rig, sampling_rate_us=20_000, sampling_down_factor=5)
    rig.submit_work(200e6)  # bursts to max, finishes quickly at max
    rig.run(60_000)
    at_burst_end = rig.policy.current_khz
    assert at_burst_end == rig.policy.max_khz
    # Within the hold window the governor must not down-scale.
    rig.run(40_000)
    assert rig.policy.current_khz == rig.policy.max_khz


def test_alternates_between_max_and_min_on_bursty_load(rig):
    """The paper's Fig. 3 description: 'usually alternating between the
    highest and the lowest frequency'."""
    make(rig, sampling_rate_us=20_000, sampling_down_factor=1)
    for start_ms in (0, 300, 600):
        rig.engine.schedule_at(
            start_ms * 1_000, lambda: rig.submit_work(120e6)
        )
    rig.run(1_000_000)
    freqs = {khz for _t, khz in rig.policy.transition_points()}
    assert rig.policy.max_khz in freqs
    assert rig.policy.min_khz in freqs


def test_invalid_tunables_rejected(rig):
    with pytest.raises(ValueError):
        OndemandGovernor(rig.context(), up_threshold=0)
    with pytest.raises(ValueError):
        OndemandGovernor(rig.context(), sampling_down_factor=0)
