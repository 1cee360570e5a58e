"""Behavioural tests for the conservative governor."""

import pytest

from repro.governors.conservative import ConservativeGovernor


def make(rig, **tunables):
    tunables.setdefault("sampling_rate_us", 100_000)
    governor = ConservativeGovernor(rig.context(), **tunables)
    governor.start()
    return governor


def test_ramps_gradually_not_jumping(rig):
    make(rig)
    rig.submit_work(3e9)
    rig.run(300_000)
    # After three samples the frequency must have risen but NOT to max.
    assert rig.policy.min_khz < rig.policy.current_khz < rig.policy.max_khz


def test_reaches_max_eventually_under_sustained_load(rig):
    make(rig)
    rig.submit_work(20e9)
    rig.run(4_000_000)
    assert rig.policy.current_khz == rig.policy.max_khz


def test_steps_are_at_most_one_sample_apart(rig):
    make(rig)
    rig.submit_work(5e9)
    rig.run(2_000_000)
    freqs = [khz for _t, khz in rig.policy.transition_points()]
    steps = [later - earlier for earlier, later in zip(freqs, freqs[1:])]
    step_khz = rig.policy.max_khz * 5 // 100
    # Each upward move is bounded by freq_step rounded up to the next OPP.
    assert all(0 < step <= step_khz + 250_000 for step in steps)


def test_comes_down_when_quiet(rig):
    make(rig)
    rig.submit_work(2e9)
    rig.run(3_000_000)   # ramp up and finish
    rig.run(5_000_000)   # long quiet period
    assert rig.policy.current_khz == rig.policy.min_khz


def test_freezes_between_thresholds(rig):
    """Load between down (20) and up (80) thresholds leaves the frequency
    untouched — conservative's defining hysteresis."""
    make(rig, sampling_rate_us=100_000)
    rig.policy.set_target(960_000)
    rig.core.set_frequency(960_000)
    # ~50% duty: 48e6 cycles every 100 ms at 0.96 GHz = 50 ms busy.
    def burst():
        rig.submit_work(48e6)
        rig.engine.schedule_after(100_000, burst)
    burst()
    rig.run(1_000_000)
    assert rig.policy.current_khz == 960_000


def test_invalid_thresholds_rejected(rig):
    with pytest.raises(ValueError):
        ConservativeGovernor(
            rig.context(), up_threshold=20, down_threshold=30
        )
    with pytest.raises(ValueError):
        ConservativeGovernor(rig.context(), freq_step_percent=0)


def test_freq_step_is_five_percent_of_max(rig):
    governor = make(rig)
    assert governor.freq_step_khz == rig.policy.max_khz * 5 // 100
