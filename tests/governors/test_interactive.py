"""Behavioural tests for the interactive governor."""

import pytest

from repro.core import events as ev
from repro.governors.interactive import InteractiveGovernor


def make(rig, **tunables):
    governor = InteractiveGovernor(rig.context(), **tunables)
    governor.start()
    return governor


def touch(rig):
    rig.touch_node.emit(
        ev.InputEvent(
            rig.engine.now,
            "/dev/input/event1",
            ev.EV_ABS,
            ev.ABS_MT_TRACKING_ID,
            3,
        )
    )


def test_input_event_boosts_immediately(rig):
    governor = make(rig, hispeed_freq_khz=1_190_400)
    assert rig.policy.current_khz == rig.policy.min_khz
    touch(rig)
    # The boost happens on the event itself, before any sampling timer.
    assert rig.policy.current_khz == 1_190_400
    assert governor.input_boosts == 1


def test_input_boost_ignores_load(rig):
    """Paper: 'immediately ramps up the frequency while ignoring the load'."""
    make(rig, hispeed_freq_khz=960_000)
    rig.run(500_000)  # totally idle
    touch(rig)
    assert rig.policy.current_khz == 960_000


def test_boost_disabled_via_tunable(rig):
    make(rig, input_boost=False)
    touch(rig)
    assert rig.policy.current_khz == rig.policy.min_khz


def test_min_sample_time_holds_before_rampdown(rig):
    governor = make(
        rig, hispeed_freq_khz=1_190_400, min_sample_time_us=80_000
    )
    touch(rig)
    rig.run(40_000)  # idle, but inside min_sample_time
    assert rig.policy.current_khz == 1_190_400
    rig.run(300_000)
    assert rig.policy.current_khz == rig.policy.min_khz


def test_sustained_load_exceeds_hispeed_after_delay(rig):
    make(
        rig,
        hispeed_freq_khz=960_000,
        go_hispeed_load=85,
        above_hispeed_delay_us=40_000,
        timer_rate_us=20_000,
    )
    rig.submit_work(30e9)
    rig.run(1_000_000)
    assert rig.policy.current_khz > 960_000


def test_default_hispeed_is_policy_max(rig):
    governor = make(rig)
    assert governor.hispeed_freq_khz == rig.policy.max_khz


def test_invalid_tunables_rejected(rig):
    with pytest.raises(ValueError):
        InteractiveGovernor(rig.context(), go_hispeed_load=0)
    with pytest.raises(ValueError):
        InteractiveGovernor(rig.context(), target_load=101)
