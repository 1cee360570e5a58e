"""Unit tests for the cpufreq policy layer."""

import pytest

from repro.core.engine import Engine
from repro.core.errors import GovernorError
from repro.device.cpu import CpuCore
from repro.device.cpufreq import RELATION_HIGH, RELATION_LOW, CpuFreqPolicy
from repro.device.frequencies import snapdragon_8074_table


@pytest.fixture
def setup():
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    policy = CpuFreqPolicy(engine.clock, core)
    return engine, core, policy


def test_relation_low_resolves_to_floor(setup):
    _engine, core, policy = setup
    applied = policy.set_target(1_000_000, RELATION_LOW)
    assert applied == 960_000
    assert core.frequency_khz == 960_000


def test_relation_high_resolves_to_ceil(setup):
    _engine, _core, policy = setup
    assert policy.set_target(1_000_000, RELATION_HIGH) == 1_036_800


def test_target_clamped_to_policy_limits(setup):
    _engine, _core, policy = setup
    assert policy.set_target(10_000_000, RELATION_HIGH) == policy.max_khz
    assert policy.set_target(1, RELATION_LOW) == policy.min_khz


def test_unknown_relation_rejected(setup):
    _engine, _core, policy = setup
    with pytest.raises(GovernorError):
        policy.set_target(960_000, "sideways")


def test_custom_limits_narrow_the_range():
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    policy = CpuFreqPolicy(
        engine.clock, core, min_khz=652_800, max_khz=1_497_600
    )
    assert policy.set_target(300_000, RELATION_LOW) == 652_800
    assert policy.set_target(2_150_400, RELATION_HIGH) == 1_497_600


def test_inverted_limits_rejected():
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    with pytest.raises(GovernorError):
        CpuFreqPolicy(engine.clock, core, min_khz=1_497_600, max_khz=652_800)


def test_transition_trace_records_timestamps(setup):
    engine, _core, policy = setup
    engine.clock.advance_to(100)
    policy.set_target(960_000, RELATION_LOW)
    engine.clock.advance_to(200)
    policy.set_target(2_150_400, RELATION_HIGH)
    times = list(policy.transition_points())
    assert times == [(0, 300_000), (100, 960_000), (200, 2_150_400)]


def test_no_transition_recorded_for_same_frequency(setup):
    _engine, _core, policy = setup
    policy.set_target(300_000, RELATION_LOW)
    assert len(policy.transition_points()) == 1


def test_observers_fire_on_transition(setup):
    engine, _core, policy = setup
    seen = []
    policy.add_transition_observer(lambda t, khz: seen.append((t, khz)))
    engine.clock.advance_to(50)
    policy.set_target(960_000, RELATION_LOW)
    assert seen == [(50, 960_000)]


def test_frequency_at_historical_lookup(setup):
    engine, _core, policy = setup
    engine.clock.advance_to(100)
    policy.set_target(960_000, RELATION_LOW)
    engine.clock.advance_to(300)
    policy.set_target(2_150_400, RELATION_HIGH)
    assert policy.frequency_at(50) == 300_000
    assert policy.frequency_at(150) == 960_000
    assert policy.frequency_at(300) == 2_150_400
