"""Unit tests for the CPU core model."""

import pytest

from repro.core.engine import Engine
from repro.core.errors import SimulationError
from repro.device.cpu import CpuCore
from repro.device.frequencies import snapdragon_8074_table
from repro.device.power import PowerModel


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def core(engine):
    return CpuCore(engine.clock, snapdragon_8074_table(), PowerModel())


def test_starts_idle_at_min_frequency(core):
    assert core.frequency_khz == 300_000
    assert not core.busy


def test_busy_time_accumulates(engine, core):
    core.set_busy(True)
    engine.clock.advance_to(1_000_000)
    assert core.busy_time_total() == 1_000_000
    core.set_busy(False)
    engine.clock.advance_to(2_000_000)
    assert core.busy_time_total() == 1_000_000


def test_set_frequency_rejects_non_opp(core):
    with pytest.raises(SimulationError):
        core.set_frequency(999_999)


def test_time_in_state_includes_open_interval(engine, core):
    engine.clock.advance_to(500_000)
    core.set_frequency(960_000)
    engine.clock.advance_to(800_000)
    residency = core.time_in_state()
    assert residency[300_000] == 500_000
    assert residency[960_000] == 300_000


def test_dynamic_energy_zero_while_idle(engine, core):
    engine.clock.advance_to(5_000_000)
    assert core.dynamic_energy_joules() == pytest.approx(0.0)
    assert core.energy_joules() > 0  # idle floor still burns energy


def test_dynamic_energy_positive_when_busy(engine, core):
    core.set_busy(True)
    engine.clock.advance_to(1_000_000)
    core.set_busy(False)
    assert core.dynamic_energy_joules() > 0


def test_busy_trace_requires_enable(engine, core):
    with pytest.raises(SimulationError):
        core.busy_pairs()


def test_busy_trace_records_intervals(engine, core):
    core.enable_busy_trace()
    core.set_busy(True)
    engine.clock.advance_to(100)
    core.set_busy(False)
    engine.clock.advance_to(200)
    core.set_busy(True)
    engine.clock.advance_to(350)
    core.set_busy(False)
    assert list(core.busy_pairs()) == [(0, 100), (200, 350)]


def test_busy_trace_survives_frequency_change(engine, core):
    """A mid-task DVFS transition must not lose busy time."""
    core.enable_busy_trace()
    core.set_busy(True)
    engine.clock.advance_to(100)
    core.set_frequency(960_000)
    engine.clock.advance_to(250)
    core.set_busy(False)
    trace = list(core.busy_pairs())
    assert sum(end - start for start, end in trace) == 250


def test_busy_trace_includes_open_interval(engine, core):
    core.enable_busy_trace()
    core.set_busy(True)
    engine.clock.advance_to(100)
    assert list(core.busy_pairs()) == [(0, 100)]


def test_energy_matches_mixed_profile(engine, core):
    model = core.power_model
    table = core.table
    core.set_busy(True)
    engine.clock.advance_to(1_000_000)
    core.set_frequency(2_150_400)
    engine.clock.advance_to(2_000_000)
    core.set_busy(False)
    engine.clock.advance_to(3_000_000)
    low = table.point(300_000)
    high = table.point(2_150_400)
    expected = (
        model.active_power(low.freq_khz, low.volts)
        + model.active_power(high.freq_khz, high.volts)
        + model.idle_power()
    )
    assert core.energy_joules() == pytest.approx(expected)
