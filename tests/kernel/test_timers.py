"""Unit tests for periodic kernel timers."""

import pytest

from repro.core.engine import Engine
from repro.core.errors import SimulationError
from repro.kernel.timers import PeriodicTimer


def test_fires_at_fixed_period():
    engine = Engine()
    ticks = []
    timer = PeriodicTimer(engine, 10_000, lambda: ticks.append(engine.now))
    timer.start()
    engine.run_until(35_000)
    assert ticks == [10_000, 20_000, 30_000]


def test_no_drift_accumulation():
    engine = Engine()
    ticks = []
    timer = PeriodicTimer(engine, 33_333, lambda: ticks.append(engine.now))
    timer.start()
    engine.run_until(10 * 33_333)
    assert ticks == [33_333 * k for k in range(1, 11)]


def test_invalid_period_rejected():
    with pytest.raises(SimulationError):
        PeriodicTimer(Engine(), 0, lambda: None)


def test_double_start_is_noop():
    engine = Engine()
    ticks = []
    timer = PeriodicTimer(engine, 10_000, lambda: ticks.append(engine.now))
    timer.start()
    timer.start()
    engine.run_until(10_000)
    assert ticks == [10_000]
