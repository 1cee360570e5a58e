"""Unit tests for per-sample load computation."""

import pytest

from repro.core.engine import Engine
from repro.device.cpu import CpuCore
from repro.device.frequencies import snapdragon_8074_table
from repro.device.loadtracker import LoadTracker


@pytest.fixture
def setup():
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    tracker = LoadTracker(engine.clock, core)
    return engine, core, tracker


def test_idle_window_reads_zero(setup):
    engine, _core, tracker = setup
    engine.clock.advance_to(100_000)
    assert tracker.sample() == 0


def test_fully_busy_window_reads_hundred(setup):
    engine, core, tracker = setup
    core.set_busy(True)
    engine.clock.advance_to(100_000)
    assert tracker.sample() == 100


def test_half_busy_window(setup):
    engine, core, tracker = setup
    core.set_busy(True)
    engine.clock.advance_to(50_000)
    core.set_busy(False)
    engine.clock.advance_to(100_000)
    assert tracker.sample() == 50


def test_sample_resets_the_window(setup):
    engine, core, tracker = setup
    core.set_busy(True)
    engine.clock.advance_to(50_000)
    core.set_busy(False)
    engine.clock.advance_to(100_000)
    tracker.sample()
    engine.clock.advance_to(200_000)
    assert tracker.sample() == 0


def test_zero_width_window_reports_instantaneous_state(setup):
    _engine, core, tracker = setup
    tracker.sample()
    assert tracker.sample() == 0
    core.set_busy(True)
    assert tracker.sample() == 100
