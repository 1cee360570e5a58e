"""Unit tests for the deterministic event engine."""

import pytest

from repro.core.engine import (
    PRIORITY_INPUT,
    PRIORITY_TIMER,
    Engine,
)
from repro.core.errors import SimulationError
from tests.conftest import pending_events


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule_at(30, lambda: fired.append("c"))
    engine.schedule_at(10, lambda: fired.append("a"))
    engine.schedule_at(20, lambda: fired.append("b"))
    engine.run_until(100)
    assert fired == ["a", "b", "c"]


def test_same_time_ordered_by_priority():
    engine = Engine()
    fired = []
    engine.schedule_at(10, lambda: fired.append("timer"), priority=PRIORITY_TIMER)
    engine.schedule_at(10, lambda: fired.append("input"), priority=PRIORITY_INPUT)
    engine.run_until(100)
    assert fired == ["input", "timer"]


def test_same_time_same_priority_ordered_by_insertion():
    engine = Engine()
    fired = []
    for name in ("first", "second", "third"):
        engine.schedule_at(5, lambda n=name: fired.append(n))
    engine.run_until(10)
    assert fired == ["first", "second", "third"]


def test_clock_lands_exactly_on_end_time():
    engine = Engine()
    engine.schedule_at(10, lambda: None)
    engine.run_until(500)
    assert engine.now == 500


def test_events_beyond_end_time_stay_queued():
    engine = Engine()
    fired = []
    engine.schedule_at(600, lambda: fired.append("late"))
    engine.run_until(500)
    assert fired == []
    engine.run_until(700)
    assert fired == ["late"]


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule_at(10, lambda: fired.append("x"))
    event.cancel()
    engine.run_until(100)
    assert fired == []


def test_schedule_in_the_past_rejected():
    engine = Engine()
    engine.schedule_at(10, lambda: None)
    engine.run_until(50)
    with pytest.raises(SimulationError):
        engine.schedule_at(20, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule_after(-1, lambda: None)


def test_callback_can_schedule_more_events():
    engine = Engine()
    fired = []

    def first():
        fired.append("first")
        engine.schedule_after(5, lambda: fired.append("second"))

    engine.schedule_at(10, first)
    engine.run_until(100)
    assert fired == ["first", "second"]


def test_events_fired_counter():
    engine = Engine()
    for t in (1, 2, 3):
        engine.schedule_at(t, lambda: None)
    engine.run_until(10)
    assert engine.events_fired == 3


def test_pending_counts_only_uncancelled():
    engine = Engine()
    keep = engine.schedule_at(10, lambda: None)
    cancel = engine.schedule_at(20, lambda: None)
    cancel.cancel()
    assert pending_events(engine) == 1
    assert keep.time == 10


def test_run_until_idle_drains_queue():
    engine = Engine()
    fired = []
    engine.schedule_at(10, lambda: fired.append(1))
    engine.schedule_at(20, lambda: fired.append(2))
    engine.run_until_idle()
    assert fired == [1, 2]
    assert pending_events(engine) == 0


def test_engine_not_reentrant():
    engine = Engine()
    errors = []

    def reenter():
        try:
            engine.run_until(100)
        except SimulationError as error:
            errors.append(error)

    engine.schedule_at(1, reenter)
    engine.run_until(10)
    assert len(errors) == 1
