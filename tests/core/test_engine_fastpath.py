"""Fast-path behaviour of the event engine.

The scheduling API contract (cancel, priority ordering, insertion order,
reentrancy guard) is pinned by test_engine.py; these tests cover what the
fast path added: slotted events, native periodic recurrence, tombstone
compaction, and owner-driven re-arming of fired one-shot events.
"""

import pytest

from repro.core.engine import (
    PRIORITY_INPUT,
    PRIORITY_TIMER,
    Engine,
    ScheduledEvent,
)
from repro.core.errors import SimulationError


def test_scheduled_event_has_slots_no_dict():
    event = Engine().schedule_at(10, lambda: None)
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.arbitrary_attribute = 1


def test_event_ordering_still_comparable():
    engine = Engine()
    early = engine.schedule_at(10, lambda: None)
    late = engine.schedule_at(20, lambda: None)
    assert early < late
    tie_a = engine.schedule_at(30, lambda: None, priority=PRIORITY_INPUT)
    tie_b = engine.schedule_at(30, lambda: None, priority=PRIORITY_TIMER)
    assert tie_a < tie_b


def test_schedule_periodic_fires_on_alignment():
    engine = Engine()
    ticks = []
    engine.schedule_periodic(10, 10, lambda: ticks.append(engine.now))
    engine.run_until(45)
    assert ticks == [10, 20, 30, 40]


def test_schedule_periodic_single_event_reused():
    engine = Engine()
    event = engine.schedule_periodic(5, 5, lambda: None)
    engine.run_until(50)
    # The same handle is re-armed in place: queue holds at most one entry.
    assert engine.pending == 1
    assert event.time == 55


def test_cancel_stops_periodic_recurrence():
    engine = Engine()
    ticks = []
    event = engine.schedule_periodic(10, 10, lambda: ticks.append(engine.now))
    engine.schedule_at(25, event.cancel)
    engine.run_until(100)
    assert ticks == [10, 20]


def test_cancel_mid_fire_stops_recurrence():
    engine = Engine()
    ticks = []
    event = None

    def tick():
        ticks.append(engine.now)
        if len(ticks) == 3:
            event.cancel()

    event = engine.schedule_periodic(10, 10, tick)
    engine.run_until(100)
    assert ticks == [10, 20, 30]


def test_periodic_rejects_nonpositive_period():
    with pytest.raises(SimulationError):
        Engine().schedule_periodic(10, 0, lambda: None)


def test_tombstone_compaction_bounds_heap():
    """Cancel churn must not grow the heap past ~2x the live entries."""
    engine = Engine()
    for _round in range(100):
        events = [
            engine.schedule_at(1_000_000 + i, lambda: None) for i in range(100)
        ]
        for event in events:
            event.cancel()
    assert len(engine._queue) < 500
    assert engine.pending == 0
    # The queue still drains correctly afterwards.
    fired = []
    engine.schedule_at(2_000_000, lambda: fired.append(True))
    engine.run_until_idle()
    assert fired == [True]


def test_compaction_preserves_ordering():
    engine = Engine()
    fired = []
    keep = [engine.schedule_at(10_000 + i, lambda i=i: fired.append(i))
            for i in range(5)]
    churn = [engine.schedule_at(50_000 + i, lambda: None) for i in range(300)]
    for event in churn:
        event.cancel()
    assert keep[0] in [entry[3] for entry in engine._queue]
    engine.run_until_idle()
    assert fired == [0, 1, 2, 3, 4]


def test_firing_priority_visible_during_dispatch():
    engine = Engine()
    seen = []
    engine.schedule_at(10, lambda: seen.append(engine.firing_priority),
                       priority=PRIORITY_TIMER)
    assert engine.firing_priority is None
    engine.run_until(20)
    assert seen == [PRIORITY_TIMER]
    assert engine.firing_priority is None


def test_reentrancy_guard_still_enforced():
    engine = Engine()
    errors = []

    def reenter():
        try:
            engine.run_until_idle()
        except SimulationError as error:
            errors.append(error)

    engine.schedule_at(1, reenter)
    engine.run_until(10)
    assert len(errors) == 1


def _fired_event(engine, fired, name, priority=PRIORITY_TIMER):
    event = engine.schedule_at(engine.now, lambda: fired.append(name), priority)
    engine.run_until(engine.now)
    assert fired[-1] == name
    return event


def test_rearm_draws_a_fresh_seq():
    engine = Engine()
    fired = []
    event = _fired_event(engine, fired, "first")
    scheduled = engine.events_scheduled
    old_seq = event.seq
    engine.rearm(event, 50)
    assert event.seq == scheduled > old_seq
    assert engine.events_scheduled == scheduled + 1
    assert event.time == 50
    engine.run_until(100)
    assert fired == ["first", "first"]
    assert engine.events_fired == 2


def test_rearm_orders_same_time_events_by_priority_then_seq():
    engine = Engine()
    fired = []
    event = _fired_event(engine, fired, "rearmed")
    engine.schedule_at(40, lambda: fired.append("earlier-seq"), PRIORITY_TIMER)
    engine.rearm(event, 40)
    engine.schedule_at(40, lambda: fired.append("later-seq"), PRIORITY_TIMER)
    engine.schedule_at(40, lambda: fired.append("input"), PRIORITY_INPUT)
    engine.run_until(100)
    assert fired[1:] == ["input", "earlier-seq", "rearmed", "later-seq"]


def test_cancel_after_rearm_counts_one_tombstone():
    engine = Engine()
    fired = []
    event = _fired_event(engine, fired, "once")
    engine.rearm(event, 30)
    event.cancel()
    event.cancel()
    assert engine._tombstones == 1
    assert engine.pending == 0
    engine.run_until(100)
    assert fired == ["once"]
    assert engine._tombstones == 0


def test_rearm_rejects_a_queued_or_cancelled_event():
    engine = Engine()
    pending = engine.schedule_at(10, lambda: None)
    with pytest.raises(SimulationError):
        engine.rearm(pending, 20)
    pending.cancel()
    with pytest.raises(SimulationError):
        engine.rearm(pending, 20)


def test_rearm_rejects_the_past():
    engine = Engine()
    event = _fired_event(engine, [], "x")
    engine.run_until(100)
    with pytest.raises(SimulationError):
        engine.rearm(event, 99)


def test_rearm_from_inside_own_callback():
    engine = Engine()
    fired = []
    holder = {}

    def fire():
        fired.append(engine.now)
        if len(fired) < 3:
            engine.rearm(holder["event"], engine.now + 10)

    holder["event"] = engine.schedule_at(5, fire)
    engine.run_until(100)
    assert fired == [5, 15, 25]
    assert engine.events_scheduled == 3


def test_rearm_rejects_a_periodic_event_from_its_own_callback():
    # The run loop re-arms a periodic event after every fire; an owner
    # re-arm on top of that would queue the one event twice.
    engine = Engine()
    fired = []
    errors = []
    holder = {}

    def fire():
        fired.append(engine.now)
        try:
            engine.rearm(holder["event"], engine.now + 5)
        except SimulationError as error:
            errors.append(error)

    holder["event"] = engine.schedule_periodic(10, 10, fire)
    engine.run_until(40)
    assert fired == [10, 20, 30, 40]
    assert len(errors) == 4
    assert "periodic" in str(errors[0])
    assert len(engine._queue) == 1


def test_run_until_idle_stops_at_its_limit_without_advancing_the_clock():
    engine = Engine()
    fired = []
    for time in (10, 20, 30):
        engine.schedule_at(time, lambda: fired.append(engine.now))
    engine.run_until_idle(limit=25)
    assert fired == [10, 20]
    assert engine.now == 20
    assert engine.pending == 1
    engine.run_until(50)
    assert fired == [10, 20, 30]
    assert engine.now == 50
