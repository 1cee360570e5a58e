"""Park/unpark behaviour of PeriodicTimer (the governors' tick elision)."""

import pytest

from repro.core.engine import PRIORITY_DEFAULT, PRIORITY_INPUT, Engine
from repro.core.errors import SimulationError
from repro.kernel.timers import PeriodicTimer


def make_timer(engine, period=10_000, park_at=None, hold_until=None):
    """A started timer whose callback records ticks and may self-park.

    ``park_at``: park indefinitely at that tick time; ``hold_until``:
    park_until the given wake time at the first tick.  Parking happens
    from inside the timer's own callback, exactly as the governors do.
    """
    ticks = []
    holder = {}

    def tick():
        ticks.append(engine.now)
        timer = holder["timer"]
        if park_at is not None and engine.now == park_at:
            timer.park()
        if hold_until is not None and engine.now == ticks[0]:
            timer.park_until(hold_until)

    timer = PeriodicTimer(engine, period, tick)
    holder["timer"] = timer
    timer.start()
    return timer, ticks


def test_park_suspends_unpark_resumes_alignment():
    engine = Engine()
    timer, ticks = make_timer(engine, park_at=20_000)
    engine.run_until(55_000)
    assert ticks == [10_000, 20_000]
    assert timer.parked

    # Unpark from a later event: elided ticks are reported, alignment kept.
    elided_info = []
    engine.schedule_at(55_001, lambda: elided_info.append(timer.unpark()))
    engine.run_until(75_000)
    assert elided_info == [(3, 50_000)]  # 30k, 40k, 50k elided
    assert ticks == [10_000, 20_000, 60_000, 70_000]


def test_unpark_before_next_expiry_elides_nothing():
    engine = Engine()
    timer, ticks = make_timer(engine, park_at=10_000)
    engine.run_until(10_000)
    assert timer.parked
    engine.schedule_at(15_000, lambda: timer.unpark())
    engine.run_until(30_000)
    assert ticks == [10_000, 20_000, 30_000]


def test_unpark_tick_at_now_counts_by_priority():
    """An expiry at exactly `now` is elided only if the waking event runs
    after timer priority (i.e. the tick would already have fired)."""
    engine = Engine()
    timer, ticks = make_timer(engine, park_at=10_000)
    engine.run_until(10_000)
    results = []
    # Wake from PRIORITY_DEFAULT (50 > timer 20): the tick at 30_000 would
    # have fired before this event, so it counts as elided.
    engine.schedule_at(30_000, lambda: results.append(timer.unpark()),
                       priority=PRIORITY_DEFAULT)
    engine.run_until(30_000)
    assert results == [(2, 30_000)]  # 20_000 and 30_000 elided

    timer.park()
    # Wake from PRIORITY_INPUT (0 < 20): the tick at 60_000 fires after
    # the waking event, so it must not be elided — it fires for real.
    engine.schedule_at(60_000, lambda: results.append(timer.unpark()),
                       priority=PRIORITY_INPUT)
    engine.run_until(60_000)
    assert results[-1] == (2, 50_000)  # 40_000 and 50_000, not 60_000
    assert ticks[-1] == 60_000


def test_park_until_elides_through_deadline():
    engine = Engine()
    timer, ticks = make_timer(engine, hold_until=50_000)
    credited = []
    timer.on_elided = lambda n, last: credited.append((n, last))
    engine.run_until(70_000)
    # First tick at 10k parks; 20k, 30k, 40k elided; 50k fires via the
    # deadline, then normal expiries resume.
    assert ticks == [10_000, 50_000, 60_000, 70_000]
    assert credited == [(3, 40_000)]


def test_park_until_rejects_misaligned_wake():
    engine = Engine()
    errors = []
    holder = {}

    def tick():
        timer = holder["timer"]
        try:
            timer.park_until(engine.now + 15_000)  # off the 10ms grid
        except SimulationError as exc:
            errors.append(exc)
        timer.park()

    timer = PeriodicTimer(engine, 10_000, tick)
    holder["timer"] = timer
    timer.start()
    engine.run_until(10_000)
    assert len(errors) == 1


def test_early_unpark_cancels_deadline():
    engine = Engine()
    timer, ticks = make_timer(engine, hold_until=90_000)
    timer.on_elided = lambda n, last: pytest.fail("deadline must not fire")
    engine.run_until(10_000)
    engine.schedule_at(25_000, lambda: timer.unpark())
    engine.run_until(40_000)
    assert ticks == [10_000, 30_000, 40_000]
