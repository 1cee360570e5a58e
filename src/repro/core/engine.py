"""Deterministic event-driven simulation engine.

The engine owns a :class:`~repro.core.simtime.SimClock` and a priority queue
of scheduled callbacks.  Events firing at the same timestamp are ordered by
an explicit priority, then by insertion order, which makes every simulation
fully deterministic regardless of Python hash seeds.

The queue is the simulator's hottest data structure: a governor replay
pushes and pops tens of thousands of entries per simulated minute.  Three
design points keep it fast:

* Heap entries are plain ``(time, priority, seq, event)`` tuples, so
  :mod:`heapq` orders them with C-level integer comparisons instead of
  calling back into a Python ``__lt__`` for every sift step.
* Cancelling leaves a tombstone in the heap (O(1)); when tombstones
  outnumber live entries the heap is compacted in place, so cancelled-timer
  churn (scheduler completions, governor re-targets) cannot bloat it.
* Periodic events (:meth:`Engine.schedule_periodic`) are re-armed in place
  by the run loop after each fire — one :class:`ScheduledEvent` for the
  lifetime of a sampling timer rather than one allocation per expiry.
  One-shot events that recur at irregular times (the scheduler's task
  completion, the replay agent's input cursor) are re-armed by their owner
  with :meth:`Engine.rearm`.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.core.errors import SimulationError
from repro.core.simtime import SimClock

# Priorities for same-timestamp ordering.  Lower runs first.  Input events
# are delivered before governor timers so that the interactive governor's
# input boost sees the event in the same sample it arrived, as on Linux
# where the input notifier fires from the event path itself.
PRIORITY_INPUT = 0
PRIORITY_TASK = 10
PRIORITY_TIMER = 20
PRIORITY_RENDER = 30
PRIORITY_DEFAULT = 50

# Compact the heap once at least this many tombstones accumulate AND they
# outnumber the live entries.  The floor keeps tiny simulations from
# compacting constantly; the ratio bounds heap size at 2x the live set.
_COMPACT_MIN_TOMBSTONES = 64


class ScheduledEvent:
    """A callback scheduled to fire at a simulation timestamp.

    The event object is the *handle* callers keep (for :meth:`cancel`); the
    heap itself stores ``(time, priority, seq, event)`` tuples so ordering
    never invokes Python-level comparisons.  ``period`` is set for events
    created by :meth:`Engine.schedule_periodic`; the run loop re-arms those
    in place after each fire.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "period",
                 "_engine")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        engine: "Engine | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.period: int | None = None
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if not self.cancelled:
            self.cancelled = True
            engine = self._engine
            if engine is not None:
                engine._note_cancelled()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq
        )

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        kind = f" period={self.period}" if self.period is not None else ""
        return (
            f"ScheduledEvent(t={self.time}, prio={self.priority}, "
            f"seq={self.seq}, {state}{kind})"
        )


class Engine:
    """A deterministic discrete-event simulation loop."""

    def __init__(self, start: int = 0) -> None:
        self.clock = SimClock(start)
        self._queue: list[tuple[int, int, int, ScheduledEvent]] = []
        self._seq = 0
        self._running = False
        self._fired = 0
        self._tombstones = 0
        self._compactions = 0
        self._firing_priority: int | None = None

    @property
    def now(self) -> int:
        """Current simulation time in microseconds."""
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._fired

    @property
    def events_scheduled(self) -> int:
        """Heap entries pushed so far: every seq drawn, including re-arms."""
        return self._seq

    @property
    def heap_compactions(self) -> int:
        """Times the queue was compacted to shed cancellation tombstones."""
        return self._compactions

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events still in the queue."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    @property
    def firing_priority(self) -> int | None:
        """Priority of the event currently being dispatched (None if idle).

        Lets same-timestamp consumers (the governors' parked sampling
        timers) decide whether a timer expiry at exactly ``now`` would have
        fired before or after the event whose callback is running.
        """
        return self._firing_priority

    def schedule_at(
        self,
        time: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute time ``time``."""
        if time < self.clock._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < {self.clock._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, priority, seq, callback, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def rearm(self, event: ScheduledEvent, time: int) -> None:
        """Push an already-fired ``event`` back onto the queue at ``time``.

        Same ordering as :meth:`schedule_at` (a fresh ``seq`` is drawn
        here) without allocating a new event.  Only an event that is no
        longer in the heap — one that has fired — may be re-armed; a
        pending or cancelled one still owns a heap entry.  A periodic event
        never may: the run loop re-arms it after every fire.
        """
        if event.period is not None:
            raise SimulationError(
                f"cannot re-arm periodic {event!r}: the run loop re-arms it"
            )
        if time < self.clock._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < {self.clock._now}"
            )
        if event._engine is not None:
            raise SimulationError(f"cannot re-arm {event!r}: still queued")
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.seq = seq
        event.cancelled = False
        event._engine = self
        heapq.heappush(self._queue, (time, event.priority, seq, event))

    def schedule_after(
        self,
        delay: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.clock._now + delay, callback, priority)

    def schedule_periodic(
        self,
        first_time: int,
        period_us: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at ``first_time`` and then every ``period_us``.

        The run loop re-arms the returned event in place after each fire
        (fresh ``seq``, advanced ``time``), exactly as if the callback had
        rescheduled itself as its last action — but without allocating a new
        event and heap entry per expiry.  Expirations stay aligned to
        ``first_time``; if a callback overruns an expiry the next one is
        pushed to ``now + period``.  :meth:`ScheduledEvent.cancel` stops the
        recurrence.
        """
        if period_us <= 0:
            raise SimulationError("periodic event period must be positive")
        event = self.schedule_at(first_time, callback, priority)
        event.period = period_us
        return event

    def _note_cancelled(self) -> None:
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones and re-heapify, in place.

        In-place (slice assignment) because the run loops bind the queue
        list locally; the list object must keep its identity.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapq.heapify(queue)
        self._tombstones = 0
        self._compactions += 1

    def run_until(self, end_time: int) -> None:
        """Fire all events up to and including ``end_time``.

        The clock finishes exactly at ``end_time`` even if the queue drains
        earlier, so that end-of-run accounting (energy integration, final
        frame capture) sees the full interval.
        """
        self._run(end_time)
        self.clock.advance_to(max(self.clock._now, end_time))

    def run_until_idle(self, limit: int | None = None) -> None:
        """Fire events until the queue is empty (or ``limit`` is reached).

        Unlike :meth:`run_until`, the clock stays at the last fired event.
        """
        self._run(math.inf if limit is None else limit)

    def _run(self, end_time: int | float) -> None:
        """Dispatch queued events in order while the next is <= ``end_time``.

        Events later than ``end_time`` stay queued.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        queue = self._queue
        clock = self.clock
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if time > end_time:
                    break
                heappop(queue)
                event = entry[3]
                if event.cancelled:
                    self._tombstones -= 1
                    continue
                # Heap order guarantees monotonic time, so assign directly
                # instead of paying advance_to's rewind check per event.
                clock._now = time
                self._fired += 1
                self._firing_priority = entry[1]
                # A popped event is no longer in the heap: cancelling it
                # mid-callback must not count a tombstone.
                event._engine = None
                event.callback()
                period = event.period
                if period is not None and not event.cancelled:
                    next_time = time + period
                    if next_time <= clock._now:
                        next_time = clock._now + period
                    seq = self._seq
                    self._seq = seq + 1
                    event.time = next_time
                    event.seq = seq
                    event._engine = self
                    heappush(queue, (next_time, event.priority, seq, event))
        finally:
            self._running = False
            self._firing_priority = None
