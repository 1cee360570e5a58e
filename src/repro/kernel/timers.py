"""Kernel timers used by governor sampling loops."""

from __future__ import annotations

from typing import Callable

from repro.core.engine import PRIORITY_TIMER, Engine, ScheduledEvent
from repro.core.errors import SimulationError


class PeriodicTimer:
    """Fires a callback every ``period_us`` microseconds once started.

    Expirations stay aligned to the start time (no drift accumulation),
    like a kernel timer re-armed from its expiry rather than from ``now``.

    The timer is backed by the engine's native periodic events
    (:meth:`~repro.core.engine.Engine.schedule_periodic`): the run loop
    re-arms the expiry in place after each fire, so a sampling timer costs
    one event allocation for its whole lifetime instead of one per period.

    :meth:`park`/:meth:`unpark` support the governors' idle fast path.
    While an owner can prove every expiry would be a no-op (core idle at
    the governor's resting frequency), it parks the timer and the engine
    skips the per-tick work entirely; ``unpark`` re-arms on the original
    alignment and reports how many expiries were elided so the owner can
    reconcile sample counters and load-tracking windows.
    """

    __slots__ = ("_engine", "_period", "_callback", "_event", "_running",
                 "_parked_next", "on_elided")

    def __init__(
        self, engine: Engine, period_us: int, callback: Callable[[], None]
    ) -> None:
        if period_us <= 0:
            raise SimulationError("timer period must be positive")
        self._engine = engine
        self._period = period_us
        self._callback = callback
        self._event: ScheduledEvent | None = None
        self._running = False
        self._parked_next: int | None = None
        #: Optional ``(elided, last_elided_time)`` hook invoked when a
        #: :meth:`park_until` deadline fires, before the regular callback.
        self.on_elided: Callable[[int, int], None] | None = None

    @property
    def parked(self) -> bool:
        """Whether the timer is running but idling in the parked state."""
        return self._running and self._parked_next is not None

    @property
    def period_us(self) -> int:
        return self._period

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._event = self._engine.schedule_periodic(
            self._engine.now + self._period,
            self._period,
            self._callback,
            priority=PRIORITY_TIMER,
        )

    def _next_expiry_of(self, event: ScheduledEvent) -> int:
        """The expiry that would follow ``event``.

        If the event is mid-fire (its time is not in the future the engine
        has not re-armed it yet), the next expiry is one period later,
        mirroring the engine's own re-arm rule; a still-pending event *is*
        the next expiry.
        """
        now = self._engine.now
        if event.time > now:
            return event.time
        next_expiry = event.time + self._period
        if next_expiry <= now:
            next_expiry = now + self._period
        return next_expiry

    def park(self) -> None:
        """Suspend expiries, remembering the upcoming expiry's alignment.

        Only the owner may park, and only when it can prove the elided
        expiries would not change observable state; see the governors'
        idle fast path.  No-op if already parked or not running.
        """
        if not self._running or self._parked_next is not None:
            return
        event = self._event
        self._parked_next = self._next_expiry_of(event)
        event.cancel()
        self._event = None

    def park_until(self, wake_time: int) -> None:
        """Park with a pre-scheduled wake at expiry ``wake_time``.

        Expiries strictly before ``wake_time`` are elided; the expiry at
        ``wake_time`` fires normally, after crediting the elided ones
        through :attr:`on_elided`.  ``wake_time`` must lie on the timer's
        expiry alignment.  The owner's other wake triggers may still
        :meth:`unpark` earlier.
        """
        if not self._running or self._parked_next is not None:
            return
        event = self._event
        next_expiry = self._next_expiry_of(event)
        if (wake_time - next_expiry) % self._period:
            raise SimulationError(
                f"park_until wake {wake_time} is off the expiry alignment"
            )
        if wake_time < next_expiry:
            raise SimulationError("park_until wake must not precede the "
                                  "next expiry")
        self._parked_next = next_expiry
        event.cancel()
        self._event = self._engine.schedule_periodic(
            wake_time, self._period, self._deadline_fire,
            priority=PRIORITY_TIMER,
        )

    def _deadline_fire(self) -> None:
        """The :meth:`park_until` wake expiry: credit elided ticks, sample."""
        next_expiry = self._parked_next
        self._parked_next = None
        # Subsequent re-arms of this event fire the regular callback.
        self._event.callback = self._callback
        now = self._engine.now
        if next_expiry is not None and next_expiry < now:
            elided = -((next_expiry - now) // self._period)
            if elided and self.on_elided is not None:
                self.on_elided(elided, next_expiry + (elided - 1) * self._period)
        self._callback()

    def unpark(self) -> tuple[int, int | None]:
        """Resume expiries on the original alignment after a :meth:`park`.

        Returns ``(elided, last_elided_time)``: how many expiries were
        skipped while parked and the timestamp of the last one (None when
        none were).  An expiry at exactly ``now`` counts as elided only if
        it would have fired *before* the event currently being dispatched
        (timer priority beats the running event's priority), which is
        exactly when the un-parked original would already have consumed it.
        """
        if not self._running or self._parked_next is None:
            return (0, None)
        if self._event is not None:
            # A park_until deadline is still armed; cancel it — the timer
            # resumes normal expiries from here.
            self._event.cancel()
            self._event = None
        engine = self._engine
        now = engine.now
        period = self._period
        next_expiry = self._parked_next
        self._parked_next = None
        elided = 0
        if next_expiry < now:
            elided = -((next_expiry - now) // period)  # ceil((now - next)/p)
            next_expiry += elided * period
        if next_expiry == now:
            firing = engine.firing_priority
            if firing is not None and firing > PRIORITY_TIMER:
                elided += 1
                next_expiry += period
        self._event = engine.schedule_periodic(
            next_expiry, period, self._callback, priority=PRIORITY_TIMER
        )
        if elided:
            return (elided, next_expiry - period)
        return (0, None)
