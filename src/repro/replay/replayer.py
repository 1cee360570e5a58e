"""The replay agent.

ANDROID's ``sendevent`` is "very basic and does not provide enough
functionality and performance to replay our recorded event trace
accurately" (paper §II-B2), so the authors wrote their own agent; this is
that agent for the simulated device: it knows the recorded trace and
injects every event into the input subsystem at its exact timestamp.

The agent keeps one *cursor* event on the engine queue instead of the whole
trace: the cursor injects the next input and re-arms itself at the one
after it.  The queue therefore holds O(1) entries per replay rather than
one per recorded input, and every push and pop sifts through a heap that
is a few levels deep instead of ~10.  Ordering is unchanged: inputs are
the only :data:`~repro.core.engine.PRIORITY_INPUT` events in a replay and
the trace is time-ordered, so same-timestamp inputs still fire in trace
order, ahead of everything else at that time, and one ``seq`` is still
drawn per input.
"""

from __future__ import annotations

from repro.core.engine import PRIORITY_INPUT, Engine, ScheduledEvent
from repro.core.errors import ReplayError
from repro.core.events import InputEvent
from repro.device.input_device import InputSubsystem
from repro.replay.trace import EventTrace


class ReplayAgent:
    """Replays an event trace with accurate timings."""

    def __init__(self, engine: Engine, subsystem: InputSubsystem) -> None:
        self._engine = engine
        self._subsystem = subsystem
        self.events_injected = 0
        self._events: list[InputEvent] = []
        self._next = 0
        self._cursor: ScheduledEvent | None = None

    def schedule(self, trace: EventTrace) -> int:
        """Arm injection of every event; returns the last event's time.

        An empty trace arms nothing and returns the current time.
        """
        if self._cursor is not None:
            raise ReplayError("replay agent is already replaying a trace")
        engine = self._engine
        now = engine.now
        if not trace.events:
            return now
        # EventTrace keeps its events time-ordered, so only the first one
        # can be in the past.  Copied, so later appends to ``trace`` do not
        # leak into this replay.
        if trace.events[0].timestamp < now:
            raise ReplayError(
                f"event at {trace.events[0].timestamp} would fire in the past"
            )
        events = list(trace.events)
        self._events = events
        self._next = 0
        self._cursor = engine.schedule_at(
            events[0].timestamp, self._fire, priority=PRIORITY_INPUT
        )
        return events[-1].timestamp

    def _fire(self) -> None:
        """Inject the next input, then move the cursor to the one after."""
        events = self._events
        index = self._next
        # Through the attribute, not inlined: the demand recorder replaces
        # ``_inject`` per agent to attribute demand to input ordinals.
        self._inject(events[index])
        index += 1
        if index < len(events):
            self._next = index
            self._engine.rearm(self._cursor, events[index].timestamp)
        else:
            self._cursor = None
            self._events = []

    def _inject(self, event) -> None:
        self.events_injected += 1
        self._subsystem.emit(event)
