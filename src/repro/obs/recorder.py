"""The divergence flight recorder.

A :class:`FlightRecorder` is a bounded ring buffer of *semantic* kernel
events — cpufreq OPP transitions, frame compositions, matched gesture
windows — the events that are guaranteed bit-identical between the fast
and slow paths (``REPRO_FASTPATH`` A/B).  Mode-specific
bookkeeping (timer parking, tick elision) is deliberately *not*
recorded: the recorder's entire purpose is to compare two runs that
should agree, so it only records what must agree.

When a golden A/B test finds a digest mismatch, two recorders (one per
mode) turn the useless "digests differ" into a report naming the first
event where the kernels diverged: :func:`divergence_report`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

DEFAULT_CAPACITY = 65_536


@dataclass(frozen=True, slots=True)
class RecordedEvent:
    """One semantic kernel event: global index, sim time, what happened."""

    seq: int
    ts: int
    category: str
    label: str

    def describe(self) -> str:
        return f"#{self.seq} t={self.ts}us {self.category}: {self.label}"


class FlightRecorder:
    """Bounded ring of recent semantic kernel events."""

    __slots__ = ("_events", "_seq", "capacity")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._events: deque[RecordedEvent] = deque(maxlen=capacity)
        self._seq = 0

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (>= ``len(events())`` once the ring wraps)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events scrolled out of the bounded ring."""
        return self._seq - len(self._events)

    def record(self, ts: int, category: str, label: str) -> None:
        self._events.append(RecordedEvent(self._seq, ts, category, label))
        self._seq += 1

    def events(self) -> list[RecordedEvent]:
        return list(self._events)


def first_divergence(
    a: "FlightRecorder | list[RecordedEvent]",
    b: "FlightRecorder | list[RecordedEvent]",
) -> tuple[RecordedEvent | None, RecordedEvent | None] | None:
    """The first position where the two event streams disagree.

    Events align by their global ``seq``; comparison starts at the first
    seq still held by *both* rings.  Returns ``None`` when the
    comparable windows agree (including in length), else a pair
    ``(event_a, event_b)`` where either side is ``None`` if that stream
    ended early.
    """
    events_a = a.events() if isinstance(a, FlightRecorder) else list(a)
    events_b = b.events() if isinstance(b, FlightRecorder) else list(b)
    start_a = events_a[0].seq if events_a else 0
    start_b = events_b[0].seq if events_b else 0
    start = max(start_a, start_b)
    tail_a = [event for event in events_a if event.seq >= start]
    tail_b = [event for event in events_b if event.seq >= start]
    for event_a, event_b in zip(tail_a, tail_b):
        if (event_a.ts, event_a.category, event_a.label) != (
            event_b.ts,
            event_b.category,
            event_b.label,
        ):
            return (event_a, event_b)
    if len(tail_a) != len(tail_b):
        longer_a = len(tail_a) > len(tail_b)
        extra = tail_a[len(tail_b)] if longer_a else tail_b[len(tail_a)]
        return (extra, None) if longer_a else (None, extra)
    return None


def divergence_report(
    a: "FlightRecorder | list[RecordedEvent]",
    b: "FlightRecorder | list[RecordedEvent]",
    label_a: str = "a",
    label_b: str = "b",
    context: int = 5,
) -> str:
    """A human-readable first-diverging-event report.

    The report names the first diverging event on each side, shows up to
    ``context`` preceding events both sides agree on, and flags when the
    bounded rings scrolled past potentially earlier divergence.
    """
    recorder_a = a if isinstance(a, FlightRecorder) else None
    recorder_b = b if isinstance(b, FlightRecorder) else None
    events_a = a.events() if recorder_a is not None else list(a)
    events_b = b.events() if recorder_b is not None else list(b)
    divergence = first_divergence(events_a, events_b)
    lines = [f"flight recorder: {label_a} vs {label_b}"]
    counts = (
        f"  events recorded: {label_a}={len(events_a)} "
        f"{label_b}={len(events_b)}"
    )
    lines.append(counts)
    for label, recorder in ((label_a, recorder_a), (label_b, recorder_b)):
        if recorder is not None and recorder.dropped:
            lines.append(
                f"  NOTE: {label} ring dropped {recorder.dropped} earlier "
                "event(s); an earlier divergence may have scrolled out"
            )
    if divergence is None:
        lines.append("  no divergence within the comparable window")
        return "\n".join(lines)
    event_a, event_b = divergence
    diverging_seq = (event_a or event_b).seq
    agreeing = [event for event in events_a if event.seq < diverging_seq]
    if agreeing:
        lines.append(f"  last {min(context, len(agreeing))} agreeing event(s):")
        for event in agreeing[-context:]:
            lines.append(f"    {event.describe()}")
    lines.append("  FIRST DIVERGING EVENT:")
    lines.append(
        f"    {label_a}: "
        + (event_a.describe() if event_a is not None else "<stream ended>")
    )
    lines.append(
        f"    {label_b}: "
        + (event_b.describe() if event_b is not None else "<stream ended>")
    )
    return "\n".join(lines)
