"""Integer-microsecond time base.

All simulation timestamps are integer microseconds since the start of the
simulation.  Integers avoid the floating-point drift that would otherwise
desynchronise replayed input timings from vsync boundaries over a 24-hour
workload (86.4e9 microseconds still fits comfortably in a Python int).
"""

from __future__ import annotations

MICROS_PER_MILLI = 1_000
MICROS_PER_SECOND = 1_000_000
MICROS_PER_MINUTE = 60 * MICROS_PER_SECOND
MICROS_PER_HOUR = 60 * MICROS_PER_MINUTE


def millis(value: float) -> int:
    """Convert milliseconds to integer microseconds."""
    return int(round(value * MICROS_PER_MILLI))


def seconds(value: float) -> int:
    """Convert seconds to integer microseconds."""
    return int(round(value * MICROS_PER_SECOND))


def minutes(value: float) -> int:
    """Convert minutes to integer microseconds."""
    return int(round(value * MICROS_PER_MINUTE))


def hours(value: float) -> int:
    """Convert hours to integer microseconds."""
    return int(round(value * MICROS_PER_HOUR))


def to_millis(timestamp: int) -> float:
    """Express an integer-microsecond timestamp in milliseconds."""
    return timestamp / MICROS_PER_MILLI


def to_seconds(timestamp: int) -> float:
    """Express an integer-microsecond timestamp in seconds."""
    return timestamp / MICROS_PER_SECOND


class SimClock:
    """Monotonic simulation clock owned by the engine.

    The clock only moves forward; the engine advances it as events fire.
    Components hold a reference to the clock rather than to the engine when
    they only need to read the current time.
    """

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        self._now = int(start)

    @property
    def now(self) -> int:
        """Current simulation time in microseconds."""
        return self._now

    def advance_to(self, timestamp: int) -> None:
        """Move the clock forward to ``timestamp``.

        Raises:
            ValueError: if ``timestamp`` is in the past.
        """
        if timestamp < self._now:
            raise ValueError(
                f"clock cannot move backwards: {timestamp} < {self._now}"
            )
        self._now = timestamp
