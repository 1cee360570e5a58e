"""Per-sample CPU load computation.

Linux cpufreq governors sample the fraction of wall time the core spent
non-idle since the previous sample.  The tracker wraps the core's cumulative
busy counter and turns it into the 0-100 load percentage the governor state
machines consume.
"""

from __future__ import annotations

from repro.core.simtime import SimClock
from repro.device.cpu import CpuCore


class LoadTracker:
    """Computes load over the window since the previous sample."""

    __slots__ = ("_clock", "_core", "_last_time", "_last_busy")

    def __init__(self, clock: SimClock, core: CpuCore) -> None:
        self._clock = clock
        self._core = core
        self._last_time = clock.now
        self._last_busy = core.busy_time_total()

    def sample(self) -> int:
        """Load percentage (0-100) since the last call, then reset."""
        now = self._clock._now
        # Inlined CpuCore.busy_time_total: this runs once per governor
        # sample window, the single hottest call site in a replay.
        core = self._core
        busy = core._busy_total
        if core._busy and core._busy_since is not None:
            busy += now - core._busy_since
        window = now - self._last_time
        busy_delta = busy - self._last_busy
        self._last_time = now
        self._last_busy = busy
        if window <= 0:
            return 100 if core._busy else 0
        load = round(100 * busy_delta / window)
        return max(0, min(100, load))

    def fast_forward(self, timestamp: int) -> None:
        """Reset the window as if a sample had run at ``timestamp``.

        Used by the governors' fast path: when a parked sampling timer
        wakes up, the window must start at the last elided tick — exactly
        where a real (no-op) sample would have left it.  A timer parks
        only while the core idles, so no busy time accrued since that
        tick and the current busy counter is the one it would have read.
        """
        self._last_time = timestamp
        self._last_busy = self._core.busy_time_total()
