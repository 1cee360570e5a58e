"""cpufreq core: the policy object governors drive.

Mirrors the Linux cpufreq split: the *policy* owns frequency limits,
validates and clamps targets, applies them to the core and keeps the
transition trace that the experiment harness later overlays with lag
profiles (the paper's Fig. 3).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Callable

from repro.core.errors import GovernorError
from repro.core.simtime import SimClock
from repro.device.cpu import CpuCore
from repro.obs.session import active as _obs_active

# Relation semantics from the Linux cpufreq API.
RELATION_LOW = "low"  # highest frequency <= target
RELATION_HIGH = "high"  # lowest frequency >= target


class CpuFreqPolicy:
    """Frequency limits + target application for one core."""

    def __init__(
        self,
        clock: SimClock,
        core: CpuCore,
        min_khz: int | None = None,
        max_khz: int | None = None,
    ) -> None:
        table = core.table
        self._clock = clock
        self._core = core
        self._table = table
        self._min_khz = table.ceil(min_khz) if min_khz else table.min_khz
        self._max_khz = table.floor(max_khz) if max_khz else table.max_khz
        if self._min_khz > self._max_khz:
            raise GovernorError(
                f"policy min {self._min_khz} above max {self._max_khz}"
            )
        # The trace accumulates as two parallel int64 arrays (timestamps
        # for bisect, frequencies alongside): governor-heavy day-long
        # replays log hundreds of thousands of transitions, and boxed
        # tuples would dominate the run's memory and the set_target path.
        self._trans_times: array = array("q", [clock.now])
        self._trans_freqs: array = array("q", [core.frequency_khz])
        self._observers: list[Callable[[int, int], None]] = []
        self._obs = _obs_active()

    @property
    def core(self) -> CpuCore:
        return self._core

    @property
    def min_khz(self) -> int:
        return self._min_khz

    @property
    def max_khz(self) -> int:
        return self._max_khz

    @property
    def current_khz(self) -> int:
        return self._core._freq_khz  # flattened: hot in governor samples

    def transition_points(self):
        """The trace as compact :class:`~repro.results.IntPairs` — the
        form the run record stores (16 bytes per transition)."""
        from repro.results.pairs import IntPairs

        return IntPairs.from_arrays(
            array("q", self._trans_times), array("q", self._trans_freqs)
        )

    def add_transition_observer(
        self, observer: Callable[[int, int], None]
    ) -> None:
        """Register ``observer(timestamp, freq_khz)`` for every transition."""
        self._observers.append(observer)

    def clamp(self, freq_khz: int) -> int:
        """Clamp a raw target into the policy limits."""
        if freq_khz < self._min_khz:
            return self._min_khz
        if freq_khz > self._max_khz:
            return self._max_khz
        return freq_khz

    def set_target(self, freq_khz: int, relation: str = RELATION_LOW) -> int:
        """Resolve a target against the OPP table and apply it.

        Returns the frequency actually set.
        """
        min_khz = self._min_khz
        max_khz = self._max_khz
        clamped = freq_khz
        if clamped < min_khz:
            clamped = min_khz
        elif clamped > max_khz:
            clamped = max_khz
        if relation == RELATION_LOW:
            resolved = self._table.floor(clamped)
        elif relation == RELATION_HIGH:
            resolved = self._table.ceil(clamped)
        else:
            raise GovernorError(f"unknown relation {relation!r}")
        if resolved < min_khz:
            resolved = min_khz
        elif resolved > max_khz:
            resolved = max_khz
        core = self._core
        if resolved != core._freq_khz:
            core.set_frequency(resolved)
            timestamp = self._clock._now
            self._trans_times.append(timestamp)
            self._trans_freqs.append(resolved)
            obs = self._obs
            if obs is not None:
                obs.freq_transition(timestamp, resolved)
            for observer in self._observers:
                observer(timestamp, resolved)
        return resolved

    def frequency_at(self, timestamp: int) -> int:
        """Frequency in force at ``timestamp`` according to the trace.

        O(log n) bisect over the transition timestamps; callers that walk
        a whole run (oracle profiles, energy overlays) stay linear overall
        instead of quadratic in the transition count.
        """
        index = bisect_right(self._trans_times, timestamp)
        if index == 0:
            return self._trans_freqs[0]
        return self._trans_freqs[index - 1]
