"""The single active CPU core.

The paper disables all but one core of the quad-core Snapdragon 8074 to
reduce load-balancing noise; we model that single core.  The core tracks
busy/idle state, cycle throughput at the current frequency, per-frequency
residency (the ``/sys`` cpufreq ``time_in_state`` equivalent) and the
energy drawn.  Task execution itself lives in :mod:`repro.kernel.scheduler`;
the core is the mechanism, the scheduler the policy.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Callable

from repro.core.errors import SimulationError
from repro.core.simtime import SimClock
from repro.device.frequencies import FrequencyTable
from repro.device.power import EnergyMeter, PowerModel


class CpuCore:
    """One core with DVFS, busy accounting and energy metering."""

    def __init__(
        self,
        clock: SimClock,
        table: FrequencyTable,
        power_model: PowerModel | None = None,
    ) -> None:
        self._clock = clock
        self._table = table
        self._power_model = power_model or PowerModel()
        self._meter = EnergyMeter(self._power_model, table)
        self._freq_khz = table.min_khz
        self._busy = False
        self._busy_since: int | None = None
        self._busy_total = 0
        self._state_since = 0
        self._time_in_state: dict[int, int] = defaultdict(int)
        # Busy intervals accumulate as two parallel int64 arrays (16 B per
        # interval): a day-long replay logs ~half a million of them, and
        # boxed (start, end) tuples would dominate the run's memory.
        self._busy_starts: array | None = None
        self._busy_ends: array | None = None
        self._busy_listeners: list[Callable[[], None]] = []

    # --- read-side properties -------------------------------------------------

    @property
    def table(self) -> FrequencyTable:
        return self._table

    @property
    def power_model(self) -> PowerModel:
        return self._power_model

    @property
    def frequency_khz(self) -> int:
        return self._freq_khz

    @property
    def busy(self) -> bool:
        return self._busy

    def add_busy_listener(self, listener: Callable[[], None]) -> None:
        """``listener`` fires on every idle-to-busy transition.

        The governors' idle fast path uses this as its wake signal: a
        parked sampling timer must resume before the first sample window
        that could observe non-zero load.
        """
        self._busy_listeners.append(listener)

    def busy_time_total(self) -> int:
        """Cumulative busy microseconds, including the open interval."""
        total = self._busy_total
        if self._busy and self._busy_since is not None:
            total += self._clock._now - self._busy_since
        return total

    def time_in_state(self) -> dict[int, int]:
        """Residency per frequency in microseconds, including open interval."""
        result = dict(self._time_in_state)
        result[self._freq_khz] = result.get(self._freq_khz, 0) + (
            self._clock.now - self._state_since
        )
        return result

    def energy_joules(self) -> float:
        """Energy consumed up to the current simulation time."""
        return self._meter.energy_at(self._clock._now)

    def dynamic_energy_joules(self) -> float:
        """Energy above the idle floor — the paper's energy metric.

        The paper's power model subtracts idle system power and charges
        only dynamic core power against the frequency-load profile; the
        equivalent here is busy-time energy minus the idle power the same
        interval would have cost anyway.
        """
        busy_s = self.busy_time_total() / 1e6
        busy_energy = self._meter.busy_energy_at(self._clock._now)
        return busy_energy - self._power_model.idle_power() * busy_s

    def enable_busy_trace(self) -> None:
        """Record (start, end) busy intervals for oracle composition."""
        if self._busy_starts is None:
            self._busy_starts = array("q")
            self._busy_ends = array("q")

    def busy_pairs(self):
        """The recorded intervals as compact :class:`~repro.results.
        IntPairs`, closing any open interval at 'now' — the O(1)-boxing
        form the run record stores."""
        from repro.results.pairs import IntPairs

        if self._busy_starts is None:
            raise SimulationError("busy trace was not enabled on this core")
        starts = array("q", self._busy_starts)
        ends = array("q", self._busy_ends)
        if self._busy and self._busy_since is not None:
            if self._clock.now > self._busy_since:
                starts.append(self._busy_since)
                ends.append(self._clock.now)
        return IntPairs.from_arrays(starts, ends)

    # --- state changes ----------------------------------------------------------

    def set_frequency(self, freq_khz: int) -> None:
        """Switch the core to a new operating point.

        The caller (the cpufreq policy) is responsible for validating the
        target against policy limits; the core only requires it to be a
        real OPP.
        """
        if not self._table.contains(freq_khz):
            raise SimulationError(f"{freq_khz} kHz is not an operating point")
        if freq_khz == self._freq_khz:
            return
        now = self._clock._now
        if self._busy:
            # Close the open busy interval at the old frequency's rate.
            since = self._busy_since
            elapsed = now - since
            self._busy_total += elapsed
            if self._busy_starts is not None and elapsed > 0:
                self._busy_starts.append(since)
                self._busy_ends.append(now)
            self._busy_since = now
        self._time_in_state[self._freq_khz] += now - self._state_since
        self._state_since = now
        self._freq_khz = freq_khz
        self._meter.set_state(now, self._busy, freq_khz)

    def set_busy(self, busy: bool) -> None:
        """Mark the core as executing (True) or idle (False).

        One busy edge: the meter charges the energy drawn since the last
        state change and switches the draw, then the busy interval opens
        or closes.  Runs twice per task.
        """
        if busy == self._busy:
            return
        now = self._clock._now
        self._meter.set_state(now, busy, self._freq_khz)
        if busy:
            self._busy = True
            self._busy_since = now
            if self._busy_listeners:
                for listener in self._busy_listeners:
                    listener()
        else:
            since = self._busy_since
            elapsed = now - since
            self._busy_total += elapsed
            if self._busy_starts is not None and elapsed > 0:
                self._busy_starts.append(since)
                self._busy_ends.append(now)
            self._busy = False
            self._busy_since = None
