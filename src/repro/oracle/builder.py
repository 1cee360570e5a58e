"""Composing the oracle from fixed-frequency executions (paper §III-B).

"We then use the traces of all fixed frequency workload executions to
compose an optimal frequency trace (oracle) that uses the least amount of
energy possible without irritating the user. … To construct the oracle we
pick the lowest frequency and corresponding load for each lag that is
still below the chosen irritation threshold … we set the irritation
threshold to 110% of what the fastest frequency could achieve.  For each
interval in a workload where there is no lag, we pick the frequency and
corresponding load that had the lowest overall energy consumption for the
complete workload."
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.analysis.lagprofile import LagProfile
from repro.device.frequencies import FrequencyTable
from repro.device.power import PowerModel
from repro.metrics.irritation import IrritationResult, irritation
from repro.oracle.profile import FrequencyProfile, ProfileSegment

DEFAULT_SLACK = 1.10  # "the user does not notice a 10% difference"

# Lag lengths are measured from 30 fps video, so durations are quantized
# to ~33 ms frames; a deadline within one frame of the fastest measurement
# is not distinguishable.  The paper's measurements carry the same
# granularity.
FRAME_QUANTUM_US = 34_000


class BusyTimeline:
    """Sorted busy intervals with O(log n) busy-time window queries.

    Accepts any iterable of ``(start, end)`` pairs — a plain list or the
    device accumulators' compact :class:`~repro.results.IntPairs` — and
    stores starts, ends and the prefix sum as ``array('q')`` buffers (an
    ``IntPairs``' own columns are shared, not copied), so a day-long
    run's half-million intervals cost 24 bytes each instead of three
    boxed-int lists.  Validation and the prefix sum are a few
    vectorised numpy passes, not a Python loop over every interval.
    """

    def __init__(self, intervals) -> None:
        from array import array

        import numpy as np

        from repro.results.pairs import IntPairs

        if isinstance(intervals, IntPairs):
            starts = intervals.firsts()
            ends = intervals.seconds()
        else:
            starts = array("q", (s for s, _ in intervals))
            ends = array("q", (e for _, e in intervals))
        start_col = np.frombuffer(starts, dtype=np.int64)
        end_col = np.frombuffer(ends, dtype=np.int64)
        inverted = end_col < start_col
        # Each start against the previous end; -1 before the first.
        previous_end = np.concatenate(([-1], end_col[:-1]))
        offending = inverted | (start_col < previous_end)
        if offending.any():
            first = int(offending.argmax())
            if inverted[first]:
                raise ReproError(
                    f"busy interval ({starts[first]}, {ends[first]}) is inverted"
                )
            raise ReproError("busy intervals overlap or are unsorted")
        prefix = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(end_col - start_col, out=prefix[1:])
        self._starts = starts
        self._ends = ends
        self._prefix = array("q", prefix.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BusyTimeline):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __hash__(self) -> int:
        return hash((tuple(self._starts), tuple(self._ends)))

    def busy_in(self, window_start: int, window_end: int) -> int:
        """Busy microseconds inside ``[window_start, window_end)``."""
        if window_end <= window_start:
            return 0
        lo = bisect.bisect_right(self._ends, window_start)
        hi = bisect.bisect_left(self._starts, window_end)
        if lo >= hi:
            return 0
        total = self._prefix[hi] - self._prefix[lo]
        # Trim the partially-overlapping boundary intervals.
        total -= max(0, window_start - self._starts[lo])
        total -= max(0, self._ends[hi - 1] - window_end)
        return max(0, total)


@dataclass(frozen=True, slots=True)
class OracleLag:
    """Per-lag oracle decision."""

    label: str
    category: str
    begin_us: int
    chosen_khz: int
    duration_us: int
    fastest_duration_us: int
    deadline_us: int
    threshold_us: int


@dataclass(frozen=True, slots=True)
class OracleResult:
    """The composed oracle: frequency profile, energy and irritation."""

    profile: FrequencyProfile
    energy_j: float
    base_khz: int
    lags: tuple[OracleLag, ...]

    def irritation(self) -> IrritationResult:
        """Oracle irritation vs the user-set (HCI) thresholds."""
        return irritation(
            [(lag.label, lag.duration_us, lag.threshold_us) for lag in self.lags]
        )


def build_oracle(
    fixed_profiles: dict[int, LagProfile],
    fixed_busy: dict[int, BusyTimeline],
    fixed_energy_j: dict[int, float],
    duration_us: int,
    table: FrequencyTable,
    power_model: PowerModel,
    slack: float = DEFAULT_SLACK,
) -> OracleResult:
    """Compose the oracle from the 14 fixed-frequency executions.

    Args:
        fixed_profiles: matcher lag profile per fixed frequency.
        fixed_busy: busy timeline per fixed frequency (for energy).
        fixed_energy_j: measured total energy per fixed frequency.
        duration_us: common run duration.
        table: the OPP table.
        power_model: the calibrated power model.
        slack: deadline factor over the fastest frequency (1.10).
    """
    freqs = sorted(fixed_profiles)
    if set(freqs) != set(table.frequencies_khz):
        raise ReproError("need a lag profile for every operating point")
    if set(fixed_busy) != set(freqs) or set(fixed_energy_j) != set(freqs):
        raise ReproError("need busy timelines and energies for every OPP")
    fastest = freqs[-1]
    lag_count = len(fixed_profiles[fastest])
    for freq in freqs:
        if len(fixed_profiles[freq]) != lag_count:
            raise ReproError(
                f"profile at {freq} kHz has a different lag count; "
                "all runs must replay the same workload"
            )

    # Non-lag frequency: lowest total energy over the whole workload.
    base_khz = min(freqs, key=lambda f: fixed_energy_j[f])

    # Per-lag frequency: lowest meeting 110% of the fastest duration.
    oracle_lags: list[OracleLag] = []
    for index in range(lag_count):
        fastest_lag = fixed_profiles[fastest].lags[index]
        deadline = max(
            int(fastest_lag.duration_us * slack),
            fastest_lag.duration_us + FRAME_QUANTUM_US,
        )
        if fastest_lag.duration_us <= fastest_lag.threshold_us:
            # "The least amount of energy possible without irritating the
            # user": when the fastest frequency meets the user's threshold,
            # the oracle must too.
            deadline = min(deadline, fastest_lag.threshold_us)
        chosen = fastest
        chosen_duration = fastest_lag.duration_us
        for freq in freqs:
            duration = fixed_profiles[freq].lags[index].duration_us
            if duration <= deadline:
                chosen = freq
                chosen_duration = duration
                break
        oracle_lags.append(
            OracleLag(
                label=fastest_lag.label,
                category=fastest_lag.category,
                begin_us=fastest_lag.begin_time_us,
                chosen_khz=chosen,
                duration_us=chosen_duration,
                fastest_duration_us=fastest_lag.duration_us,
                deadline_us=deadline,
                threshold_us=fastest_lag.threshold_us,
            )
        )

    profile = _compose_profile(oracle_lags, base_khz, duration_us)
    base_lag_windows = [
        (lag.begin_time_us, lag.begin_time_us + lag.duration_us)
        for lag in fixed_profiles[base_khz].lags
    ]
    energy = _compose_energy(
        profile, fixed_busy, table, power_model, base_khz, base_lag_windows
    )
    return OracleResult(
        profile=profile,
        energy_j=energy,
        base_khz=base_khz,
        lags=tuple(oracle_lags),
    )


def _compose_profile(
    lags: list[OracleLag], base_khz: int, duration_us: int
) -> FrequencyProfile:
    segments: list[ProfileSegment] = []
    cursor = 0
    for lag in sorted(lags, key=lambda l: l.begin_us):
        start = max(cursor, lag.begin_us)
        end = min(duration_us, lag.begin_us + lag.duration_us)
        if start > cursor:
            segments.append(ProfileSegment(cursor, start, base_khz))
        if end > start:
            segments.append(ProfileSegment(start, end, lag.chosen_khz))
            cursor = end
    if cursor < duration_us:
        segments.append(ProfileSegment(cursor, duration_us, base_khz))
    return FrequencyProfile(segments)


def _compose_energy(
    profile: FrequencyProfile,
    fixed_busy: dict[int, BusyTimeline],
    table: FrequencyTable,
    power_model: PowerModel,
    base_khz: int,
    base_lag_windows: list[tuple[int, int]],
) -> float:
    """Integrate *dynamic* power over the composed profile.

    Each segment draws its busy time from the fixed-frequency run that the
    oracle assigns there — "the lowest frequency and corresponding load" —
    so race-to-idle is accounted faithfully.  Like the paper's model, only
    dynamic core power (active minus idle) is charged.

    Base segments exclude the base run's busy time inside its *own* lag
    windows: that interaction work is already charged by the chosen-
    frequency lag segments, and counting it twice would inflate the
    oracle (the base run services lags slower than the chosen runs do).
    The profile's segments are in time order, so one sweep over the
    windows sorted by start visits each window only while it can still
    overlap a base segment, instead of every window per segment.
    """
    energy = 0.0
    idle_w = power_model.idle_power()
    windows = sorted(base_lag_windows)
    next_window = 0
    open_windows: list[tuple[int, int]] = []
    for segment in profile.segments:
        point = table.point(segment.freq_khz)
        timeline = fixed_busy[segment.freq_khz]
        busy_us = timeline.busy_in(segment.start_us, segment.end_us)
        if segment.freq_khz == base_khz:
            start, end = segment.start_us, segment.end_us
            while next_window < len(windows) and windows[next_window][0] < end:
                open_windows.append(windows[next_window])
                next_window += 1
            # A window ending by this segment's start overlaps no later one.
            open_windows = [w for w in open_windows if w[1] > start]
            for lag_start, lag_end in open_windows:
                lo = max(start, lag_start)
                hi = min(end, lag_end)
                if hi > lo:
                    busy_us -= timeline.busy_in(lo, hi)
            busy_us = max(0, busy_us)
        dynamic_w = power_model.active_power(point.freq_khz, point.volts) - idle_w
        energy += busy_us * dynamic_w / 1e6
    return energy
