"""The attribution engine: decompose every lag window into named causes.

Given one run's :class:`~repro.results.RunRecord` (frequency transitions,
busy intervals, lag windows) plus the input-boost timestamps collected by
the run's :class:`~repro.obs.session.DecisionLog`, the engine partitions
each lag window ``[t0, t1)`` into contiguous cause segments and
apportions the window's irritation penalty over those causes *exactly*
(largest-remainder rounding), so per-cause irritation sums reconstruct
the run total to the microsecond.

Mode invariance
---------------

Everything the engine consumes is invariant across the fastpath
(``REPRO_FASTPATH``) kill switch:
frequency transitions and busy intervals are stored whole on the record
and proven bit-identical by the golden A/B tests, input boosts fire from
the input path at identical simulation times, and lag windows are the
matcher's output.  Park spans and load samples are deliberately *not*
inputs — they exist only on one side of the A/B.  ``trace-diff`` of a
fastpath trace against its ``REPRO_FASTPATH=0`` twin therefore reports
zero causally-diverging windows.

Per-window rules (each microsecond gets exactly one cause):

1. ``compositor_backlog`` — the tail after the core's last busy span in
   the window (the whole window when the core never ran).
2. Before the governor's first reaction (the first input boost or the
   first frequency *rise*): ``late_boost`` if a boost reacted first,
   ``park_wake`` if a sampling-tick decision did.
3. After the reaction, below the window's peak OPP: ``slow_ramp`` while
   busy; while idle, ``settle_hold`` if the governor dropped the
   frequency mid-window and has not recovered, else ``stale_load``.
4. At the peak OPP: ``at_speed`` — intrinsic service time.

Rule order is priority order; a window at its peak OPP from the start
has no reaction latency at all.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.analysis.lagprofile import CauseBreakdown, LagMeasurement, LagProfile
from repro.obs.attribution.causes import (
    CAUSE_AT_SPEED,
    CAUSE_COMPOSITOR,
    CAUSE_LATE_BOOST,
    CAUSE_PARK_WAKE,
    CAUSE_SETTLE_HOLD,
    CAUSE_SLOW_RAMP,
    CAUSE_STALE_LOAD,
    CAUSE_UNATTRIBUTED,
    CAUSES,
    cause_order_key,
)

#: Version of the ``attribution`` summary layout inside the RunRecord
#: ``obs`` section.  Self-versioned like the section that carries it.
ATTRIBUTION_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class WindowAttribution:
    """One lag window's exhaustive cause decomposition."""

    lag_index: int
    gesture_index: int
    label: str
    category: str
    begin_us: int
    duration_us: int
    threshold_us: int
    penalty_us: int
    #: Microseconds from window open to the governor's first reaction.
    reaction_us: int
    #: The window's peak OPP — the best the governor ever offered it.
    ceiling_khz: int
    #: Contiguous ``(start_us, end_us, cause)`` segments covering the
    #: window exactly, in time order.
    segments: tuple[tuple[int, int, str], ...]
    #: ``(cause, us)`` partition of ``duration_us``, cause order.
    window_by_cause: tuple[tuple[str, int], ...]
    #: ``(cause, us)`` partition of ``penalty_us``, cause order; sums to
    #: ``penalty_us`` exactly.
    penalty_by_cause: tuple[tuple[str, int], ...]

    @property
    def dominant_cause(self) -> str | None:
        """The cause carrying the most penalty (cause order wins ties)."""
        winner: str | None = None
        best = 0
        for cause, us in self.penalty_by_cause:
            if us > best:
                best = us
                winner = cause
        return winner

    def breakdown(self) -> CauseBreakdown:
        """The profile-attachable form (:meth:`LagProfile.with_attribution`)."""
        return CauseBreakdown(
            lag_index=self.lag_index,
            window_by_cause=self.window_by_cause,
            penalty_by_cause=self.penalty_by_cause,
        )


@dataclass(frozen=True, slots=True)
class RunAttribution:
    """Per-run cause profile: every window attributed, totals exact."""

    workload: str
    config: str
    windows: tuple[WindowAttribution, ...]

    @property
    def total_penalty_us(self) -> int:
        return sum(window.penalty_us for window in self.windows)

    def per_cause_penalty_us(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for window in self.windows:
            for cause, us in window.penalty_by_cause:
                totals[cause] = totals.get(cause, 0) + us
        return totals

    def per_cause_window_us(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for window in self.windows:
            for cause, us in window.window_by_cause:
                totals[cause] = totals.get(cause, 0) + us
        return totals

    @property
    def unattributed_penalty_us(self) -> int:
        return self.per_cause_penalty_us().get(CAUSE_UNATTRIBUTED, 0)

    @property
    def dominant_cause(self) -> str | None:
        """The cause carrying the most run-total penalty."""
        totals = self.per_cause_penalty_us()
        candidates = [(cause, us) for cause, us in totals.items() if us > 0]
        if not candidates:
            return None
        return min(candidates, key=lambda item: (-item[1], cause_order_key(item[0])))[0]

    def breakdowns(self) -> tuple[CauseBreakdown, ...]:
        return tuple(window.breakdown() for window in self.windows)

    def attributed_profile(self) -> LagProfile:
        """A cause-carrying :class:`LagProfile` over this run's lags."""
        lags = tuple(
            LagMeasurement(
                lag_index=w.lag_index,
                gesture_index=w.gesture_index,
                label=w.label,
                category=w.category,
                begin_time_us=w.begin_us,
                end_frame=0,
                duration_us=w.duration_us,
                threshold_us=w.threshold_us,
            )
            for w in self.windows
        )
        return LagProfile(self.workload, lags).with_attribution(self.breakdowns())

    def summary(self) -> dict:
        """The JSON-safe form harvested into the ``obs`` record section."""
        per_penalty = self.per_cause_penalty_us()
        per_window = self.per_cause_window_us()
        return {
            "schema_version": ATTRIBUTION_SCHEMA_VERSION,
            "windows": len(self.windows),
            "total_penalty_us": self.total_penalty_us,
            "unattributed_penalty_us": self.unattributed_penalty_us,
            "per_cause_penalty_us": {
                cause: per_penalty[cause]
                for cause in CAUSES
                if per_penalty.get(cause)
            },
            "per_cause_window_us": {
                cause: per_window[cause]
                for cause in CAUSES
                if per_window.get(cause)
            },
            "dominant_cause": self.dominant_cause,
        }


def apportion_penalty(
    penalty_us: int, shares: list[tuple[str, int]]
) -> list[tuple[str, int]]:
    """Split ``penalty_us`` over ``shares`` proportionally and exactly.

    Largest-remainder rounding: every cause gets the floor of its
    proportional share, and the leftover microseconds go to the largest
    fractional remainders (ties broken by share order — cause taxonomy
    order by construction).  The returned amounts sum to ``penalty_us``
    exactly, which is what makes per-cause irritation reconstruct run
    totals to the microsecond.
    """
    if penalty_us <= 0:
        return []
    total = sum(us for _, us in shares)
    if total <= 0:
        return [(CAUSE_UNATTRIBUTED, penalty_us)]
    base: list[int] = []
    remainders: list[tuple[int, int]] = []
    for index, (_cause, us) in enumerate(shares):
        quotient, remainder = divmod(us * penalty_us, total)
        base.append(quotient)
        remainders.append((-remainder, index))
    leftover = penalty_us - sum(base)
    for _, index in sorted(remainders)[:leftover]:
        base[index] += 1
    return [
        (shares[index][0], base[index])
        for index in range(len(shares))
        if base[index]
    ]


def attribute_window(
    lag: LagMeasurement,
    freq_ts: list[int],
    freq_khz: list[int],
    busy_starts: list[int],
    busy_ends: list[int],
    boosts: list[int],
) -> WindowAttribution:
    """Attribute one lag window against the run's (sorted) event arrays."""
    t0 = lag.begin_time_us
    t1 = t0 + lag.duration_us
    penalty = max(0, lag.duration_us - lag.threshold_us)
    if t1 <= t0:
        return WindowAttribution(
            lag_index=lag.lag_index,
            gesture_index=lag.gesture_index,
            label=lag.label,
            category=lag.category,
            begin_us=t0,
            duration_us=lag.duration_us,
            threshold_us=lag.threshold_us,
            penalty_us=penalty,
            reaction_us=0,
            ceiling_khz=0,
            segments=(),
            window_by_cause=(),
            penalty_by_cause=(),
        )

    # Frequency steps inside the window: (ts, khz) with the entry value
    # first.  A transition at exactly t0 is the entry value.
    entry_index = bisect_right(freq_ts, t0) - 1
    entry_khz = 0
    if entry_index >= 0:
        entry_khz = freq_khz[entry_index]
    elif freq_khz:
        entry_khz = freq_khz[0]
    steps: list[tuple[int, int]] = [(t0, entry_khz)]
    for index in range(entry_index + 1, len(freq_ts)):
        if freq_ts[index] >= t1:
            break
        steps.append((freq_ts[index], freq_khz[index]))
    ceiling = max(khz for _, khz in steps)

    # The governor's first reaction: the first input boost in the
    # window, or the first frequency rise, whichever came first.  A
    # window already at its ceiling needed no reaction.
    first_rise: int | None = None
    for index in range(1, len(steps)):
        if steps[index][1] > steps[index - 1][1]:
            first_rise = steps[index][0]
            break
    first_boost: int | None = None
    boost_index = bisect_left(boosts, t0)
    if boost_index < len(boosts) and boosts[boost_index] < t1:
        first_boost = boosts[boost_index]
    if steps[0][1] >= ceiling:
        reaction_t = t0
        pre_cause = CAUSE_PARK_WAKE
    elif first_boost is not None and (
        first_rise is None or first_boost <= first_rise
    ):
        reaction_t = min(first_boost, t1)
        pre_cause = CAUSE_LATE_BOOST
    else:
        # ceiling > entry implies a rise exists inside the window.
        reaction_t = first_rise if first_rise is not None else t1
        pre_cause = CAUSE_PARK_WAKE

    # Busy spans clipped to the window; the tail after the last one is
    # the compositor-backlog stretch.
    spans: list[tuple[int, int]] = []
    span_index = bisect_right(busy_starts, t0) - 1
    if span_index >= 0 and busy_ends[span_index] > t0:
        spans.append((t0, min(busy_ends[span_index], t1)))
    for index in range(span_index + 1, len(busy_starts)):
        if busy_starts[index] >= t1:
            break
        spans.append(
            (max(busy_starts[index], t0), min(busy_ends[index], t1))
        )
    tail_start = spans[-1][1] if spans else t0

    # Elementary breakpoints: window edges, the reaction, the tail, every
    # frequency step, every busy edge.
    points = {t0, t1, tail_start}
    if t0 <= reaction_t <= t1:
        points.add(reaction_t)
    points.update(ts for ts, _ in steps)
    for start, end in spans:
        points.add(start)
        points.add(end)
    breakpoints = sorted(point for point in points if t0 <= point <= t1)

    segments: list[tuple[int, int, str]] = []
    step_cursor = 0
    span_cursor = 0
    dropped = False
    for index in range(len(breakpoints) - 1):
        a = breakpoints[index]
        b = breakpoints[index + 1]
        if b <= a:
            continue
        # Advance frequency state through a, tracking mid-window drops
        # (a drop "recovers" once the frequency is back at the ceiling).
        while step_cursor + 1 < len(steps) and steps[step_cursor + 1][0] <= a:
            step_cursor += 1
            if steps[step_cursor][1] < steps[step_cursor - 1][1]:
                dropped = True
            if steps[step_cursor][1] >= ceiling:
                dropped = False
        khz = steps[step_cursor][1]
        while span_cursor < len(spans) and spans[span_cursor][1] <= a:
            span_cursor += 1
        busy = (
            span_cursor < len(spans)
            and spans[span_cursor][0] <= a < spans[span_cursor][1]
        )
        if a >= tail_start:
            cause = CAUSE_COMPOSITOR
        elif a < reaction_t:
            cause = pre_cause
        elif khz >= ceiling:
            cause = CAUSE_AT_SPEED
        elif busy:
            cause = CAUSE_SLOW_RAMP
        elif dropped:
            cause = CAUSE_SETTLE_HOLD
        else:
            cause = CAUSE_STALE_LOAD
        if segments and segments[-1][2] == cause and segments[-1][1] == a:
            segments[-1] = (segments[-1][0], b, cause)
        else:
            segments.append((a, b, cause))

    totals: dict[str, int] = {}
    for start, end, cause in segments:
        totals[cause] = totals.get(cause, 0) + (end - start)
    covered = sum(totals.values())
    if covered < lag.duration_us:  # safety net; structurally unreachable
        totals[CAUSE_UNATTRIBUTED] = (
            totals.get(CAUSE_UNATTRIBUTED, 0) + lag.duration_us - covered
        )
    window_by_cause = tuple(
        (cause, totals[cause]) for cause in CAUSES if totals.get(cause)
    )
    penalty_by_cause = tuple(
        apportion_penalty(penalty, list(window_by_cause))
    )
    return WindowAttribution(
        lag_index=lag.lag_index,
        gesture_index=lag.gesture_index,
        label=lag.label,
        category=lag.category,
        begin_us=t0,
        duration_us=lag.duration_us,
        threshold_us=lag.threshold_us,
        penalty_us=penalty,
        reaction_us=max(0, reaction_t - t0),
        ceiling_khz=ceiling,
        segments=tuple(segments),
        window_by_cause=window_by_cause,
        penalty_by_cause=penalty_by_cause,
    )


def attribute_record(record, boosts=()) -> RunAttribution:
    """Attribute every lag window of one run.

    ``record`` is a :class:`~repro.results.RunRecord`; ``boosts`` the
    run's input-boost timestamps (a :class:`~repro.obs.session.
    DecisionLog`'s ``boosts`` list, or empty for governors without an
    input path).  All inputs are mode-invariant — see the module docs.
    """
    freq_ts: list[int] = []
    freq_khz: list[int] = []
    for ts, khz in record.transitions:
        freq_ts.append(ts)
        freq_khz.append(khz)
    busy_starts: list[int] = []
    busy_ends: list[int] = []
    for start, end in record.busy_intervals:
        busy_starts.append(start)
        busy_ends.append(end)
    boost_list = sorted(boosts)
    windows = tuple(
        attribute_window(
            lag, freq_ts, freq_khz, busy_starts, busy_ends, boost_list
        )
        for lag in record.lags
    )
    return RunAttribution(
        workload=record.workload, config=record.config, windows=windows
    )
