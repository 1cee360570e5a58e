"""Jank analysis — the paper's stated future work, implemented.

§VI: "We also plan to include workloads that are dominated by Jank type
lags where frames are dropped when the processor is too busy to keep up
with the load."

On the simulated device a frame is considered *janky* when its entire
vsync interval was CPU-busy: the UI thread had no idle headroom to prepare
the next frame, which on real hardware is exactly when SurfaceFlinger
misses the deadline and drops it.  The analyzer combines a run's busy
timeline with its lag profile to report dropped frames inside interaction
lags (where the user is watching) and overall.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.analysis.lagprofile import LagProfile
from repro.device.display import VSYNC_PERIOD_US
from repro.oracle.builder import BusyTimeline


@dataclass(frozen=True, slots=True)
class LagJank:
    """Dropped frames within one interaction lag."""

    label: str
    frames_total: int
    frames_janky: int


@dataclass(frozen=True, slots=True)
class JankResult:
    """Jank over a whole run."""

    frames_total: int
    frames_janky: int
    per_lag: tuple[LagJank, ...]

    @property
    def jank_ratio(self) -> float:
        if self.frames_total == 0:
            return 0.0
        return self.frames_janky / self.frames_total

    @property
    def lag_frames_janky(self) -> int:
        return sum(lag.frames_janky for lag in self.per_lag)


def _janky_frames_in(
    timeline: BusyTimeline, start_us: int, end_us: int
) -> tuple[int, int]:
    """(total, janky) vsync intervals inside ``[start_us, end_us)``."""
    first = start_us // VSYNC_PERIOD_US
    last = end_us // VSYNC_PERIOD_US
    total = 0
    janky = 0
    for index in range(first, last):
        frame_start = index * VSYNC_PERIOD_US
        frame_end = frame_start + VSYNC_PERIOD_US
        total += 1
        if timeline.busy_in(frame_start, frame_end) >= VSYNC_PERIOD_US:
            janky += 1
    return total, janky


def analyze_jank(
    busy: BusyTimeline,
    duration_us: int,
    lag_profile: LagProfile | None = None,
) -> JankResult:
    """Count fully-busy (dropped) vsync intervals over a run.

    Args:
        busy: the run's busy timeline (``RunRecord.busy_timeline``).
        duration_us: run length.
        lag_profile: optional; when given, per-lag jank is reported for
            the windows the user was actually watching.
    """
    if duration_us <= 0:
        raise ReproError("duration must be positive")
    total, janky = _janky_frames_in(busy, 0, duration_us)
    per_lag = []
    if lag_profile is not None:
        for lag in lag_profile.lags:
            lag_total, lag_janky = _janky_frames_in(
                busy, lag.begin_time_us, lag.begin_time_us + lag.duration_us
            )
            per_lag.append(
                LagJank(
                    label=lag.label,
                    frames_total=lag_total,
                    frames_janky=lag_janky,
                )
            )
    return JankResult(
        frames_total=total, frames_janky=janky, per_lag=tuple(per_lag)
    )
