"""The user-irritation metric (paper §II-F, Fig. 9).

Each interaction lag has an irritation threshold.  A lag shorter than its
threshold "does not count as irritating to the user"; a longer one incurs
a penalty equal to "the amount of time the lag duration is above the
threshold".  The metric is "an accumulation of the penalty for each lag in
the workload and therefore the total amount of time a user is irritated".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.core.simtime import to_seconds


@dataclass(frozen=True, slots=True)
class LagPenalty:
    """Per-lag irritation contribution."""

    lag_index: int
    label: str
    duration_us: int
    threshold_us: int

    @property
    def penalty_us(self) -> int:
        return max(0, self.duration_us - self.threshold_us)

    @property
    def irritating(self) -> bool:
        return self.penalty_us > 0


@dataclass(frozen=True, slots=True)
class IrritationResult:
    """The metric plus its per-lag breakdown."""

    penalties: tuple[LagPenalty, ...]

    @property
    def total_us(self) -> int:
        return sum(p.penalty_us for p in self.penalties)

    @property
    def total_seconds(self) -> float:
        return to_seconds(self.total_us)

    @property
    def irritating_lag_count(self) -> int:
        return sum(1 for p in self.penalties if p.irritating)

    @property
    def lag_count(self) -> int:
        return len(self.penalties)


def irritation(
    lags: list[tuple[str, int, int]],
) -> IrritationResult:
    """Compute the metric from ``(label, duration_us, threshold_us)`` rows.

    The caller (usually a :class:`~repro.analysis.lagprofile.LagProfile`)
    supplies per-lag thresholds, which may come from the Shneiderman model,
    a custom model, or per-lag overrides — mirroring the paper's GUI.
    """
    penalties = []
    for index, (label, duration_us, threshold_us) in enumerate(lags):
        if duration_us < 0:
            raise ReproError(f"lag {label!r} has negative duration")
        if threshold_us < 0:
            raise ReproError(f"lag {label!r} has negative threshold")
        penalties.append(LagPenalty(index, label, duration_us, threshold_us))
    return IrritationResult(tuple(penalties))
