"""Lag profiles: the matcher's output, the metrics' input.

"Our method produces a lag profile after evaluating a video which lists
the lag length for each interaction lag in the evaluated video."  Profiles
of different executions of the same workload are directly comparable
because replayed inputs guarantee the same number of lags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import ReproError
from repro.core.simtime import to_millis
from repro.metrics.hci import HciModel
from repro.metrics.irritation import IrritationResult, irritation


@dataclass(frozen=True, slots=True)
class LagMeasurement:
    """One measured interaction lag."""

    lag_index: int
    gesture_index: int
    label: str
    category: str
    begin_time_us: int
    end_frame: int
    duration_us: int
    threshold_us: int

    @property
    def duration_ms(self) -> float:
        return to_millis(self.duration_us)


@dataclass(frozen=True, slots=True)
class CauseBreakdown:
    """One lag's decomposition into named causes.

    Produced by the attribution engine (:mod:`repro.obs.attribution`);
    carried here so a :class:`LagProfile` can hold causes without the
    analysis layer depending on the observability layer.  Both maps are
    ``(cause, microseconds)`` pairs in deterministic cause order:
    ``window_by_cause`` partitions the lag window's duration,
    ``penalty_by_cause`` partitions its irritation penalty exactly.
    """

    lag_index: int
    window_by_cause: tuple[tuple[str, int], ...]
    penalty_by_cause: tuple[tuple[str, int], ...]

    @property
    def penalty_us(self) -> int:
        return sum(us for _, us in self.penalty_by_cause)

    @property
    def dominant_cause(self) -> str | None:
        """The cause carrying the most penalty (first listed wins ties)."""
        best: tuple[int, int] | None = None
        winner: str | None = None
        for order, (cause, us) in enumerate(self.penalty_by_cause):
            if us > 0 and (best is None or (-us, order) < best):
                best = (-us, order)
                winner = cause
        return winner


@dataclass(frozen=True, slots=True)
class LagProfile:
    """All measured lags of one workload execution.

    ``attributions``, when present, parallels ``lags`` one
    :class:`CauseBreakdown` per measurement — the cause-carrying profile
    the attribution engine produces.  An unattributed profile (the
    default) compares equal to itself regardless, and every pre-existing
    two-argument construction site keeps working.
    """

    workload_name: str
    lags: tuple[LagMeasurement, ...]
    attributions: tuple[CauseBreakdown, ...] = ()

    def __len__(self) -> int:
        return len(self.lags)

    def durations_ms(self) -> list[float]:
        return [lag.duration_ms for lag in self.lags]

    def durations_us(self) -> list[int]:
        return [lag.duration_us for lag in self.lags]

    def irritation(
        self,
        model: HciModel | None = None,
        overrides: dict[str, int] | None = None,
    ) -> IrritationResult:
        """The user-irritation metric over this profile.

        By default each lag uses the threshold stored in its annotation;
        ``model`` recomputes thresholds from categories; ``overrides``
        pins specific lags (by label) to custom values — the three options
        the paper's GUI offers.
        """
        rows = []
        for lag in self.lags:
            threshold = lag.threshold_us
            if model is not None:
                threshold = model.threshold_us(lag.category)
            if overrides and lag.label in overrides:
                threshold = overrides[lag.label]
            rows.append((lag.label, lag.duration_us, threshold))
        return irritation(rows)

    def compare(self, other: "LagProfile") -> list[tuple[str, int, int]]:
        """Per-lag durations side by side: ``(label, ours, theirs)``."""
        if len(self.lags) != len(other.lags):
            raise ReproError(
                "profiles of the same workload must have equal lag counts"
            )
        return [
            (a.label, a.duration_us, b.duration_us)
            for a, b in zip(self.lags, other.lags)
        ]

    # --- cause-carrying profile -----------------------------------------------------

    def with_attribution(
        self, breakdowns: "tuple[CauseBreakdown, ...] | list[CauseBreakdown]"
    ) -> "LagProfile":
        """This profile carrying one :class:`CauseBreakdown` per lag."""
        breakdowns = tuple(breakdowns)
        if len(breakdowns) != len(self.lags):
            raise ReproError(
                f"attribution carries {len(breakdowns)} breakdown(s) for "
                f"{len(self.lags)} lag(s); they must parallel one-to-one"
            )
        for lag, breakdown in zip(self.lags, breakdowns):
            if lag.lag_index != breakdown.lag_index:
                raise ReproError(
                    f"breakdown for lag_index {breakdown.lag_index} paired "
                    f"with measurement lag_index {lag.lag_index}"
                )
        return LagProfile(self.workload_name, self.lags, breakdowns)

    def per_cause_irritation_us(self) -> dict[str, int]:
        """Total irritation carried by each cause, over all lags."""
        totals: dict[str, int] = {}
        for breakdown in self.attributions:
            for cause, us in breakdown.penalty_by_cause:
                totals[cause] = totals.get(cause, 0) + us
        return totals

    def compare_causes(
        self, other: "LagProfile"
    ) -> list[tuple[str, int, int]]:
        """Per-cause irritation side by side over the union of causes.

        Unlike :meth:`compare` this aggregates before comparing, so
        profiles with different lag counts (or disjoint cause sets — a
        boosting governor against a stepping one) are still comparable;
        a cause absent on one side contributes zero there.
        """
        ours = self.per_cause_irritation_us()
        theirs = other.per_cause_irritation_us()
        return [
            (cause, ours.get(cause, 0), theirs.get(cause, 0))
            for cause in sorted(set(ours) | set(theirs))
        ]

    # --- persistence ----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        rows = [
            {
                "lag_index": lag.lag_index,
                "gesture_index": lag.gesture_index,
                "label": lag.label,
                "category": lag.category,
                "begin_time_us": lag.begin_time_us,
                "end_frame": lag.end_frame,
                "duration_us": lag.duration_us,
                "threshold_us": lag.threshold_us,
            }
            for lag in self.lags
        ]
        data: dict = {"workload": self.workload_name, "lags": rows}
        if self.attributions:
            data["attributions"] = [
                {
                    "lag_index": breakdown.lag_index,
                    "window_by_cause": [
                        [cause, us] for cause, us in breakdown.window_by_cause
                    ],
                    "penalty_by_cause": [
                        [cause, us] for cause, us in breakdown.penalty_by_cause
                    ],
                }
                for breakdown in self.attributions
            ]
        Path(path).write_text(
            json.dumps(data, indent=2),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "LagProfile":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        lags = tuple(
            LagMeasurement(
                lag_index=row["lag_index"],
                gesture_index=row["gesture_index"],
                label=row["label"],
                category=row["category"],
                begin_time_us=row["begin_time_us"],
                end_frame=row["end_frame"],
                duration_us=row["duration_us"],
                threshold_us=row["threshold_us"],
            )
            for row in data["lags"]
        )
        attributions = tuple(
            CauseBreakdown(
                lag_index=row["lag_index"],
                window_by_cause=tuple(
                    (cause, us) for cause, us in row["window_by_cause"]
                ),
                penalty_by_cause=tuple(
                    (cause, us) for cause, us in row["penalty_by_cause"]
                ),
            )
            for row in data.get("attributions", [])
        )
        return cls(data["workload"], lags, attributions)
