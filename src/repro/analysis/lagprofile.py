"""Lag profiles: the matcher's output, the metrics' input.

"Our method produces a lag profile after evaluating a video which lists
the lag length for each interaction lag in the evaluated video."  Profiles
of different executions of the same workload are directly comparable
because replayed inputs guarantee the same number of lags.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class LagProfile:
    """All measured lags of one workload execution."""

    workload_name: str
    lags: tuple[LagMeasurement, ...]

    def __len__(self) -> int:
        return len(self.lags)

    def durations_ms(self) -> list[float]:
        return [lag.duration_ms for lag in self.lags]

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
