"""Operating-performance-point (OPP) table of the Snapdragon 8074.

The paper's Dragonboard APQ8074 exposes 14 frequency points, labelled in its
figures as 0.30 … 2.15 GHz.  We use the actual MSM8974 kHz values those
labels round from.  Each OPP carries the rail voltage used by the power
model; the curve has a *voltage floor* — below ~0.96 GHz the rail cannot
scale down further — which is what makes 0.96 GHz the most energy-efficient
frequency (the paper's observation for its workloads) rather than an
arbitrary constant we hard-code.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.core.errors import SimulationError

# MSM8974 (Snapdragon 800/8074) CPU OPPs in kHz.
SNAPDRAGON_8074_FREQS_KHZ: tuple[int, ...] = (
    300_000,
    422_400,
    652_800,
    729_600,
    883_200,
    960_000,
    1_036_800,
    1_190_400,
    1_267_200,
    1_497_600,
    1_574_400,
    1_728_000,
    1_958_400,
    2_150_400,
)

# Rail voltage floor and slope above the knee (volts, volts/GHz).  The
# slope is calibrated so the fixed-frequency dynamic-energy curve has the
# paper's shape: ~1.1x the minimum at 0.30 GHz, ~1.7-1.8x at 2.15 GHz.
VOLTAGE_FLOOR = 0.80
VOLTAGE_KNEE_GHZ = 0.96
VOLTAGE_SLOPE_PER_GHZ = 0.252


def rail_voltage(freq_khz: int) -> float:
    """Rail voltage for an operating point, with the low-frequency floor."""
    freq_ghz = freq_khz / 1e6
    if freq_ghz <= VOLTAGE_KNEE_GHZ:
        return VOLTAGE_FLOOR
    return VOLTAGE_FLOOR + VOLTAGE_SLOPE_PER_GHZ * (freq_ghz - VOLTAGE_KNEE_GHZ)


@dataclass(frozen=True, slots=True)
class OperatingPoint:
    """One DVFS operating point: frequency plus rail voltage."""

    freq_khz: int
    volts: float

    @property
    def freq_ghz(self) -> float:
        return self.freq_khz / 1e6

    @property
    def label(self) -> str:
        """The figure-axis label the paper uses, e.g. ``1.50 GHz``."""
        return f"{self.freq_ghz:.2f} GHz"


class FrequencyTable:
    """An ordered set of operating points with lookup helpers."""

    def __init__(self, points: list[OperatingPoint]) -> None:
        if not points:
            raise SimulationError("frequency table cannot be empty")
        ordered = sorted(points, key=lambda p: p.freq_khz)
        if len({p.freq_khz for p in ordered}) != len(ordered):
            raise SimulationError("frequency table has duplicate points")
        self._points = tuple(ordered)
        self._freqs = tuple(p.freq_khz for p in ordered)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    @property
    def points(self) -> tuple[OperatingPoint, ...]:
        return self._points

    @property
    def frequencies_khz(self) -> tuple[int, ...]:
        return self._freqs

    @property
    def min_khz(self) -> int:
        return self._freqs[0]

    @property
    def max_khz(self) -> int:
        return self._freqs[-1]

    def contains(self, freq_khz: int) -> bool:
        index = bisect.bisect_left(self._freqs, freq_khz)
        return index < len(self._freqs) and self._freqs[index] == freq_khz

    def point(self, freq_khz: int) -> OperatingPoint:
        """The operating point at exactly ``freq_khz``."""
        index = bisect.bisect_left(self._freqs, freq_khz)
        if index >= len(self._freqs) or self._freqs[index] != freq_khz:
            raise SimulationError(f"{freq_khz} kHz is not an operating point")
        return self._points[index]

    def ceil(self, freq_khz: int) -> int:
        """The lowest operating frequency >= ``freq_khz`` (clamped to max)."""
        index = bisect.bisect_left(self._freqs, freq_khz)
        if index >= len(self._freqs):
            return self._freqs[-1]
        return self._freqs[index]

    def floor(self, freq_khz: int) -> int:
        """The highest operating frequency <= ``freq_khz`` (clamped to min)."""
        index = bisect.bisect_right(self._freqs, freq_khz)
        if index == 0:
            return self._freqs[0]
        return self._freqs[index - 1]

    def step_up(self, freq_khz: int, steps: int = 1) -> int:
        """The frequency ``steps`` table entries above ``freq_khz``."""
        index = self._freqs.index(self.ceil(freq_khz))
        return self._freqs[min(index + steps, len(self._freqs) - 1)]


def snapdragon_8074_table() -> FrequencyTable:
    """The 14-point OPP table of the paper's experiment platform."""
    return FrequencyTable(
        [
            OperatingPoint(freq_khz=khz, volts=rail_voltage(khz))
            for khz in SNAPDRAGON_8074_FREQS_KHZ
        ]
    )
