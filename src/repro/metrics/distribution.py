"""Lag-duration distribution statistics (the paper's Fig. 11 violins).

The violin plots show "boxes extend[ing] from lower to upper quartile
values, with a line at the median. The whiskers show the range of the lag
length at 1.5 IRQ, while flier points are those past the end of the
whiskers" plus a kernel-density estimate.  We compute exactly those
ingredients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ReproError


@dataclass(frozen=True, slots=True)
class DistributionSummary:
    """Box/whisker/KDE summary of one configuration's lag durations."""

    count: int
    mean_ms: float
    median_ms: float
    q1_ms: float
    q3_ms: float
    whisker_low_ms: float
    whisker_high_ms: float
    min_ms: float
    max_ms: float
    fliers_ms: tuple[float, ...]


def summarize_lags(durations_ms: list[float]) -> DistributionSummary:
    """Box-plot statistics over lag durations in milliseconds."""
    if not durations_ms:
        raise ReproError("cannot summarise an empty lag profile")
    data = np.asarray(sorted(durations_ms), dtype=float)
    q1, median, q3 = np.percentile(data, [25, 50, 75])
    iqr = q3 - q1
    low_limit = q1 - 1.5 * iqr
    high_limit = q3 + 1.5 * iqr
    inside = data[(data >= low_limit) & (data <= high_limit)]
    whisker_low = float(inside.min()) if inside.size else float(data.min())
    whisker_high = float(inside.max()) if inside.size else float(data.max())
    fliers = tuple(float(x) for x in data[(data < low_limit) | (data > high_limit)])
    return DistributionSummary(
        count=int(data.size),
        mean_ms=float(data.mean()),
        median_ms=float(median),
        q1_ms=float(q1),
        q3_ms=float(q3),
        whisker_low_ms=whisker_low,
        whisker_high_ms=whisker_high,
        min_ms=float(data.min()),
        max_ms=float(data.max()),
        fliers_ms=fliers,
    )


def kernel_density(
    durations_ms: list[float], grid_points: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian KDE over lag durations (the Fig. 11 inset curve).

    Returns ``(grid_ms, density)``.  Bandwidth follows Scott's rule.
    """
    if not durations_ms:
        raise ReproError("cannot estimate a density from no lags")
    data = np.asarray(durations_ms, dtype=float)
    if data.size == 1 or float(data.std()) == 0.0:
        grid = np.linspace(data.min() - 1.0, data.max() + 1.0, grid_points)
        density = np.zeros_like(grid)
        density[np.argmin(np.abs(grid - data[0]))] = 1.0
        return grid, density
    bandwidth = 1.06 * data.std() * data.size ** (-1 / 5)
    grid = np.linspace(data.min() - 3 * bandwidth, data.max() + 3 * bandwidth, grid_points)
    diffs = (grid[:, None] - data[None, :]) / bandwidth
    density = np.exp(-0.5 * diffs**2).sum(axis=1)
    density /= data.size * bandwidth * np.sqrt(2 * np.pi)
    return grid, density
