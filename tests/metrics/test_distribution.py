"""Unit and property tests for lag-duration distribution statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.metrics.distribution import (
    kernel_density,
    summarize_lags,
)


def test_empty_rejected():
    with pytest.raises(ReproError):
        summarize_lags([])


def test_single_value():
    summary = summarize_lags([500.0])
    assert summary.median_ms == 500.0
    assert summary.q1_ms == summary.q3_ms == 500.0
    assert summary.fliers_ms == ()


def test_quartiles_of_known_data():
    data = [float(x) for x in range(1, 101)]
    summary = summarize_lags(data)
    assert summary.median_ms == pytest.approx(50.5)
    assert summary.q1_ms == pytest.approx(25.75)
    assert summary.q3_ms == pytest.approx(75.25)


def test_outliers_become_fliers():
    data = [10.0] * 20 + [10_000.0]
    summary = summarize_lags(data)
    assert 10_000.0 in summary.fliers_ms
    assert summary.whisker_high_ms == 10.0


def test_whiskers_at_1_5_iqr():
    data = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
    summary = summarize_lags(data)
    assert summary.whisker_high_ms == 5.0
    assert summary.max_ms == 100.0


def test_kernel_density_integrates_to_one():
    rng = np.random.default_rng(1)
    data = list(rng.normal(500, 100, size=200))
    grid, density = kernel_density(data)
    integral = np.trapezoid(density, grid)
    assert integral == pytest.approx(1.0, abs=0.05)


def test_kernel_density_peak_near_mode():
    data = [100.0] * 50 + [900.0] * 5
    grid, density = kernel_density(data)
    assert abs(grid[np.argmax(density)] - 100.0) < 100


def test_kernel_density_single_point():
    grid, density = kernel_density([42.0])
    assert density.max() > 0


@given(st.lists(st.floats(min_value=0, max_value=1e5), min_size=1, max_size=60))
def test_summary_orderings(data):
    summary = summarize_lags(data)
    assert summary.min_ms <= summary.q1_ms <= summary.median_ms
    assert summary.median_ms <= summary.q3_ms <= summary.max_ms
    assert summary.whisker_low_ms >= summary.min_ms
    assert summary.whisker_high_ms <= summary.max_ms
    assert summary.count == len(data)
