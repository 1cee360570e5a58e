"""Unit and property tests for the user-irritation metric (Fig. 9)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.metrics.irritation import irritation


def test_lag_below_threshold_not_irritating():
    result = irritation([("a", 500_000, 1_000_000)])
    assert result.total_us == 0
    assert result.irritating_lag_count == 0


def test_penalty_is_excess_over_threshold():
    result = irritation([("a", 1_400_000, 1_000_000)])
    assert result.total_us == 400_000
    assert result.penalties[0].irritating


def test_metric_accumulates_over_lags():
    rows = [
        ("a", 1_200_000, 1_000_000),
        ("b", 100_000, 150_000),
        ("c", 5_000_000, 4_000_000),
    ]
    assert irritation(rows).total_us == 200_000 + 1_000_000


def test_exactly_at_threshold_not_irritating():
    assert irritation([("a", 1_000_000, 1_000_000)]).total_us == 0


def test_total_seconds():
    assert irritation([("a", 2_000_000, 1_000_000)]).total_seconds == 1.0


def test_negative_duration_rejected():
    with pytest.raises(ReproError):
        irritation([("a", -1, 100)])


def test_negative_threshold_rejected():
    with pytest.raises(ReproError):
        irritation([("a", 1, -100)])


lag_rows = st.lists(
    st.tuples(
        st.just("lag"),
        st.integers(0, 20_000_000),
        st.integers(0, 12_000_000),
    ),
    max_size=20,
)


@given(lag_rows)
def test_metric_is_nonnegative(rows):
    assert irritation(rows).total_us >= 0


@given(lag_rows, st.integers(1, 1_000_000))
def test_metric_monotone_in_duration(rows, extra):
    """Making any lag longer can only increase irritation."""
    base = irritation(rows).total_us
    if rows:
        label, duration, threshold = rows[0]
        rows = [(label, duration + extra, threshold)] + rows[1:]
    assert irritation(rows).total_us >= base


@given(lag_rows, st.integers(1, 1_000_000))
def test_metric_antitone_in_threshold(rows, extra):
    """Raising any threshold can only decrease irritation."""
    base = irritation(rows).total_us
    if rows:
        label, duration, threshold = rows[0]
        rows = [(label, duration, threshold + extra)] + rows[1:]
    assert irritation(rows).total_us <= base
