"""Unit tests for the integer-microsecond time base."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import simtime


def test_millis_converts_to_integer_micros():
    assert simtime.millis(150) == 150_000


def test_seconds_converts_to_integer_micros():
    assert simtime.seconds(2.5) == 2_500_000


def test_minutes_and_hours():
    assert simtime.minutes(10) == 600_000_000
    assert simtime.hours(24) == 24 * 3600 * 1_000_000


def test_to_millis_roundtrip():
    assert simtime.to_millis(simtime.millis(123)) == pytest.approx(123)


def test_to_seconds():
    assert simtime.to_seconds(1_500_000) == pytest.approx(1.5)


@given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_seconds_to_seconds_inverse(value):
    assert simtime.to_seconds(simtime.seconds(value)) == pytest.approx(
        value, abs=1e-6
    )


class TestSimClock:
    def test_starts_at_zero(self):
        assert simtime.SimClock().now == 0

    def test_advance_moves_forward(self):
        clock = simtime.SimClock()
        clock.advance_to(100)
        assert clock.now == 100

    def test_advance_backwards_rejected(self):
        clock = simtime.SimClock(50)
        with pytest.raises(ValueError):
            clock.advance_to(49)

    def test_advance_to_same_time_is_noop(self):
        clock = simtime.SimClock(50)
        clock.advance_to(50)
        assert clock.now == 50
