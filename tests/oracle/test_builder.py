"""Unit and property tests for the oracle builder and BusyTimeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.analysis.lagprofile import LagMeasurement, LagProfile
from repro.device.frequencies import snapdragon_8074_table
from repro.device.power import PowerModel
from repro.oracle.builder import BusyTimeline, build_oracle


class TestBusyTimeline:
    def test_total(self):
        timeline = BusyTimeline([(0, 100), (200, 350)])
        assert timeline.busy_in(0, 10**9) == 250

    def test_window_query(self):
        timeline = BusyTimeline([(0, 100), (200, 350)])
        assert timeline.busy_in(0, 400) == 250
        assert timeline.busy_in(50, 250) == 100
        assert timeline.busy_in(100, 200) == 0
        assert timeline.busy_in(210, 220) == 10

    def test_empty_window(self):
        timeline = BusyTimeline([(0, 100)])
        assert timeline.busy_in(50, 50) == 0
        assert timeline.busy_in(80, 20) == 0

    def test_touching_intervals_allowed(self):
        timeline = BusyTimeline([(0, 100), (100, 200)])
        assert timeline.busy_in(0, 200) == 200

    def test_overlapping_rejected(self):
        with pytest.raises(ReproError):
            BusyTimeline([(0, 100), (50, 150)])

    def test_inverted_rejected(self):
        with pytest.raises(ReproError):
            BusyTimeline([(100, 50)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(1, 50)), max_size=15
        ),
        st.integers(0, 600),
        st.integers(0, 600),
    )
    def test_matches_naive_computation(self, raw, a, b):
        # Build disjoint intervals from (gap, length) pairs.
        intervals = []
        cursor = 0
        for gap, length in raw:
            start = cursor + gap
            intervals.append((start, start + length))
            cursor = start + length
        timeline = BusyTimeline(intervals)
        lo, hi = min(a, b), max(a, b)
        naive = sum(
            max(0, min(end, hi) - max(start, lo)) for start, end in intervals
        )
        assert timeline.busy_in(lo, hi) == naive


def make_fixed_inputs(lag_work_cycles, duration_us=60_000_000):
    """Synthesize consistent fixed-run inputs for every OPP.

    Lag durations follow duration = work / frequency; busy timelines put
    that work right after each lag's begin time.
    """
    table = snapdragon_8074_table()
    profiles, busy, energy = {}, {}, {}
    model = PowerModel()
    for point in table.points:
        lags = []
        intervals = []
        for index, work in enumerate(lag_work_cycles):
            begin = (index + 1) * 10_000_000
            duration = int(work / (point.freq_khz / 1e3))
            lags.append(
                LagMeasurement(
                    lag_index=index,
                    gesture_index=index,
                    label=f"lag{index}",
                    category="simple_frequent",
                    begin_time_us=begin,
                    end_frame=0,
                    duration_us=duration,
                    threshold_us=1_000_000,
                )
            )
            intervals.append((begin, begin + duration))
        profiles[point.freq_khz] = LagProfile("w", tuple(lags))
        busy[point.freq_khz] = BusyTimeline(intervals)
        busy_total = sum(e - s for s, e in intervals)
        dynamic_w = model.active_power(point.freq_khz, point.volts) - model.idle_power()
        energy[point.freq_khz] = busy_total * dynamic_w / 1e6
    return profiles, busy, energy, table, model


def test_oracle_picks_lowest_frequency_meeting_deadline():
    profiles, busy, energy, table, model = make_fixed_inputs([500e6])
    oracle = build_oracle(profiles, busy, energy, 60_000_000, table, model)
    lag = oracle.lags[0]
    fastest_duration = profiles[table.max_khz].lags[0].duration_us
    deadline = max(
        int(fastest_duration * 1.1), fastest_duration + 34_000
    )
    assert lag.duration_us <= deadline
    # A lower OPP would miss the deadline.
    index = table.frequencies_khz.index(lag.chosen_khz)
    if index > 0:
        lower = table.frequencies_khz[index - 1]
        assert profiles[lower].lags[0].duration_us > deadline


def test_oracle_base_is_lowest_energy_fixed_run():
    profiles, busy, energy, table, model = make_fixed_inputs([500e6])
    oracle = build_oracle(profiles, busy, energy, 60_000_000, table, model)
    assert oracle.base_khz == min(energy, key=energy.get)


def test_oracle_profile_covers_run_and_contains_lags():
    profiles, busy, energy, table, model = make_fixed_inputs([500e6, 2e9])
    oracle = build_oracle(profiles, busy, energy, 60_000_000, table, model)
    assert oracle.profile.segments[0].start_us == 0
    assert oracle.profile.end_us == 60_000_000
    for lag in oracle.lags:
        [segment] = oracle.profile.window(lag.begin_us, lag.begin_us + 1)
        assert segment.freq_khz == lag.chosen_khz


def test_oracle_never_irritates_when_fastest_meets_threshold():
    profiles, busy, energy, table, model = make_fixed_inputs([500e6, 1e9])
    oracle = build_oracle(profiles, busy, energy, 60_000_000, table, model)
    assert oracle.irritation().total_us == 0


def test_oracle_energy_between_extreme_bounds():
    profiles, busy, energy, table, model = make_fixed_inputs([500e6, 1e9, 3e9])
    oracle = build_oracle(profiles, busy, energy, 60_000_000, table, model)
    assert oracle.energy_j > 0
    # Never worse than running everything at max frequency.
    assert oracle.energy_j <= energy[table.max_khz] * 1.01


def test_missing_frequency_rejected():
    profiles, busy, energy, table, model = make_fixed_inputs([500e6])
    del profiles[table.min_khz]
    with pytest.raises(ReproError):
        build_oracle(profiles, busy, energy, 60_000_000, table, model)


def test_mismatched_lag_counts_rejected():
    profiles, busy, energy, table, model = make_fixed_inputs([500e6])
    broken = LagProfile("w", ())
    profiles[table.min_khz] = broken
    with pytest.raises(ReproError):
        build_oracle(profiles, busy, energy, 60_000_000, table, model)
