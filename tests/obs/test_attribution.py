"""Unit and property tests for the lag attribution engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.lagprofile import LagMeasurement
from repro.obs.attribution import (
    ATTRIBUTION_SCHEMA_VERSION,
    CAUSES,
    apportion_penalty,
    attribute_record,
    attribute_window,
    cause_order_key,
    render_report,
)
from repro.obs.attribution.causes import (
    CAUSE_AT_SPEED,
    CAUSE_COMPOSITOR,
    CAUSE_LATE_BOOST,
    CAUSE_PARK_WAKE,
    CAUSE_SETTLE_HOLD,
    CAUSE_SLOW_RAMP,
    CAUSE_STALE_LOAD,
    CAUSE_UNATTRIBUTED,
)
from repro.results import RunRecord


def lag(index=0, begin=0, duration=1_000, threshold=400, label=None):
    return LagMeasurement(
        lag_index=index,
        gesture_index=index,
        label=label or f"lag{index}",
        category="simple_frequent",
        begin_time_us=begin,
        end_frame=0,
        duration_us=duration,
        threshold_us=threshold,
    )


def attribute(
    the_lag, transitions=(), busy=(), boosts=()
):
    freq_ts = [ts for ts, _ in transitions]
    freq_khz = [khz for _, khz in transitions]
    busy_starts = [start for start, _ in busy]
    busy_ends = [end for _, end in busy]
    return attribute_window(
        the_lag, freq_ts, freq_khz, busy_starts, busy_ends, sorted(boosts)
    )


class TestCauseOrder:
    def test_taxonomy_order_is_canonical(self):
        assert sorted(CAUSES, key=cause_order_key) == list(CAUSES)

    def test_unknown_causes_sort_last(self):
        assert cause_order_key("zzz-new") > cause_order_key(CAUSES[-1])


class TestApportionment:
    def test_zero_penalty_is_empty(self):
        assert apportion_penalty(0, [("a", 10)]) == []

    def test_no_shares_falls_back_to_unattributed(self):
        assert apportion_penalty(100, []) == [(CAUSE_UNATTRIBUTED, 100)]
        assert apportion_penalty(100, [("a", 0)]) == [
            (CAUSE_UNATTRIBUTED, 100)
        ]

    def test_proportional_split_is_exact(self):
        split = apportion_penalty(100, [("a", 1), ("b", 1), ("c", 1)])
        assert sum(us for _, us in split) == 100
        # Largest remainder: 34/33/33 with the leftover going to 'a'.
        assert split == [("a", 34), ("b", 33), ("c", 33)]

    @given(
        penalty=st.integers(min_value=0, max_value=10**9),
        shares=st.lists(
            st.integers(min_value=0, max_value=10**7), min_size=0, max_size=8
        ),
    )
    def test_always_sums_exactly(self, penalty, shares):
        named = [(f"c{i}", us) for i, us in enumerate(shares)]
        split = apportion_penalty(penalty, named)
        assert sum(us for _, us in split) == penalty
        assert all(us > 0 for _, us in split) or penalty == 0


class TestWindowRules:
    def test_at_ceiling_from_start_is_at_speed(self):
        w = attribute(
            lag(duration=1_000),
            transitions=[(-5_000, 2_000_000)],
            busy=[(0, 1_000)],
        )
        assert w.segments == ((0, 1_000, CAUSE_AT_SPEED),)
        assert w.reaction_us == 0

    def test_no_busy_time_is_all_compositor_backlog(self):
        w = attribute(lag(duration=1_000), transitions=[(-5_000, 600_000)])
        assert w.segments == ((0, 1_000, CAUSE_COMPOSITOR),)

    def test_tail_after_last_busy_span_is_compositor(self):
        w = attribute(
            lag(duration=1_000),
            transitions=[(-5_000, 600_000)],
            busy=[(0, 700)],
        )
        assert w.segments[-1] == (700, 1_000, CAUSE_COMPOSITOR)

    def test_boost_reacting_first_attributes_late_boost(self):
        w = attribute(
            lag(duration=1_000),
            transitions=[(-5_000, 300_000), (150, 600_000)],
            busy=[(0, 1_000)],
            boosts=[150],
        )
        assert w.segments[0] == (0, 150, CAUSE_LATE_BOOST)
        assert w.reaction_us == 150

    def test_tick_reacting_first_attributes_park_wake(self):
        w = attribute(
            lag(duration=1_000),
            transitions=[(-5_000, 300_000), (200, 600_000)],
            busy=[(0, 1_000)],
        )
        assert w.segments[0] == (0, 200, CAUSE_PARK_WAKE)

    def test_busy_below_ceiling_is_slow_ramp(self):
        # Two-step ramp: after the first rise (the reaction) the core is
        # still busy below the window's peak OPP.
        w = attribute(
            lag(duration=1_000),
            transitions=[(-5_000, 300_000), (200, 450_000), (600, 600_000)],
            busy=[(0, 1_000)],
        )
        assert (200, 600, CAUSE_SLOW_RAMP) in w.segments
        assert (600, 1_000, CAUSE_AT_SPEED) in w.segments

    def test_idle_after_mid_window_drop_is_settle_hold(self):
        w = attribute(
            lag(duration=1_000),
            transitions=[(-5_000, 600_000), (400, 300_000)],
            busy=[(0, 300), (800, 900)],
        )
        assert (400, 800, CAUSE_SETTLE_HOLD) in w.segments
        assert w.segments[-1] == (900, 1_000, CAUSE_COMPOSITOR)

    def test_idle_below_ceiling_without_drop_is_stale_load(self):
        # Ramp still climbing, core idle in between: the governor's load
        # picture is stale, not a deliberate settle.
        w = attribute(
            lag(duration=1_000),
            transitions=[(-5_000, 300_000), (200, 450_000), (600, 600_000)],
            busy=[(0, 100), (900, 950)],
        )
        assert (200, 600, CAUSE_STALE_LOAD) in w.segments

    def test_zero_duration_window_has_no_segments(self):
        w = attribute(lag(duration=0, threshold=0))
        assert w.segments == ()
        assert w.penalty_us == 0

    def test_no_transitions_at_all(self):
        w = attribute(lag(duration=1_000), busy=[(0, 1_000)])
        assert sum(end - start for start, end, _ in w.segments) == 1_000

    def test_coverage_is_exhaustive_and_penalty_exact(self):
        w = attribute(
            lag(duration=1_000, threshold=300),
            transitions=[(-5_000, 300_000), (250, 600_000)],
            busy=[(0, 700)],
            boosts=[100],
        )
        assert sum(end - start for start, end, _ in w.segments) == 1_000
        assert sum(us for _, us in w.window_by_cause) == 1_000
        assert sum(us for _, us in w.penalty_by_cause) == w.penalty_us == 700


@st.composite
def window_inputs(draw):
    duration = draw(st.integers(min_value=1, max_value=5_000))
    threshold = draw(st.integers(min_value=0, max_value=5_000))
    boosts = draw(
        st.lists(st.integers(min_value=0, max_value=5_000), max_size=3)
    )
    step_ts = sorted(
        draw(
            st.sets(
                st.integers(min_value=-1_000, max_value=5_000),
                min_size=0,
                max_size=5,
            )
        )
    )
    steps = [
        (ts, draw(st.sampled_from([300_000, 600_000, 1_000_000])))
        for ts in step_ts
    ]
    edges = sorted(
        draw(
            st.sets(
                st.integers(min_value=-500, max_value=6_000),
                min_size=0,
                max_size=6,
            )
        )
    )
    busy = [
        (edges[i], edges[i + 1]) for i in range(0, len(edges) - 1, 2)
    ]
    return duration, threshold, steps, busy, sorted(boosts)


class TestWindowProperties:
    @given(window_inputs())
    def test_segments_cover_window_and_sums_are_exact(self, inputs):
        duration, threshold, steps, busy, boosts = inputs
        w = attribute(
            lag(duration=duration, threshold=threshold),
            transitions=steps,
            busy=busy,
            boosts=boosts,
        )
        # Exhaustive: contiguous segments covering [0, duration) exactly.
        assert sum(end - start for start, end, _ in w.segments) == duration
        cursor = 0
        for start, end, _cause in w.segments:
            assert start == cursor
            assert end > start
            cursor = end
        assert cursor == duration
        assert sum(us for _, us in w.window_by_cause) == duration
        # Penalty apportionment reconstructs the penalty to the microsecond.
        assert w.penalty_us == max(0, duration - threshold)
        assert sum(us for _, us in w.penalty_by_cause) == w.penalty_us


def make_record():
    return RunRecord(
        workload="w",
        config="interactive",
        rep=0,
        duration_us=10_000,
        energy_j=1.0,
        dynamic_energy_j=0.5,
        busy_us=5_000,
        transitions=[(0, 300_000), (1_200, 600_000)],
        busy_intervals=[(1_000, 2_000), (4_000, 5_500)],
        lags=(
            lag(0, begin=1_000, duration=1_000, threshold=400),
            lag(1, begin=4_000, duration=1_500, threshold=500),
        ),
    )


class TestRunAttribution:
    def test_totals_reconstruct_run_irritation(self):
        attribution = attribute_record(make_record(), boosts=[1_050])
        total = sum(
            max(0, l.duration_us - l.threshold_us) for l in make_record().lags
        )
        assert attribution.total_penalty_us == total
        assert sum(attribution.per_cause_penalty_us().values()) == total
        assert attribution.unattributed_penalty_us == 0

    def test_summary_is_json_safe_and_versioned(self):
        summary = attribute_record(make_record()).summary()
        assert summary["schema_version"] == ATTRIBUTION_SCHEMA_VERSION
        assert summary["windows"] == 2
        assert sum(summary["per_cause_penalty_us"].values()) == (
            summary["total_penalty_us"]
        )
        import json

        json.dumps(summary)  # must not raise

    def test_empty_record_has_no_dominant_cause(self):
        record = make_record()
        empty = RunRecord(
            workload="w",
            config="interactive",
            rep=0,
            duration_us=10_000,
            energy_j=1.0,
            dynamic_energy_j=0.5,
            busy_us=0,
            transitions=[],
            busy_intervals=[],
            lags=(),
        )
        assert attribute_record(empty).dominant_cause is None
        assert attribute_record(record).dominant_cause is not None


class TestReport:
    def test_report_lists_causes_and_dominant(self):
        record = make_record()
        text = render_report(attribute_record(record, boosts=[1_050]))
        assert "# attribution w [interactive]: 2 window(s)" in text
        assert "dominant cause:" in text
        assert CAUSE_UNATTRIBUTED not in text

    def test_empty_report(self):
        empty = RunRecord(
            workload="w",
            config="ondemand",
            rep=0,
            duration_us=1_000,
            energy_j=1.0,
            dynamic_energy_j=0.5,
            busy_us=0,
            transitions=[],
            busy_intervals=[],
            lags=(),
        )
        text = render_report(attribute_record(empty))
        assert "(no lag windows)" in text
        assert "dominant cause: none" in text
