"""Unit tests for the observability session lifecycle and emit fan-out."""

import pytest

from repro.obs import session as obs_session
from repro.obs.session import ObsError, ObsSession


@pytest.fixture(autouse=True)
def _no_leftover_session():
    """No test may leak an installed session into its neighbours."""
    obs_session.uninstall()
    yield
    obs_session.uninstall()


class TestLifecycle:
    def test_nothing_active_by_default(self):
        assert obs_session.active() is None

    def test_install_makes_session_active(self):
        session = ObsSession.for_run()
        obs_session.install(session)
        assert obs_session.active() is session

    def test_double_install_is_an_error(self):
        obs_session.install(ObsSession.for_run())
        with pytest.raises(ObsError):
            obs_session.install(ObsSession.for_run())

    def test_uninstall_is_idempotent(self):
        obs_session.uninstall()
        obs_session.uninstall()
        assert obs_session.active() is None

    def test_observed_context_manager_installs_and_uninstalls(self):
        session = ObsSession.for_tracing()
        with obs_session.observed(session) as seen:
            assert seen is session
            assert obs_session.active() is session
        assert obs_session.active() is None

    def test_observed_uninstalls_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs_session.observed(ObsSession.for_run()):
                raise RuntimeError("boom")
        assert obs_session.active() is None


class TestSessionShapes:
    def test_for_run_has_no_tracer(self):
        session = ObsSession.for_run()
        assert session.tracer is None
        assert session.metrics is not None
        assert session.recorder is not None

    def test_for_tracing_has_all_backends(self):
        session = ObsSession.for_tracing()
        assert session.tracer is not None
        assert session.metrics is not None
        assert session.recorder is not None


class TestEmitFanOut:
    """Each emit feeds the right subset of backends."""

    def test_freq_transition_feeds_all_three(self):
        session = ObsSession.for_tracing()
        session.freq_transition(1000, 960_000)
        assert session.metrics.counter_value("cpufreq.transitions") == 1
        assert session.tracer.event_count == 2  # counter track + instant
        [event] = session.recorder.events()
        assert event.category == "cpufreq"
        assert event.label == "opp=960000"

    def test_timer_parking_never_reaches_the_recorder(self):
        """Parking is mode-dependent; the recorder only holds events the
        fast/slow paths must agree on."""
        session = ObsSession.for_tracing()
        session.timer_parked(100, "ondemand", "idle")
        session.timer_unparked(500, "ondemand", "idle", parked_since=100, elided=3)
        assert session.recorder.events() == []
        assert session.metrics.counter_value("timer.parks") == 1
        assert session.metrics.counter_value("timer.parks.idle") == 1
        assert session.metrics.counter_value("timer.ticks_elided") == 3

    def test_lag_window_records_close_timestamp(self):
        session = ObsSession.for_run()
        session.lag_window_closed(
            begin_ts=1000, duration_us=250, label="tap:0",
            category="tap", threshold_us=100,
        )
        [event] = session.recorder.events()
        assert event.ts == 1250
        assert event.label == "tap:0 dur=250"
        assert session.metrics.counter_value("match.lags_over_threshold") == 1

    def test_under_threshold_lag_not_counted_over(self):
        session = ObsSession.for_run()
        session.lag_window_closed(
            begin_ts=0, duration_us=50, label="tap:0",
            category="tap", threshold_us=100,
        )
        assert session.metrics.counter_value("match.lags_over_threshold") == 0

    def test_emits_are_safe_with_backends_absent(self):
        """An all-None session accepts the full vocabulary silently."""
        session = ObsSession()
        session.governor_started(0, "interactive")
        session.input_boost(1, "interactive", 1_200_000)
        session.timer_parked(2, "interactive", "busy")
        session.timer_unparked(3, "interactive", "busy", 2, 0)
        session.freq_transition(4, 600_000)
        session.frame_composed(5, 0)
        session.gesture_window_opened(6, "tap:0", 0)
        session.lag_window_closed(6, 10, "tap:0", "tap", 100)
        session.segments_streamed(3, 9)


class TestHarvest:
    class _FakeEngine:
        events_fired = 42
        events_scheduled = 45
        heap_compactions = 2

    class _FakeGovernor:
        samples_taken = 17

    def test_harvest_folds_engine_and_governor_stats(self):
        session = ObsSession.for_tracing()
        session.freq_transition(0, 600_000)
        row = session.harvest_run(self._FakeEngine(), governor=self._FakeGovernor())
        assert row["counters"]["engine.events_dispatched"] == 42
        assert row["counters"]["engine.events_scheduled"] == 45
        assert row["counters"]["engine.heap_compactions"] == 2
        assert row["counters"]["cpufreq.transitions"] == 1
        assert row["gauges"]["governor.samples_taken"] == 17
        assert row["trace_events"] == 2
        assert row["flight_recorder"]["recorded"] == 1
        assert row["flight_recorder"]["dropped"] == 0

    def test_harvest_without_tracer_omits_trace_count(self):
        session = ObsSession.for_run()
        row = session.harvest_run(self._FakeEngine())
        assert "trace_events" not in row
        assert "flight_recorder" in row
        assert "governor.samples_taken" not in row["gauges"]
