"""The observability session: the one handle instrumentation sites see.

Zero-overhead-when-off contract
-------------------------------

Instrumented modules bind ``self._obs = active()`` **once, at
construction** (every run builds a fresh :class:`~repro.device.device.
Device`, so construction-time binding is exact), and every
instrumentation site is guarded by exactly one predicate::

    obs = self._obs
    if obs is not None:
        obs.freq_transition(timestamp, khz)

With no session installed the whole subsystem costs one attribute load
plus an ``is not None`` test per site — no dict lookups, no string
formatting, no allocation.  The micro-benchmark in
``benchmarks/bench_obs_overhead.py`` holds this to <=1% of macro replay
throughput.

Sessions are installed two ways:

* **opt-in env flag** (``REPRO_TRACE=1``): :func:`~repro.harness.
  experiment.replay_run` installs a metrics+flight-recorder session for
  the duration of the run and harvests it into the RunRecord's ``obs``
  section — including inside fleet worker processes, which inherit the
  environment;
* **programmatic** (the ``repro-qoe trace`` command, golden A/B tests):
  the caller installs its own session — usually with a
  :class:`~repro.obs.trace.TraceCollector` attached — around a replay
  and keeps the collected events afterwards.

The emit methods below are the complete instrumentation vocabulary; each
decides which backends (tracer / metrics / flight recorder) an event
feeds.  Mode-dependent events (timer parking) never reach the flight
recorder — the recorder only holds events the fast/slow paths must agree
on, which is what makes its A/B divergence reports meaningful.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.env import env_flag
from repro.core.errors import ReproError
from repro.obs.metrics import OBS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import (
    TID_CPUFREQ,
    TID_FRAMES,
    TID_GESTURES,
    TID_GOVERNOR,
    TID_TIMERS,
    TraceCollector,
)

TRACE_FLAG = "REPRO_TRACE"


class ObsError(ReproError):
    """Misuse of the observability session machinery."""


def trace_enabled() -> bool:
    """Whether ``REPRO_TRACE=1`` opted this process into observability."""
    return env_flag(TRACE_FLAG, default=False)


_ACTIVE: "ObsSession | None" = None


def active() -> "ObsSession | None":
    """The installed session, or None (the common, free case)."""
    return _ACTIVE


def install(session: "ObsSession") -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        raise ObsError("an observability session is already installed")
    _ACTIVE = session


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def observed(session: "ObsSession"):
    """Install ``session`` for the duration of a ``with`` block."""
    install(session)
    try:
        yield session
    finally:
        uninstall()


class DecisionLog:
    """Mode-invariant governor decision context for attribution.

    Two append-only lists: input-boost timestamps and ``(ts, kind,
    khz)`` decision events, both emitted only at actual frequency-change
    moments — which makes the log identical across fastpath modes
    (elided ticks are provably no-op) and bounds its size by the
    transition count the RunRecord stores whole anyway.
    """

    __slots__ = ("boosts", "decisions")

    def __init__(self) -> None:
        self.boosts: list[int] = []
        self.decisions: list[tuple[int, str, int]] = []


class ObsSession:
    """One run's observability backends, any subset of four."""

    __slots__ = ("tracer", "metrics", "recorder", "decisions")

    def __init__(
        self,
        tracer: TraceCollector | None = None,
        metrics: MetricsRegistry | None = None,
        recorder: FlightRecorder | None = None,
        decisions: "DecisionLog | None" = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.recorder = recorder
        self.decisions = decisions

    @classmethod
    def for_run(cls) -> "ObsSession":
        """The ``REPRO_TRACE=1`` per-run session: metrics + recorder +
        decision log.

        No trace collector — an unconsumed event list would grow
        per-run memory for nothing; the ``repro-qoe trace`` command
        installs :meth:`for_tracing` when someone wants the timeline.
        The decision log does grow, but only at frequency-change
        moments, which the record's transition trace stores whole
        regardless — it feeds the attribution harvest.
        """
        return cls(
            metrics=MetricsRegistry(),
            recorder=FlightRecorder(),
            decisions=DecisionLog(),
        )

    @classmethod
    def for_tracing(cls) -> "ObsSession":
        """Everything on: tracer + metrics + recorder + decision log."""
        return cls(
            tracer=TraceCollector(),
            metrics=MetricsRegistry(),
            recorder=FlightRecorder(),
            decisions=DecisionLog(),
        )

    # --- emit vocabulary (called behind the per-site predicate) ---------------

    def governor_started(self, ts: int, name: str) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                f"governor_start:{name}", ts, TID_GOVERNOR, {"governor": name}
            )
        if self.metrics is not None:
            self.metrics.inc("governor.starts")

    def input_boost(self, ts: int, governor: str, target_khz: int) -> None:
        """A governor boosted frequency straight from the input path."""
        if self.tracer is not None:
            self.tracer.instant(
                "input_boost", ts, TID_GOVERNOR,
                {"governor": governor, "target_khz": target_khz},
            )
            self.tracer.counter("boost_state", ts, {"boosted": 1})
        if self.recorder is not None:
            self.recorder.record(
                ts, "governor", f"input_boost target={target_khz}"
            )
        if self.metrics is not None:
            self.metrics.inc("governor.input_boosts")
        if self.decisions is not None:
            self.decisions.boosts.append(ts)

    def governor_decision(
        self,
        ts: int,
        governor: str,
        kind: str,
        khz: int,
        waited_us: int = 0,
    ) -> None:
        """A governor changed frequency: the decision and its context.

        Emitted only at actual frequency-change moments (ramp/step
        up/down, jump-to-max, settle-to-efficient), never on no-op
        samples — which keeps the stream mode-invariant under tick
        elision.  ``waited_us`` carries the decision's latency context
        where one exists (a floor hold before a ramp-down, the idle
        stretch before a settle).
        """
        if self.tracer is not None:
            self.tracer.instant(
                f"decision:{kind}", ts, TID_GOVERNOR,
                {"governor": governor, "khz": khz, "waited_us": waited_us},
            )
            if kind in ("ramp_down", "settle_drop"):
                self.tracer.counter("boost_state", ts, {"boosted": 0})
        if self.recorder is not None:
            self.recorder.record(
                ts, "governor", f"decision:{kind} khz={khz}"
            )
        if self.metrics is not None:
            self.metrics.inc("governor.decisions")
            self.metrics.inc(f"governor.decisions.{kind}")
        if self.decisions is not None:
            self.decisions.decisions.append((ts, kind, khz))

    def governor_load(self, ts: int, load: int) -> None:
        """One sampled load value — a trace counter track only.

        Load samples are mode-*dependent* (elided ticks never sample),
        so they feed the annotated timeline and a metrics counter but
        never the flight recorder or the decision log the attribution
        engine consumes.
        """
        if self.tracer is not None:
            self.tracer.counter("governor_load", ts, {"load": load})
        if self.metrics is not None:
            self.metrics.inc("governor.load_samples")

    def timer_parked(self, ts: int, governor: str, mode: str) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                f"park:{mode}", ts, TID_TIMERS, {"governor": governor}
            )
        if self.metrics is not None:
            self.metrics.inc("timer.parks")
            self.metrics.inc(f"timer.parks.{mode}")

    def timer_unparked(
        self,
        ts: int,
        governor: str,
        mode: str | None,
        parked_since: int,
        elided: int,
    ) -> None:
        """A park ended: emit the whole park as one span + elision stats."""
        if self.tracer is not None:
            self.tracer.complete(
                f"parked:{mode}",
                parked_since,
                max(0, ts - parked_since),
                TID_TIMERS,
                {"governor": governor, "ticks_elided": elided},
            )
        if self.metrics is not None:
            self.metrics.inc("timer.unparks")
            self.metrics.inc("timer.ticks_elided", elided)
            self.metrics.observe("timer.elided_per_park", elided)

    def freq_transition(self, ts: int, khz: int) -> None:
        """One cpufreq OPP change (the paper's Fig. 3 staircase)."""
        if self.tracer is not None:
            self.tracer.counter("cpufreq_khz", ts, {"khz": khz})
            self.tracer.instant(
                "opp_transition", ts, TID_CPUFREQ, {"khz": khz}
            )
        if self.recorder is not None:
            self.recorder.record(ts, "cpufreq", f"opp={khz}")
        if self.metrics is not None:
            self.metrics.inc("cpufreq.transitions")

    def frame_composed(self, ts: int, frame_index: int) -> None:
        """The display composed a frame on its vsync deadline."""
        if self.tracer is not None:
            self.tracer.instant(
                "frame", ts, TID_FRAMES, {"frame_index": frame_index}
            )
        if self.recorder is not None:
            self.recorder.record(ts, "frame", f"composed={frame_index}")
        if self.metrics is not None:
            self.metrics.inc("frames.composed")

    def gesture_window_opened(
        self, ts: int, label: str, gesture_index: int
    ) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                f"window_open:{label}", ts, TID_GESTURES,
                {"gesture_index": gesture_index},
            )
        if self.metrics is not None:
            self.metrics.inc("match.windows_opened")

    def lag_window_closed(
        self,
        begin_ts: int,
        duration_us: int,
        label: str,
        category: str,
        threshold_us: int,
    ) -> None:
        """A gesture's annotation window matched: the measured lag span."""
        if self.tracer is not None:
            self.tracer.complete(
                f"lag:{label}",
                begin_ts,
                duration_us,
                TID_GESTURES,
                {
                    "category": category,
                    "threshold_us": threshold_us,
                    "over_threshold": duration_us > threshold_us,
                },
            )
        if self.recorder is not None:
            self.recorder.record(
                begin_ts + duration_us, "lag", f"{label} dur={duration_us}"
            )
        if self.metrics is not None:
            self.metrics.inc("match.lags_matched")
            self.metrics.observe("match.lag_duration_us", duration_us)
            if duration_us > threshold_us:
                self.metrics.inc("match.lags_over_threshold")

    def segments_streamed(self, segments: int, end_frame: int) -> None:
        """A capture finalized: how many closed runs flowed to the taps."""
        if self.metrics is not None:
            self.metrics.inc("stream.segments_emitted", segments)
            self.metrics.set_gauge("stream.end_frame", end_frame)

    # --- harvest --------------------------------------------------------------

    def harvest_run(self, engine, governor=None, scheduler=None) -> dict:
        """The run's ``obs`` row section: registry snapshot + engine stats.

        Engine totals (and the scheduler's inlined chain chunks) are
        *read once here* rather than counted per event — the dispatch
        loop is the hottest code in the simulator and already keeps these
        counters for its own accounting.
        """
        metrics = self.metrics if self.metrics is not None else MetricsRegistry()
        metrics.inc("engine.events_dispatched", engine.events_fired)
        metrics.inc("engine.events_scheduled", engine.events_scheduled)
        metrics.inc("engine.heap_compactions", engine.heap_compactions)
        if scheduler is not None:
            metrics.inc("kernel.chunks_inlined", scheduler.chunks_inlined)
        if governor is not None:
            samples = getattr(governor, "samples_taken", None)
            if samples is not None:
                metrics.set_gauge("governor.samples_taken", samples)
        snapshot = metrics.snapshot()
        if self.tracer is not None:
            snapshot["trace_events"] = self.tracer.event_count
        if self.recorder is not None:
            snapshot["flight_recorder"] = {
                "recorded": self.recorder.total_recorded,
                "dropped": self.recorder.dropped,
                "capacity": self.recorder.capacity,
            }
        return snapshot


__all__ = [
    "DecisionLog",
    "OBS_SCHEMA_VERSION",
    "ObsError",
    "ObsSession",
    "TRACE_FLAG",
    "active",
    "install",
    "observed",
    "trace_enabled",
    "uninstall",
]
