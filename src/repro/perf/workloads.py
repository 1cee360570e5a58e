"""Deterministic benchmark workloads.

Each workload exercises one kernel subsystem in isolation (event heap,
periodic timers, cancellation churn, the scheduler's task path, the
cpufreq trace queries, the demand walk, the replay agent's input cursor,
the annotation of a long recording, the fleet's work queue, the oracle
compose) so a regression pinpoints its layer.  Full study cells are
``perfbench/``'s to measure.

Every workload is seeded and deterministic: two runs execute the same
event sequence, so wall-clock differences measure the implementation, not
the workload.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.core.engine import Engine
from repro.core.simtime import seconds
from repro.device.cpu import CpuCore
from repro.device.cpufreq import CpuFreqPolicy
from repro.device.frequencies import snapdragon_8074_table
from repro.kernel.scheduler import Scheduler
from repro.kernel.timers import PeriodicTimer
from repro.kernel.workchains import submit_chunked


def run_engine_events(n_events: int = 200_000, chains: int = 64) -> Engine:
    """One-shot event storm: ``chains`` self-rescheduling cascades.

    Measures raw schedule/dispatch cost of the heap with a live queue of
    ``chains`` entries — no cancellations, no periodic re-arms.
    """
    engine = Engine()
    remaining = [n_events]

    def make_chain(index: int) -> Callable[[], None]:
        delay = 1 + (index * 7 + 3) % 97

        def fire() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule_after(delay, fire)

        return fire

    for index in range(min(chains, n_events)):
        engine.schedule_after(1 + index, make_chain(index))
    engine.run_until_idle()
    return engine


def run_engine_periodic(
    timers: int = 16, sim_us: int = 200_000
) -> Engine:
    """Periodic timers with co-prime-ish periods re-armed in place."""
    engine = Engine()
    ticks = [0]

    def tick() -> None:
        ticks[0] += 1

    for index in range(timers):
        PeriodicTimer(engine, 53 + 13 * index, tick).start()
    engine.run_until(sim_us)
    return engine


def run_engine_churn(rounds: int = 400, batch: int = 512) -> Engine:
    """Schedule-then-cancel churn: tombstone compaction under pressure.

    Every round schedules ``batch`` far-future events and cancels 90% of
    them; a heap without compaction grows linearly with rounds and turns
    every push into log(total-ever-scheduled) work.
    """
    engine = Engine()
    for _round in range(rounds):
        base = engine.now + 1_000
        events = [
            engine.schedule_at(base + index, _noop) for index in range(batch)
        ]
        for event in events[: batch - batch // 10]:
            event.cancel()
        engine.run_until(base + batch)
    return engine


def _noop() -> None:
    return None


_REPLAY_INPUTS = 50_000
_REPLAY_SPACING_US = 250


@lru_cache(maxsize=1)
def _input_trace(n_inputs: int, path: str):
    """The bench's synthetic trace, built once per process (like the
    demand program below) so the timed region is the replay."""
    from repro.core.events import EV_SYN, SYN_REPORT, InputEvent
    from repro.replay.trace import EventTrace

    return EventTrace(
        [
            InputEvent(1 + index * _REPLAY_SPACING_US, path, EV_SYN,
                       SYN_REPORT, 0)
            for index in range(n_inputs)
        ]
    )


def run_replay_inputs(n_inputs: int = _REPLAY_INPUTS) -> Engine:
    """A long input trace replayed into an idle device.

    No governor, no UI stack and no reader on the input node: the cost is
    the replay agent's own queue traffic.  With one re-armed cursor event
    the heap stays one entry deep; pre-scheduling the whole trace would
    make every dispatch sift through ~log2(n_inputs) levels, a >3x drop
    the perf gate catches.
    """
    from repro.device.device import Device
    from repro.replay import ReplayAgent

    device = Device()
    trace = _input_trace(n_inputs, device.touchscreen.node.path)
    ReplayAgent(device.engine, device.input_subsystem).schedule(trace)
    device.run_for(n_inputs * _REPLAY_SPACING_US)
    return device.engine


def run_scheduler_chunks(chains: int = 64, chain_cycles: float = 600e6) -> Engine:
    """Background chunk chains through the scheduler at a fixed frequency.

    Exercises the task dispatch/completion path, busy accounting and the
    energy meter — the per-chunk machinery every replay pays thousands of
    times.  The first half of the chains start 97 µs apart, so another
    chain's task is queued when a chunk completes and every chunk goes
    through the heap; the second half then run one at a time on the
    otherwise idle core, where the scheduler plays a chain's chunks in
    place (:meth:`~repro.kernel.scheduler.Scheduler.run_chunks_inline`).
    """
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    scheduler = Scheduler(engine, core)

    def start(index: int) -> None:
        submit_chunked(engine, scheduler, f"bench:{index}", chain_cycles)

    queued = chains // 2
    for index in range(queued):
        engine.schedule_at(1 + index * 97, lambda i=index: start(i))
    engine.run_until_idle()
    for index in range(queued, chains):
        engine.schedule_after(1, lambda i=index: start(i))
        engine.run_until_idle()
    return engine


def run_policy_queries(
    transitions: int = 10_000, queries: int = 10_000
) -> int:
    """A transition-heavy frequency trace plus many point queries.

    Guards the bisect fast path in :meth:`CpuFreqPolicy.frequency_at`: a
    linear scan would make this quadratic in ``transitions``.
    Returns a checksum of the queried frequencies.
    """
    engine = Engine()
    table = snapdragon_8074_table()
    core = CpuCore(engine.clock, table)
    policy = CpuFreqPolicy(engine.clock, core)
    freqs = table.frequencies_khz
    step_us = 100
    for index in range(transitions):
        engine.clock.advance_to((index + 1) * step_us)
        policy.set_target(freqs[index % len(freqs)])
    span = transitions * step_us
    checksum = 0
    for index in range(queries):
        timestamp = (index * 7919) % span
        checksum = (checksum + policy.frequency_at(timestamp)) % (1 << 61)
    return checksum


def _demand_kernel_trace(windows: int, states: int = 4):
    """A synthetic demand trace exercising every compiled node kind.

    Per input window: a foreground tap task fans out into a staged timer
    chain, two invalidates and a background IO task with a childless
    timer — the shape a real capture produces, sized so foreground work
    always quiesces before the next window's guard check.  One periodic
    chain runs throughout.  Guards are empty (quiescence) and the match
    table is empty, so no invalidated state ever matches.
    """
    from repro.demand.trace import (
        KIND_CHAIN_START,
        KIND_INVALIDATE,
        KIND_TASK,
        KIND_TIMER,
        DemandNode,
        DemandTrace,
    )

    nodes: list[DemandNode] = []

    def add(kind: str, **payload) -> int:
        node = DemandNode(node_id=len(nodes), kind=kind, **payload)
        nodes.append(node)
        return node.node_id

    add(
        KIND_CHAIN_START,
        chain_key=0,
        name="bench:chain",
        period_us=33_000,
        cycles=2.0e6,
        priority=1,
    )
    setup = add(KIND_TASK, name="bench:setup", cycles=1.0e6, priority=1)
    add(KIND_INVALIDATE, parent=setup, state_id=0)
    for window in range(windows):
        tap = add(
            KIND_TASK,
            input_ordinal=window,
            name="bench:tap",
            cycles=3.0e6,
            priority=0,
        )
        add(KIND_INVALIDATE, parent=tap, state_id=(window + 1) % states)
        stage = add(KIND_TIMER, parent=tap, delay_us=2_000)
        render = add(
            KIND_TASK,
            parent=stage,
            name="bench:render",
            cycles=2.0e6,
            priority=0,
        )
        add(KIND_INVALIDATE, parent=render, state_id=window % states)
        io = add(
            KIND_TASK, parent=tap, name="bench:io", cycles=1.5e6, priority=1
        )
        add(KIND_TIMER, parent=io, delay_us=500)
    return DemandTrace(
        workload="perf:demand_kernel",
        capture_config="fixed:300000",
        duration_us=windows * 20_000 + 20_000,
        input_events=windows,
        state_count=states,
        match_states=[],
        nodes=nodes,
    )


_DEMAND_KERNEL_PROGRAM = None
_DEMAND_KERNEL_WINDOWS = 3_000


def _demand_kernel_program(windows: int):
    """The bench's preprocessed program, built once per process.

    Mirrors a fleet worker: one :class:`DemandProgram` (and one compiled
    lowering, memoized inside it) shared by every evaluation, so the
    timed region is the walk — not trace construction or lowering.
    """
    global _DEMAND_KERNEL_PROGRAM
    if (
        _DEMAND_KERNEL_PROGRAM is None
        or _DEMAND_KERNEL_PROGRAM.trace.input_events != windows
    ):
        from repro.demand.replayer import DemandProgram

        _DEMAND_KERNEL_PROGRAM = DemandProgram(_demand_kernel_trace(windows))
    return _DEMAND_KERNEL_PROGRAM


def run_demand_kernel(windows: int = _DEMAND_KERNEL_WINDOWS) -> Engine:
    """The demand executor's walk over a live kernel at one fixed OPP.

    Isolates what the action-tuple walk optimises: node dispatch, task
    submission, timer re-arm and child fan-out — with the governor
    pinned (``fixed:960000``) so sampling cost does not drown the walk.
    """
    from repro.demand.replayer import DemandExecutor
    from repro.device.device import Device

    program = _demand_kernel_program(windows)
    device = Device()
    executor = DemandExecutor(device, program)
    executor.run_setup()
    device.set_governor("fixed:960000")
    spacing = 20_000
    for window in range(windows):
        device.engine.schedule_at(
            5_000 + window * spacing,
            lambda: executor.on_input(None),
        )
    device.run_for(windows * spacing + 20_000)
    return device.engine


def run_governor_sim(
    governor: str = "interactive", sim_s: int = 120
) -> Engine:
    """A governor sampling over synthetic bursty load, device-level only.

    Uses the scheduler and background chunks but no UI stack, apps or
    capture — the cheapest workload that exercises the governor fast path
    (tick elision) end to end.
    """
    from repro.device.device import Device

    device = Device()
    device.set_governor(governor)
    for index in range(sim_s):
        device.engine.schedule_at(
            seconds(index) + 1 + (index * 131) % 997,
            lambda i=index: submit_chunked(
                device.engine,
                device.scheduler,
                f"burst:{i}",
                80e6 + (i % 7) * 40e6,
            ),
        )
    device.run_for(seconds(sim_s))
    return device.engine


_ANNOTATE_LAGS = 600
_ANNOTATE_SPACING_FRAMES = 60  # one lag every 2 s of 30 fps video


@lru_cache(maxsize=1)
def _annotation_session(lags: int):
    """A synthetic recording: ``lags`` taps, one every two seconds.

    Each lag shows a pressed state for two frames (a candidate *before*
    the completion, which the pick must skip), one loading frame, then its
    result, held until the next tap.  A status-bar mask is snapshotted at
    every completion, as on the real device.  Built once per process so
    the timed region is the annotation.
    """
    import numpy as np

    from repro.capture import SegmentStreamer, Video
    from repro.core.geometry import Rect
    from repro.device.display import VSYNC_PERIOD_US
    from repro.uifw.journal import GroundTruthJournal

    width, height = 16, 16
    video = Video(width, height)
    streamer = SegmentStreamer(width, height)
    streamer.add_tap(video)
    journal = GroundTruthJournal()
    journal.mask_provider = lambda: [Rect(0, 0, width, 2)]
    pressed = np.full((height, width), 200, dtype=np.uint8)
    loading = np.full((height, width), 201, dtype=np.uint8)
    streamer.record_frame(0, np.zeros((height, width), dtype=np.uint8))
    for lag in range(lags):
        begin = 1 + lag * _ANNOTATE_SPACING_FRAMES
        streamer.record_frame(begin + 1, pressed)
        streamer.record_frame(begin + 3, loading)
        streamer.record_frame(
            begin + 4, np.full((height, width), lag % 100, dtype=np.uint8)
        )
        journal.note_gesture("tap", begin * VSYNC_PERIOD_US)
        token = journal.open_interaction(
            f"bench:lag{lag}", "common", begin * VSYNC_PERIOD_US
        )
        journal.gesture_dispatched(True)
        token.complete((begin + 3) * VSYNC_PERIOD_US)
    streamer.finalize(1 + lags * _ANNOTATE_SPACING_FRAMES)
    return video, journal


def run_annotate_session(lags: int = _ANNOTATE_LAGS) -> int:
    """Annotate a long synthetic recording; returns the lags annotated.

    Guards the annotator's early stop: each pick must read the video only
    up to its lag's completion.  Suggesting to the end of the video for
    every lag makes the work quadratic in session length, a >10x drop at
    this size.
    """
    from repro.analysis.annotator import AutoAnnotator

    video, journal = _annotation_session(lags)
    database = AutoAnnotator("perf:annotate_session").annotate(video, journal)
    return database.lag_count


_QUEUE_ROUNDTRIPS = 500


def run_queue_roundtrip(roundtrips: int = _QUEUE_ROUNDTRIPS) -> int:
    """Lease and ack one cell at a time on a temp-dir work queue; returns
    the round trips made.

    Guards the queue's kept connection: opening a connection per lease
    and per ack (and closing it, which checkpoints the WAL) costs about
    70 times a kept connection's write transaction.
    """
    import tempfile
    from pathlib import Path

    from repro.fleet.backends.distributed import SqliteWorkQueue

    with tempfile.TemporaryDirectory(prefix="repro-perf-queue-") as tmp:
        queue = SqliteWorkQueue(Path(tmp) / "queue.sqlite3")
        try:
            queue.ensure()
            queue.enqueue(
                "perf",
                [(index, {"index": index}, "") for index in range(roundtrips)],
            )
            done = 0
            while cell := queue.lease("perf", "perf", 30.0):
                index, _wire, _key = cell
                queue.ack("perf", index, {"index": index}, None, {})
                done += 1
        finally:
            queue.close()
    return done


_COMPOSE_LAGS = 2_000
_COMPOSE_INTERVALS = 20_000


@lru_cache(maxsize=1)
def _compose_inputs(lags: int):
    """The oracle's inputs for a synthetic ``lags``-lag workload: one lag
    profile, busy trace and energy per OPP of the stock table.  Lag
    ``i`` begins at ``i`` seconds and runs shorter at higher frequency,
    so the slowest run, which uses the least energy and is the oracle's
    base, has lags that overlap the next; the busy traces hold
    ``_COMPOSE_INTERVALS`` intervals each."""
    from repro.analysis.lagprofile import LagMeasurement, LagProfile
    from repro.results.pairs import IntPairs

    table = snapdragon_8074_table()
    fastest = table.max_khz
    duration_us = seconds(lags + 1)
    spacing = duration_us // _COMPOSE_INTERVALS
    profiles = {}
    busy = {}
    energy = {}
    for khz in table.frequencies_khz:
        slowdown = fastest / khz
        profiles[khz] = LagProfile(
            "perf:compose",
            tuple(
                LagMeasurement(
                    lag_index=index,
                    gesture_index=index,
                    label=f"app:lag{index}",
                    category="simple_frequent",
                    begin_time_us=seconds(index),
                    end_frame=index * 30,
                    duration_us=int(
                        (50_000 + 7_919 * index % 250_000) * slowdown
                    ),
                    threshold_us=400_000,
                )
                for index in range(lags)
            ),
        )
        busy_len = min(spacing - 1, int(spacing * 0.2 * slowdown))
        busy[khz] = IntPairs(
            (index * spacing, index * spacing + busy_len)
            for index in range(_COMPOSE_INTERVALS)
        )
        energy[khz] = khz / 1e6
    return table, profiles, busy, energy, duration_us


def run_oracle_compose(lags: int = _COMPOSE_LAGS) -> int:
    """Compose the oracle of a ``lags``-lag workload from its 14 fixed
    runs, busy timelines included; returns the lags composed.

    Guards the compose's linearity: the busy timelines validate and
    prefix-sum with numpy, and the energy pass visits each of the base
    run's lag windows only where it overlaps a base segment.  Checking
    every window against every base segment is quadratic in the lag
    count, far below the band at this size.
    """
    from repro.device.power import PowerModel
    from repro.oracle.builder import BusyTimeline, build_oracle

    table, profiles, busy, energy, duration_us = _compose_inputs(lags)
    result = build_oracle(
        profiles,
        {khz: BusyTimeline(pairs) for khz, pairs in busy.items()},
        energy,
        duration_us=duration_us,
        table=table,
        power_model=PowerModel(),
    )
    return len(result.lags)
