"""Unit tests for chunked background work."""

import pytest

from repro.core.engine import Engine
from repro.core.errors import SimulationError
from repro.device.cpu import CpuCore
from repro.device.frequencies import snapdragon_8074_table
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import PRIORITY_FOREGROUND
from repro.kernel.workchains import submit_chunked


def _make_rig():
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    scheduler = Scheduler(engine, core)
    return engine, core, scheduler


@pytest.fixture
def rig():
    return _make_rig()


def test_total_work_is_preserved(rig):
    engine, _core, scheduler = rig
    chunks = submit_chunked(
        engine, scheduler, "svc", 100e6, chunk_cycles=30e6, gap_us=1_000
    )
    engine.run_until(10_000_000)
    assert scheduler.completed_tasks == chunks
    assert scheduler.completed_cycles == pytest.approx(100e6)


def test_gaps_leave_the_core_idle(rig):
    engine, core, scheduler = rig
    submit_chunked(
        engine, scheduler, "svc", 60e6, chunk_cycles=30e6, gap_us=100_000
    )
    engine.run_until(10_000_000)
    # 60e6 cycles at 0.3 GHz = 200 ms busy; one 100 ms gap in between.
    assert core.busy_time_total() == pytest.approx(200_000, abs=5)


def test_single_chunk_for_small_work(rig):
    engine, _core, scheduler = rig
    chunks = submit_chunked(
        engine, scheduler, "svc", 10e6, chunk_cycles=30e6, gap_us=1_000
    )
    assert chunks == 1


def test_priority_passthrough(rig):
    engine, _core, scheduler = rig
    submit_chunked(
        engine,
        scheduler,
        "fg-chain",
        30e6,
        chunk_cycles=30e6,
        priority=PRIORITY_FOREGROUND,
    )
    assert scheduler.current_task.priority == PRIORITY_FOREGROUND


def test_invalid_parameters_rejected(rig):
    engine, _core, scheduler = rig
    with pytest.raises(SimulationError):
        submit_chunked(engine, scheduler, "svc", 0)
    with pytest.raises(SimulationError):
        submit_chunked(engine, scheduler, "svc", 10e6, chunk_cycles=0)
    with pytest.raises(SimulationError):
        submit_chunked(engine, scheduler, "svc", 10e6, gap_us=-1)


def _recording_submits(scheduler):
    submitted = []
    original = scheduler.submit

    def submit(task):
        submitted.append(task)
        return original(task)

    scheduler.submit = submit
    return submitted


def test_chunk_names_gaps_and_event_counts_are_pinned(monkeypatch):
    # Without run-ahead every chunk is a submitted Task and every gap and
    # completion a dispatched event.
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    engine, _core, scheduler = _make_rig()
    submitted = _recording_submits(scheduler)
    chunks = submit_chunked(
        engine, scheduler, "svc", 90e6, chunk_cycles=30e6, gap_us=7_000
    )
    engine.run_until(10_000_000)
    assert chunks == 3
    assert [task.name for task in submitted] == [
        "svc[0/3]", "svc[1/3]", "svc[2/3]"
    ]
    # 30e6 cycles at 0.3 GHz = 100 ms per chunk; each gap is measured
    # from the previous chunk's completion.
    assert [(task.started_at, task.completed_at) for task in submitted] == [
        (0, 100_000), (107_000, 207_000), (214_000, 314_000)
    ]
    # One completion per chunk plus one gap timer between chunks.
    assert engine.events_scheduled == 5
    assert engine.events_fired == 5
    assert scheduler.completed_tasks == 3


def test_run_ahead_keeps_intervals_and_seqs_of_the_pinned_chain(rig):
    """The same chain on a listener-free core runs chunks 1 and 2 inline:
    two events fewer each, the same seqs drawn and busy intervals."""
    engine, core, scheduler = rig
    core.enable_busy_trace()
    submitted = _recording_submits(scheduler)
    submit_chunked(
        engine, scheduler, "svc", 90e6, chunk_cycles=30e6, gap_us=7_000
    )
    engine.run_until(10_000_000)
    assert [task.name for task in submitted] == ["svc[0/3]"]
    assert list(core.busy_pairs()) == [
        (0, 100_000), (107_000, 207_000), (214_000, 314_000)
    ]
    assert scheduler.chunks_inlined == 2
    assert engine.events_scheduled == 5
    assert engine.events_fired == 5 - 2 * scheduler.chunks_inlined
    assert scheduler.completed_tasks == 3
