"""Unit tests for the single-core preemptive scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.core.errors import SimulationError
from repro.device.cpu import CpuCore
from repro.device.cpufreq import RELATION_HIGH, CpuFreqPolicy
from repro.device.frequencies import snapdragon_8074_table
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import PRIORITY_BACKGROUND, PRIORITY_FOREGROUND, Task


@pytest.fixture
def rig():
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    policy = CpuFreqPolicy(engine.clock, core)
    scheduler = Scheduler(engine, core)
    policy.add_transition_observer(scheduler.on_transition)
    return engine, core, policy, scheduler


def test_task_completion_time_matches_frequency(rig):
    engine, core, _policy, scheduler = rig
    done = []
    # 300e6 cycles at 0.30 GHz = exactly 1 second.
    scheduler.submit(Task("t", 300e6, on_complete=lambda t: done.append(engine.now)))
    engine.run_until(2_000_000)
    assert done == [1_000_000]


def test_core_busy_while_running(rig):
    engine, core, _policy, scheduler = rig
    scheduler.submit(Task("t", 300e6))
    engine.run_until(500_000)
    assert core.busy
    engine.run_until(1_500_000)
    assert not core.busy


def test_fifo_within_priority(rig):
    engine, _core, _policy, scheduler = rig
    order = []
    scheduler.submit(Task("a", 30e6, on_complete=lambda t: order.append("a")))
    scheduler.submit(Task("b", 30e6, on_complete=lambda t: order.append("b")))
    engine.run_until(1_000_000)
    assert order == ["a", "b"]


def test_foreground_preempts_background(rig):
    engine, _core, _policy, scheduler = rig
    order = []
    scheduler.submit(
        Task("bg", 300e6, PRIORITY_BACKGROUND, lambda t: order.append("bg"))
    )
    engine.run_until(100_000)
    scheduler.submit(
        Task("fg", 30e6, PRIORITY_FOREGROUND, lambda t: order.append("fg"))
    )
    engine.run_until(3_000_000)
    assert order == ["fg", "bg"]


def test_preempted_task_total_time_preserved(rig):
    engine, _core, _policy, scheduler = rig
    done = {}
    scheduler.submit(
        Task("bg", 300e6, PRIORITY_BACKGROUND, lambda t: done.setdefault("bg", engine.now))
    )
    engine.run_until(100_000)
    scheduler.submit(
        Task("fg", 150e6, PRIORITY_FOREGROUND, lambda t: done.setdefault("fg", engine.now))
    )
    engine.run_until(5_000_000)
    # fg runs 0.5s from 0.1s; bg needs 1.0s total, so it ends at 1.5s.
    assert done["fg"] == 600_000
    assert done["bg"] == 1_500_000


def test_frequency_change_rescales_remaining_work(rig):
    engine, _core, policy, scheduler = rig
    done = []
    scheduler.submit(Task("t", 600e6, on_complete=lambda t: done.append(engine.now)))
    engine.schedule_at(
        1_000_000, lambda: policy.set_target(2_150_400, RELATION_HIGH)
    )
    engine.run_until(3_000_000)
    # 1s at 0.3 GHz retires 300e6; remaining 300e6 at 2.1504 GHz ~ 139.5 ms.
    assert done[0] == pytest.approx(1_139_509, abs=5)


def test_completed_cycles_accounted(rig):
    engine, core, _policy, scheduler = rig
    scheduler.submit(Task("a", 50e6))
    scheduler.submit(Task("b", 70e6))
    engine.run_until(2_000_000)
    assert scheduler.completed_tasks == 2
    assert scheduler.completed_cycles == pytest.approx(120e6)
    # The core retired at least the demanded cycles (ceil rounding).
    assert core.cycles_retired >= 120e6 - 1
    assert core.cycles_retired == pytest.approx(120e6, rel=1e-3)


def test_idle_listener_fires_when_queue_drains(rig):
    engine, _core, _policy, scheduler = rig
    idles = []
    scheduler.add_idle_listener(lambda: idles.append(engine.now))
    scheduler.submit(Task("t", 30e6))
    engine.run_until(1_000_000)
    assert len(idles) == 1


def test_resubmit_completed_task_rejected(rig):
    engine, _core, _policy, scheduler = rig
    task = Task("t", 30e6)
    scheduler.submit(task)
    engine.run_until(1_000_000)
    with pytest.raises(SimulationError):
        scheduler.submit(task)


def test_back_to_back_tasks_have_no_idle_gap(rig):
    engine, core, _policy, scheduler = rig
    scheduler.submit(Task("a", 30e6))
    scheduler.submit(Task("b", 30e6))
    engine.run_until(1_000_000)
    # Total busy time equals the two tasks' demand (no gaps double-counted).
    assert core.busy_time_total() == pytest.approx(200_000, abs=3)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e6, max_value=200e6), min_size=1, max_size=6
    )
)
def test_work_conservation(task_cycles):
    """Whatever the mix, completed cycles equal the demanded cycles."""
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    scheduler = Scheduler(engine, core)
    for index, cycles in enumerate(task_cycles):
        priority = PRIORITY_BACKGROUND if index % 2 else PRIORITY_FOREGROUND
        scheduler.submit(Task(f"t{index}", cycles, priority))
    engine.run_until(30_000_000)
    assert scheduler.completed_tasks == len(task_cycles)
    assert scheduler.completed_cycles == pytest.approx(sum(task_cycles))
