"""Shared rig for governor tests: device internals without the UI stack."""

from __future__ import annotations

import pytest

from repro.core.engine import Engine
from repro.device.cpu import CpuCore
from repro.device.cpufreq import CpuFreqPolicy
from repro.device.frequencies import snapdragon_8074_table
from repro.device.input_device import InputSubsystem
from repro.device.loadtracker import LoadTracker
from repro.governors.base import GovernorContext
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import Task


class GovernorRig:
    """Engine + core + policy + scheduler wired like a Device."""

    def __init__(self) -> None:
        self.engine = Engine()
        self.core = CpuCore(self.engine.clock, snapdragon_8074_table())
        self.policy = CpuFreqPolicy(self.engine.clock, self.core)
        self.scheduler = Scheduler(self.engine, self.core)
        self.policy.add_transition_observer(self.scheduler.on_transition)
        self.input_subsystem = InputSubsystem()
        self.touch_node = self.input_subsystem.register(
            "/dev/input/event1", "touch"
        )

    def context(self) -> GovernorContext:
        return GovernorContext(
            engine=self.engine,
            policy=self.policy,
            load_tracker=LoadTracker(self.engine.clock, self.core),
            input_subsystem=self.input_subsystem,
        )

    def submit_work(self, cycles: float, name: str = "work") -> Task:
        task = Task(name, cycles)
        self.scheduler.submit(task)
        return task

    def run(self, duration_us: int) -> None:
        self.engine.run_until(self.engine.now + duration_us)


@pytest.fixture
def rig() -> GovernorRig:
    return GovernorRig()
