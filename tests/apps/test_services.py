"""Tests for background system services."""

import random

import pytest

from repro.apps.services import DEFAULT_SERVICES, BackgroundServices, ServiceSpec
from repro.core.engine import Engine
from repro.core.simtime import seconds
from repro.device.cpu import CpuCore
from repro.device.frequencies import snapdragon_8074_table
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import PRIORITY_BACKGROUND
from tests.conftest import pending_events


@pytest.fixture
def rig():
    engine = Engine()
    core = CpuCore(engine.clock, snapdragon_8074_table())
    scheduler = Scheduler(engine, core)
    return engine, core, scheduler


def test_services_spawn_background_work(rig):
    engine, _core, scheduler = rig
    services = BackgroundServices(engine, scheduler, random.Random(1))
    services.start()
    engine.run_until(seconds(120))
    assert services.tasks_spawned >= 4
    assert scheduler.completed_cycles > 0


def test_noise_stream_controls_schedule(rig):
    engine, _core, scheduler = rig

    def spawned(seed):
        eng = Engine()
        core = CpuCore(eng.clock, snapdragon_8074_table())
        sched = Scheduler(eng, core)
        services = BackgroundServices(eng, sched, random.Random(seed))
        services.start()
        eng.run_until(seconds(120))
        return services.tasks_spawned, sched.completed_cycles

    assert spawned(1) == spawned(1)
    assert spawned(1) != spawned(2)


def test_all_default_services_fire_within_two_periods(rig):
    engine, _core, scheduler = rig
    services = BackgroundServices(engine, scheduler, random.Random(3))
    services.start()
    horizon = 2 * max(s.mean_period_us for s in DEFAULT_SERVICES)
    engine.run_until(horizon)
    assert services.tasks_spawned >= len(DEFAULT_SERVICES)


def test_start_is_idempotent(rig):
    engine, _core, scheduler = rig
    services = BackgroundServices(engine, scheduler, random.Random(1))
    services.start()
    pending_after_first = pending_events(engine)
    services.start()
    assert pending_events(engine) == pending_after_first


def test_custom_service_spec(rig):
    engine, _core, scheduler = rig
    spec = ServiceSpec("custom", 5_000_000, 1_000_000, 30e6, 5e6)
    services = BackgroundServices(
        engine, scheduler, random.Random(1), services=(spec,)
    )
    services.start()
    engine.run_until(seconds(60))
    assert services.tasks_spawned >= 8
