"""Exact kernel event counts for pinned dataset-02 cells.

The task lifecycle is the simulator's hottest path, and speed work on it
must leave the event stream untouched: the same events fired, the same
heap entries pushed (every seq drawn), the same tombstone compactions,
cpufreq transitions and completed tasks.  These counts are deterministic,
so they are pinned exactly; a change to any of them is a behaviour
change, never noise.
"""

import pytest

from repro.demand import DemandProgram, capture_demand, demand_replay_run
from repro.harness.experiment import record_workload, replay_run
from repro.kernel.scheduler import Scheduler
from repro.obs.session import ObsSession, observed
from repro.workloads.datasets import dataset

# (events_dispatched, heap_compactions, events_scheduled,
#  cpufreq.transitions, completed tasks) per cell.
PINNED = {
    ("demand", "fixed:960000"): (8580, 0, 8591, 1, 3776),
    ("demand", "interactive"): (15486, 0, 19011, 3539, 3805),
    ("demand", "ondemand"): (20622, 0, 23623, 5951, 3857),
    ("demand", "conservative"): (10496, 0, 10778, 506, 3790),
    ("full", "interactive"): (15506, 0, 19032, 3539, 3805),
}


@pytest.fixture(scope="module")
def ds02():
    artifacts = record_workload(dataset("02"))
    return artifacts, DemandProgram(capture_demand(artifacts))


@pytest.mark.parametrize("mode, config", sorted(PINNED))
def test_kernel_counts_are_pinned(ds02, monkeypatch, mode, config):
    artifacts, program = ds02
    schedulers = []
    original_init = Scheduler.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        schedulers.append(self)

    monkeypatch.setattr(Scheduler, "__init__", tracking_init)
    with observed(ObsSession.for_run()):
        if mode == "demand":
            record = demand_replay_run(artifacts, program, config)
        else:
            record = replay_run(artifacts, config)
    (scheduler,) = schedulers
    counters = record.obs["counters"]
    got = (
        counters["engine.events_dispatched"],
        counters.get("engine.heap_compactions", 0),
        counters["engine.events_scheduled"],
        counters.get("cpufreq.transitions", 0),
        scheduler.completed_tasks,
    )
    assert got == PINNED[(mode, config)]
