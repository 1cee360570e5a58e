"""Exact kernel event counts for dataset-02 cells.

The task lifecycle is the simulator's hottest path, and speed work on it
must leave the event stream untouched: the same heap entries pushed
(every seq drawn), the same tombstone compactions, cpufreq transitions
and completed tasks.  Events *dispatched* may only fall by the chain
chunks the scheduler runs in place at a pinned frequency, two events
(IO-gap expiry and completion) per inlined chunk, so
``events_dispatched + 2 * kernel.chunks_inlined`` is pinned to the
count of a replay without run-ahead.  Sampling governors listen to the
core, so nothing is inlined under them.  A sampling timer parks only
while the core idles, so ``idle`` and ``hold`` are the only park modes
counted.  These counts are
deterministic, so they are pinned exactly; a change to any of them is a
behaviour change, never noise.
"""

import pytest

from repro.demand import DemandProgram, capture_demand, demand_replay_run
from repro.harness.experiment import record_workload, replay_run
from repro.kernel.scheduler import Scheduler
from repro.obs.session import ObsSession, observed
from repro.workloads.datasets import dataset

# (events_dispatched, heap_compactions, events_scheduled,
#  cpufreq.transitions, completed tasks, kernel.chunks_inlined) per cell.
PINNED = {
    ("demand", "fixed:300000"): (5192, 0, 8585, 0, 3767, 1685),
    ("demand", "fixed:960000"): (3742, 0, 8591, 1, 3776, 2419),
    ("full", "fixed:960000"): (3764, 0, 8612, 1, 3776, 2418),
    ("demand", "interactive"): (15922, 0, 19447, 3539, 3805, 0),
    ("demand", "ondemand"): (21143, 0, 24144, 5951, 3857, 0),
    ("demand", "conservative"): (10496, 0, 10778, 506, 3790, 0),
    ("full", "interactive"): (15942, 0, 19468, 3539, 3805, 0),
}

# Events dispatched by the same cell without run-ahead (REPRO_FASTPATH=0).
DISPATCHED_WITHOUT_RUN_AHEAD = {
    ("demand", "fixed:300000"): 8562,
    ("demand", "fixed:960000"): 8580,
    ("full", "fixed:960000"): 8600,
    ("demand", "interactive"): 15922,
    ("demand", "ondemand"): 21143,
    ("demand", "conservative"): 10496,
    ("full", "interactive"): 15942,
}

# Timer parks by mode (obs counters ``timer.parks.<mode>``); a pinned
# governor has no sampling timer.
PARKS = {
    ("demand", "fixed:300000"): {},
    ("demand", "fixed:960000"): {},
    ("full", "fixed:960000"): {},
    ("demand", "interactive"): {"idle": 920, "hold": 2432},
    ("demand", "ondemand"): {"idle": 2957},
    ("demand", "conservative"): {"idle": 309},
    ("full", "interactive"): {"idle": 920, "hold": 2432},
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
        counters["kernel.chunks_inlined"],
    )
    assert got == PINNED[(mode, config)]
    assert got[0] + 2 * got[5] == DISPATCHED_WITHOUT_RUN_AHEAD[(mode, config)]
    prefix = "timer.parks."
    parks = {
        key[len(prefix):]: value
        for key, value in counters.items()
        if key.startswith(prefix)
    }
    assert parks == PARKS[(mode, config)]
