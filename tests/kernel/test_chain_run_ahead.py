"""Chain run-ahead: inlined chunks leave every observable unchanged.

Part (a) drives a bare engine + scheduler through the corners of the
inline window and compares everything a record can see — busy pairs,
energy floats, task ids drawn, seqs drawn, completions, what other
callbacks observe — against the same scenario with ``REPRO_FASTPATH=0``,
which never inlines.  Part (b) checks whole pinned cells, generated from
a seed, through the full replay and the demand pass.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import PRIORITY_INPUT, Engine
from repro.device.cpu import CpuCore
from repro.device.frequencies import snapdragon_8074_table
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import PRIORITY_FOREGROUND, Task
from repro.kernel.workchains import PeriodicWorkChain, submit_chunked
from tests.conftest import pending_events

# 30e6 cycles at 0.30 GHz = 100 ms per chunk; with a 7 ms gap the chain
# below is busy over [0, 100000], [107000, 207000], [214000, 314000].
CHUNK = 30e6
GAP = 7_000
END = 10_000_000


class Rig:
    def __init__(self) -> None:
        self.engine = Engine()
        self.core = CpuCore(self.engine.clock, snapdragon_8074_table())
        self.core.enable_busy_trace()
        self.scheduler = Scheduler(self.engine, self.core)
        self.seen: list = []
        self._first_id = Task("probe", 1).task_id

    def note(self, label: str) -> None:
        """Record what a callback observes at its fire time."""
        self.seen.append((
            label,
            self.engine.now,
            self.engine.firing_priority,
            self.core.busy,
            self.scheduler.completed_tasks,
            self.core.energy_joules(),
        ))

    def observables(self) -> tuple:
        core = self.core
        return (
            list(core.busy_pairs()),
            core.energy_joules(),
            core.dynamic_energy_joules(),
            core.busy_time_total(),
            Task("probe", 1).task_id - self._first_id,
            self.engine.events_scheduled,
            self.scheduler.completed_tasks,
            self.scheduler.completed_cycles,
            self.seen,
        )


def _both(monkeypatch, scenario):
    """(fast observables, chunks inlined, slow observables)."""
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    fast = Rig()
    scenario(fast)
    # Task ids are process-wide: read each rig's before the next runs.
    fast_seen = fast.observables()
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    slow = Rig()
    scenario(slow)
    assert slow.scheduler.chunks_inlined == 0
    return fast_seen, fast.scheduler.chunks_inlined, slow.observables()


def _chain(
    rig: Rig, total: float = 3 * CHUNK, name: str = "svc", chunk=CHUNK
) -> None:
    submit_chunked(
        rig.engine, rig.scheduler, name, total, chunk_cycles=chunk, gap_us=GAP
    )


def _foreground(rig: Rig, cycles: float = 3e6) -> None:
    rig.note("fg")
    rig.scheduler.submit(
        Task("fg", cycles, priority=PRIORITY_FOREGROUND,
             on_complete=lambda _t: rig.note("fg-done"))
    )


def test_input_event_exactly_at_an_inline_chunks_end(monkeypatch):
    def scenario(rig):
        _chain(rig)
        rig.engine.schedule_at(
            207_000, lambda: _foreground(rig), priority=PRIORITY_INPUT
        )
        rig.engine.run_until(END)

    fast, inlined, slow = _both(monkeypatch, scenario)
    assert fast == slow
    # Chunk 1 ends where the input fires, so it must run through the
    # queue; only the last chunk, after the foreground task, is inlined.
    assert inlined == 1


def test_earlier_default_event_at_the_gap_instant(monkeypatch):
    def scenario(rig):
        rig.engine.schedule_at(107_000, lambda: rig.note("timer"))
        _chain(rig)
        rig.engine.run_until(END)

    fast, inlined, slow = _both(monkeypatch, scenario)
    assert fast == slow
    # The timer (lower seq) fires before the gap expiry with the core idle.
    assert fast[-1][0][3] is False
    assert inlined == 1


@pytest.mark.parametrize("cut", [150_000, 207_000, 210_000])
def test_run_until_ending_inside_a_chain_then_continuing(monkeypatch, cut):
    def scenario(rig):
        _chain(rig, total=5 * CHUNK)
        rig.engine.run_until(cut)
        rig.note("cut")
        rig.engine.run_until(END)

    fast, inlined, slow = _both(monkeypatch, scenario)
    assert fast == slow
    assert inlined > 0


def test_foreground_submission_mid_chain(monkeypatch):
    def scenario(rig):
        _chain(rig, total=4 * CHUNK)
        rig.engine.schedule_at(
            250_000, lambda: _foreground(rig, 9e6), priority=PRIORITY_INPUT
        )
        rig.engine.run_until(END)

    fast, inlined, slow = _both(monkeypatch, scenario)
    assert fast == slow
    assert inlined > 0


def test_two_chains_and_a_periodic_chain_share_the_background_band(
    monkeypatch,
):
    def scenario(rig):
        _chain(rig, total=6 * CHUNK, name="a")
        # b's 300 ms chunks run while a's completions find the core busy.
        rig.engine.schedule_at(
            40_000,
            lambda: _chain(rig, total=6 * CHUNK, name="b", chunk=3 * CHUNK),
        )
        chain = PeriodicWorkChain(
            rig.engine, rig.scheduler, "tick", 450_000, 2e6,
            on_fire=lambda: rig.note("tick"),
        )
        chain.start()
        rig.engine.schedule_at(1_500_000, chain.stop)
        rig.engine.run_until(END)

    fast, inlined, slow = _both(monkeypatch, scenario)
    assert fast == slow
    assert inlined > 0


def test_core_with_a_listener_is_never_inlined(monkeypatch):
    def scenario(rig):
        rig.core.add_busy_listener(lambda: rig.note("busy"))
        _chain(rig, total=4 * CHUNK)
        rig.engine.run_until(END)

    fast, inlined, slow = _both(monkeypatch, scenario)
    assert fast == slow
    assert inlined == 0


def test_listener_added_mid_chain_stops_the_run_ahead(monkeypatch):
    def scenario(rig):
        _chain(rig, total=5 * CHUNK)
        # Chunks 2 and 3 end by 314000; the listener arrives in the gap
        # before chunk 4, which then runs, like chunk 5, through the queue.
        rig.engine.schedule_at(
            320_000,
            lambda: rig.core.add_busy_listener(lambda: rig.note("busy")),
        )
        rig.engine.run_until(END)

    fast, inlined, slow = _both(monkeypatch, scenario)
    assert fast == slow
    assert [label for label, *_ in fast[-1]] == ["busy"] * 2
    assert inlined == 2


def test_chain_is_inlined_only_within_the_running_window(monkeypatch):
    """Outside a run nothing is provably clear: a chain started and
    completed by hand keeps its gap event."""
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    rig = Rig()
    _chain(rig)
    assert not rig.engine.clear_until(1)
    rig.engine.run_until(100_000)
    assert rig.scheduler.chunks_inlined == 0
    assert pending_events(rig.engine) == 1  # chunk 1's gap expiry
    rig.engine.run_until(END)
    assert rig.scheduler.chunks_inlined == 1


# --- generated pinned cells ----------------------------------------------------------

POSITIONS = ("lowest", "middle", "highest")


def pinned_cells(seed: int) -> list[tuple[str, str, str, int, int, int]]:
    """(persona, profile, OPP position, rep, scenario seed, duration s).

    One cell per persona × device profile pair; the seed draws each
    cell's rep (0-2), scenario seed and duration, and the OPP positions
    are staggered so every profile sees its lowest, middle and highest
    OPP.
    """
    from repro.scenarios.personas import persona_names
    from repro.scenarios.profiles import PROFILES

    rng = random.Random(seed)
    cells = []
    for p_index, persona in enumerate(persona_names()):
        for f_index, profile in enumerate(sorted(PROFILES)):
            position = POSITIONS[(p_index + f_index) % len(POSITIONS)]
            cells.append((
                persona, profile, position, rng.randrange(3),
                rng.randrange(1, 100), rng.randint(20, 40),
            ))
    return cells


def _pinned_config(artifacts, position: str) -> str:
    from repro.scenarios.profiles import frequency_table_for

    freqs = frequency_table_for(artifacts.spec).frequencies_khz
    index = {"lowest": 0, "middle": len(freqs) // 2, "highest": -1}[position]
    return f"fixed:{freqs[index]}"


@pytest.mark.parametrize(
    "persona, profile, position, rep, seed, duration", pinned_cells(27)
)
def test_generated_pinned_cell_records_match_without_run_ahead(
    monkeypatch, persona, profile, position, rep, seed, duration
):
    from repro.demand import DemandProgram, capture_demand, demand_replay_run
    from repro.harness.experiment import record_workload, replay_run
    from repro.workloads.datasets import dataset

    artifacts = record_workload(dataset(
        f"persona={persona},seed={seed},duration={duration}s,"
        f"profile={profile}"
    ))
    program = DemandProgram(capture_demand(artifacts))
    config = _pinned_config(artifacts, position)
    schedulers: list[Scheduler] = []
    original_init = Scheduler.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        schedulers.append(self)

    monkeypatch.setattr(Scheduler, "__init__", tracking_init)
    records = {}
    for fastpath in ("1", "0"):
        monkeypatch.setenv("REPRO_FASTPATH", fastpath)
        records[fastpath] = (
            replay_run(artifacts, config, rep),
            demand_replay_run(artifacts, program, config, rep),
        )
    assert records["1"] == records["0"], (persona, profile, config, rep)
    assert records["1"][0] == records["1"][1]
    # Every drawn cell runs some chunks inline.
    assert sum(scheduler.chunks_inlined for scheduler in schedulers) > 0
