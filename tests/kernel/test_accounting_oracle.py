"""Independent oracle for the task lifecycle's device accounting.

Random foreground and background submits (so background work gets
preempted) and random cpufreq retunes drive a bare engine, core, policy
and scheduler.  Energy, dynamic energy, busy time, ``time_in_state`` and
retired cycles are then recomputed from nothing but the recorded busy
intervals, the transition trace and the :class:`PowerModel`, and must
agree with the core's own running totals.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.device.cpu import CpuCore
from repro.device.cpufreq import RELATION_HIGH, RELATION_LOW, CpuFreqPolicy
from repro.device.frequencies import snapdragon_8074_table
from repro.device.power import PowerModel
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import PRIORITY_BACKGROUND, PRIORITY_FOREGROUND, Task

TABLE = snapdragon_8074_table()
FREQS = [point.freq_khz for point in TABLE.points]
REL = 1e-9
# Long enough after the last operation for every submitted task to finish
# at the lowest OPP (at most 30 tasks x 40e6 cycles at 0.30 GHz).
DRAIN_US = 5_000_000

_submit = st.tuples(
    st.just("submit"),
    st.sampled_from((PRIORITY_FOREGROUND, PRIORITY_BACKGROUND)),
    st.floats(min_value=1e3, max_value=40e6),
)
_retune = st.tuples(
    st.just("retune"),
    st.sampled_from(FREQS),
    st.sampled_from((RELATION_LOW, RELATION_HIGH)),
)
_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60_000), st.one_of(_submit, _retune)),
    min_size=1,
    max_size=30,
)


def _run(ops):
    engine = Engine()
    core = CpuCore(engine.clock, TABLE)
    core.enable_busy_trace()
    policy = CpuFreqPolicy(engine.clock, core)
    scheduler = Scheduler(engine, core)
    policy.add_transition_observer(scheduler.on_transition)
    tasks = []

    def apply(op):
        if op[0] == "submit":
            task = Task(f"t{len(tasks)}", op[2], op[1])
            tasks.append(task)
            scheduler.submit(task)
        else:
            policy.set_target(op[1], op[2])

    time = 0
    for gap, op in ops:
        time += gap
        engine.schedule_at(time, lambda op=op: apply(op))
    engine.run_until(time + DRAIN_US)
    return engine, core, policy, scheduler, tasks


def _oracle(end, busy, transitions, model):
    """Piecewise integration over every busy edge and retune."""
    trans_times = [t for t, _f in transitions]
    trans_freqs = [f for _t, f in transitions]
    cuts = {0, end}
    for start, stop in busy:
        cuts.update((start, stop))
    cuts.update(t for t in trans_times if t <= end)
    cuts = sorted(cuts)
    power = {
        point.freq_khz: model.active_power(point.freq_khz, point.volts)
        for point in TABLE.points
    }
    totals = {"energy": 0.0, "busy_energy": 0.0, "busy_us": 0, "cycles": 0.0}
    in_state: dict[int, int] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        freq = trans_freqs[bisect_right(trans_times, lo) - 1]
        running = any(start <= lo < stop for start, stop in busy)
        span = hi - lo
        in_state[freq] = in_state.get(freq, 0) + span
        if running:
            joules = power[freq] * span / 1e6
            totals["busy_energy"] += joules
            totals["busy_us"] += span
            totals["cycles"] += span * freq / 1_000.0
        else:
            joules = model.idle_power() * span / 1e6
        totals["energy"] += joules
    totals["dynamic"] = (
        totals["busy_energy"] - model.idle_power() * totals["busy_us"] / 1e6
    )
    return totals, in_state


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_core_accounting_matches_independent_integration(ops):
    engine, core, policy, scheduler, tasks = _run(ops)
    assert scheduler.current_task is None and scheduler.queued_tasks == 0
    assert not core.busy
    end = engine.now
    busy = list(core.busy_pairs())
    totals, in_state = _oracle(
        end, busy, list(policy.transition_points()), PowerModel()
    )

    assert core.busy_time_total() == totals["busy_us"]
    observed_state = {f: us for f, us in core.time_in_state().items() if us}
    assert observed_state == {f: us for f, us in in_state.items() if us}
    assert core.energy_joules() == pytest.approx(totals["energy"], rel=REL)
    assert core.dynamic_energy_joules() == pytest.approx(
        totals["dynamic"], rel=REL, abs=1e-15
    )

    assert scheduler.completed_tasks == len(tasks)
    assert scheduler.completed_cycles == pytest.approx(
        sum(task.cycles for task in tasks), rel=REL
    )
    # Completions round up to whole microseconds, so the core retires at
    # least the cycles the tasks asked for.
    assert totals["cycles"] >= scheduler.completed_cycles * (1 - REL)
    for task in tasks:
        assert task.submitted_at <= task.started_at <= task.completed_at
