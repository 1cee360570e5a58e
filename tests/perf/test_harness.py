"""Tests for the perf harness: workloads are deterministic, results sane."""

from repro.kernel.scheduler import Scheduler
from repro.perf import workloads
from repro.perf.harness import (
    MICRO_BENCHES,
    BenchResult,
    render_results,
    run_suite,
)
from tests.conftest import pending_events


def test_engine_events_is_deterministic():
    first = workloads.run_engine_events(n_events=5_000)
    second = workloads.run_engine_events(n_events=5_000)
    # In-flight chain events still fire after the quota is reached, so the
    # count may exceed n_events by up to the chain count — but every run
    # executes the identical event sequence.
    assert first.events_fired == second.events_fired
    assert first.events_fired >= 5_000
    assert first.now == second.now


def test_engine_periodic_fires_expected_count():
    engine = workloads.run_engine_periodic(timers=4, sim_us=10_000)
    expected = sum(10_000 // (53 + 13 * index) for index in range(4))
    assert engine.events_fired == expected


def test_engine_churn_completes_with_bounded_heap():
    engine = workloads.run_engine_churn(rounds=20, batch=128)
    assert len(engine._queue) < 2 * 128 + 64


def test_scheduler_chunks_runs_all_chains(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    schedulers = []

    class Tracked(Scheduler):
        def __init__(self, *args):
            super().__init__(*args)
            schedulers.append(self)

    monkeypatch.setattr(workloads, "Scheduler", Tracked)
    engine = workloads.run_scheduler_chunks(chains=4, chain_cycles=60e6)
    (scheduler,) = schedulers
    assert pending_events(engine) == 0
    assert scheduler.completed_tasks == 4 * 4  # 4 chains of 4 chunks
    # The two staggered chains queue every chunk; the two lone chains
    # play all but their first chunk in place.
    assert scheduler.chunks_inlined == 2 * 3
    assert engine.events_fired > 0


def test_policy_queries_checksum_stable():
    assert workloads.run_policy_queries(
        transitions=500, queries=500
    ) == workloads.run_policy_queries(transitions=500, queries=500)


def test_governor_sim_deterministic_events():
    first = workloads.run_governor_sim(sim_s=5)
    second = workloads.run_governor_sim(sim_s=5)
    assert first.events_fired == second.events_fired


def test_demand_kernel_trace_is_valid():
    from repro.demand.trace import KIND_INVALIDATE

    trace = workloads._demand_kernel_trace(8)
    trace.validate()
    assert trace.state_count == 4
    assert {
        node.state_id for node in trace.nodes if node.kind == KIND_INVALIDATE
    } == set(range(4))


def test_replay_inputs_fires_one_event_per_input():
    engine = workloads.run_replay_inputs(n_inputs=2_000)
    assert engine.events_fired == 2_000
    assert engine.events_scheduled == 2_000
    assert pending_events(engine) == 0


def test_annotate_session_annotates_every_lag():
    assert workloads.run_annotate_session(lags=40) == 40
    video, journal = workloads._annotation_session(40)
    assert len(journal.interactions) == 40
    assert journal.open_interactions == 0
    assert video.segment_count == 1 + 3 * 40


def test_queue_roundtrip_leases_and_acks_every_cell():
    assert workloads.run_queue_roundtrip(roundtrips=10) == 10


def test_run_suite_micro_produces_all_results(tmp_path):
    results = run_suite(repeats=1)
    assert [result.name for result in results] == list(MICRO_BENCHES)
    for result in results:
        assert result.wall_s > 0
        assert result.throughput() > 0


def test_render_results_is_tabular():
    results = [
        BenchResult(name="engine_events", wall_s=0.5, sim_us=1_000_000,
                    events=10_000),
        BenchResult(name="policy_queries", wall_s=1.0, sim_us=0,
                    events=20_000),
    ]
    text = render_results(results)
    lines = text.splitlines()
    assert lines[0].startswith("benchmark")
    assert any("engine_events" in line for line in lines)
    assert any("policy_queries" in line for line in lines)
    assert len(lines) == 3


def test_profile_hook_writes_stats(tmp_path):
    profile_path = tmp_path / "perf.prof"
    run_suite(repeats=1, profile_path=str(profile_path))
    assert profile_path.exists() and profile_path.stat().st_size > 0

    import pstats

    stats = pstats.Stats(str(profile_path))
    assert stats.total_calls > 0
