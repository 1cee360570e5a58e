"""Demand-pass-vs-full-replay equivalence (REPRO_DEMAND).

The kernel-only evaluation pass (demand trace → DemandProgram →
demand_replay_run) must produce bit-identical RunRecords to a full
replay, across personas, device profiles, the fleet engine at any job
count, and warm demand-store re-runs — with zero fallbacks on healthy
workloads.
"""

import pytest

from repro.demand import DemandProgram, capture_demand, demand_enabled, demand_replay_run
from repro.fleet.cache import ResultCache
from repro.fleet.engine import FleetEngine
from repro.fleet.spec import RunSpec
from repro.harness.experiment import record_workload, replay_run
from repro.workloads.datasets import dataset

# Two personas and one alternate device profile: covers the persona
# plumbing, the profile plumbing and the stock path end to end.
SCENARIOS = (
    "persona=gamer,seed=11,duration=45s",
    "persona=creator,seed=2,duration=45s",
    "persona=messenger,seed=3,duration=45s,profile=quad_ls",
)
# A sampling governor, the proposed governor and a pinned OPP: the three
# cpufreq control styles a sweep exercises.
CONFIGS = ("ondemand", "qoe_aware", "fixed:652800")


@pytest.fixture(scope="module")
def scenario_artifacts():
    return {name: record_workload(dataset(name)) for name in SCENARIOS}


@pytest.fixture(scope="module")
def scenario_programs(scenario_artifacts):
    return {
        name: DemandProgram(capture_demand(artifacts))
        for name, artifacts in scenario_artifacts.items()
    }


def _specs(artifacts):
    return [
        RunSpec(
            dataset=artifacts.name,
            config=config,
            rep=0,
            master_seed=artifacts.recording_master_seed,
        )
        for config in CONFIGS
    ]


def test_demand_is_the_default(monkeypatch):
    monkeypatch.delenv("REPRO_DEMAND", raising=False)
    assert demand_enabled()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_demand_pass_is_bit_identical(
    scenario_artifacts, scenario_programs, scenario
):
    """Per persona/profile/config: the kernel-only pass replays identically."""
    artifacts = scenario_artifacts[scenario]
    program = scenario_programs[scenario]
    for config in CONFIGS:
        demand = demand_replay_run(artifacts, program, config)
        full = replay_run(artifacts, config)
        assert demand.to_json_dict() == full.to_json_dict(), (scenario, config)


def test_fleet_jobs2_demand_matches_full_replay(scenario_artifacts, monkeypatch):
    """REPRO_DEMAND=1 at jobs=2 equals direct full replays, no fallbacks."""
    monkeypatch.setenv("REPRO_DEMAND", "1")
    artifacts = scenario_artifacts[SCENARIOS[0]]
    specs = _specs(artifacts)
    engine = FleetEngine(jobs=2)
    fleet_results = engine.run(artifacts, specs)
    stats = engine.last_stats
    assert stats.demand_cells == len(specs)
    assert stats.full_cells == 0
    assert stats.fallback_cells == 0
    assert stats.fallback_reasons == {}
    assert stats.demand_trace_source == "captured"
    for spec, fleet_result in zip(specs, fleet_results):
        direct = replay_run(
            artifacts, spec.config, rep=0,
            master_seed=artifacts.recording_master_seed,
        )
        assert fleet_result == direct


def test_kill_switch_runs_full_replays(scenario_artifacts, monkeypatch):
    """REPRO_DEMAND=0: no capture, every cell a full replay, same records."""
    artifacts = scenario_artifacts[SCENARIOS[1]]
    specs = _specs(artifacts)
    monkeypatch.setenv("REPRO_DEMAND", "1")
    on = FleetEngine(jobs=1)
    demand_results = on.run(artifacts, specs)
    monkeypatch.setenv("REPRO_DEMAND", "0")
    off = FleetEngine(jobs=1)
    full_results = off.run(artifacts, specs)
    assert demand_results == full_results
    assert off.last_stats.demand_trace_source is None
    assert off.last_stats.demand_cells == 0
    assert off.last_stats.full_cells == len(specs)
    assert on.last_stats.demand_cells == len(specs)


def test_warm_demand_store_rerun_executes_zero_full_replays(
    tmp_path, scenario_artifacts, monkeypatch
):
    """A re-run with a warm demand store loads the trace (no re-capture)
    and evaluates every cell kernel-only."""
    monkeypatch.setenv("REPRO_DEMAND", "1")
    artifacts = scenario_artifacts[SCENARIOS[2]]
    specs = _specs(artifacts)
    cache = ResultCache(tmp_path)
    cold_engine = FleetEngine(jobs=1, cache=cache)
    cold = cold_engine.run(artifacts, specs)
    assert cold_engine.last_stats.demand_trace_source == "captured"
    assert cold_engine.last_stats.demand_cells == len(specs)

    # Invalidate the result records but keep the demand store: the rerun
    # must reload the trace and execute only kernel-only passes.
    for shard in tmp_path.iterdir():
        if shard.is_dir() and shard.name != "demand":
            for entry in shard.iterdir():
                entry.unlink()
    warm_engine = FleetEngine(jobs=2, cache=ResultCache(tmp_path))
    warm = warm_engine.run(artifacts, specs)
    stats = warm_engine.last_stats
    assert stats.demand_trace_source == "cache"
    assert stats.demand_cells == len(specs)
    assert stats.full_cells == 0
    assert stats.fallback_cells == 0
    assert warm == cold


def test_fully_cached_rerun_skips_capture_entirely(
    tmp_path, scenario_artifacts, monkeypatch
):
    """All cells served from the result cache: no trace is even resolved."""
    monkeypatch.setenv("REPRO_DEMAND", "1")
    artifacts = scenario_artifacts[SCENARIOS[0]]
    specs = _specs(artifacts)
    cache = ResultCache(tmp_path)
    FleetEngine(jobs=1, cache=cache).run(artifacts, specs)
    rerun = FleetEngine(jobs=1, cache=ResultCache(tmp_path))
    rerun.run(artifacts, specs)
    assert rerun.last_stats.cache_hits == len(specs)
    assert rerun.last_stats.executed == 0
    assert rerun.last_stats.demand_trace_source is None
