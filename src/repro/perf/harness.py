"""The benchmark runner.

Times each named benchmark best-of-``repeats`` (minimum wall time — the
least-noise estimator for a deterministic workload), reports throughput as
simulated microseconds per wall second where the workload has a simulated
duration, and events (or operations) per second everywhere.  ``--profile``
wraps one run of the selected suite in cProfile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.errors import ReproError
from repro.perf import workloads

MICRO_BENCHES = (
    "engine_events",
    "engine_periodic",
    "engine_churn",
    "scheduler_chunks",
    "policy_queries",
    "governor_sim",
    "demand_kernel",
    "replay_inputs",
)
MACRO_BENCHES = (
    "macro_study",
    "macro_daylong",
    "demand_trace",
)

SUITES: dict[str, tuple[str, ...]] = {
    "micro": MICRO_BENCHES,
    "macro": MACRO_BENCHES,
    "study": ("macro_study",),
    "demand": ("demand_trace",),
    "all": MICRO_BENCHES + MACRO_BENCHES,
}


def suite_names() -> list[str]:
    return sorted(SUITES)


@dataclass(slots=True)
class BenchResult:
    """One benchmark's best-of-N measurement."""

    name: str
    wall_s: float
    sim_us: int
    events: int
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def sim_us_per_wall_s(self) -> float:
        """Simulated microseconds retired per wall-clock second."""
        if not self.sim_us:
            return 0.0
        return self.sim_us / self.wall_s

    @property
    def events_per_s(self) -> float:
        if not self.events:
            return 0.0
        return self.events / self.wall_s

    def throughput(self) -> float:
        """The gated quantity: sim-µs/wall-s, else events/s."""
        return self.sim_us_per_wall_s or self.events_per_s

    def as_dict(self) -> dict:
        return {
            "wall_s": round(self.wall_s, 6),
            "sim_us": self.sim_us,
            "events": self.events,
            "sim_us_per_wall_s": round(self.sim_us_per_wall_s, 1),
            "events_per_s": round(self.events_per_s, 1),
            "metrics": {k: round(v, 6) for k, v in self.metrics.items()},
        }


def _best_of(repeats: int, runner) -> BenchResult:
    best: BenchResult | None = None
    for _rep in range(max(1, repeats)):
        result = runner()
        if best is None or result.wall_s < best.wall_s:
            best = result
    return best


def _run_engine_bench(name: str, fn) -> BenchResult:
    start = time.perf_counter()
    engine = fn()
    wall = time.perf_counter() - start
    return BenchResult(
        name=name,
        wall_s=wall,
        sim_us=engine.now,
        events=engine.events_fired,
    )


def _run_policy_queries() -> BenchResult:
    start = time.perf_counter()
    checksum = workloads.run_policy_queries()
    wall = time.perf_counter() - start
    return BenchResult(
        name="policy_queries",
        wall_s=wall,
        sim_us=0,
        events=20_000,  # transitions + queries
        metrics={"checksum": float(checksum % 1_000_000)},
    )


def _replay_cells(name: str, dataset_name: str, configs) -> BenchResult:
    import tracemalloc

    from repro.harness.experiment import record_workload, replay_run
    from repro.workloads.datasets import dataset

    artifacts = record_workload(dataset(dataset_name))
    sim_us = 0
    wall = 0.0
    per_config: dict[str, float] = {}
    peak_kb_max = 0.0
    for config in configs:
        start = time.perf_counter()
        result = replay_run(artifacts, config)
        elapsed = time.perf_counter() - start
        wall += elapsed
        sim_us += result.duration_us
        per_config[config] = result.duration_us / elapsed
        # Peak replay memory, on a separate deterministic pass so
        # tracemalloc's allocation bookkeeping (~2x slowdown) cannot
        # taint the timed run the throughput gate compares.  Only
        # replay-time allocations count: the recorded artifacts predate
        # the trace, so this is the O(session)-vs-O(window) quantity the
        # streaming pipeline is measured by.
        tracemalloc.start()
        try:
            replay_run(artifacts, config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peak_kb = peak / 1024.0
        per_config[f"mem_peak_kb:{config}"] = peak_kb
        peak_kb_max = max(peak_kb_max, peak_kb)
    per_config["mem_peak_kb"] = peak_kb_max
    return BenchResult(
        name=name,
        wall_s=wall,
        sim_us=sim_us,
        events=0,
        metrics=per_config,
    )


def _run_demand_trace(name: str, dataset_name: str, configs) -> BenchResult:
    """The trace-once/replay-many sweep: capture cost, warm and cold rates.

    Times one demand capture, then the full config grid through the
    kernel-only pass (warm: the trace and its preprocessed program are in
    hand, as on every fleet run after the first) and through full
    replays (the ``REPRO_DEMAND=0`` reference).  ``wall_s`` is the warm
    demand sweep; the cold rate amortises the capture over this one grid,
    which is the worst case — the fleet store reuses the trace across
    reruns.
    """
    from repro.demand import DemandProgram, capture_demand, demand_replay_run
    from repro.harness.experiment import record_workload, replay_run
    from repro.workloads.datasets import dataset

    artifacts = record_workload(dataset(dataset_name))
    start = time.perf_counter()
    program = DemandProgram(capture_demand(artifacts))
    capture_s = time.perf_counter() - start
    sim_us = 0
    start = time.perf_counter()
    for config in configs:
        sim_us += demand_replay_run(artifacts, program, config).duration_us
    warm_s = time.perf_counter() - start
    start = time.perf_counter()
    for config in configs:
        replay_run(artifacts, config)
    full_s = time.perf_counter() - start
    count = len(configs)
    return BenchResult(
        name=name,
        wall_s=warm_s,
        sim_us=sim_us,
        events=count,
        metrics={
            "configs": float(count),
            "capture_s": capture_s,
            "warm_wall_s": warm_s,
            "full_wall_s": full_s,
            "warm_configs_per_s": count / warm_s,
            "cold_configs_per_s": count / (capture_s + warm_s),
            "full_configs_per_s": count / full_s,
            "speedup_warm": full_s / warm_s,
            "speedup_cold": full_s / (capture_s + warm_s),
        },
    )


def _runner_for(name: str, scenario: str | None = None):
    if name == "engine_events":
        return lambda: _run_engine_bench(name, workloads.run_engine_events)
    if name == "engine_periodic":
        return lambda: _run_engine_bench(name, workloads.run_engine_periodic)
    if name == "engine_churn":
        return lambda: _run_engine_bench(name, workloads.run_engine_churn)
    if name == "scheduler_chunks":
        return lambda: _run_engine_bench(name, workloads.run_scheduler_chunks)
    if name == "policy_queries":
        return _run_policy_queries
    if name == "governor_sim":
        return lambda: _run_engine_bench(name, workloads.run_governor_sim)
    if name == "demand_kernel":
        return lambda: _run_engine_bench(name, workloads.run_demand_kernel)
    if name == "replay_inputs":
        return lambda: _run_engine_bench(name, workloads.run_replay_inputs)
    if name == "macro_study":
        return lambda: _replay_cells(
            name,
            scenario or workloads.MACRO_STUDY_DATASET,
            workloads.MACRO_STUDY_CONFIGS,
        )
    if name == "macro_daylong":
        return lambda: _replay_cells(
            name,
            workloads.MACRO_DAYLONG_DATASET,
            workloads.MACRO_DAYLONG_CONFIGS,
        )
    if name == "demand_trace":
        from repro.harness.sweep import sweep_configs

        return lambda: _run_demand_trace(
            name,
            scenario or workloads.MACRO_STUDY_DATASET,
            tuple(sweep_configs()),
        )
    raise ReproError(f"unknown benchmark {name!r}")


def run_suite(
    suite: str = "micro",
    repeats: int = 3,
    profile_path: str | None = None,
    scenario: str | None = None,
) -> list[BenchResult]:
    """Run a benchmark suite, best-of-``repeats`` per benchmark.

    With ``profile_path``, one extra pass over the whole suite runs under
    cProfile and the stats are dumped there (inspect with ``python -m
    pstats`` or snakeviz).  ``scenario`` (a canonical scenario string)
    replaces the stock dataset of the study-cell macro benchmark.
    """
    try:
        names = SUITES[suite]
    except KeyError:
        raise ReproError(
            f"unknown perf suite {suite!r} (known: {', '.join(suite_names())})"
        ) from None
    # Macro benches re-record their workload per call; one repeat of the
    # day-long bench is already minutes of simulation, so macro runs are
    # timed once per invocation.
    results = []
    for name in names:
        reps = 1 if name in MACRO_BENCHES else repeats
        results.append(_best_of(reps, _runner_for(name, scenario)))
    if profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        for name in names:
            _runner_for(name, scenario)()
        profiler.disable()
        profiler.dump_stats(profile_path)
    return results


def render_results(results: list[BenchResult]) -> str:
    """A fixed-width report table (deterministic layout, stable columns)."""
    lines = [
        f"{'benchmark':<18} {'wall s':>9} {'events/s':>12} "
        f"{'sim-s/wall-s':>13}",
    ]
    for result in results:
        sim_rate = result.sim_us_per_wall_s / 1e6
        lines.append(
            f"{result.name:<18} {result.wall_s:>9.3f} "
            f"{result.events_per_s:>12.0f} "
            f"{sim_rate:>13.1f}"
        )
        if result.name == "demand_trace":
            for key in sorted(result.metrics):
                lines.append(f"  {key:<20} {result.metrics[key]:>10.2f}")
        elif result.name.startswith("macro"):
            for key in sorted(result.metrics):
                value = result.metrics[key]
                if key.startswith("mem_peak_kb"):
                    config = key[len("mem_peak_kb:"):] or "(max)"
                    lines.append(
                        f"  {config:<20} {value / 1024:>10.1f} MB peak"
                    )
                else:
                    lines.append(
                        f"  {key:<20} {value / 1e6:>10.1f} sim-s/wall-s"
                    )
    return "\n".join(lines)
