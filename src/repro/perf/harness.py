"""The benchmark runner.

Times each named benchmark best-of-``repeats`` (minimum wall time — the
least-noise estimator for a deterministic workload), reports throughput as
simulated microseconds per wall second where the workload has a simulated
duration, and events (or operations) per second everywhere.  ``--profile``
wraps one more run of the suite in cProfile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    "annotate_session",
    "queue_roundtrip",
    "oracle_compose",
)


@dataclass(slots=True)
class BenchResult:
    """One benchmark's best-of-N measurement."""

    name: str
    wall_s: float
    sim_us: int
    events: int

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
    workloads.run_policy_queries()
    wall = time.perf_counter() - start
    return BenchResult(
        name="policy_queries",
        wall_s=wall,
        sim_us=0,
        events=20_000,  # transitions + queries
    )


def _run_counting_bench(name: str, fn) -> BenchResult:
    """Time ``fn()``, which returns the operations it performed."""
    start = time.perf_counter()
    operations = fn()
    wall = time.perf_counter() - start
    return BenchResult(name=name, wall_s=wall, sim_us=0, events=operations)


def _runner_for(name: str):
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
    if name == "annotate_session":
        return lambda: _run_counting_bench(name, workloads.run_annotate_session)
    if name == "queue_roundtrip":
        return lambda: _run_counting_bench(name, workloads.run_queue_roundtrip)
    if name == "oracle_compose":
        return lambda: _run_counting_bench(name, workloads.run_oracle_compose)
    raise ReproError(f"unknown benchmark {name!r}")


def run_suite(
    repeats: int = 3, profile_path: str | None = None
) -> list[BenchResult]:
    """Run every micro benchmark, best-of-``repeats`` each.

    With ``profile_path``, one extra pass over the whole suite runs under
    cProfile and the stats are dumped there (inspect with ``python -m
    pstats`` or snakeviz).
    """
    results = [_best_of(repeats, _runner_for(name)) for name in MICRO_BENCHES]
    if profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        for name in MICRO_BENCHES:
            _runner_for(name)()
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
        lines.append(
            f"{result.name:<18} {result.wall_s:>9.3f} "
            f"{result.events_per_s:>12.0f} "
            f"{result.sim_us_per_wall_s / 1e6:>13.1f}"
        )
    return "\n".join(lines)
