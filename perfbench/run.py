"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload study_grid --seed 2014 --seconds 40 --trace 0

With ``--trace 0`` the run repeats whole passes of the workload for about
``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced pass, then one pass under cProfile
and an installed ``ObsSession``, and reports the per-layer metrics.
Either way it checks the outputs afterwards; the last line of standard
output is one JSON object, and a failed check exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_ROOT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 2014
#: Stand-alone set-ups made before the passes (each pass adds one more).
SETUP_SAMPLES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("study_grid", "idle_session", "fleet_store"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], fraction: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(fraction * 100) - 1
    ]


def peak_rss_mb() -> float:
    """Peak resident set of this process, the one that runs the workload
    (fleet workers are separate processes and not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, clock):
    """Stand-alone set-ups, then whole passes for at most ``seconds``.

    A pass starts only if a pass of the mean length so far still ends
    before the deadline; the first pass always runs.
    """
    setups = [workload.setup_sample(seed, clock) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.perf_counter()
    while True:
        if passes:
            passes[-1].release()
        gc.collect()
        current = workload.run_pass(seed, clock)
        current.seal()
        passes.append(current)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups.extend(p.setup_s for p in passes)
    return setups, passes


def cell_medians(passes) -> list[float]:
    """Each executed cell's median time over the passes (every pass runs
    the same cells), so one slowed cell moves no percentile."""
    return [
        statistics.median(p.cell_ms[key] for p in passes) for key in passes[0].cell_ms
    ]


def end_to_end(setups, passes) -> dict[str, tuple[float, str]]:
    """Medians over passes, so one pass slowed by the host moves nothing.
    Every time is scaled to nominal host speed (``HostClock``)."""
    cells = cell_medians(passes)
    return {
        "cells_per_s": (
            statistics.median(p.cells / p.cell_phase_s for p in passes),
            "cells/s",
        ),
        "cell_ms_p50": (statistics.median(cells), "ms"),
        "cell_ms_p90": (percentile(cells, 0.90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "warm_rerun_s": (statistics.median(p.warm_s for p in passes), "s"),
    }


def _stop_profiling_in_child() -> None:
    # Forked fleet workers inherit the profiler hook; their profile would
    # be discarded anyway, so they run unprofiled.
    sys.setprofile(None)


def traced(workload, seed: int, spans):
    """One untraced pass, then one pass under cProfile and an ObsSession.

    Times come from the untraced pass and from calls made outside either
    pass; counts and self-time shares come from the traced pass.
    """
    import cProfile

    from repro.obs import session as obs_session
    from repro.obs.metrics import MetricsRegistry
    from repro.results import RunRecord

    from instruments import HostClock, self_fractions

    # Both passes run unscaled: the reference loop would be profiled.
    clock = HostClock(enabled=False)
    gc.collect()
    with spans.span("pass", traced=False) as plain_wall:
        plain = workload.run_pass(seed, clock)
    plain.seal()
    gc.collect()
    profiler = cProfile.Profile()
    os.register_at_fork(after_in_child=_stop_profiling_in_child)
    session = obs_session.ObsSession(metrics=MetricsRegistry())
    obs_session.install(session)
    try:
        with spans.span("pass", traced=True) as traced_wall:
            profiler.enable()
            try:
                observed = workload.run_pass(seed, clock)
            finally:
                profiler.disable()
    finally:
        obs_session.uninstall()
    observed.seal()
    observed.release()

    shares = self_fractions(profiler, SRC / "repro")
    counts, cells = observed.obs_counts, max(1, observed.obs_cells)

    def per_cell(name: str) -> tuple[float, str]:
        return counts.get(name, 0) / cells, "count"

    texts = []
    with spans.span("RunRecord.dumps") as encode:
        for record in plain.records:
            texts.append(record.dumps())
    with spans.span("RunRecord.loads") as decode:
        for text in texts:
            RunRecord.loads(text)
    if workload.captures:
        compile_ms, trace_nodes = workload.demand_probe(plain.artifacts)
    else:
        compile_ms, trace_nodes = 0.0, 0
    metrics: dict[str, tuple[float, str]] = {
        "core.events_per_cell": per_cell("engine.events_dispatched"),
        "core.heap_compactions_per_cell": per_cell("engine.heap_compactions"),
        "kernel.timer_parks_per_cell": per_cell("timer.parks"),
        "kernel.ticks_elided_per_cell": per_cell("timer.ticks_elided"),
        "device.cpufreq_transitions_per_cell": per_cell("cpufreq.transitions"),
        "governors.samples_per_cell": per_cell("governor.load_samples"),
        "governors.decisions_per_cell": per_cell("governor.decisions"),
        "uifw.frames_per_cell": per_cell("frames.composed"),
        "analysis.lags_matched_per_cell": per_cell("match.lags_matched"),
        "demand.capture_s": (plain.capture_s, "s"),
        "demand.compile_ms": (compile_ms, "ms"),
        "demand.trace_nodes": (trace_nodes, "count"),
        "demand.fallback_frac": (
            plain.fallback_cells / plain.demand_cells if plain.demand_cells else 0.0,
            "ratio",
        ),
        "workloads.record_s": (plain.record_s, "s"),
        "results.encode_ms_per_record": (encode.s * 1000.0 / len(texts), "ms"),
        "results.decode_ms_per_record": (decode.s * 1000.0 / len(texts), "ms"),
        "results.row_kb": (
            sum(map(len, texts)) / len(texts) / 1024.0, "kB"
        ),
        "fleet.scan_ms_per_cell": (
            plain.store_load_s * 1000.0 / plain.store_loads
            if plain.store_loads else 0.0,
            "ms",
        ),
        "fleet.hit_frac": (
            plain.engine_hits / plain.engine_cells if plain.engine_cells else 0.0,
            "ratio",
        ),
        "fleet.worker_cell_ms_p50": (
            statistics.median(plain.worker_cell_ms) if plain.worker_cell_ms else 0.0,
            "ms",
        ),
        "fleet.cold.queue_overhead_frac": (plain.queue_overhead.get("cold", 0.0), "ratio"),
        "fleet.mixed.queue_overhead_frac": (plain.queue_overhead.get("mixed", 0.0), "ratio"),
        "fleet.redispatched": (plain.redispatched, "count"),
        "oracle.compose_ms": (workload.compose_ms(plain), "ms"),
        "obs.trace_overhead_frac": (traced_wall.s / plain_wall.s - 1.0, "ratio"),
    }
    for layer, share in shares.items():
        metrics[f"{layer}.self_frac"] = (share, "ratio")
    return [observed, plain], metrics


def check(workload, seed: int, passes) -> None:
    """Outside every timed region: digests, then the cross-path checks."""
    from workloads import CheckFailed

    digests = {p.digest for p in passes}
    if len(digests) != 1:
        raise CheckFailed(
            f"{workload.name}: passes of one seed produced {len(digests)} "
            "different record digests"
        )
    (got,) = digests
    print(f"# digest {got}")
    if seed == DEFAULT_SEED:
        want = json.loads(DIGESTS.read_text())[workload.name]
        if got != want:
            raise CheckFailed(
                f"{workload.name}: record digest {got[:16]}... differs from "
                f"the committed {want[:16]}... for seed {seed}"
            )
    workload.check(seed, passes[-1])


def report(workload, seed, passes, metrics, attempted, failed, clock) -> None:
    print(f"# {workload.name} seed {seed}: {len(passes)} pass(es), {attempted} cells")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    if "cell_ms_p50" in metrics:
        rates = " ".join(f"{p.cells / p.cell_phase_s:.4g}" for p in passes)
        print(f"  {'cells/s of each pass':<36} {rates}")
        print(
            f"  {'host speed (nominal 1)':<36} {clock.speed():>14.4g} "
            f"over {len(clock.refs)} reference samples"
        )
        samples = sum(len(p.cell_ms) for p in passes)
        print(f"  {'cell samples':<36} {samples:>14d} count")
        print(
            f"  {'failed_frac':<36} {failed / attempted:>14.6g} ratio "
            f"({failed}/{attempted})"
        )
    for phase, stats in passes[-1].phase_stats:
        print(
            f"  fleet {phase}: {stats.cache_hits} hits, "
            f"{stats.total - stats.cache_hits} misses, {stats.executed} "
            f"executed, {stats.redispatched} redispatched"
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Temp stores and sqlite scratch stay inside the checkout.
    TMP_ROOT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_ROOT)
    tempfile.tempdir = str(TMP_ROOT)

    from repro.fleet.engine import FleetError

    from instruments import HostClock, Spans
    from workloads import WORKLOADS, CheckFailed

    spans = Spans(enabled=bool(args.trace))
    workload = WORKLOADS[args.workload](spans, TMP_ROOT)
    clock = HostClock()
    try:
        if args.trace:
            passes, metrics = traced(workload, args.seed, spans)
        else:
            setups, passes = measure(workload, args.seed, args.seconds, clock)
            metrics = end_to_end(setups, passes)
        # A failed cell raises (FleetError, or out of replay_run) and ends
        # the run before a result is printed, so a printed result has none.
        attempted, failed = sum(p.cells for p in passes), 0
        report(workload, args.seed, passes, metrics, attempted, failed, clock)
        correct = True
        try:
            check(workload, args.seed, passes)
        except CheckFailed as failure:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
            correct = False
    except FleetError as error:
        first = str(error).splitlines()[0]
        print(f"perfbench: {args.workload}: {first}", file=sys.stderr)
        return 1
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return 1
    if args.trace:
        spans.write(OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
