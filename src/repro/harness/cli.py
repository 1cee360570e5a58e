"""Command-line interface: run the study end to end.

Examples::

    repro-qoe table1
    repro-qoe classify --datasets 01 02 03 04 05
    repro-qoe sweep --dataset 02 --reps 5 --jobs 4
    repro-qoe sweep --dataset 02 --reps 5          # warm re-run: all cached
    repro-qoe sweep --dataset 02 --config qoe_aware:boost=1_036_800,settle=40000
    repro-qoe sweep --scenario persona=gamer,seed=7,duration=2m
    repro-qoe study --reps 2 --jobs 8              # all datasets, Figs. 12-14
    repro-qoe study --reps 5 --no-cache --master-seed 7
    repro-qoe study --scenario persona=reader,seed=1,duration=2m --reps 1
    repro-qoe explore --dataset 02 --governor qoe_aware \\
        --strategy random --budget 16 --jobs 4
    repro-qoe explore --scenario persona=mixed,seed=3,duration=2m --budget 8
    repro-qoe perf --check
    repro-qoe perf --repeats 1 --profile perf.prof
    repro-qoe trace persona=gamer,seed=7,duration=45s -o trace.json
    repro-qoe demand persona=creator,seed=2,duration=2m -o demand.json
    repro-qoe attribute persona=gamer,seed=7,duration=45s -o annotated.json
    repro-qoe trace-diff baseline.json candidate.json
    repro-qoe sweep --dataset 02 --jobs 4 --progress-jsonl progress.jsonl
    repro-qoe sweep --dataset 02 --backend distributed:dir=/shared,workers=4

Synthesized scenarios (persona/seed/duration/device-profile config
strings, see the README's Scenarios section) are interchangeable with
named datasets: ``--scenario`` canonicalises the spec, and the
canonical string is the dataset name everywhere downstream — figures,
fleet cache keys, saved artifacts.

Sweeps, studies and explorations dispatch their runs through the fleet
engine (:mod:`repro.fleet`): ``--jobs N`` replays on N worker processes,
and a content-addressed result cache (``--cache-dir``, default
``~/.cache/repro-qoe``; disable with ``--no-cache``) means a re-run only
executes cells whose inputs changed.  ``--backend NAME[:key=value,...]``
swaps the execution backend: ``local`` (the default pool) or
``distributed``, whose workers pull cells from a shared sqlite work
queue and publish rows to a shared store, so a killed sweep resumes
where it left off (each worker leases and acks one cell at a time).
Results are bit-identical to a serial, uncached run for every backend;
``explore`` keeps its stdout bit-identical across ``--jobs`` values by
sending timing and cache telemetry to stderr.

Kill switches (``REPRO_*`` environment flags, see
:mod:`repro.core.env`): ``REPRO_DEMAND=0`` disables the kernel-only
demand pass and ``REPRO_FASTPATH=0`` the governors' tick elision — both
A/B switches whose results are bit-identical either way.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time
from pathlib import Path

from repro.core.errors import ReproError
from repro.explore.evaluator import (
    DEFAULT_IRRITATION_WEIGHT,
    ExploreEvaluator,
)
from repro.explore.pareto import render_frontier_report
from repro.explore.space import builtin_space, builtin_space_names
from repro.explore.strategies import make_strategy, strategy_names
from repro.fleet.cache import ResultCache
from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import RunSpec
from repro.harness import figures
from repro.harness.experiment import DEFAULT_MASTER_SEED, record_workload
from repro.harness.sweep import (
    GOVERNORS,
    fixed_configs,
    parse_sweep_configs,
    run_sweep,
)
from repro.workloads.datasets import dataset, dataset_names

DEFAULT_CACHE_DIR = "~/.cache/repro-qoe"


def _progress(
    prefix: str, verbose: bool, jsonl_stream=None
) -> ProgressReporter | None:
    """Aggregated, flushed progress lines (``config c/C, rep r/R``).

    With ``jsonl_stream`` the reporter also emits the machine-readable
    fleet telemetry stream (``--progress-jsonl``); human lines still
    appear only under ``--verbose``.
    """
    if not verbose and jsonl_stream is None:
        return None
    return ProgressReporter(prefix, jsonl_stream=jsonl_stream, human=verbose)


def _progress_jsonl(args):
    """The opened ``--progress-jsonl`` handle, or None.

    ``-`` streams to stderr (stdout stays reserved for deterministic
    study output).  Caller owns the handle — close it with
    :func:`_close_progress_jsonl` in a ``finally``; study shares one
    handle across its per-workload sweeps so the stream stays a single
    ordered sequence.
    """
    path = getattr(args, "progress_jsonl", None)
    if not path:
        return None
    if path == "-":
        return sys.stderr
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"unusable --progress-jsonl {path}: {exc}") from exc


def _close_progress_jsonl(jsonl) -> None:
    """Close a ``--progress-jsonl`` handle unless it is the ``-`` stderr."""
    if jsonl is not None and jsonl is not sys.stderr:
        jsonl.close()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_fleet_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the replay fleet (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always re-execute; neither read nor write the result cache",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME[:key=value,...]",
        help=(
            "execution backend for the replay fleet (default: local). "
            "'local' is the in-process / multiprocessing pool of --jobs "
            "workers; "
            "'distributed:dir=/shared,workers=4' pulls cells from a "
            "shared sqlite work queue and publishes rows to a shared "
            "result store, so several machines (or a restarted sweep) "
            "can share one grid"
        ),
    )
    parser.add_argument(
        "--progress-jsonl", default=None, metavar="PATH",
        help=(
            "stream machine-readable fleet telemetry (one JSON object per "
            "line: grid_bound, run_completed, heartbeat, fleet_summary) "
            "to PATH, or '-' for stderr"
        ),
    )


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--master-seed", type=int, default=None, metavar="SEED",
        help=(
            "master seed for recording and replay RNG streams "
            f"(default: {DEFAULT_MASTER_SEED})"
        ),
    )


def _cache(args) -> ResultCache | None:
    if args.no_cache:
        return None
    root = Path(args.cache_dir).expanduser()
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReproError(f"unusable cache directory {root}: {exc}") from exc
    return ResultCache(root)


def _fleet_backend(args):
    """Resolve ``--backend``/``--cache-dir``/``--no-cache`` into
    ``(backend, cache)`` for the fleet engine.

    A backend that publishes results to a shared store (distributed)
    supplies its own: workers publish rows there and a restarted sweep resumes from
    it, so the engine's cache *must* be that store — ``--no-cache``
    contradicts it and a custom ``--cache-dir`` is superseded (noted on
    stderr so the override is never silent).
    """
    from repro.fleet.backends import create_backend

    backend = None
    if getattr(args, "backend", None):
        backend = create_backend(args.backend, jobs=args.jobs)
    if backend is not None and backend.publishes_results:
        if args.no_cache:
            raise ReproError(
                f"--no-cache cannot be combined with --backend "
                f"{backend.name}: workers publish results through the "
                "shared store"
            )
        cache = backend.result_store()
        if args.cache_dir != DEFAULT_CACHE_DIR:
            print(
                f"# --cache-dir superseded: backend {backend.name} uses "
                f"its shared store at {cache.root}",
                file=sys.stderr,
            )
        return backend, cache
    return backend, _cache(args)


def _master_seed(args) -> int:
    if args.master_seed is None:
        return DEFAULT_MASTER_SEED
    return args.master_seed


def _add_scenario_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help=(
            "synthesize the workload from a scenario spec, e.g. "
            "'persona=gamer,seed=7,duration=2m,profile=quad_ls' "
            "(overrides --dataset)"
        ),
    )


def _workload_name(args) -> str:
    """The workload to run: a canonicalised --scenario, else --dataset."""
    from repro.scenarios.config import canonical_scenario

    if getattr(args, "scenario", None):
        return canonical_scenario(args.scenario)
    return args.dataset


def _print_cache_summary(cache: ResultCache | None, stream=None) -> None:
    """Cache telemetry, with misses by reason when there are any;
    defaults to stderr — stdout belongs to study results and is pinned
    byte-identical by the integration tests."""
    if cache is not None:
        reasons = ", ".join(
            f"{count} {reason}"
            for reason, count in sorted(cache.miss_reasons.items())
        )
        print(f"# cache: {cache.hits} hits, {cache.misses} misses"
              f"{': ' + reasons if reasons else ''} ({cache.root})",
              file=stream or sys.stderr)


def cmd_table1(_args) -> int:
    print(figures.render_table1())
    return 0


def cmd_classify(args) -> int:
    seed = _master_seed(args)
    artifacts = [
        record_workload(dataset(name), master_seed=seed)
        for name in args.datasets
    ]
    print(figures.render_fig10(artifacts))
    return 0


def _sweep_configs_from_args(args, table) -> list[str] | None:
    """The sweep grid for ``--config``: the fixed OPPs + the given strings.

    The fixed configurations stay (the oracle is composed from them);
    the given config strings replace the three stock governors.
    """
    if not args.configs:
        return None
    fixed = fixed_configs(table)
    extra = parse_sweep_configs(args.configs, table)
    return fixed + [config for config in extra if config not in fixed]


def cmd_sweep(args) -> int:
    from repro.scenarios.profiles import frequency_table_for

    t0 = time.time()
    seed = _master_seed(args)
    backend, cache = _fleet_backend(args)
    spec = dataset(_workload_name(args))  # validated before recording
    table = frequency_table_for(spec)
    configs = _sweep_configs_from_args(args, table)
    artifacts = record_workload(spec, master_seed=seed)
    jsonl = _progress_jsonl(args)
    try:
        sweep = run_sweep(
            artifacts,
            reps=args.reps,
            configs=configs,
            master_seed=seed,
            table=table,
            jobs=args.jobs,
            cache=cache,
            progress=_progress(artifacts.name, args.verbose, jsonl),
            backend=backend,
        )
    finally:
        _close_progress_jsonl(jsonl)
    # stdout carries only the deterministic report (bit-identical for any
    # --jobs value and for warm re-runs); timing and cache telemetry go
    # to stderr.
    print(f"# dataset {artifacts.name}: {artifacts.input_count} inputs, "
          f"{artifacts.database.lag_count} lags")
    print(f"# {time.time() - t0:.1f}s wall", file=sys.stderr)
    _print_cache_summary(cache, stream=sys.stderr)
    print()
    print("Fig. 11 — lag duration distributions")
    print(figures.render_fig11(sweep))
    print()
    print("Fig. 12 — irritation and energy")
    print(figures.render_fig12(sweep))
    print()
    print("Fig. 13 — energy vs irritation")
    print(figures.render_fig13(sweep))
    return 0


def cmd_study(args) -> int:
    from repro.scenarios.config import canonical_scenario

    seed = _master_seed(args)
    backend, cache = _fleet_backend(args)
    names = list(args.datasets)
    if args.scenarios:
        names.extend(canonical_scenario(s) for s in args.scenarios)
    sweeps = {}
    artifacts_list = []
    # One reporter across every per-workload sweep: the JSONL stream is a
    # single ordered sequence (monotonic seq), re-bound per grid.
    jsonl = _progress_jsonl(args)
    reporter = _progress("study", args.verbose, jsonl)
    try:
        for name in names:
            artifacts = record_workload(dataset(name), master_seed=seed)
            artifacts_list.append(artifacts)
            if reporter is not None:
                reporter.label = name
            sweeps[name] = run_sweep(
                artifacts,
                reps=args.reps,
                master_seed=seed,
                jobs=args.jobs,
                cache=cache,
                progress=reporter,
                backend=backend,
            )
    finally:
        _close_progress_jsonl(jsonl)
    print("Fig. 10 — input classification")
    print(figures.render_fig10(artifacts_list))
    print()
    print("Fig. 14 — summary")
    print(figures.render_fig14(sweeps))
    print()
    savings = figures.headline_savings(sweeps)
    print("Headline savings")
    for key, value in savings.items():
        print(f"  {key}: {100 * value:.0f}%")
    # Telemetry on stderr: study stdout stays bit-identical across
    # --jobs values and warm re-runs, like sweep and explore.
    _print_cache_summary(cache, stream=sys.stderr)
    return 0


def _explore_rng(seed: int, args) -> random.Random:
    """A seeded RNG whose stream is unique to this exploration's identity."""
    identity = f"explore:{seed}:{args.dataset}:{args.governor}:{args.strategy}"
    digest = hashlib.sha256(identity.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _explore_progress(verbose: bool, jsonl_stream=None):
    """Explore's progress: terse per-spec stderr lines, optional JSONL.

    The explorer dispatches many small batches through one engine, so a
    grid-bound reporter makes no sense here; with ``--progress-jsonl``
    an unbound reporter streams ``run_completed`` telemetry instead,
    keeping the human lines in the explorer's own terse format.
    """
    hook = None
    if verbose:

        def hook(spec: RunSpec, cached: bool) -> None:
            suffix = " (cached)" if cached else ""
            print(f"# {spec.label()}{suffix}", file=sys.stderr)

    if jsonl_stream is None:
        return hook
    reporter = ProgressReporter(
        "explore", jsonl_stream=jsonl_stream, human=False
    )

    class _ExploreProgress:
        def observe(self, spec, cached=False, telemetry=None):
            reporter.observe(spec, cached=cached, telemetry=telemetry)
            if hook is not None:
                hook(spec, cached)

        def fleet_summary(self, stats, cache=None):
            reporter.fleet_summary(stats, cache)

        def note_capture_seconds(self, seconds):
            reporter.note_capture_seconds(seconds)

    return _ExploreProgress()


def cmd_explore(args) -> int:
    t0 = time.time()
    seed = _master_seed(args)
    backend, cache = _fleet_backend(args)
    args.dataset = _workload_name(args)  # canonicalised before recording
    space = builtin_space(args.governor)  # validated before recording
    strategy = make_strategy(
        args.strategy,
        reps=args.reps,
        irritation_weight=args.irritation_weight,
    )
    artifacts = record_workload(dataset(args.dataset), master_seed=seed)
    jsonl = _progress_jsonl(args)
    try:
        evaluator = ExploreEvaluator(
            artifacts,
            jobs=args.jobs,
            cache=cache,
            master_seed=seed,
            oracle_reps=args.reps,
            progress=_explore_progress(args.verbose, jsonl),
            backend=backend,
        )
        scores = strategy.search(
            space, evaluator.evaluate, args.budget, _explore_rng(seed, args)
        )
        baselines = []
        if not args.no_baselines:
            stock = [g for g in GOVERNORS if g != args.governor]
            baselines = evaluator.evaluate([args.governor] + stock, args.reps)
    finally:
        _close_progress_jsonl(jsonl)

    # stdout carries only the deterministic report (bit-identical for any
    # --jobs and for warm re-runs); telemetry goes to stderr.
    print(f"# explore dataset {args.dataset}: governor={args.governor} "
          f"strategy={strategy.name} budget={args.budget} "
          f"space={space.size} reps={args.reps}")
    print()
    print("Pareto frontier vs oracle")
    from repro.obs.session import trace_enabled

    # The dominant-cause column only exists under REPRO_TRACE=1: the
    # untraced report must stay byte-identical to pre-attribution output.
    oracle_irritation = evaluator.oracle.irritation().total_seconds
    print(render_frontier_report(
        scores, oracle_irritation, baselines, show_causes=trace_enabled()
    ))
    print(f"# {evaluator.replays_executed} replay(s) executed, "
          f"{evaluator.cache_hits} served from cache "
          f"({time.time() - t0:.1f}s wall)", file=sys.stderr)
    _print_cache_summary(cache, stream=sys.stderr)
    return 0


def cmd_perf(args) -> int:
    from repro.perf import (
        check_regression,
        load_baseline,
        run_suite,
        write_baseline,
    )
    from repro.perf.gate import DEFAULT_TOLERANCE
    from repro.perf.harness import render_results

    results = run_suite(repeats=args.repeats, profile_path=args.profile)
    print(render_results(results))
    if args.profile:
        print(f"# profile written to {args.profile}", file=sys.stderr)
    if args.update_baseline:
        write_baseline(args.baseline, results)
        print(f"# baseline updated: {args.baseline}", file=sys.stderr)
        if args.check:
            print(
                "# --check skipped: gating against a baseline just written "
                "from this run is vacuous",
                file=sys.stderr,
            )
        return 0
    if args.check:
        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        failures = check_regression(
            results, load_baseline(args.baseline), tolerance
        )
        if failures:
            print()
            print("PERF REGRESSION GATE FAILED")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print()
        print(f"# perf gate passed (tolerance {tolerance:.2f})")
    return 0


def cmd_trace(args) -> int:
    """Replay one workload with full observability and export the trace."""
    from repro import obs
    from repro.harness.experiment import replay_run
    from repro.scenarios.config import canonical_scenario

    seed = _master_seed(args)
    name = (
        canonical_scenario(args.workload)
        if "=" in args.workload
        else args.workload
    )
    artifacts = record_workload(dataset(name), master_seed=seed)
    session = obs.ObsSession.for_tracing()
    with obs.observed(session):
        record = replay_run(
            artifacts, args.config, rep=args.rep, master_seed=seed
        )
    run_label = f"{name} [{args.config}]"
    session.tracer.write(args.output, run_label)
    # Summary on stderr only: like every other command, stdout stays
    # reserved for deterministic study output.
    counters = record.obs["counters"] if record.obs else {}
    print(
        f"# trace: {session.tracer.event_count} events -> {args.output}",
        file=sys.stderr,
    )
    print(
        f"# run: {counters.get('engine.events_dispatched', 0)} events "
        f"dispatched, {counters.get('cpufreq.transitions', 0)} OPP "
        f"transitions, {counters.get('frames.composed', 0)} frames, "
        f"{counters.get('match.lags_matched', 0)} lags matched, "
        f"{counters.get('timer.ticks_elided', 0)} ticks elided",
        file=sys.stderr,
    )
    if args.obs_json:
        import json as json_module

        Path(args.obs_json).write_text(
            json_module.dumps(record.obs, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"# obs section -> {args.obs_json}", file=sys.stderr)
    return 0


def cmd_attribute(args) -> int:
    """Explain every irritation window: per-cause breakdown + annotated trace.

    stdout carries only the deterministic attribution report (the CI
    perf-smoke job pins it byte-identical across ``--jobs``); trace and
    telemetry lines go to stderr.
    """
    import json as json_module

    from repro import obs
    from repro.harness.experiment import replay_run
    from repro.obs.attribution import (
        annotate_document,
        attribute_record,
        render_report,
    )
    from repro.scenarios.config import canonical_scenario

    seed = _master_seed(args)
    name = (
        canonical_scenario(args.workload)
        if "=" in args.workload
        else args.workload
    )
    artifacts = record_workload(dataset(name), master_seed=seed)
    session = obs.ObsSession.for_tracing()
    with obs.observed(session):
        record = replay_run(
            artifacts, args.config, rep=args.rep, master_seed=seed
        )
    attribution = attribute_record(record, boosts=session.decisions.boosts)
    if args.output:
        run_label = f"{name} [{args.config}]"
        document = annotate_document(
            session.tracer.to_chrome_trace(run_label), attribution
        )
        Path(args.output).write_text(
            json_module.dumps(document, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        print(
            f"# annotated trace: {len(document['traceEvents'])} events "
            f"-> {args.output}",
            file=sys.stderr,
        )
    print(render_report(attribution))
    return 0


def cmd_demand(args) -> int:
    """Inspect a workload's demand trace: stats, schema validation, export.

    Captures the trace fresh (or loads ``--input``, e.g. a fleet-cached
    ``demand/<key>.json``), prints its summary counters and content hash
    as deterministic JSON on stdout, and validates the schema contract —
    exit 1 on any violation.  ``-o`` exports the full trace JSON (the CI
    demand-smoke job uploads it as an artifact).
    """
    import json as json_module

    from repro.demand import DemandTrace, DemandTraceError, capture_demand
    from repro.scenarios.config import canonical_scenario

    seed = _master_seed(args)
    name = (
        canonical_scenario(args.workload)
        if "=" in args.workload
        else args.workload
    )
    if args.input:
        trace = DemandTrace.loads(
            Path(args.input).read_text(encoding="utf-8")
        )
        print(f"# demand trace <- {args.input}", file=sys.stderr)
    else:
        artifacts = record_workload(dataset(name), master_seed=seed)
        capture_start = time.perf_counter()
        trace = capture_demand(artifacts)
        print(
            f"# captured in {time.perf_counter() - capture_start:.2f}s "
            f"at {trace.capture_config}",
            file=sys.stderr,
        )
    report = dict(trace.stats())
    report["content_hash"] = trace.content_hash()
    report["schema_version"] = trace.schema_version
    print(json_module.dumps(report, indent=2, sort_keys=True))
    if args.output:
        Path(args.output).write_text(trace.dumps(), encoding="utf-8")
        print(f"# demand trace -> {args.output}", file=sys.stderr)
    try:
        trace.validate()
    except DemandTraceError as exc:
        print(f"repro-qoe: demand trace invalid: {exc}", file=sys.stderr)
        return 1
    print("# schema contract: OK", file=sys.stderr)
    return 0


def cmd_trace_diff(args) -> int:
    """Align two exported traces; report span deltas and first divergence."""
    from repro.obs.attribution import diff_trace_files, render_diff

    diff = diff_trace_files(args.trace_a, args.trace_b)
    print(render_diff(diff))
    return 1 if diff.diverging else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qoe",
        description=(
            "Reproduction of Seeker et al., 'Measuring QoE of Interactive "
            "Workloads and Characterising Frequency Governors on Mobile "
            "Devices' (IISWC 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser("table1", help="print Table I")
    p_table1.set_defaults(func=cmd_table1)

    p_classify = sub.add_parser("classify", help="Fig. 10 input classification")
    p_classify.add_argument(
        "--datasets", nargs="+", default=dataset_names(), metavar="DS"
    )
    _add_seed_flag(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_sweep = sub.add_parser("sweep", help="one dataset's 85-run sweep")
    p_sweep.add_argument("--dataset", default="02")
    p_sweep.add_argument("--reps", type=int, default=5)
    p_sweep.add_argument(
        "--config", action="append", dest="configs", metavar="CFG",
        help=(
            "replace the stock governors with this config string, e.g. "
            "'qoe_aware:boost=1_036_800,settle=40000' (repeatable; the 14 "
            "fixed OPPs always run — the oracle is composed from them)"
        ),
    )
    p_sweep.add_argument("--verbose", action="store_true")
    _add_scenario_flag(p_sweep)
    _add_fleet_flags(p_sweep)
    _add_seed_flag(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_study = sub.add_parser("study", help="full study: Figs. 10, 14 + headline")
    p_study.add_argument(
        "--datasets", nargs="+", default=dataset_names(), metavar="DS"
    )
    p_study.add_argument("--reps", type=int, default=5)
    p_study.add_argument(
        "--scenario", action="append", dest="scenarios", metavar="SPEC",
        help=(
            "also study this synthesized scenario, e.g. "
            "'persona=reader,seed=1,duration=2m' (repeatable)"
        ),
    )
    p_study.add_argument("--verbose", action="store_true")
    _add_fleet_flags(p_study)
    _add_seed_flag(p_study)
    p_study.set_defaults(func=cmd_study)

    p_explore = sub.add_parser(
        "explore",
        help="search a governor's parameter space, report the Pareto frontier",
    )
    p_explore.add_argument("--dataset", default="02")
    p_explore.add_argument(
        "--governor", default="qoe_aware", metavar="GOV",
        help=f"parameter space to search (known: "
             f"{', '.join(builtin_space_names())})",
    )
    p_explore.add_argument(
        "--strategy", default="random", metavar="STRAT",
        help=f"search strategy (known: {', '.join(strategy_names())})",
    )
    p_explore.add_argument(
        "--budget", type=_positive_int, default=16, metavar="N",
        help="maximum candidate evaluations to spend (default: 16)",
    )
    p_explore.add_argument(
        "--reps", type=_positive_int, default=1, metavar="R",
        help="repetitions per candidate evaluation (default: 1)",
    )
    p_explore.add_argument(
        "--irritation-weight", type=float,
        default=DEFAULT_IRRITATION_WEIGHT, metavar="W",
        help=(
            "energy-per-irritation-second exchange rate used when a "
            f"strategy ranks candidates (default: {DEFAULT_IRRITATION_WEIGHT})"
        ),
    )
    p_explore.add_argument(
        "--no-baselines", action="store_true",
        help="skip scoring the stock governors for reference",
    )
    p_explore.add_argument("--verbose", action="store_true")
    _add_scenario_flag(p_explore)
    _add_fleet_flags(p_explore)
    _add_seed_flag(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_perf = sub.add_parser(
        "perf",
        help="kernel micro benchmarks and their regression gate",
    )
    p_perf.add_argument(
        "--repeats", type=_positive_int, default=3, metavar="N",
        help="best-of-N timing per benchmark (default: 3)",
    )
    p_perf.add_argument(
        "--profile", metavar="PATH",
        help="also run the suite once under cProfile, dump stats to PATH",
    )
    p_perf.add_argument(
        "--check", action="store_true",
        help="enforce the regression gate against the committed baseline",
    )
    p_perf.add_argument(
        "--baseline", default="benchmarks/perf_baseline.json", metavar="PATH",
        help="baseline file for --check/--update-baseline "
             "(default: benchmarks/perf_baseline.json)",
    )
    p_perf.add_argument(
        "--tolerance", type=float, default=None, metavar="F",
        help="gate floor as a fraction of the baseline (default: 0.35)",
    )
    p_perf.add_argument(
        "--update-baseline", action="store_true",
        help="write this run's throughput as the new committed baseline",
    )
    p_perf.set_defaults(func=cmd_perf)

    p_trace = sub.add_parser(
        "trace",
        help=(
            "replay one workload with full observability; export a "
            "Perfetto-loadable Chrome trace-event JSON"
        ),
    )
    p_trace.add_argument(
        "workload", metavar="WORKLOAD",
        help=(
            "dataset name ('02') or scenario spec "
            "('persona=gamer,seed=7,duration=45s')"
        ),
    )
    p_trace.add_argument(
        "--config", default="interactive", metavar="CFG",
        help="governor or fixed:<khz> to replay under (default: interactive)",
    )
    p_trace.add_argument(
        "-o", "--output", default="trace.json", metavar="PATH",
        help="trace output file (default: trace.json)",
    )
    p_trace.add_argument(
        "--rep", type=int, default=0, metavar="R",
        help="repetition index to replay (default: 0)",
    )
    p_trace.add_argument(
        "--obs-json", default=None, metavar="PATH",
        help="also dump the run's obs metrics section as JSON to PATH",
    )
    _add_seed_flag(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_attr = sub.add_parser(
        "attribute",
        help=(
            "decompose every irritation window into named causes; "
            "print the per-cause breakdown and annotate the trace"
        ),
    )
    p_attr.add_argument(
        "workload", metavar="WORKLOAD",
        help=(
            "dataset name ('02') or scenario spec "
            "('persona=gamer,seed=7,duration=45s')"
        ),
    )
    p_attr.add_argument(
        "--config", default="interactive", metavar="CFG",
        help="governor or fixed:<khz> to replay under (default: interactive)",
    )
    p_attr.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="also write the cause-annotated Chrome trace JSON to PATH",
    )
    p_attr.add_argument(
        "--rep", type=int, default=0, metavar="R",
        help="repetition index to replay (default: 0)",
    )
    p_attr.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help=(
            "accepted for fleet-CLI parity; attribution replays one run "
            "in-process, so the report is identical for any N"
        ),
    )
    _add_seed_flag(p_attr)
    p_attr.set_defaults(func=cmd_attribute)

    p_demand = sub.add_parser(
        "demand",
        help=(
            "capture a workload's demand trace; print stats and validate "
            "the schema contract (exit 1 on violations)"
        ),
    )
    p_demand.add_argument(
        "workload", metavar="WORKLOAD",
        help=(
            "dataset name ('02') or scenario spec "
            "('persona=gamer,seed=7,duration=45s')"
        ),
    )
    p_demand.add_argument(
        "-i", "--input", default=None, metavar="PATH",
        help="validate an existing trace JSON instead of capturing",
    )
    p_demand.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="export the full trace JSON (for CI artifacts)",
    )
    _add_seed_flag(p_demand)
    p_demand.set_defaults(func=cmd_demand)

    p_diff = sub.add_parser(
        "trace-diff",
        help=(
            "align two exported traces; report span-level deltas and the "
            "first causally-diverging irritation window (exit 1 if any)"
        ),
    )
    p_diff.add_argument("trace_a", metavar="TRACE_A", help="baseline trace JSON")
    p_diff.add_argument("trace_b", metavar="TRACE_B", help="candidate trace JSON")
    p_diff.set_defaults(func=cmd_trace_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-qoe: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: normal exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
