"""The fleet executor: parallel, cache-aware dispatch of run specs.

One :class:`FleetEngine` turns a list of :class:`RunSpec` into the same
ordered list of :class:`~repro.results.RunRecord` the serial loop
produced, but

* **backend-driven** — *what* to run (cache scan, demand-trace
  resolution, accounting, ordered merge) is decided here; *where* and
  *how* cells execute is a
  :class:`~repro.fleet.backends.registry.FleetBackend`: the default
  :class:`~repro.fleet.backends.local.LocalBackend` runs inline or on a
  :mod:`multiprocessing` pool, the
  :class:`~repro.fleet.backends.distributed.DistributedBackend` has
  workers lease one cell at a time from a shared sqlite work queue
  with lease/ack semantics and publish rows to a shared content-addressed store,
* **deterministic** — every replay seeds its RNG streams from the spec
  alone, and results are merged back in spec order, so output is
  bit-identical to the serial path regardless of backend, worker count
  or completion order,
* **typed IPC** — a worker ships its result home as the schema-versioned
  :class:`RunRecord` wire row (the same compact format the cache
  stores), never as a pickled object graph; the backend that encoded a
  row decodes it, so the engine only ever handles records, and the
  inline path crosses no boundary and encodes nothing,
* **cache-aware** — with a :class:`~repro.fleet.cache.ResultCache`, cells
  whose content address (spec + workload fingerprint) is already stored
  are served without executing, and fresh results are stored on the way
  out.  The fingerprint lives on the frozen artifacts, hashed once per
  recording however many engines and sweeps run over it.  A backend
  that publishes rows itself (the distributed workers write to the
  shared store before acking) makes a killed run resumable: the
  restarted engine's cache scan finds every published row and
  re-executes nothing twice,
* **failure-capturing** — an exception inside a worker is caught there
  and shipped back as a :class:`WorkerFailure` (with its traceback text);
  the remaining cells still run, then the engine raises a single
  :class:`FleetError` describing every failed cell,
* **demand-accelerated** — unless ``REPRO_DEMAND=0``, the engine captures
  the workload's demand trace once (or loads it from the cache-adjacent
  :class:`~repro.demand.store.DemandTraceStore`), ships it to every
  worker, and evaluates each cell with the kernel-only
  :func:`~repro.demand.replayer.demand_replay_run`.  A cell whose replay
  diverges from the trace's contract raises
  :class:`~repro.demand.replayer.DemandFallback` and is transparently
  re-run as a full replay; :class:`FleetStats` counts both populations
  and every fallback reason,
* **one telemetry model** — :class:`FleetStats` is the only aggregate
  of a run (cache hits, executed cells, per-worker totals, stragglers,
  the demand accounting).  The only progress hook is a
  :class:`~repro.fleet.progress.ProgressReporter`: the engine binds it
  to each spec list it runs, tells it the one-time capture time and
  every completion as it happens, then hands it the run's stats for
  the ``fleet_summary``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import TYPE_CHECKING

from repro.core.errors import ReproError
from repro.fleet.cache import ResultCache, workload_fingerprint
from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import RunSpec
from repro.results import RunRecord

if TYPE_CHECKING:  # pragma: no cover - harness imports fleet; break the cycle
    from repro.fleet.backends.registry import FleetBackend
    from repro.harness.experiment import WorkloadArtifacts


@dataclass(frozen=True, slots=True)
class WorkerFailure:
    """One spec's failure, captured inside the worker that ran it."""

    spec: RunSpec
    exc_type: str
    message: str
    traceback_text: str

    def describe(self) -> str:
        return f"{self.spec.label()}: {self.exc_type}: {self.message}"


class FleetError(ReproError):
    """Raised after a fleet run in which one or more specs failed."""

    def __init__(self, failures: list[WorkerFailure]) -> None:
        self.failures = failures
        lines = [f"{len(failures)} fleet run(s) failed:"]
        lines.extend(f"  - {failure.describe()}" for failure in failures)
        lines.append("First worker traceback:")
        lines.append(failures[0].traceback_text)
        super().__init__("\n".join(lines))


@dataclass(slots=True)
class FleetStats:
    """What one :meth:`FleetEngine.run` actually did.

    It is the fleet's only aggregate: the progress reporter renders it
    and aggregates nothing itself.  ``run_telemetry`` holds one
    worker-side measurement per successfully *executed* cell —
    ``{"pid", "wall_s", "cpu_s", "mode"}`` plus a ``fallback_reason``
    tag when the demand pass bailed out — in completion order.  Cached
    and failed cells are not in it, so the worker and straggler
    summaries always agree with ``executed``.

    The demand fields describe the trace-once/replay-many split:
    ``demand_cells``/``full_cells`` partition the successfully executed
    cells by evaluation pass, ``fallback_cells`` counts demand cells
    that had to re-run as full replays (every one is also a
    ``full_cells`` member), and ``demand_trace_source`` records where
    the trace came from (``"cache"``, ``"captured"``, or None when the
    run used full replays throughout).  ``fallback_reasons`` counts
    every fallback — including a cell whose full-replay rerun then
    failed — so reason totals may exceed ``fallback_cells``.

    ``backend`` names the execution backend and ``redispatched`` counts
    cells the distributed queue had to dispatch more than once (expired
    leases: a worker died or straggled holding a cell).
    """

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    stored: int = 0
    failures: int = 0
    run_telemetry: list[dict] = field(default_factory=list)
    demand_cells: int = 0
    full_cells: int = 0
    fallback_cells: int = 0
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    demand_trace_source: str | None = None
    demand_capture_s: float | None = None
    demand_capture_error: str | None = None
    backend: str = "local"
    redispatched: int = 0

    def straggler_summary(self) -> dict | None:
        """Spread of per-run wall times — the straggler signal.

        None when nothing executed (fully cached or empty grids).
        Failed cells are excluded: ``runs`` always equals ``executed``.
        """
        walls = [entry["wall_s"] for entry in self.run_telemetry]
        if not walls:
            return None
        return {
            "runs": len(walls),
            "max_wall_s": max(walls),
            "median_wall_s": median(walls),
            "total_wall_s": sum(walls),
        }

    def worker_totals(self) -> list[dict]:
        """Per-worker ``{"pid", "runs", "wall_s", "cpu_s"}``, by pid.

        Summed over ``run_telemetry`` in completion order, so the totals
        of the executed cells add up to ``executed`` runs.
        """
        workers: dict[int, dict] = {}
        for entry in self.run_telemetry:
            worker = workers.setdefault(
                entry["pid"], {"runs": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            worker["runs"] += 1
            worker["wall_s"] += entry["wall_s"]
            worker["cpu_s"] += entry["cpu_s"]
        return [{"pid": pid, **workers[pid]} for pid in sorted(workers)]


def execute_spec(artifacts: "WorkloadArtifacts", spec: RunSpec) -> RunRecord:
    """Run one spec to completion on a fresh simulated device."""
    from repro.harness.experiment import replay_run

    return replay_run(
        artifacts,
        spec.config,
        rep=spec.rep,
        master_seed=spec.master_seed,
    )


def _check_served(spec: RunSpec, record: RunRecord, key: str) -> None:
    """Refuse a store row whose identity is not the cell it was keyed for."""
    served = (record.workload, record.config, record.rep)
    if served != (spec.dataset, spec.config, spec.rep):
        raise ReproError(
            f"result store served {served[0]}:{served[1]}:rep{served[2]} "
            f"for cell {spec.label()} (key {key[:12]})"
        )


class FleetEngine:
    """Dispatch specs through a backend with optional result cache.

    ``backend`` is any :class:`~repro.fleet.backends.registry.FleetBackend`;
    by default a :class:`~repro.fleet.backends.local.LocalBackend` over
    ``jobs`` worker processes (``jobs == 1`` is the inline serial path).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: ProgressReporter | None = None,
        backend: "FleetBackend | None" = None,
    ) -> None:
        if jobs < 1:
            raise ReproError(f"fleet needs at least one worker, got {jobs}")
        if backend is None:
            from repro.fleet.backends.local import LocalBackend

            backend = LocalBackend(jobs)
        self.cache = cache
        self.progress = progress
        self.backend = backend
        self.last_stats = FleetStats()

    def run(
        self, artifacts: WorkloadArtifacts, specs: list[RunSpec]
    ) -> list[RunRecord]:
        """Execute ``specs`` and return records in spec order."""
        stats = FleetStats(total=len(specs), backend=self.backend.name)
        self.last_stats = stats
        if self.progress is not None:
            self.progress.bind(specs)
        if self.backend.publishes_results and self.cache is None:
            raise ReproError(
                f"backend {self.backend.name!r} publishes results to a "
                "shared store and needs a result cache (it is also what "
                "makes a killed run resumable); do not disable caching"
            )
        results: dict[int, RunRecord] = {}
        keys: dict[int, str] = {}
        pending: list[tuple[int, RunSpec]] = []

        if self.cache is not None:
            fingerprint = workload_fingerprint(artifacts)
            for index, spec in enumerate(specs):
                key = self.cache.key_for(spec, fingerprint)
                keys[index] = key
                cached = self.cache.load(key)
                if cached is None:
                    pending.append((index, spec))
                else:
                    _check_served(spec, cached, key)
                    results[index] = cached
                    stats.cache_hits += 1
                    self._report(spec, cached=True)
        else:
            pending = list(enumerate(specs))

        demand_trace = self._demand_trace(artifacts, stats) if pending else None

        failures: list[WorkerFailure] = []
        for index, record, failure, telemetry in self.backend.execute(
            artifacts,
            pending,
            demand_trace=demand_trace,
            keys=keys if self.cache is not None else None,
            store=self.cache,
        ):
            spec = specs[index]
            # A demand cell that fell back is counted by reason whether
            # its full-replay rerun succeeded or failed; the remaining
            # accounting splits on the outcome.
            reason = telemetry.get("fallback_reason")
            if reason is not None:
                stats.fallback_reasons[reason] = (
                    stats.fallback_reasons.get(reason, 0) + 1
                )
            if failure is not None:
                # Failed cells are kept out of run_telemetry so the
                # worker/straggler summaries always agree with executed.
                failures.append(failure)
                stats.failures += 1
                continue
            stats.run_telemetry.append(telemetry)
            if telemetry.get("mode") == "demand":
                stats.demand_cells += 1
            else:
                stats.full_cells += 1
            if reason is not None:
                stats.fallback_cells += 1
            results[index] = record
            stats.executed += 1
            if self.cache is not None:
                if not self.backend.publishes_results:
                    self.cache.store(keys[index], record)
                stats.stored += 1
            self._report(spec, cached=False, telemetry=telemetry)

        stats.redispatched = self.backend.last_redispatched
        if self.progress is not None:
            self.progress.fleet_summary(stats, self.cache)
        if failures:
            failures.sort(key=lambda f: f.spec.label())
            raise FleetError(failures)
        return [results[index] for index in range(len(specs))]

    def _demand_trace(self, artifacts: WorkloadArtifacts, stats: FleetStats):
        """Resolve the workload's demand trace: cached, captured, or None.

        None (full replays throughout) when ``REPRO_DEMAND=0`` or when the
        one-time capture itself fails — a capture failure is recorded in
        the stats and degrades the run, never aborts it.  The capture
        wall time is reported to the progress reporter so ETAs extrapolate
        per-cell cost only, not the one-off setup.
        """
        from repro.demand import (
            DemandTraceStore,
            capture_demand,
            demand_enabled,
        )

        if not demand_enabled():
            return None
        store = DemandTraceStore.for_cache(self.cache)
        if store is not None:
            fingerprint = workload_fingerprint(artifacts)
            trace = store.load(fingerprint)
            if trace is not None:
                stats.demand_trace_source = "cache"
                return trace
        capture_start = time.perf_counter()
        try:
            trace = capture_demand(artifacts)
        except ReproError as exc:
            stats.demand_capture_error = f"{type(exc).__name__}: {exc}"
            return None
        stats.demand_capture_s = time.perf_counter() - capture_start
        stats.demand_trace_source = "captured"
        if self.progress is not None:
            self.progress.note_capture_seconds(stats.demand_capture_s)
        if store is not None:
            store.store(fingerprint, trace)
        return trace

    def _report(
        self, spec: RunSpec, cached: bool, telemetry: dict | None = None
    ) -> None:
        if self.progress is not None:
            self.progress.observe(spec, cached=cached, telemetry=telemetry)
