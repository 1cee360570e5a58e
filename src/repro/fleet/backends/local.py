"""The local backend: inline execution and the multiprocessing pool.

This is the execution path :class:`~repro.fleet.engine.FleetEngine`
shipped with from day one, extracted behind the backend contract:

* ``jobs == 1`` (or a single pending cell) runs inline in the parent
  process — no pool overhead, and the reference the parallel paths must
  be bit-identical to,
* ``jobs > 1`` chunks cells across a :mod:`multiprocessing` pool whose
  workers receive the recorded artifacts (and, when the demand pass is
  on, the preprocessed :class:`~repro.demand.replayer.DemandProgram`)
  once at pool initialisation.  A pool worker ships each record home as
  its compact wire row (:meth:`~repro.results.RunRecord.to_wire`); the
  parent decodes it before yielding, so the engine only sees records.

The worker-side functions (:func:`init_worker`, :func:`run_spec_cell`)
live here so other process-spanning backends — the distributed worker
loop — execute cells through exactly the same code as the pool path.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import TYPE_CHECKING, Iterable

from repro.core.errors import ReproError
from repro.fleet.backends.registry import (
    CellResult,
    FleetBackend,
    reject_unknown_opts,
)
from repro.fleet.spec import RunSpec
from repro.results import RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import WorkloadArtifacts

# --- worker-process side ----------------------------------------------------------

_WORKER_ARTIFACTS = None  # WorkloadArtifacts | None
_WORKER_PROGRAM = None  # DemandProgram | None


def init_worker(artifacts, demand_trace=None) -> None:
    """Install the per-process replay state: artifacts and, when the
    demand pass is on, the trace preprocessed once into a
    :class:`~repro.demand.replayer.DemandProgram` shared by every cell
    this worker runs."""
    global _WORKER_ARTIFACTS, _WORKER_PROGRAM
    _WORKER_ARTIFACTS = artifacts
    if demand_trace is None:
        _WORKER_PROGRAM = None
    else:
        from repro.demand import DemandProgram

        _WORKER_PROGRAM = DemandProgram(demand_trace)


def run_spec_cell(item: tuple[int, RunSpec]) -> CellResult:
    """Execute one cell and return the :class:`~repro.results.RunRecord`
    it produced (or the captured failure).

    The fourth element is the worker's telemetry for this cell — its pid,
    wall and CPU seconds spent, and which evaluation pass produced the
    record — measured here so the numbers cover exactly the replay, not
    pool scheduling or IPC.  A demand cell that raises
    :class:`~repro.demand.replayer.DemandFallback` re-runs as a full
    replay in place, tagged with the fallback reason; the wall clock then
    covers both attempts, which is the honest cost of that cell.
    """
    from repro.fleet.engine import WorkerFailure, execute_spec

    index, spec = item
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    mode = "full"
    fallback_reason = None
    try:
        if _WORKER_PROGRAM is not None:
            from repro.demand import DemandFallback, demand_replay_run

            try:
                record = demand_replay_run(
                    _WORKER_ARTIFACTS,
                    _WORKER_PROGRAM,
                    spec.config,
                    rep=spec.rep,
                    master_seed=spec.master_seed,
                )
                mode = "demand"
            except DemandFallback as fallback:
                fallback_reason = fallback.reason
                record = execute_spec(_WORKER_ARTIFACTS, spec)
        else:
            record = execute_spec(_WORKER_ARTIFACTS, spec)
        failure = None
    except Exception as exc:  # shipped home; the pool must not die
        record = None
        failure = WorkerFailure(
            spec=spec,
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc(),
        )
    telemetry = {
        "pid": os.getpid(),
        "wall_s": time.perf_counter() - wall_start,
        "cpu_s": time.process_time() - cpu_start,
        "mode": mode,
    }
    if fallback_reason is not None:
        telemetry["fallback_reason"] = fallback_reason
    return index, record, failure, telemetry


def _run_spec_cell_wire(item: tuple[int, RunSpec]):
    """:func:`run_spec_cell` for a pool worker: the record crosses the
    process boundary as its wire row, not a pickled object graph."""
    index, record, failure, telemetry = run_spec_cell(item)
    return index, None if record is None else record.to_wire(), failure, telemetry


# --- parent side ------------------------------------------------------------------


class LocalBackend(FleetBackend):
    """Inline / ``multiprocessing.Pool`` execution on this machine."""

    name = "local"

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ReproError(f"fleet needs at least one worker, got {jobs}")
        self.jobs = jobs

    @classmethod
    def from_opts(cls, opts: dict[str, str], jobs: int = 1) -> "LocalBackend":
        """``--jobs`` is the only worker count: the spec takes no options."""
        reject_unknown_opts(cls.name, opts, ())
        return cls(jobs=jobs)

    def execute(
        self,
        artifacts: "WorkloadArtifacts",
        pending: list[tuple[int, RunSpec]],
        demand_trace=None,
        keys: dict[int, str] | None = None,
        store=None,
    ) -> Iterable[CellResult]:
        if not pending:
            return
        jobs = min(self.jobs, len(pending))
        if jobs == 1:
            # Inline path: identical semantics, no pool overhead.  This is
            # also the reference the parallel path must be bit-identical to.
            init_worker(artifacts, demand_trace)
            try:
                for item in pending:
                    yield run_spec_cell(item)
            finally:
                # Drop the parent-process reference so the trace/database
                # can be collected once the run is over.
                init_worker(None)
            return
        chunksize = max(1, len(pending) // (jobs * 4))
        with multiprocessing.Pool(
            processes=jobs,
            initializer=init_worker,
            initargs=(artifacts, demand_trace),
        ) as pool:
            for index, row, failure, telemetry in pool.imap_unordered(
                _run_spec_cell_wire, pending, chunksize=chunksize
            ):
                record = None if row is None else RunRecord.from_wire(row)
                yield index, record, failure, telemetry
