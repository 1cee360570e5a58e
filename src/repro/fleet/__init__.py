"""Fleet execution: parallel sweeps over a fleet of simulated devices.

The study grid (17 configurations × 5 repetitions × N datasets) is
embarrassingly parallel — every cell is an independent, deterministic
replay.  This package exploits that:

* :mod:`repro.fleet.spec` — :class:`RunSpec`, the pure value naming one
  cell, plus the grid enumerator,
* :mod:`repro.fleet.engine` — :class:`FleetEngine`, backend-driven
  dispatch with ordered merge and per-worker failure capture,
* :mod:`repro.fleet.backends` — execution backends addressed by a
  ``NAME[:key=value,...]`` spec: :class:`LocalBackend` (inline /
  ``multiprocessing.Pool``) and :class:`DistributedBackend`
  (work-pulling workers over a shared sqlite queue with lease/ack
  semantics, publishing rows to a shared content-addressed store),
* :mod:`repro.fleet.cache` — :class:`ResultCache`, a content-addressed
  on-disk store so re-running a study only executes invalidated cells,
* :mod:`repro.fleet.progress` — :class:`ProgressReporter`, aggregated
  ``done/total`` + ETA reporting across all workers.

The serial sweep in :mod:`repro.harness.sweep` is now a thin layer over
this package; ``FleetEngine(jobs=1)`` is the serial path, and any other
worker count — or backend — produces bit-identical output.
"""

from repro.fleet.backends import (
    DistributedBackend,
    FleetBackend,
    LocalBackend,
    create_backend,
    parse_backend_spec,
)
from repro.fleet.cache import ResultCache, workload_fingerprint
from repro.fleet.engine import (
    FleetEngine,
    FleetError,
    FleetStats,
    WorkerFailure,
    execute_spec,
)
from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import RunSpec, enumerate_sweep_specs

__all__ = [
    "DistributedBackend",
    "FleetBackend",
    "FleetEngine",
    "FleetError",
    "FleetStats",
    "LocalBackend",
    "ProgressReporter",
    "ResultCache",
    "RunSpec",
    "WorkerFailure",
    "create_backend",
    "enumerate_sweep_specs",
    "execute_spec",
    "parse_backend_spec",
    "workload_fingerprint",
]
