"""Fleet execution backends.

* :mod:`repro.fleet.backends.registry` — the fixed name → backend table
  and the ``NAME[:key=value,...]`` spec grammar behind ``--backend``,
* :mod:`repro.fleet.backends.local` — inline / ``multiprocessing.Pool``
  execution on this machine (the default, and the bit-identical
  reference path),
* :mod:`repro.fleet.backends.distributed` — work-pulling workers that
  lease one cell at a time from a shared sqlite work queue, publishing
  ``RunRecord`` rows to a shared content-addressed store; crash-safe
  and resumable.
"""

from repro.fleet.backends.distributed import DistributedBackend, SqliteWorkQueue
from repro.fleet.backends.local import LocalBackend
from repro.fleet.backends.registry import (
    FleetBackend,
    backend_names,
    create_backend,
    parse_backend_spec,
)

__all__ = [
    "DistributedBackend",
    "FleetBackend",
    "LocalBackend",
    "SqliteWorkQueue",
    "backend_names",
    "create_backend",
    "parse_backend_spec",
]
