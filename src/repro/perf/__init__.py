"""Performance subsystem: micro benchmarks and their regression gate.

The replay simulator is the unit of cost for everything this repository
does — every sweep, study and design-space exploration bottoms out in
single-replay throughput.  This package defends the kernel layers under
it one at a time:

* :mod:`repro.perf.workloads` — deterministic micro (engine/kernel-only)
  benchmark workloads;
* :mod:`repro.perf.harness` — the runner: best-of-N timing, optional
  cProfile capture, a fixed-width report;
* :mod:`repro.perf.gate` — the CI regression gate comparing measured
  throughput against a committed baseline with a tolerance band.

Run via the CLI: ``repro-qoe perf`` (see ``repro-qoe perf --help``).
End-to-end throughput is measured by ``perfbench/`` instead, and a
change is compared with its parent by ``benchmarks/ab_pairs.py``.
"""

from repro.perf.gate import (
    check_regression,
    load_baseline,
    write_baseline,
)
from repro.perf.harness import BenchResult, run_suite

__all__ = [
    "BenchResult",
    "check_regression",
    "load_baseline",
    "run_suite",
    "write_baseline",
]
