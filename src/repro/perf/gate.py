"""The perf regression gate.

Compares measured benchmark throughput against a committed baseline
(``benchmarks/perf_baseline.json``) with a tolerance band.  The band is
deliberately wide by default: CI runners differ wildly in absolute speed,
and the gate's job is to catch *algorithmic* regressions (an accidental
linear scan, a heap that stops compacting) — those show up as integer
factors, not percentages.

Updating the baseline is an explicit act (``repro-qoe perf
--update-baseline``) so a slow creep needs a reviewed diff to land.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.errors import ReproError
from repro.perf.harness import BenchResult

# Fail only when measured throughput drops below tolerance * baseline.
# 0.35 tolerates a ~3x slower CI runner while still catching the order-of-
# magnitude collapses a complexity regression causes on micro benches.
DEFAULT_TOLERANCE = 0.35


def load_baseline(path) -> dict[str, float]:
    """Load the committed baseline: benchmark name -> throughput."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(f"unreadable perf baseline {path}: {exc}") from exc
    recorded = document.get("throughput")
    if not isinstance(recorded, dict) or not recorded:
        raise ReproError(f"perf baseline {path} records no throughput")
    return {name: float(value) for name, value in recorded.items()}


def write_baseline(path, results: list[BenchResult]) -> None:
    """Write ``results`` as the committed baseline, replacing it whole."""
    document = {
        "schema": 1,
        "note": "Throughput floors for the perf regression gate; update via "
        "`repro-qoe perf --update-baseline`.",
        "throughput": {
            result.name: round(result.throughput(), 1) for result in results
        },
    }
    Path(path).write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def check_regression(
    results: list[BenchResult],
    baseline: dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Return one failure message per benchmark below its floor.

    Benchmarks without a baseline entry are skipped (a new benchmark
    lands first, its baseline follows).  Baseline entries without a
    measured result fail, so a renamed benchmark cannot silently hollow
    the gate out.
    """
    if not 0 < tolerance <= 1:
        raise ReproError(f"gate tolerance must be in (0, 1], got {tolerance}")
    failures = []
    measured = {result.name: result for result in results}
    for name, floor in sorted(baseline.items()):
        result = measured.get(name)
        if result is None:
            failures.append(
                f"{name}: baseline present but benchmark did not run"
            )
            continue
        throughput = result.throughput()
        if throughput < tolerance * floor:
            failures.append(
                f"{name}: throughput {throughput:,.0f} below gate "
                f"{tolerance:.2f} x baseline {floor:,.0f} "
                f"(= {tolerance * floor:,.0f})"
            )
    return failures
