"""Fleet scaling — parallel sweep speedup and warm-cache re-run time.

The study grid is embarrassingly parallel, so the fleet engine's wall
clock should fall with worker count (up to the machine's core count) and
a warm-cache re-run should skip every completed cell.  This bench times
one dataset's 17-configuration sweep at 1/2/4/8 workers, then a cold
vs. warm cached run, verifying along the way that every path produces
results bit-identical to the serial reference.
"""

from __future__ import annotations

import os
import time

from repro.device.frequencies import snapdragon_8074_table
from repro.fleet.cache import ResultCache
from repro.fleet.engine import FleetEngine
from repro.fleet.spec import enumerate_sweep_specs
from repro.harness.sweep import sweep_configs

JOB_COUNTS = (1, 2, 4, 8)


def _specs(artifacts):
    return enumerate_sweep_specs(
        artifacts.name,
        sweep_configs(snapdragon_8074_table()),
        reps=1,
        master_seed=artifacts.recording_master_seed,
    )


def test_fleet_scaling(artifacts_ds02, tmp_path):
    specs = _specs(artifacts_ds02)
    timings: dict[int, float] = {}
    reference = None
    print(f"\nFleet scaling — dataset 02, {len(specs)} runs, "
          f"{os.cpu_count()} CPU(s)")
    for jobs in JOB_COUNTS:
        engine = FleetEngine(jobs=jobs)
        t0 = time.perf_counter()
        results = engine.run(artifacts_ds02, specs)
        elapsed = time.perf_counter() - t0
        timings[jobs] = elapsed
        if reference is None:
            reference = results
        else:
            # Any worker count must be bit-identical to the serial path.
            assert results == reference
        speedup = timings[1] / elapsed
        print(f"  jobs={jobs}: {elapsed:6.2f}s  speedup {speedup:4.2f}x")

    cache = ResultCache(tmp_path / "cache")
    cold_engine = FleetEngine(jobs=4, cache=cache)
    t0 = time.perf_counter()
    cold = cold_engine.run(artifacts_ds02, specs)
    cold_s = time.perf_counter() - t0
    assert cold == reference
    assert cold_engine.last_stats.executed == len(specs)

    warm_engine = FleetEngine(jobs=4, cache=cache)
    t0 = time.perf_counter()
    warm = warm_engine.run(artifacts_ds02, specs)
    warm_s = time.perf_counter() - t0
    print(f"  cache: cold {cold_s:.2f}s, warm {warm_s:.2f}s "
          f"({cold_s / max(warm_s, 1e-9):.0f}x)")

    # A warm re-run skips every completed cell and returns identical data.
    assert warm_engine.last_stats.executed == 0
    assert warm_engine.last_stats.cache_hits == len(specs)
    assert warm == reference
    assert warm_s < cold_s
