"""Integration: the shared-workload workflow a downstream user follows.

A workload is shared as its dataset or scenario string plus the master
seed: rebuilding it from those gives the identical artefact (the same
fingerprint the result cache keys on), which then replays under a
governor → matches → metricises.  This is the 'workload suite others can
use' contribution (paper §I-A item 2).
"""

import pytest

from repro.fleet.cache import workload_fingerprint
from repro.harness.experiment import record_workload, replay_run
from repro.harness.sweep import compose_oracle_from_runs
from repro.metrics.hci import SHNEIDERMAN_MODEL
from repro.workloads import dataset


def test_full_downstream_workflow(artifacts_ds03):
    # Rebuild the workload from its dataset name and master seed.
    rebuilt = record_workload(
        dataset("03"), master_seed=artifacts_ds03.recording_master_seed
    )
    assert workload_fingerprint(rebuilt) == workload_fingerprint(artifacts_ds03)

    # Replay under a governor and a fixed configuration.
    governor_run = replay_run(rebuilt, "interactive")
    fixed_run = replay_run(rebuilt, "fixed:960000")
    assert governor_run == replay_run(artifacts_ds03, "interactive")

    # Metrics behave as documented.
    irritation = governor_run.lag_profile.irritation(model=SHNEIDERMAN_MODEL)
    assert irritation.lag_count == rebuilt.database.lag_count
    assert irritation.total_seconds < 10
    assert fixed_run.dynamic_energy_j > 0


def test_oracle_composable_from_partial_sweep(artifacts_ds03):
    """compose_oracle_from_runs works from exactly the 14 fixed runs."""
    runs = {}
    from repro.device.frequencies import snapdragon_8074_table
    from repro.harness.sweep import fixed_configs

    for config in fixed_configs(snapdragon_8074_table()):
        runs[config] = [replay_run(artifacts_ds03, config)]
    oracle = compose_oracle_from_runs(artifacts_ds03, runs)
    assert oracle.base_khz == 960_000
    assert oracle.irritation().total_us == 0
    with pytest.raises(Exception):
        compose_oracle_from_runs(artifacts_ds03, {})
