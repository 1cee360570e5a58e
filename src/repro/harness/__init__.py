"""Experiment orchestration: recording, replay sweeps, figure regeneration."""

from repro.harness.experiment import (
    RECORDING_FREQ_KHZ,
    WorkloadArtifacts,
    record_workload,
    replay_run,
)
from repro.harness.sweep import SweepResult, governor_configs, run_sweep, sweep_configs
from repro.results import RunRecord

__all__ = [
    "RECORDING_FREQ_KHZ",
    "RunRecord",
    "WorkloadArtifacts",
    "record_workload",
    "replay_run",
    "SweepResult",
    "run_sweep",
    "sweep_configs",
    "governor_configs",
]
