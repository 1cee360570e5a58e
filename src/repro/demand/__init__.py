"""Demand traces: capture a workload's governor-invariant side once,
evaluate governor configurations with a kernel-only pass many times.

See :mod:`repro.demand.trace` for the data model,
:mod:`repro.demand.capture` for the instrumented capture replay,
:mod:`repro.demand.compile` for the action-tuple lowering pass,
:mod:`repro.demand.replayer` for the evaluation pass, and
:mod:`repro.demand.store` for the fleet-side trace cache.  The fleet
engine wires all of it together behind the ``REPRO_DEMAND`` kill
switch.
"""

from repro.demand.capture import DemandCaptureError, DemandRecorder, capture_demand
from repro.demand.replayer import (
    DemandFallback,
    DemandProgram,
    demand_replay_run,
)
from repro.demand.store import DemandTraceStore, demand_trace_key
from repro.demand.trace import (
    DEMAND_TRACE_SCHEMA_VERSION,
    DemandNode,
    DemandTrace,
    DemandTraceError,
)

__all__ = [
    "DEMAND_TRACE_SCHEMA_VERSION",
    "DemandCaptureError",
    "DemandFallback",
    "DemandNode",
    "DemandProgram",
    "DemandRecorder",
    "DemandTrace",
    "DemandTraceError",
    "DemandTraceStore",
    "capture_demand",
    "demand_replay_run",
    "demand_trace_key",
]


def demand_enabled() -> bool:
    """Is the kernel-only evaluation pass on? (``REPRO_DEMAND``, default 1)."""
    from repro.core.env import env_flag

    return env_flag("REPRO_DEMAND")
