"""Typed run artifacts: the one result shape that crosses boundaries.

Every replay produces a :class:`RunRecord`; every consumer — the sweep,
the oracle composer, the figures, the design-space evaluator, the perf
macro benchmarks, fleet IPC and the result cache — reads that record.
See :mod:`repro.results.record` for the schema and versioning rules.
"""

from repro.results.pairs import IntPairs
from repro.results.record import (
    RUN_RECORD_SCHEMA_VERSION,
    RunRecord,
    RunRecordSchemaError,
    RunRecordWireError,
)

__all__ = [
    "IntPairs",
    "RUN_RECORD_SCHEMA_VERSION",
    "RunRecord",
    "RunRecordSchemaError",
    "RunRecordWireError",
]
