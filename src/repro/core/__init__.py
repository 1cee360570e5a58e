"""Simulation kernel and shared primitives.

This package provides the deterministic event-driven engine
(:mod:`repro.core.engine`), the integer-microsecond time base
(:mod:`repro.core.simtime`), Linux input-event constants
(:mod:`repro.core.events`), geometry primitives, seeded RNG streams and
the exception hierarchy shared by every other subsystem.
"""

from repro.core.engine import Engine, ScheduledEvent
from repro.core.errors import (
    AnnotationError,
    MatchError,
    ReplayError,
    ReproError,
    SimulationError,
)
from repro.core.geometry import Point, Rect
from repro.core.rng import RngStreams
from repro.core.simtime import (
    MICROS_PER_MILLI,
    MICROS_PER_SECOND,
    millis,
    seconds,
    to_millis,
    to_seconds,
)

__all__ = [
    "Engine",
    "ScheduledEvent",
    "ReproError",
    "SimulationError",
    "ReplayError",
    "AnnotationError",
    "MatchError",
    "Point",
    "Rect",
    "RngStreams",
    "MICROS_PER_MILLI",
    "MICROS_PER_SECOND",
    "millis",
    "seconds",
    "to_millis",
    "to_seconds",
]
