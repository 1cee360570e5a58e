"""Scenario synthesis: procedurally generated workloads.

The paper evaluates on six recorded workloads (Table I).  This package
multiplies that into an open-ended grid: a *scenario* is a seeded,
procedurally generated user session drawn from a parameterized
**persona** (an app mix, think-time profile, gesture ratio and
spurious-input rate) executed on a **device profile** (an OPP table,
power model and panel variant).  Every scenario is addressable by a
canonical config string::

    persona=gamer,seed=7,duration=10m,profile=quad_ls

parsed and validated the same way governor config strings are
(:mod:`repro.governors.config`), and is interchangeable with a named
dataset everywhere a dataset name is accepted — ``sweep``, ``study``,
``explore``, ``perf``, the fleet cache, saved artifacts.

Determinism guarantee: the generated :class:`PlanStep` sequence is a
pure function of the canonical config string — independent of the
harness master seed, worker count, or cache state — so the same
scenario records and replays bit-identically everywhere.
"""

from repro.scenarios.config import (
    ScenarioSpec,
    canonical_scenario,
    format_duration,
    is_scenario_name,
    parse_scenario,
)
from repro.scenarios.personas import PERSONAS, Persona, persona_names
from repro.scenarios.profiles import (
    PROFILES,
    DeviceProfile,
    device_config_for,
    device_profile,
    frequency_table_for,
)
from repro.scenarios.synth import ScenarioPlan, synthesize_scenario

__all__ = [
    "ScenarioSpec",
    "parse_scenario",
    "canonical_scenario",
    "format_duration",
    "is_scenario_name",
    "Persona",
    "PERSONAS",
    "persona_names",
    "DeviceProfile",
    "PROFILES",
    "device_profile",
    "device_config_for",
    "frequency_table_for",
    "ScenarioPlan",
    "synthesize_scenario",
]
