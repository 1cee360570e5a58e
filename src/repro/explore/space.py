"""Declarative governor parameter spaces.

The paper studies 17 *fixed* configurations; its §VI sketches a governor
whose tunables we would want to search, not hard-code.  This module makes
that search space a value: a :class:`GovernorSpace` declares, per
registered governor, which tunables exist (:class:`ParamSpec`), which
values are worth trying, and how a point in the space serializes to a
config string like ``qoe_aware:boost=1036800,settle=40000`` — the same
strings the sweep, the fleet cache and ``create_governor`` understand.

A *candidate* is a plain ``{short_key: value}`` dict.  Spaces are finite
grids: every parameter draws from an explicit value tuple, so exhaustive
enumeration, seeded sampling and one-step neighbourhoods (for hill
climbing) are all well-defined and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Iterator

import repro.governors  # noqa: F401  — populate the governor registry
from repro.core.errors import ReproError
from repro.device.frequencies import FrequencyTable
from repro.governors.base import check_config_params, governor_factory
from repro.governors.config import format_config, parse_config

Candidate = dict[str, int]


@dataclass(frozen=True, slots=True)
class ParamSpec:
    """One tunable: its config-string key and the values to explore.

    ``unit`` is documentation ("khz", "us", "%", ...); frequency-valued
    parameters (``unit="khz"``) are validated against the OPP table when
    the enclosing space is built.
    """

    key: str
    values: tuple[int, ...]
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise ReproError(f"parameter {self.key!r} has no values")
        ordered = tuple(sorted(set(self.values)))
        if ordered != self.values:
            object.__setattr__(self, "values", ordered)

    def index(self, value: int) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ReproError(
                f"parameter {self.key!r}: {value} is not one of "
                f"{list(self.values)}"
            ) from None

    def neighbours(self, value: int) -> tuple[int, ...]:
        """The values one grid step below/above ``value`` (if any)."""
        index = self.index(value)
        out = []
        if index > 0:
            out.append(self.values[index - 1])
        if index + 1 < len(self.values):
            out.append(self.values[index + 1])
        return tuple(out)


class GovernorSpace:
    """A finite, enumerable parameter grid for one registered governor.

    ``table`` is the OPP table of the device the workload runs on; its
    frequency-valued parameters must be operating points of it.
    """

    def __init__(
        self,
        governor: str,
        params: tuple[ParamSpec, ...] | list[ParamSpec],
        table: FrequencyTable,
    ) -> None:
        factory = governor_factory(governor)
        ordered = tuple(sorted(params, key=lambda p: p.key))
        seen: set[str] = set()
        for param in ordered:
            if param.key in seen:
                raise ReproError(
                    f"space for {governor!r} declares {param.key!r} twice"
                )
            seen.add(param.key)
            check_config_params(governor, factory, [param.key])
            if param.unit == "khz":
                for value in param.values:
                    if not table.contains(value):
                        raise ReproError(
                            f"space for {governor!r}: {param.key}={value} "
                            "is not an operating point of the table"
                        )
        self.governor = governor
        self.params = ordered
        self.table = table

    @property
    def size(self) -> int:
        out = 1
        for param in self.params:
            out *= len(param.values)
        return out

    def grid(self) -> Iterator[Candidate]:
        """Every candidate, in deterministic key-major order."""
        keys = [p.key for p in self.params]
        for values in itertools.product(*(p.values for p in self.params)):
            yield dict(zip(keys, values))

    def sample(self, rng: Random, count: int) -> list[Candidate]:
        """``count`` distinct candidates drawn with ``rng`` (seeded)."""
        if count >= self.size:
            return list(self.grid())
        chosen: list[Candidate] = []
        seen: set[str] = set()
        while len(chosen) < count:
            candidate = {
                p.key: rng.choice(p.values) for p in self.params
            }
            config = self.config(candidate)
            if config not in seen:
                seen.add(config)
                chosen.append(candidate)
        return chosen

    def neighbours(self, candidate: Candidate) -> list[Candidate]:
        """Candidates differing from ``candidate`` by one step in one key."""
        out: list[Candidate] = []
        for param in self.params:
            for value in param.neighbours(candidate[param.key]):
                step = dict(candidate)
                step[param.key] = value
                out.append(step)
        return out

    def config(self, candidate: Candidate) -> str:
        """Serialize a candidate to its canonical config string."""
        self._check_keys(candidate)
        return format_config(self.governor, dict(candidate))

    def parse(self, config: str) -> Candidate:
        """Parse a config string back into an in-space candidate."""
        base, params = parse_config(config)
        if base != self.governor:
            raise ReproError(
                f"config {config!r} names governor {base!r}, "
                f"space is for {self.governor!r}"
            )
        self._check_keys(params)
        for param in self.params:
            param.index(params[param.key])  # raises if off-grid
        return params

    def _check_keys(self, candidate: Candidate) -> None:
        expected = {p.key for p in self.params}
        if set(candidate) != expected:
            raise ReproError(
                f"candidate keys {sorted(candidate)} do not match the "
                f"space's parameters {sorted(expected)}"
            )


def builtin_space(governor: str, table: FrequencyTable) -> GovernorSpace:
    """The built-in search space for one of the studied governors.

    Frequency-valued parameters draw from ``table`` — the workload's own
    OPP table (:func:`repro.scenarios.profiles.frequency_table_for`).
    """
    try:
        params = _BUILTIN_PARAMS[governor](table)
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_PARAMS))
        raise ReproError(
            f"no built-in search space for {governor!r} (known: {known})"
        ) from None
    return GovernorSpace(governor, params, table)


def builtin_space_names() -> list[str]:
    return sorted(_BUILTIN_PARAMS)


def _upper_opps(table: FrequencyTable, count: int) -> tuple[int, ...]:
    """The ``count`` highest operating points, ascending."""
    return table.frequencies_khz[-count:]


def _qoe_aware_params(table: FrequencyTable) -> list[ParamSpec]:
    # Boost OPPs from just under the knee upward: below the efficient
    # point a "boost" cannot service interactions any faster.
    return [
        ParamSpec("boost", _upper_opps(table, 9), unit="khz"),
        ParamSpec("timer", (10_000, 20_000, 40_000), unit="us"),
        ParamSpec("settle", (20_000, 40_000, 60_000, 100_000), unit="us"),
    ]


def _interactive_params(table: FrequencyTable) -> list[ParamSpec]:
    return [
        ParamSpec("hispeed", _upper_opps(table, 6), unit="khz"),
        ParamSpec("timer", (10_000, 20_000, 40_000), unit="us"),
        ParamSpec("go_hispeed", (85, 95, 99), unit="%"),
        ParamSpec("min_sample", (40_000, 80_000), unit="us"),
    ]


def _ondemand_params(_table: FrequencyTable) -> list[ParamSpec]:
    return [
        ParamSpec("up_threshold", (80, 90, 95, 98), unit="%"),
        ParamSpec("sampling", (10_000, 20_000, 40_000, 80_000), unit="us"),
        ParamSpec("down_factor", (1, 2, 4)),
    ]


def _conservative_params(_table: FrequencyTable) -> list[ParamSpec]:
    # down_threshold stays at its stock 20: the grid keeps the
    # constructor's 0 < down < up invariant valid for every candidate.
    return [
        ParamSpec("up_threshold", (40, 60, 80), unit="%"),
        ParamSpec("step", (5, 10, 20, 40), unit="%"),
        ParamSpec("sampling", (80_000, 200_000), unit="us"),
    ]


_BUILTIN_PARAMS = {
    "qoe_aware": _qoe_aware_params,
    "interactive": _interactive_params,
    "ondemand": _ondemand_params,
    "conservative": _conservative_params,
}
