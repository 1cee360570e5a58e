"""Run specifications: the unit of work the fleet dispatches.

A :class:`RunSpec` names one cell of the study grid — *which* workload,
under *which* frequency configuration, *which* repetition, seeded *how* —
without holding any simulation state.  Specs are pure values: hashable,
picklable, and cheap to enumerate, so the same list can drive the serial
path, a multiprocessing fleet, or a cache lookup and always mean the same
execution.  Determinism comes from the replay harness deriving every RNG
stream from ``(master_seed, dataset, config, rep)``; two executions of the
same spec are therefore bit-identical wherever they run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One replay of one workload under one configuration.

    ``config`` is a config string (``ondemand``, ``fixed:<khz>``,
    ``interactive:hispeed=652800``, …), canonicalised by the sweep and
    the explorer.  It is the cell's whole governor identity: a governor's
    parameters live in the string, so the string alone names the RNG
    stream and the cache cell.
    """

    dataset: str
    config: str
    rep: int
    master_seed: int

    def label(self) -> str:
        return f"{self.dataset}:{self.config}:rep{self.rep}"

    def cache_token(self) -> str:
        """Canonical JSON identity used in content-addressed cache keys."""
        return json.dumps(self.to_wire(), sort_keys=True, separators=(",", ":"))

    def to_wire(self) -> dict:
        """JSON-safe dict form — the shape queue backends ship around."""
        return {
            "dataset": self.dataset,
            "config": self.config,
            "rep": self.rep,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_wire` output (lossless)."""
        return cls(
            dataset=wire["dataset"],
            config=wire["config"],
            rep=wire["rep"],
            master_seed=wire["master_seed"],
        )


def group_results_by_config(
    specs: list[RunSpec], results: list, configs: list[str] | None = None
) -> dict[str, list]:
    """Fold spec-ordered engine results back into per-config run lists.

    ``configs`` pre-seeds (and orders) the keys; by default the keys
    appear in first-spec order.  The shared inverse of the flat spec
    enumeration, used by the sweep and the design-space evaluator.
    """
    grouped: dict[str, list] = {config: [] for config in (configs or [])}
    for spec, result in zip(specs, results):
        grouped.setdefault(spec.config, []).append(result)
    return grouped


def enumerate_sweep_specs(
    dataset: str,
    configs: list[str],
    reps: int,
    master_seed: int,
) -> list[RunSpec]:
    """The study grid in serial order: config-major, then repetition.

    This is the exact nesting the serial sweep used, so an ordered merge
    of fleet results reproduces the serial output bit for bit.
    """
    return [
        RunSpec(
            dataset=dataset,
            config=config,
            rep=rep,
            master_seed=master_seed,
        )
        for config in configs
        for rep in range(reps)
    ]
