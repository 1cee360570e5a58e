"""Batch candidate evaluation on the fleet engine.

The explorer's unit of cost is one *candidate evaluation*: replay the
workload ``reps`` times under a candidate's config string and score the
mean against the oracle.  :class:`ExploreEvaluator` lowers candidate
batches to :class:`~repro.fleet.spec.RunSpec` lists and dispatches them
through one :class:`~repro.fleet.engine.FleetEngine`, so

* a batch fans out over ``jobs`` worker processes,
* every (config, rep) cell is content-addressed in the
  :class:`~repro.fleet.cache.ResultCache` — a candidate revisited by a
  later strategy iteration (or a warm re-run of the whole exploration)
  costs nothing, and a successive-halving promotion from 2 to 4 reps
  only pays for the two new reps,
* results merge in spec order, so scores are bit-identical for any
  ``jobs`` value.

The oracle (paper §III-B) is composed once, from one fixed-frequency
run per OPP of the workload's device profile (14 on the stock table),
dispatched through the same engine and cache that the candidates use —
an exploration therefore shares cells with any earlier ``sweep`` of the
same dataset.  The evaluator takes no table, power model or HCI model:
each is what the workload already determines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.fleet.cache import ResultCache
from repro.fleet.engine import FleetEngine
from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import RunSpec, group_results_by_config
from repro.governors.config import canonical_config
from repro.harness.experiment import WorkloadArtifacts
from repro.results import RunRecord
from repro.harness.sweep import compose_oracle_from_runs, fixed_configs
from repro.oracle.builder import OracleResult

#: Default exchange rate for scalarising (energy, irritation) when a
#: strategy must rank candidates: one second of user irritation costs as
#: much as 5% of the oracle's whole-workload energy.
DEFAULT_IRRITATION_WEIGHT = 0.05


@dataclass(frozen=True, slots=True)
class CandidateScore:
    """One candidate's position on the paper's energy-irritation plane.

    ``dominant_cause`` names the largest per-cause irritation share from
    the runs' attribution harvest (``REPRO_TRACE=1``), or is ``None``
    when any rep lacks the harvest — an untraced run, or a cache row
    written before attribution existed — or when irritation is zero.
    """

    config: str
    reps: int
    mean_energy_j: float
    energy_norm: float
    irritation_s: float
    dominant_cause: str | None = None

    def point(self) -> tuple[float, float]:
        """(energy normalised to oracle, irritation seconds) — minimise both."""
        return (self.energy_norm, self.irritation_s)

    def scalar(
        self, irritation_weight: float = DEFAULT_IRRITATION_WEIGHT
    ) -> float:
        """Weighted single objective for strategies that need a ranking."""
        return self.energy_norm + irritation_weight * self.irritation_s


def dominant_cause_of_runs(runs: Sequence[RunRecord]) -> str | None:
    """The largest irritation cause summed across ``runs``' attributions.

    ``None`` when any run lacks the attribution harvest (untraced, or
    cached before the attribution engine existed) or when the summed
    irritation is zero — a score must never claim a cause it cannot
    back with every rep's evidence.
    """
    from repro.obs.attribution.causes import cause_order_key

    totals: dict[str, int] = {}
    for run in runs:
        summary = (run.obs or {}).get("attribution")
        if not isinstance(summary, dict):
            return None
        for cause, penalty_us in summary.get(
            "per_cause_penalty_us", {}
        ).items():
            totals[cause] = totals.get(cause, 0) + int(penalty_us)
    if not any(totals.values()):
        return None
    return min(
        totals.items(), key=lambda item: (-item[1], cause_order_key(item[0]))
    )[0]


class ExploreEvaluator:
    """Score candidate config strings against the dataset's oracle.

    Everything the workload determines comes from it: the OPP table and
    power model from its device profile (:mod:`repro.scenarios.profiles`),
    the irritation thresholds from its annotation database.
    """

    def __init__(
        self,
        artifacts: WorkloadArtifacts,
        jobs: int = 1,
        cache: ResultCache | None = None,
        master_seed: int | None = None,
        oracle_reps: int = 1,
        progress: ProgressReporter | None = None,
        backend=None,
    ) -> None:
        from repro.scenarios.profiles import frequency_table_for

        self.artifacts = artifacts
        self.table = frequency_table_for(artifacts.spec)
        self.master_seed = (
            artifacts.recording_master_seed
            if master_seed is None
            else master_seed
        )
        self.oracle_reps = oracle_reps
        self._engine = FleetEngine(
            jobs=jobs, cache=cache, progress=progress, backend=backend
        )
        self._scores: dict[tuple[str, int], CandidateScore] = {}
        self._oracle: OracleResult | None = None
        self.replays_executed = 0
        self.cache_hits = 0

    @property
    def oracle(self) -> OracleResult:
        """The composed oracle, built on first use from the fixed runs."""
        if self._oracle is None:
            configs = fixed_configs(self.table)
            specs = self._specs(configs, self.oracle_reps)
            results = self._run(specs)
            runs = group_results_by_config(specs, results, configs)
            self._oracle = compose_oracle_from_runs(self.artifacts, runs)
        return self._oracle

    def evaluate(
        self, configs: list[str], reps: int = 1
    ) -> list[CandidateScore]:
        """Score a batch of config strings at ``reps`` repetitions each.

        Input order is preserved; duplicate and previously-evaluated
        candidates are served from the in-memory score memo (and their
        replays from the result cache before that).
        """
        canonical = [canonical_config(config) for config in configs]
        oracle = self.oracle  # composed before any candidate runs
        todo: list[str] = []
        for config in canonical:
            if (config, reps) not in self._scores and config not in todo:
                todo.append(config)
        if todo:
            specs = self._specs(todo, reps)
            results = self._run(specs)
            grouped = group_results_by_config(specs, results, todo)
            for config in todo:
                runs = grouped[config]
                mean_energy = sum(r.dynamic_energy_j for r in runs) / len(runs)
                irritation = sum(r.irritation_seconds() for r in runs)
                self._scores[(config, reps)] = CandidateScore(
                    config=config,
                    reps=reps,
                    mean_energy_j=mean_energy,
                    energy_norm=mean_energy / oracle.energy_j,
                    irritation_s=irritation / len(runs),
                    dominant_cause=dominant_cause_of_runs(runs),
                )
        return [self._scores[(config, reps)] for config in canonical]

    def _specs(self, configs: list[str], reps: int) -> list[RunSpec]:
        return [
            RunSpec(
                dataset=self.artifacts.name,
                config=config,
                rep=rep,
                master_seed=self.master_seed,
            )
            for config in configs
            for rep in range(reps)
        ]

    def _run(self, specs: list[RunSpec]) -> list[RunRecord]:
        results = self._engine.run(self.artifacts, specs)
        self.replays_executed += self._engine.last_stats.executed
        self.cache_hits += self._engine.last_stats.cache_hits
        return results
