"""The full study sweep (paper §III-A).

"We replay each of them for each available core frequency … We also
replayed each workload for each of the three governors.  To reduce the
statistical error, we repeat this process 5 times per workload.
Altogether we execute each workload 5 * (14 + 3) = 85 times."

The 85 runs are enumerated as :class:`~repro.fleet.spec.RunSpec` values
and dispatched through a :class:`~repro.fleet.engine.FleetEngine`, so a
sweep can run on N workers (``jobs``) and reuse cached cells
(``cache``) while producing output bit-identical to the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.device.frequencies import FrequencyTable
from repro.device.power import PowerModel
from repro.governors.config import format_config, parse_config
from repro.fleet.cache import ResultCache
from repro.fleet.engine import FleetEngine
from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import (
    RunSpec,
    enumerate_sweep_specs,
    group_results_by_config,
)
from repro.harness.experiment import WorkloadArtifacts
from repro.results import RunRecord
from repro.oracle.builder import OracleResult, build_oracle

GOVERNORS = ("conservative", "interactive", "ondemand")


def governor_configs() -> list[str]:
    return list(GOVERNORS)


def fixed_configs(table: FrequencyTable) -> list[str]:
    """One ``fixed:<khz>`` config per OPP of ``table``."""
    return [f"fixed:{khz}" for khz in table.frequencies_khz]


def sweep_configs(table: FrequencyTable) -> list[str]:
    """The study's configurations: every OPP of ``table`` pinned, then the
    3 governors (17 on the stock 14-OPP table)."""
    return fixed_configs(table) + governor_configs()


def config_label(config: str, table: FrequencyTable) -> str:
    """Axis label: '0.96 GHz' for fixed configs, the canonical name otherwise.

    Malformed strings and out-of-table frequencies raise one-line
    :class:`ReproError` subclasses instead of bare ``ValueError``.
    """
    base, params = parse_config(config)
    if base == "fixed":
        return table.point(params["khz"]).label
    return format_config(base, params)


def _trial_governor_context(table: FrequencyTable):
    """A throwaway GovernorContext for pre-flight construction checks."""
    from repro.core.engine import Engine
    from repro.device.cpu import CpuCore
    from repro.device.cpufreq import CpuFreqPolicy
    from repro.device.loadtracker import LoadTracker
    from repro.governors.base import GovernorContext

    engine = Engine()
    core = CpuCore(engine.clock, table)
    return GovernorContext(
        engine=engine,
        policy=CpuFreqPolicy(engine.clock, core),
        load_tracker=LoadTracker(engine.clock, core),
    )


def parse_sweep_configs(
    configs: list[str], table: FrequencyTable
) -> list[str]:
    """Validate and canonicalise user-supplied config strings.

    ``table`` is the OPP table of the workload's own device.  Every
    string must parse, name a registered governor (``fixed`` among
    them), use only parameter keys the governor declares, and carry
    values the governor accepts: frequency-valued parameters
    (:attr:`Governor.freq_params`, a ``fixed:<khz>`` frequency included)
    must be table OPPs — they would silently clamp at runtime otherwise —
    and each config is trial-constructed once so range violations
    (thresholds, timer periods) fail here.  All failures raise one-line
    :class:`ReproError`\\ s before any recording or replay starts.
    Duplicates (after canonicalisation) collapse.
    """
    import repro.governors  # noqa: F401  — populate the governor registry
    from repro.governors.base import create_governor, governor_factory

    trial_context = None
    out: list[str] = []
    for config in configs:
        base, params = parse_config(config)
        for key in governor_factory(base).freq_params:
            if key in params and not table.contains(params[key]):
                raise ReproError(
                    f"config {config!r}: {key}={params[key]} is not "
                    "an operating point of the table"
                )
        if trial_context is None:
            trial_context = _trial_governor_context(table)
        create_governor(config, trial_context)
        canonical = format_config(base, params)
        if canonical not in out:
            out.append(canonical)
    return out


@dataclass(slots=True)
class SweepResult:
    """All runs of one workload plus the composed oracle."""

    workload: str
    runs: dict[str, list[RunRecord]]
    oracle: OracleResult
    table: FrequencyTable

    def configs(self) -> list[str]:
        return list(self.runs)

    def mean_energy_j(self, config: str) -> float:
        """Mean dynamic energy — the paper's energy metric."""
        results = self._results(config)
        return sum(r.dynamic_energy_j for r in results) / len(results)

    def mean_irritation_s(self, config: str) -> float:
        """Mean irritation at the thresholds annotated at recording."""
        results = self._results(config)
        return sum(r.irritation_seconds() for r in results) / len(results)

    def energy_normalised_to_oracle(self, config: str) -> float:
        return self.mean_energy_j(config) / self.oracle.energy_j

    def pooled_lag_durations_ms(self, config: str) -> list[float]:
        """All reps' lag durations pooled (Fig. 11 violin input)."""
        durations: list[float] = []
        for result in self._results(config):
            durations.extend(result.lag_profile.durations_ms())
        return durations

    def _results(self, config: str) -> list[RunRecord]:
        try:
            results = self.runs[config]
        except KeyError:
            raise ReproError(f"sweep has no config {config!r}") from None
        if not results:
            raise ReproError(f"sweep config {config!r} has no runs")
        return results


def run_sweep(
    artifacts: WorkloadArtifacts,
    reps: int = 5,
    configs: list[str] | None = None,
    master_seed: int | None = None,
    progress: ProgressReporter | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    backend=None,
) -> SweepResult:
    """Execute the 85-run study for one workload and compose its oracle.

    ``jobs`` fans the runs out over a fleet of worker processes and
    ``cache`` serves already-computed cells from disk; ``backend``
    swaps the execution backend (a
    :class:`~repro.fleet.backends.registry.FleetBackend`, e.g. the
    distributed work queue).  All of them leave the result bit-identical
    to the serial, uncached path.  The engine binds ``progress`` to the
    sweep's spec list before the fleet starts.

    The OPP table and power model are the workload's own device
    profile's, so a scenario on ``quad_ls`` sweeps (and composes its
    oracle over) that device's table, not the stock one.
    """
    from repro.scenarios.profiles import frequency_table_for

    table = frequency_table_for(artifacts.spec)
    # Canonicalise up front so every spelling of a configuration shares
    # one cache cell, one RNG stream and one results key.
    configs = parse_sweep_configs(
        configs if configs is not None else sweep_configs(table), table
    )
    if master_seed is None:
        master_seed = artifacts.recording_master_seed
    specs = enumerate_sweep_specs(artifacts.name, configs, reps, master_seed)
    engine = FleetEngine(
        jobs=jobs, cache=cache, progress=progress, backend=backend
    )
    results = engine.run(artifacts, specs)
    runs = group_results_by_config(specs, results, configs)
    oracle = compose_oracle_from_runs(artifacts, runs)
    return SweepResult(
        workload=artifacts.name, runs=runs, oracle=oracle, table=table
    )


def compose_oracle_from_runs(
    artifacts: WorkloadArtifacts,
    runs: dict[str, list[RunRecord]],
    table: FrequencyTable | None = None,
    power_model: PowerModel | None = None,
) -> OracleResult:
    """Build the oracle from the sweep's fixed-frequency runs, on the
    workload's own device profile unless ``table``/``power_model`` say."""
    from repro.scenarios.profiles import frequency_table_for, power_model_for

    table = table or frequency_table_for(artifacts.spec)
    power_model = power_model or power_model_for(artifacts.spec)
    fixed_profiles = {}
    fixed_busy = {}
    fixed_energy = {}
    for khz in table.frequencies_khz:
        config = f"fixed:{khz}"
        results = runs.get(config)
        if not results:
            raise ReproError(
                f"oracle needs a run at every OPP; missing {config}"
            )
        reference = results[0]
        fixed_profiles[khz] = reference.lag_profile
        fixed_busy[khz] = reference.busy_timeline
        fixed_energy[khz] = sum(r.dynamic_energy_j for r in results) / len(
            results
        )
    return build_oracle(
        fixed_profiles,
        fixed_busy,
        fixed_energy,
        duration_us=artifacts.duration_us,
        table=table,
        power_model=power_model,
    )
