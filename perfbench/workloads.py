"""The benchmark's three workloads.

Each workload is a closed loop with one client: the benchmark issues the
next call only after the previous one returned.  A *pass* records the
workload's input from the seed, delivers every study cell once, and
re-runs the grid ``WARM_REPEATS`` times against a store that already
holds every cell.  All
calls go through public functions of ``repro``; timing is taken from
outside those calls.  Every end-to-end time a pass keeps is scaled to a
nominal host speed by the :class:`~instruments.HostClock` it is given.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.demand import DemandProgram, capture_demand
from repro.fleet.backends.registry import create_backend
from repro.fleet.cache import workload_fingerprint
from repro.fleet.engine import FleetEngine, execute_spec
from repro.fleet.spec import enumerate_sweep_specs
from repro.harness.experiment import record_workload, replay_run
from repro.harness.sweep import GOVERNORS, compose_oracle_from_runs, run_sweep
from repro.obs import session as obs_session
from repro.results import RunRecord
from repro.scenarios.profiles import frequency_table_for, power_model_for
from repro.scenarios.synth import synthesize_scenario
from repro.workloads.datasets import dataset

from instruments import (
    HostClock,
    SweepProbe,
    TimedBackend,
    TimedStore,
    counter_totals,
)

STUDY_DATASET = "02"
STUDY_REPS = 6  # 17 configs x 6 reps = 102 cells, enough for a p90
IDLE_SCENARIO = "persona=burst-commuter,seed={seed},duration=1h"
IDLE_CONFIGS = ("interactive", "ondemand", "conservative", "qoe_aware")
IDLE_REPS = 2
FLEET_SCENARIO = "persona=gamer,seed={seed},duration=3m"
FLEET_WORKERS = 2
#: (phase, reps): cold writes 51 cells, mixed reads 51 beside 51 writes,
#: warm reads all 102.
FLEET_PHASES = (("cold", 3), ("mixed", 6), ("warm", 6))
#: Warm reruns per pass; a pass reports their median time.
WARM_REPEATS = 5


class CheckFailed(Exception):
    """A correctness check failed; the message is one line."""


@dataclass
class Pass:
    """What one pass of a workload delivered and how long it took, in
    host seconds scaled to nominal host speed (unscaled under a disabled
    clock).  ``warm_s`` is the median of the pass's warm reruns."""

    record_s: float
    capture_s: float
    cells: int
    cell_phase_s: float
    #: Scaled host ms of each executed cell, keyed by (phase, config, rep).
    cell_ms: dict[tuple, float]
    warm_s: float
    records: list[RunRecord]
    artifacts: object = None
    runs: dict | None = None
    worker_cell_ms: list[float] = field(default_factory=list)
    engine_cells: int = 0
    engine_hits: int = 0
    redispatched: int = 0
    demand_cells: int = 0
    fallback_cells: int = 0
    store_loads: int = 0
    store_load_s: float = 0.0
    queue_overhead: dict[str, float] = field(default_factory=dict)
    phase_stats: list[tuple[str, object]] = field(default_factory=list)
    #: Traced passes: obs counter totals over the ``obs_cells`` executed cells.
    obs_counts: dict[str, int] = field(default_factory=dict)
    obs_cells: int = 0
    digest: str = ""

    @property
    def setup_s(self) -> float:
        return self.record_s + self.capture_s

    def seal(self) -> None:
        """Digest the records (outside any timed region)."""
        self.digest = digest(self.records)

    def release(self) -> None:
        """Drop the heavy results of a finished pass, keeping its numbers,
        so the objects later passes allocate don't sit beside them."""
        self.records = []
        self.artifacts = self.runs = None


def digest(records: list[RunRecord]) -> str:
    """SHA-256 over the records' canonical rows, observability excluded."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(replace(record, obs=None).dumps().encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _flatten(runs: dict[str, list[RunRecord]]) -> list[RunRecord]:
    return [record for records in runs.values() for record in records]


def _queue_overhead(backend: TimedBackend, executed: list, workers: int) -> float:
    """(backend wall - sum of worker cell walls / workers) / backend wall."""
    if not executed or backend.wall_s <= 0:
        return 0.0
    busy = sum(telemetry["wall_s"] for _c, _r, telemetry in executed)
    return (backend.wall_s - busy / min(workers, len(executed))) / backend.wall_s


def _registry_snapshot() -> dict:
    session = obs_session.active()
    if session is None or session.metrics is None:
        return {}
    return dict(session.metrics.snapshot()["counters"])


def _executed_snapshots(probe: SweepProbe, runs) -> list[tuple[int, dict]]:
    return [
        (telemetry["pid"], runs[config][rep].obs)
        for config, rep, telemetry in probe.executed
    ]


def _add_counts(into: dict[str, int], counts: dict[str, int]) -> None:
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value


def _expect_stats(label: str, stats, total: int, hits: int, executed: int) -> None:
    if stats is None:
        raise CheckFailed(f"{label}: the engine reported no FleetStats")
    got = (stats.total, stats.cache_hits, stats.executed, stats.failures)
    if got != (total, hits, executed, 0):
        raise CheckFailed(
            f"{label}: expected total/hits/executed/failures "
            f"{(total, hits, executed, 0)}, engine reported {got}"
        )


class Workload:
    """One workload: set-up, a measured pass, and cross-path checks."""

    name = ""
    captures = False

    def __init__(self, spans, tmp_root: Path) -> None:
        self.spans = spans
        self.tmp_root = tmp_root

    def dataset_spec(self, seed: int):
        raise NotImplementedError

    def record(self, seed: int, clock: HostClock):
        spec = self.dataset_spec(seed)
        clock.sample()
        with self.spans.span("record_workload", workload=spec.name) as timing:
            artifacts = record_workload(spec, master_seed=seed)
        clock.sample()
        return artifacts, clock.scale(timing)

    def setup_sample(self, seed: int, clock: HostClock) -> float:
        """One stand-alone set-up: record, plus the demand capture if the
        workload's sweep would capture one."""
        artifacts, record_s = self.record(seed, clock)
        if not self.captures:
            return record_s
        with self.spans.span("capture_demand") as timing:
            capture_demand(artifacts)
        clock.sample()
        return record_s + clock.scale(timing)

    def run_pass(self, seed: int, clock: HostClock) -> Pass:
        raise NotImplementedError

    def check(self, seed: int, last: Pass) -> None:
        raise NotImplementedError

    def demand_probe(self, artifacts) -> tuple[float, int]:
        """(compile ms, trace nodes) of the workload's demand trace,
        captured and lowered outside the sweep."""
        with self.spans.span("capture_demand"):
            trace = capture_demand(artifacts)
        with self.spans.span("DemandProgram.compiled") as compiled:
            DemandProgram(trace).compiled()
        return compiled.s * 1000.0, len(trace.nodes)

    def compose_ms(self, last: Pass) -> float:
        if last.runs is None:
            return 0.0
        artifacts = last.artifacts
        with self.spans.span("compose_oracle_from_runs") as timing:
            compose_oracle_from_runs(
                artifacts,
                last.runs,
                table=frequency_table_for(artifacts.spec),
                power_model=power_model_for(artifacts.spec),
            )
        return timing.s * 1000.0

    def _tmpdir(self, prefix: str) -> Path:
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.tmp_root))

    def _remove(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)
        if path.exists():
            raise CheckFailed(f"{self.name}: temp store {path} was not removed")

    def _populate(self, store, artifacts, specs, records) -> None:
        with self.spans.span("ResultCache.store", cells=len(records)):
            fingerprint = workload_fingerprint(artifacts)
            for spec, record in zip(specs, records):
                store.store(store.key_for(spec, fingerprint), record)


class StudyGrid(Workload):
    name = "study_grid"
    captures = True

    def dataset_spec(self, seed: int):
        return dataset(STUDY_DATASET)

    def run_pass(self, seed: int, clock: HostClock) -> Pass:
        artifacts, record_s = self.record(seed, clock)
        probe = SweepProbe()
        base: dict = {}
        backend = TimedBackend(
            create_backend("local", jobs=1),
            on_start=lambda: base.update(_registry_snapshot()),
            clock=clock,
        )
        with self.spans.span("run_sweep", phase="cold") as sweep:
            result = run_sweep(
                artifacts, reps=STUDY_REPS, progress=probe, backend=backend
            )
        capture_s = sum(probe.capture_s)
        # The capture runs before the first cell; the engine's own work
        # between cells is scaled by the whole sweep's samples.
        between_s = (
            sweep.s - capture_s - backend.paused_s - sum(c.s for c in backend.cells)
        )
        cell_phase_s = sum(map(clock.scale, backend.cells)) + between_s * clock.factor(
            sweep.start, sweep.end
        )
        capture_s *= clock.factor(sweep.start, sweep.start + capture_s)
        records = _flatten(result.runs)
        stats = probe.stats
        _expect_stats("study_grid sweep", stats, len(records), 0, len(records))
        specs = enumerate_sweep_specs(
            artifacts.name, result.configs(), STUDY_REPS, seed
        )
        tmp = self._tmpdir("study-")
        try:
            store = TimedStore(tmp / "store")
            self._populate(store, artifacts, specs, records)
            warm_s = []
            for _ in range(WARM_REPEATS):
                warm_probe = SweepProbe()
                clock.sample()
                with self.spans.span("run_sweep", phase="warm") as warm:
                    warm_result = run_sweep(
                        artifacts, reps=STUDY_REPS, cache=store, progress=warm_probe
                    )
                clock.sample()
                warm_s.append(clock.scale(warm))
                _expect_stats("study_grid warm rerun", warm_probe.stats,
                              len(records), len(records), 0)
                if _flatten(warm_result.runs) != records:
                    raise CheckFailed(
                        "study_grid: store-served records differ from executed"
                    )
        finally:
            self._remove(tmp)
        return Pass(
            record_s=record_s,
            capture_s=capture_s,
            cells=len(records),
            cell_phase_s=cell_phase_s,
            cell_ms={
                ("cold", config, rep): clock.scale(cell) * 1000.0
                for (config, rep, _t), cell in zip(probe.executed, backend.cells)
            },
            warm_s=statistics.median(warm_s),
            records=records,
            artifacts=artifacts,
            runs=result.runs,
            worker_cell_ms=[t["wall_s"] * 1000.0 for _c, _r, t in probe.executed],
            engine_cells=2 * len(records),
            engine_hits=warm_probe.stats.cache_hits,
            demand_cells=stats.demand_cells,
            fallback_cells=stats.fallback_cells,
            store_loads=store.loads,
            store_load_s=store.load_s,
            queue_overhead={"cold": _queue_overhead(backend, probe.executed, 1)},
            phase_stats=[("cold", stats), ("warm", warm_probe.stats)],
            obs_counts=counter_totals(
                _executed_snapshots(probe, result.runs), base
            ),
            obs_cells=len(probe.executed),
        )

    def check(self, seed: int, last: Pass) -> None:
        """A pinned and a sampling cell, re-run as full replays, must equal
        the sweep's demand-pass records."""
        fixed = [config for config in last.runs if config.startswith("fixed:")]
        rep = seed % STUDY_REPS
        for config in (fixed[seed % len(fixed)], GOVERNORS[seed % len(GOVERNORS)]):
            with self.spans.span("replay_run", config=config, rep=rep):
                full = replay_run(last.artifacts, config, rep=rep, master_seed=seed)
            if full != last.runs[config][rep]:
                raise CheckFailed(
                    f"study_grid: {config} rep {rep} full replay differs "
                    "from the sweep's record"
                )


class IdleSession(Workload):
    name = "idle_session"

    def dataset_spec(self, seed: int):
        return synthesize_scenario(IDLE_SCENARIO.format(seed=seed))

    def run_pass(self, seed: int, clock: HostClock) -> Pass:
        artifacts, record_s = self.record(seed, clock)
        base = _registry_snapshot()
        records: list[RunRecord] = []
        cells = []
        for config in IDLE_CONFIGS:
            for rep in range(IDLE_REPS):
                with self.spans.span("replay_run", config=config, rep=rep) as cell:
                    records.append(
                        replay_run(artifacts, config, rep=rep, master_seed=seed)
                    )
                clock.sample()
                cells.append((("cold", config, rep), cell))
        cell_ms = {key: clock.scale(cell) * 1000.0 for key, cell in cells}
        executed = [(os.getpid(), record.obs) for record in records]
        specs = enumerate_sweep_specs(
            artifacts.name, list(IDLE_CONFIGS), IDLE_REPS, seed
        )
        tmp = self._tmpdir("idle-")
        try:
            store = TimedStore(tmp / "store")
            self._populate(store, artifacts, specs, records)
            probe = SweepProbe()
            engine = FleetEngine(cache=store, progress=probe)
            warm_s = []
            for _ in range(WARM_REPEATS):
                clock.sample()
                with self.spans.span("FleetEngine.run", phase="warm") as warm:
                    served = engine.run(artifacts, specs)
                clock.sample()
                warm_s.append(clock.scale(warm))
                _expect_stats("idle_session warm rerun", engine.last_stats,
                              len(specs), len(specs), 0)
                if served != records:
                    raise CheckFailed(
                        "idle_session: store-served records differ from executed"
                    )
        finally:
            self._remove(tmp)
        return Pass(
            record_s=record_s,
            capture_s=0.0,
            cells=len(records),
            cell_phase_s=sum(cell_ms.values()) / 1000.0,
            cell_ms=cell_ms,
            warm_s=statistics.median(warm_s),
            records=records,
            artifacts=artifacts,
            engine_cells=len(specs),
            engine_hits=engine.last_stats.cache_hits,
            store_loads=store.loads,
            store_load_s=store.load_s,
            phase_stats=[("warm", engine.last_stats)],
            obs_counts=counter_totals(executed, base),
            obs_cells=len(records),
        )

    def check(self, seed: int, last: Pass) -> None:
        """Every replay must match at least as many lags as the recording
        annotated windows."""
        windows = last.artifacts.database.lag_count
        for record in last.records:
            if len(record.lags) < windows:
                raise CheckFailed(
                    f"idle_session: {record.config} rep {record.rep} matched "
                    f"{len(record.lags)} lags for {windows} annotated windows"
                )


class FleetStore(Workload):
    name = "fleet_store"
    captures = True

    def dataset_spec(self, seed: int):
        return synthesize_scenario(FLEET_SCENARIO.format(seed=seed))

    def run_pass(self, seed: int, clock: HostClock) -> Pass:
        artifacts, record_s = self.record(seed, clock)
        tmp = self._tmpdir("fleet-")
        phases: dict[str, tuple] = {}
        counts: dict[str, int] = {}
        warm_s: list[float] = []
        try:
            inner = create_backend(
                f"distributed:dir={tmp},workers={FLEET_WORKERS}",
                jobs=FLEET_WORKERS,
            )
            store = TimedStore(tmp / "store")
            runs = FLEET_PHASES + FLEET_PHASES[-1:] * (WARM_REPEATS - 1)
            for phase, reps in runs:
                probe = SweepProbe()
                base: dict = {}
                backend = TimedBackend(
                    inner, on_start=lambda base=base: base.update(_registry_snapshot())
                )
                # Workers run the cold and mixed cells, so the clock samples
                # from a thread of its own meanwhile; the warm rerun is the
                # coordinator's own work, which that thread would slow.
                sampling = clock.sampling() if phase != "warm" else nullcontext()
                clock.sample()
                with sampling, self.spans.span("run_sweep", phase=phase) as sweep:
                    result = run_sweep(
                        artifacts, reps=reps, cache=store, backend=backend,
                        progress=probe,
                    )
                clock.sample()
                factor = clock.factor(sweep.start, sweep.end)
                leftover = multiprocessing.active_children()
                if leftover:
                    raise CheckFailed(
                        f"fleet_store: {len(leftover)} worker(s) still alive "
                        f"after the {phase} phase"
                    )
                if phase == "warm":
                    # Each warm rerun is checked; the pass keeps the last.
                    self._check_phases({**phases, phase: (result, probe)})
                    warm_s.append(sweep.s * factor)
                phases[phase] = (result, probe, backend, sweep.s, factor)
                _add_counts(
                    counts,
                    counter_totals(_executed_snapshots(probe, result.runs), base),
                )
        finally:
            self._remove(tmp)
        capture_s = sum(sum(p[1].capture_s) * p[4] for p in phases.values())
        executed = [
            telemetry
            for phase in ("cold", "mixed")
            for _c, _r, telemetry in phases[phase][1].executed
        ]
        warm_result = phases["warm"][0]
        records = _flatten(warm_result.runs)
        all_stats = [(phase, phases[phase][1].stats) for phase, _ in FLEET_PHASES]
        return Pass(
            record_s=record_s,
            capture_s=capture_s,
            cells=sum(stats.total for _p, stats in all_stats),
            # The warm rerun counts once, at its median time.
            cell_phase_s=sum(phases[name][3] * phases[name][4]
                             for name in ("cold", "mixed"))
            + statistics.median(warm_s) - capture_s,
            cell_ms={
                (phase, config, rep): telemetry["wall_s"] * 1000.0 * phases[phase][4]
                for phase in ("cold", "mixed")
                for config, rep, telemetry in phases[phase][1].executed
            },
            warm_s=statistics.median(warm_s),
            records=records,
            artifacts=artifacts,
            runs=warm_result.runs,
            worker_cell_ms=[t["wall_s"] * 1000.0 for t in executed],
            engine_cells=sum(stats.total for _p, stats in all_stats),
            engine_hits=sum(stats.cache_hits for _p, stats in all_stats),
            redispatched=sum(stats.redispatched for _p, stats in all_stats),
            demand_cells=sum(stats.demand_cells for _p, stats in all_stats),
            fallback_cells=sum(stats.fallback_cells for _p, stats in all_stats),
            store_loads=store.loads,
            store_load_s=store.load_s,
            queue_overhead={
                phase: _queue_overhead(
                    phases[phase][2], phases[phase][1].executed, FLEET_WORKERS
                )
                for phase in ("cold", "mixed")
            },
            phase_stats=all_stats,
            obs_counts=counts,
            obs_cells=len(executed),
        )

    @staticmethod
    def _check_phases(phases: dict[str, tuple]) -> None:
        cold, mixed, warm = (phases[name][0].runs for name in ("cold", "mixed", "warm"))
        cells = {name: sum(map(len, phases[name][0].runs.values())) for name in phases}
        _expect_stats("fleet_store cold", phases["cold"][1].stats,
                      cells["cold"], 0, cells["cold"])
        half = cells["mixed"] - cells["cold"]
        _expect_stats("fleet_store mixed", phases["mixed"][1].stats,
                      cells["mixed"], cells["cold"], half)
        _expect_stats("fleet_store warm", phases["warm"][1].stats,
                      cells["warm"], cells["warm"], 0)
        for config, records in cold.items():
            if mixed[config][: len(records)] != records:
                raise CheckFailed(
                    f"fleet_store: {config} records served from the store "
                    "differ from the cold-executed ones"
                )
        if warm != mixed:
            raise CheckFailed("fleet_store: warm rerun records differ from the mixed phase")

    def check(self, seed: int, last: Pass) -> None:
        """A sample cell run inline must equal the store-served record."""
        specs = enumerate_sweep_specs(
            last.artifacts.name, list(last.runs), FLEET_PHASES[-1][1], seed
        )
        spec = specs[seed % len(specs)]
        with self.spans.span("execute_spec", config=spec.config, rep=spec.rep):
            inline = execute_spec(last.artifacts, spec)
        if inline != last.runs[spec.config][spec.rep]:
            raise CheckFailed(
                f"fleet_store: inline execute_spec of {spec.label()} differs "
                "from the store-served record"
            )


WORKLOADS = {cls.name: cls for cls in (StudyGrid, IdleSession, FleetStore)}
