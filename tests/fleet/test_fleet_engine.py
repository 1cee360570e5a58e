"""Tests for the fleet engine: parallel equality, ordering, failures."""

import io
import json

import pytest

from repro.core.errors import ReproError
from repro.fleet.engine import FleetEngine, FleetError, FleetStats
from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import RunSpec, enumerate_sweep_specs

# A deliberately small grid: the cheapest and dearest OPP plus a governor.
SMALL_CONFIGS = ["fixed:300000", "fixed:2150400", "ondemand"]


@pytest.fixture(scope="module")
def small_specs(artifacts_ds03):
    return enumerate_sweep_specs(
        artifacts_ds03.name, SMALL_CONFIGS, 2, artifacts_ds03.recording_master_seed
    )


@pytest.fixture(scope="module")
def serial_results(artifacts_ds03, small_specs):
    return FleetEngine(jobs=1).run(artifacts_ds03, small_specs)


def test_parallel_results_bit_identical_to_serial(
    artifacts_ds03, small_specs, serial_results
):
    parallel = FleetEngine(jobs=3).run(artifacts_ds03, small_specs)
    assert parallel == serial_results


def test_results_come_back_in_spec_order(small_specs, serial_results):
    assert [(r.config, r.rep) for r in serial_results] == [
        (s.config, s.rep) for s in small_specs
    ]


def test_progress_hook_sees_every_spec(artifacts_ds03, small_specs):
    jsonl = io.StringIO()
    engine = FleetEngine(
        jobs=2,
        progress=ProgressReporter("03", jsonl_stream=jsonl, human=False),
    )
    engine.run(artifacts_ds03, small_specs)
    events = [json.loads(line) for line in jsonl.getvalue().splitlines()]
    observed = [event for event in events if event["event"] == "run_completed"]
    assert sorted(event["spec"] for event in observed) == sorted(
        s.label() for s in small_specs
    )
    assert all(not event["cached"] for event in observed)


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_failure_is_captured_and_raised(artifacts_ds03, small_specs, jobs):
    bad = RunSpec(artifacts_ds03.name, "warp-drive", 0, 2014)
    with pytest.raises(FleetError) as excinfo:
        FleetEngine(jobs=jobs).run(artifacts_ds03, small_specs[:1] + [bad])
    error = excinfo.value
    assert len(error.failures) == 1
    failure = error.failures[0]
    assert failure.spec == bad
    assert failure.exc_type == "GovernorError"
    assert "warp-drive" in failure.message
    # The worker's traceback travels home for diagnosis.
    assert "Traceback" in failure.traceback_text
    assert "warp-drive" in str(error)


def test_surviving_specs_still_run_alongside_a_failure(artifacts_ds03, small_specs):
    bad = RunSpec(artifacts_ds03.name, "warp-drive", 0, 2014)
    engine = FleetEngine(jobs=2)
    with pytest.raises(FleetError):
        engine.run(artifacts_ds03, small_specs[:2] + [bad])
    assert engine.last_stats.executed == 2
    assert engine.last_stats.failures == 1


def test_zero_workers_rejected():
    with pytest.raises(ReproError):
        FleetEngine(jobs=0)


# --- accounting consistency ---------------------------------------------------------


def test_failed_cells_keep_summaries_consistent_with_executed(
    artifacts_ds03, small_specs
):
    """Regression: failed cells' telemetry used to be appended to
    ``run_telemetry``, so the worker and straggler summaries counted runs
    that ``executed`` did not."""
    bad = RunSpec(artifacts_ds03.name, "warp-drive", 0, 2014)
    engine = FleetEngine(jobs=2)
    with pytest.raises(FleetError):
        engine.run(artifacts_ds03, small_specs[:2] + [bad])
    stats = engine.last_stats
    assert stats.executed == 2
    assert stats.failures == 1
    assert len(stats.run_telemetry) == stats.executed
    assert sum(w["runs"] for w in stats.worker_totals()) == stats.executed
    assert stats.straggler_summary()["runs"] == stats.executed


def test_worker_totals_sum_run_telemetry_per_pid():
    """Per-worker totals come from this run's telemetry alone, summed in
    completion order and listed by pid."""
    stats = FleetStats(
        run_telemetry=[
            {"pid": 22, "wall_s": 2.0, "cpu_s": 1.75, "mode": "demand"},
            {"pid": 11, "wall_s": 1.0, "cpu_s": 0.9, "mode": "full"},
            {"pid": 22, "wall_s": 0.5, "cpu_s": 0.25, "mode": "demand"},
        ]
    )
    assert stats.worker_totals() == [
        {"pid": 11, "runs": 1, "wall_s": 1.0, "cpu_s": 0.9},
        {"pid": 22, "runs": 2, "wall_s": 2.5, "cpu_s": 2.0},
    ]
    assert FleetStats().worker_totals() == []


def test_fallback_reason_counted_even_when_full_rerun_fails(
    artifacts_ds03, small_specs, serial_results
):
    """Regression: a demand cell that fell back and then failed its full
    rerun skipped the ``fallback_reasons`` count, hiding the fallback
    from telemetry.  Driven through a stub backend so the
    fallback-then-failure sequence is deterministic."""
    from repro.fleet.backends.registry import FleetBackend
    from repro.fleet.engine import WorkerFailure

    row = serial_results[0].to_json_dict()
    failure = WorkerFailure(
        spec=small_specs[1],
        exc_type="ReplayError",
        message="boom",
        traceback_text="Traceback (most recent call last): boom",
    )

    class StubBackend(FleetBackend):
        name = "stub"

        def execute(
            self, artifacts, pending, demand_trace=None, keys=None, store=None
        ):
            # cell 0: fell back, full rerun succeeded
            yield 0, row, None, {
                "pid": 1, "wall_s": 1.0, "cpu_s": 1.0, "mode": "full",
                "fallback_reason": "divergence",
            }
            # cell 1: fell back, full rerun failed
            yield 1, None, failure, {
                "pid": 1, "wall_s": 1.0, "cpu_s": 1.0, "mode": "full",
                "fallback_reason": "divergence",
            }

    engine = FleetEngine(backend=StubBackend())
    with pytest.raises(FleetError):
        engine.run(artifacts_ds03, list(small_specs[:2]))
    stats = engine.last_stats
    assert stats.backend == "stub"
    # both fallbacks counted, outcome notwithstanding…
    assert stats.fallback_reasons == {"divergence": 2}
    # …but only the successful cell is a fallback *cell* (a full_cells
    # member), and the summaries still agree with executed.
    assert stats.fallback_cells == 1
    assert stats.executed == 1
    assert stats.full_cells == 1
    assert stats.straggler_summary()["runs"] == stats.executed
