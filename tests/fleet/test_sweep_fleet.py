"""Acceptance tests: the sweep on the fleet engine vs the serial path."""

import io
import json

import pytest

from repro.device.frequencies import snapdragon_8074_table
from repro.fleet.cache import ResultCache
from repro.fleet.progress import ProgressReporter
from repro.harness.sweep import run_sweep, sweep_configs


@pytest.fixture(scope="module")
def serial_sweep(artifacts_ds03):
    """The reference: serial, uncached, exactly the seed behaviour."""
    return run_sweep(artifacts_ds03, reps=1)


def test_parallel_sweep_identical_and_warm_rerun_all_cached(
    artifacts_ds03, serial_sweep, tmp_path_factory
):
    cache = ResultCache(tmp_path_factory.mktemp("fleet-cache"))
    parallel = run_sweep(artifacts_ds03, reps=1, jobs=4, cache=cache)
    assert parallel.runs == serial_sweep.runs
    assert parallel.oracle.energy_j == serial_sweep.oracle.energy_j
    assert cache.hits == 0
    total = len(sweep_configs(snapdragon_8074_table()))

    rerun = run_sweep(artifacts_ds03, reps=1, jobs=4, cache=cache)
    assert cache.hits == total  # every completed cell skipped execution
    assert rerun.runs == serial_sweep.runs


@pytest.fixture(scope="module")
def reported_sweep(artifacts_ds03):
    """A serial sweep observed by a reporter with both output streams."""
    stream, jsonl = io.StringIO(), io.StringIO()
    reporter = ProgressReporter(
        artifacts_ds03.name, stream=stream, jsonl_stream=jsonl
    )
    result = run_sweep(artifacts_ds03, reps=1, progress=reporter)
    events = [json.loads(line) for line in jsonl.getvalue().splitlines()]
    return result, stream.getvalue().splitlines(), events


def test_run_sweep_reports_each_cell_in_grid_order(
    reported_sweep, serial_sweep
):
    result, _lines, events = reported_sweep
    assert result.runs == serial_sweep.runs
    calls = [
        (event["config"], event["rep"])
        for event in events
        if event["event"] == "run_completed"
    ]
    assert calls == [(config, 0) for config in sweep_configs(snapdragon_8074_table())]


def test_progress_reporter_binds_to_the_sweep_grid(reported_sweep):
    _result, lines, events = reported_sweep
    total = len(sweep_configs(snapdragon_8074_table()))
    assert events[0]["event"] == "grid_bound"
    assert (events[0]["total"], events[0]["configs"]) == (total, total)
    assert len(lines) == total
    assert f"(config 1/{total}, rep 1/1)" in lines[0]
    assert f"1/{total} runs" in lines[0]
    assert f"{total}/{total} runs" in lines[-1]
