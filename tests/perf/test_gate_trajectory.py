"""Tests for the perf regression gate and the committed BENCH_replay.json."""

import json

import pytest

from repro.core.errors import ReproError
from repro.perf.gate import (
    DEFAULT_TOLERANCE,
    check_regression,
    load_baseline,
    write_baseline,
)
from repro.perf.harness import MICRO_BENCHES, BenchResult


def result(name, throughput):
    # events/s-style result: wall 1s, `throughput` events.
    return BenchResult(name=name, wall_s=1.0, sim_us=0, events=int(throughput))


def test_gate_passes_within_tolerance():
    baseline = {"engine_events": 100_000.0}
    assert check_regression([result("engine_events", 40_000)], baseline) == []


def test_gate_fails_below_tolerance_band():
    baseline = {"engine_events": 100_000.0}
    failures = check_regression(
        [result("engine_events", 30_000)], baseline, tolerance=0.35
    )
    assert len(failures) == 1
    assert "engine_events" in failures[0]


def test_gate_reports_missing_benchmark():
    failures = check_regression([], {"engine_churn": 10_000.0})
    assert failures and "did not run" in failures[0]


def test_gate_skips_benchmarks_without_baseline():
    assert check_regression([result("brand_new", 1.0)], {"other": 10.0}) == [
        "other: baseline present but benchmark did not run"
    ]


def test_gate_rejects_bad_tolerance():
    with pytest.raises(ReproError):
        check_regression([], {}, tolerance=0.0)
    with pytest.raises(ReproError):
        check_regression([], {}, tolerance=1.5)


def test_default_tolerance_is_wide():
    assert 0.1 <= DEFAULT_TOLERANCE <= 0.6


def test_baseline_round_trip(tmp_path):
    path = tmp_path / "perf_baseline.json"
    write_baseline(path, [result("engine_events", 123_456.7)])
    baseline = load_baseline(path)
    # The helper floors the throughput to whole events; the round-trip
    # itself must be lossless.
    assert baseline == {"engine_events": pytest.approx(123_456.0, abs=0.01)}


def test_load_baseline_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ReproError):
        load_baseline(path)
    with pytest.raises(ReproError):
        load_baseline(tmp_path / "missing.json")


def test_committed_trajectory_and_baseline_are_valid():
    """The files committed at the repo root must parse and stay coherent."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    document = json.loads((root / "BENCH_replay.json").read_text("utf-8"))
    assert document["entries"], "BENCH_replay.json must record the trajectory"
    baseline = load_baseline(root / "benchmarks" / "perf_baseline.json")
    assert "engine_events" in baseline
    # A floor for a benchmark that no longer runs fails here, not only in CI.
    assert set(baseline) <= set(MICRO_BENCHES)
    # The recorded fast-path entry must beat the seed entry by 3x on the
    # (since retired) macro replay benchmarks.
    macro_entries = [
        entry
        for entry in document["entries"]
        if "macro_study" in entry.get("results", {})
        and "macro_daylong" in entry.get("results", {})
    ]
    assert len(macro_entries) >= 2, "need seed + fast-path macro entries"
    seed = macro_entries[0]["results"]
    current = macro_entries[-1]["results"]
    seed_thr = (
        seed["macro_study"]["sim_us"] + seed["macro_daylong"]["sim_us"]
    ) / (seed["macro_study"]["wall_s"] + seed["macro_daylong"]["wall_s"])
    current_thr = (
        current["macro_study"]["sim_us"] + current["macro_daylong"]["sim_us"]
    ) / (
        current["macro_study"]["wall_s"] + current["macro_daylong"]["wall_s"]
    )
    assert current_thr >= 3.0 * seed_thr
