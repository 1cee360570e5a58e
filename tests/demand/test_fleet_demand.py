"""Fleet wiring of the demand pass: accounting, fallback, degradation."""

import io
import json

import pytest

import repro.demand as demand_module
from repro.demand import DemandCaptureError, DemandFallback
from repro.fleet.cache import ResultCache, workload_fingerprint
from repro.fleet.engine import FleetEngine
from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import RunSpec

CONFIGS = ("fixed:300000", "ondemand")


def _specs(artifacts):
    return [
        RunSpec(
            dataset=artifacts.name,
            config=config,
            rep=0,
            master_seed=artifacts.recording_master_seed,
        )
        for config in CONFIGS
    ]


@pytest.fixture(autouse=True)
def demand_on(monkeypatch):
    monkeypatch.setenv("REPRO_DEMAND", "1")


def test_demand_cells_counted_and_tagged_in_jsonl(artifacts_ds03, tmp_path):
    specs = _specs(artifacts_ds03)
    jsonl = io.StringIO()
    reporter = ProgressReporter(
        artifacts_ds03.name, stream=io.StringIO(), jsonl_stream=jsonl
    ).bind(specs)
    engine = FleetEngine(jobs=1, cache=ResultCache(tmp_path), progress=reporter)
    engine.run(artifacts_ds03, specs)
    reporter.fleet_summary(engine.last_stats, engine.cache)
    stats = engine.last_stats
    assert stats.demand_cells == len(specs)
    assert stats.full_cells == 0
    assert stats.fallback_cells == 0
    assert stats.demand_trace_source == "captured"
    assert stats.demand_capture_s is not None
    assert all(t["mode"] == "demand" for t in stats.run_telemetry)

    events = [json.loads(line) for line in jsonl.getvalue().splitlines()]
    completed = [e for e in events if e["event"] == "run_completed"]
    assert [e["mode"] for e in completed] == ["demand"] * len(specs)
    summary = [e for e in events if e["event"] == "fleet_summary"][0]
    assert summary["demand"] == {
        "demand_cells": len(specs),
        "full_cells": 0,
        "fallback_cells": 0,
        "fallback_reasons": {},
        "trace_source": "captured",
        "capture_s": stats.demand_capture_s,
        "capture_error": None,
    }
    assert summary["cache"] == {
        "hits": 0,
        "misses": len(specs),
        "miss_reasons": {"absent": len(specs)},
    }


def test_fallback_reruns_cell_as_full_replay(artifacts_ds03, monkeypatch):
    """A DemandFallback is transparent: full-replay record, counted cell."""
    specs = _specs(artifacts_ds03)
    reference = FleetEngine(jobs=1).run(artifacts_ds03, specs)

    def always_falls_back(*_args, **_kwargs):
        raise DemandFallback("synthetic divergence", reason="guard_mismatch")

    monkeypatch.setattr(demand_module, "demand_replay_run", always_falls_back)
    engine = FleetEngine(jobs=1)
    results = engine.run(artifacts_ds03, specs)
    stats = engine.last_stats
    assert results == reference
    assert stats.demand_cells == 0
    assert stats.full_cells == len(specs)
    assert stats.fallback_cells == len(specs)
    assert stats.fallback_reasons == {"guard_mismatch": len(specs)}
    assert all(
        t["fallback_reason"] == "guard_mismatch" for t in stats.run_telemetry
    )


def test_capture_failure_degrades_to_full_replays(artifacts_ds03, monkeypatch):
    """A capture error must degrade the run, never abort it."""
    specs = _specs(artifacts_ds03)
    reference = FleetEngine(jobs=1).run(artifacts_ds03, specs)

    def cannot_capture(_artifacts):
        raise DemandCaptureError("no causal parent for timer")

    monkeypatch.setattr(demand_module, "capture_demand", cannot_capture)
    engine = FleetEngine(jobs=1)
    results = engine.run(artifacts_ds03, specs)
    stats = engine.last_stats
    assert results == reference
    assert stats.demand_trace_source is None
    assert "no causal parent" in stats.demand_capture_error
    assert stats.demand_cells == 0
    assert stats.full_cells == len(specs)


def test_kill_switch_skips_capture(artifacts_ds03, monkeypatch):
    monkeypatch.setenv("REPRO_DEMAND", "0")

    def must_not_run(_artifacts):
        raise AssertionError("capture_demand called with REPRO_DEMAND=0")

    monkeypatch.setattr(demand_module, "capture_demand", must_not_run)
    engine = FleetEngine(jobs=1)
    engine.run(artifacts_ds03, _specs(artifacts_ds03))
    assert engine.last_stats.full_cells == len(CONFIGS)
    assert engine.last_stats.demand_trace_source is None


def test_corrupt_stored_trace_is_a_miss_not_an_error(artifacts_ds03, tmp_path):
    from repro.demand import DemandTraceStore, demand_trace_key

    cache = ResultCache(tmp_path)
    store_dir = tmp_path / "demand"
    store_dir.mkdir()
    fingerprint = workload_fingerprint(artifacts_ds03)
    key = demand_trace_key(fingerprint)
    (store_dir / f"{key}.json").write_text("{corrupt", encoding="utf-8")
    engine = FleetEngine(jobs=1, cache=cache)
    engine.run(artifacts_ds03, _specs(artifacts_ds03))
    stats = engine.last_stats
    # The corrupt entry was a miss: the engine re-captured and stored.
    assert stats.demand_trace_source == "captured"
    assert stats.demand_cells == len(CONFIGS)
    store = DemandTraceStore.for_cache(cache)
    assert store.load(fingerprint) is not None


def test_workload_is_fingerprinted_once_per_run(artifacts_ds03, tmp_path,
                                                monkeypatch):
    """The result cache and the demand store share one fingerprint."""
    import repro.fleet.cache as cache_module
    import repro.fleet.engine as engine_module

    calls = []

    def counting(artifacts):
        calls.append(artifacts)
        return workload_fingerprint(artifacts)

    for module in (cache_module, engine_module):
        monkeypatch.setattr(module, "workload_fingerprint", counting)
    cache = ResultCache(tmp_path)
    FleetEngine(jobs=1, cache=cache).run(artifacts_ds03, _specs(artifacts_ds03))
    assert len(calls) == 1
    assert len(list((tmp_path / "demand").glob("*.json"))) == 1
