"""Tests for the content-addressed result cache."""

import io
import json

import pytest

from repro.core.errors import ReproError
from repro.fleet.cache import ResultCache, workload_fingerprint
from repro.fleet.engine import FleetEngine, execute_spec
from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import RunSpec, enumerate_sweep_specs

CONFIGS = ["fixed:300000", "ondemand"]


@pytest.fixture(scope="module")
def specs(artifacts_ds03):
    return enumerate_sweep_specs(
        artifacts_ds03.name, CONFIGS, 1, artifacts_ds03.recording_master_seed
    )


def test_store_load_roundtrip(tmp_path, artifacts_ds03, specs):
    cache = ResultCache(tmp_path)
    fingerprint = workload_fingerprint(artifacts_ds03)
    key = cache.key_for(specs[0], fingerprint)
    assert cache.load(key) is None
    result = execute_spec(artifacts_ds03, specs[0])
    cache.store(key, result)
    assert cache.load(key) == result
    assert len(list(tmp_path.glob("*/*.json"))) == 1


def test_warm_rerun_executes_nothing(tmp_path, artifacts_ds03, specs):
    cache = ResultCache(tmp_path)
    engine = FleetEngine(jobs=2, cache=cache)
    cold = engine.run(artifacts_ds03, specs)
    assert engine.last_stats.executed == len(specs)
    assert engine.last_stats.cache_hits == 0

    warm = engine.run(artifacts_ds03, specs)
    assert engine.last_stats.executed == 0
    assert engine.last_stats.cache_hits == len(specs)
    assert warm == cold


def test_key_depends_on_spec_identity(tmp_path, artifacts_ds03, specs):
    cache = ResultCache(tmp_path)
    fingerprint = workload_fingerprint(artifacts_ds03)
    base = specs[0]
    key = cache.key_for(base, fingerprint)
    reseeded = RunSpec(base.dataset, base.config, base.rep, base.master_seed + 1)
    assert cache.key_for(reseeded, fingerprint) != key
    assert cache.key_for(base, "0" * 64) != key


def test_key_depends_on_simulator_code(tmp_path, artifacts_ds03, specs, monkeypatch):
    import repro.fleet.cache as cache_mod

    cache = ResultCache(tmp_path)
    fingerprint = workload_fingerprint(artifacts_ds03)
    key = cache.key_for(specs[0], fingerprint)
    # Editing any repro module changes the code fingerprint, which must
    # invalidate every cached cell rather than serve stale results.
    monkeypatch.setattr(cache_mod, "_CODE_FINGERPRINT", "0" * 64)
    assert cache.key_for(specs[0], fingerprint) != key


def test_fingerprint_tracks_artifact_content(artifacts_ds03):
    from dataclasses import replace

    fingerprint = workload_fingerprint(artifacts_ds03)
    assert fingerprint == workload_fingerprint(artifacts_ds03)  # stable
    edited = replace(artifacts_ds03, duration_us=artifacts_ds03.duration_us + 1)
    assert workload_fingerprint(edited) != fingerprint
    reseeded = replace(artifacts_ds03, recording_master_seed=7)
    assert workload_fingerprint(reseeded) != fingerprint


def test_fingerprint_is_cached_on_frozen_artifacts(artifacts_ds03, monkeypatch):
    from dataclasses import FrozenInstanceError, replace
    from types import SimpleNamespace

    import repro.fleet.cache as cache_mod

    hashed = []  # the (version, name, duration, seed, trace, db) tuples
    dumps = cache_mod.pickle.dumps

    def counting(obj, *args, **kwargs):
        hashed.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "pickle", SimpleNamespace(dumps=counting))
    copy = replace(artifacts_ds03)
    fingerprint = workload_fingerprint(copy)
    assert workload_fingerprint(copy) == copy._fingerprint == fingerprint
    assert len(hashed) == 1
    # A replaced field is a new recording with a fresh fingerprint.
    edited = replace(copy, duration_us=copy.duration_us + 1)
    assert edited._fingerprint is None
    assert workload_fingerprint(edited) != fingerprint
    assert len(hashed) == 2 and hashed[1][2] == edited.duration_us
    with pytest.raises(FrozenInstanceError):
        copy.duration_us = 1
    with pytest.raises(FrozenInstanceError):
        copy.trace = None
    assert copy.duration_us == artifacts_ds03.duration_us


def test_rows_stored_under_cache_version_3_are_misses_never_decoded(
    tmp_path, artifacts_ds03, specs, monkeypatch
):
    """A CACHE_VERSION bump moves every key: the old row is never read."""
    import repro.fleet.cache as cache_mod
    from repro.results import RunRecord
    from tests.results.test_record import make_record

    cache = ResultCache(tmp_path)
    fingerprint = workload_fingerprint(artifacts_ds03)
    record = make_record()
    v3_row = record.to_wire()
    v3_row["lags"] = record.to_json_dict()["lags"]  # one object per lag
    with monkeypatch.context() as patch:
        patch.setattr(cache_mod, "CACHE_VERSION", 3)
        old_key = cache.key_for(specs[0], fingerprint)
    cache.store_wire(old_key, v3_row)
    decoded = []
    monkeypatch.setattr(
        RunRecord, "wire_loads", classmethod(lambda cls, data: decoded.append(data))
    )
    key = cache.key_for(specs[0], fingerprint)
    assert key != old_key
    assert cache.load(key) is None
    assert cache.miss_reasons == {"absent": 1}
    assert decoded == []


def test_corrupt_entry_is_a_miss_and_reexecuted(tmp_path, artifacts_ds03, specs):
    cache = ResultCache(tmp_path)
    engine = FleetEngine(jobs=1, cache=cache)
    engine.run(artifacts_ds03, specs[:1])
    fingerprint = workload_fingerprint(artifacts_ds03)
    path = cache.path_for(cache.key_for(specs[0], fingerprint))
    path.write_bytes(b"not a pickle")

    results = engine.run(artifacts_ds03, specs[:1])
    assert engine.last_stats.executed == 1
    assert engine.last_stats.cache_hits == 0
    # The fresh result replaced the corrupt entry.
    assert cache.load(cache.key_for(specs[0], fingerprint)) == results[0]


def test_cache_hits_reported_as_cached_progress(tmp_path, artifacts_ds03, specs):
    cache = ResultCache(tmp_path)
    FleetEngine(jobs=1, cache=cache).run(artifacts_ds03, specs)
    jsonl = io.StringIO()
    engine = FleetEngine(
        jobs=1, cache=cache,
        progress=ProgressReporter("03", jsonl_stream=jsonl, human=False),
    )
    engine.run(artifacts_ds03, specs)
    events = [json.loads(line) for line in jsonl.getvalue().splitlines()]
    observed = [
        (event["spec"], event["cached"])
        for event in events
        if event["event"] == "run_completed"
    ]
    assert observed == [(s.label(), True) for s in specs]


def test_key_incorporates_governor_parameters(tmp_path, artifacts_ds03):
    """Regression: two parameterizations of one governor must never collide.

    Governor parameters reach a spec only inside the config string, and
    they must distinguish the cache cell from the bare governor name.
    """
    cache = ResultCache(tmp_path)
    fingerprint = workload_fingerprint(artifacts_ds03)
    seed = artifacts_ds03.recording_master_seed
    bare = RunSpec(artifacts_ds03.name, "qoe_aware", 0, seed)
    in_string = RunSpec(
        artifacts_ds03.name, "qoe_aware:boost=1036800,settle=40000", 0, seed
    )
    other_string = RunSpec(
        artifacts_ds03.name, "qoe_aware:boost=1036800,settle=60000", 0, seed
    )
    keys = [
        cache.key_for(spec, fingerprint)
        for spec in (bare, in_string, other_string)
    ]
    assert len(set(keys)) == len(keys)


def test_parameterised_config_has_one_record_and_one_key(
    tmp_path, artifacts_ds03
):
    """A governor's parameters have one spelling, the config string.

    The RNG fork and the cache token see only the config string, so a
    keyword spelling replayed a different record under the same key;
    it is gone, and the one spelling gives one record on every path.
    """
    from repro.governors.config import canonical_config
    from repro.harness.experiment import replay_run

    with pytest.raises(TypeError):
        replay_run(artifacts_ds03, "interactive", hispeed_freq_khz=652_800)

    seed = artifacts_ds03.recording_master_seed
    config = canonical_config("interactive:hispeed=652_800")
    spec = RunSpec(artifacts_ds03.name, config, 0, seed)
    direct = replay_run(artifacts_ds03, config, master_seed=seed)
    assert execute_spec(artifacts_ds03, spec) == direct
    cache = ResultCache(tmp_path)
    assert FleetEngine(jobs=1, cache=cache).run(artifacts_ds03, [spec]) == [
        direct
    ]
    assert FleetEngine(jobs=2).run(artifacts_ds03, [spec]) == [direct]
    key = cache.key_for(spec, workload_fingerprint(artifacts_ds03))
    rows = [
        path.stem
        for path in tmp_path.glob("*/*.json")
        if path.parent.name != "demand"
    ]
    assert rows == [key]


def test_scenario_identity_flows_into_cache_keys(tmp_path):
    """Scenario specs address distinct cells per persona/seed/duration/profile.

    The canonical scenario string is the spec's ``dataset`` and part of
    the workload fingerprint, so any change to the scenario's identity
    must change the content address.
    """
    from repro.scenarios.config import canonical_scenario

    cache = ResultCache(tmp_path)
    fingerprint = "f" * 64
    scenarios = [
        "persona=gamer,seed=7,duration=2m",
        "persona=gamer,seed=8,duration=2m",
        "persona=reader,seed=7,duration=2m",
        "persona=gamer,seed=7,duration=3m",
        "persona=gamer,seed=7,duration=2m,profile=quad_ls",
    ]
    keys = [
        cache.key_for(
            RunSpec(canonical_scenario(s), "ondemand", 0, 2014), fingerprint
        )
        for s in scenarios
    ]
    assert len(set(keys)) == len(keys)
    # Spelling does not split cells: canonicalisation collapses it.
    respelled = cache.key_for(
        RunSpec(
            canonical_scenario("seed=7,persona=gamer,duration=120s"),
            "ondemand", 0, 2014,
        ),
        fingerprint,
    )
    assert respelled == keys[0]


def test_scenario_recordings_fingerprint_by_seed():
    """Two seeds of one persona record different traces → different keys."""
    from repro.harness.experiment import record_workload
    from repro.workloads.datasets import dataset

    a = record_workload(dataset("persona=messenger,seed=1,duration=45s"))
    b = record_workload(dataset("persona=messenger,seed=2,duration=45s"))
    assert workload_fingerprint(a) != workload_fingerprint(b)


def test_differently_spelled_configs_share_a_sweep_cache_cell(
    tmp_path, artifacts_ds03
):
    """The sweep canonicalises spellings, so both hit the same cell."""
    from repro.device.frequencies import snapdragon_8074_table
    from repro.harness.sweep import fixed_configs, run_sweep

    cache = ResultCache(tmp_path)
    canonical = "qoe_aware:boost=1036800,settle=40000"
    fixed = fixed_configs(snapdragon_8074_table())
    grid = fixed + ["qoe_aware:settle=40_000,boost=1_036_800"]
    spelled = run_sweep(artifacts_ds03, reps=1, cache=cache, configs=grid)
    assert canonical in spelled.runs

    hits_before = cache.hits
    rerun = run_sweep(
        artifacts_ds03, reps=1, cache=cache,
        configs=fixed + [canonical],
    )
    # Every cell — including the re-spelled candidate — was already cached.
    assert cache.hits - hits_before == len(fixed) + 1
    assert rerun.runs[canonical] == spelled.runs[canonical]


def test_row_planted_under_another_cells_key_is_refused(
    tmp_path, artifacts_ds03, specs
):
    """A valid row for one cell stored under another's key fails loudly."""
    cache = ResultCache(tmp_path)
    engine = FleetEngine(cache=cache)
    records = engine.run(artifacts_ds03, specs)
    fingerprint = workload_fingerprint(artifacts_ds03)
    victim_key = cache.key_for(specs[1], fingerprint)
    cache.store(victim_key, records[0])
    with pytest.raises(ReproError) as excinfo:
        engine.run(artifacts_ds03, specs)
    message = str(excinfo.value)
    assert "\n" not in message
    assert f"served {specs[0].label()} for cell {specs[1].label()}" in message
