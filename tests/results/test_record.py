"""Tests for the schema-versioned RunRecord: its canonical row and its
wire/cache row."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lagprofile import LagMeasurement
from repro.results import (
    RUN_RECORD_SCHEMA_VERSION,
    RunRecord,
    RunRecordSchemaError,
    RunRecordWireError,
)


def make_record(**overrides):
    lags = tuple(
        LagMeasurement(
            lag_index=i,
            gesture_index=i,
            label=f"lag{i}",
            category="simple_frequent",
            begin_time_us=1_000_000 * (i + 1),
            end_frame=40 * (i + 1),
            duration_us=120_000 + i,
            threshold_us=1_000_000,
        )
        for i in range(3)
    )
    fields = dict(
        workload="03",
        config="ondemand",
        rep=2,
        duration_us=65_000_000,
        energy_j=12.345678901234567,
        dynamic_energy_j=3.2109876543210987,
        busy_us=7_654_321,
        transitions=[(0, 300_000), (1_234_567, 960_000)],
        busy_intervals=[(10, 500), (1_000, 9_999)],
        lags=lags,
    )
    fields.update(overrides)
    return RunRecord(**fields)


def test_json_roundtrip_is_lossless():
    record = make_record()
    again = RunRecord.loads(record.dumps())
    assert again == record
    # Floats must survive exactly — the bit-identical A/B depends on it.
    assert repr(again.energy_j) == repr(record.energy_j)
    assert again.transitions == record.transitions
    assert again.lags == record.lags


def test_row_is_pure_json():
    row = make_record().to_json_dict()
    text = json.dumps(row)
    assert json.loads(text)["schema_version"] == RUN_RECORD_SCHEMA_VERSION


def test_wrong_schema_version_rejected():
    row = make_record().to_json_dict()
    row["schema_version"] = RUN_RECORD_SCHEMA_VERSION + 1
    with pytest.raises(RunRecordSchemaError):
        RunRecord.from_json_dict(row)
    row.pop("schema_version")
    with pytest.raises(RunRecordSchemaError):
        RunRecord.from_json_dict(row)


def test_derived_views_match_fields():
    record = make_record()
    assert record.lag_profile.workload_name == "03"
    assert record.lag_profile.lags == record.lags
    assert record.busy_timeline.busy_in(0, record.duration_us) == 490 + 8_999
    assert record.busy_timeline is record.busy_timeline  # cached
    assert record.irritation_seconds() >= 0.0
    # The lazily-built timeline never affects equality.
    fresh = make_record()
    assert fresh == record


def test_cache_stores_json_rows_not_pickles(tmp_path):
    from repro.fleet.cache import ResultCache

    cache = ResultCache(tmp_path)
    record = make_record()
    cache.store("ab" + "0" * 62, record)
    path = cache.path_for("ab" + "0" * 62)
    assert path.suffix == ".json"
    row = json.loads(path.read_text(encoding="utf-8"))
    assert row["schema_version"] == RUN_RECORD_SCHEMA_VERSION
    assert isinstance(row["busy_intervals"], str)  # the packed wire row
    assert cache.load("ab" + "0" * 62) == record


def test_cache_miss_on_stale_schema_version(tmp_path):
    """A row written under an older schema re-executes instead of loading."""
    from repro.fleet.cache import ResultCache

    cache = ResultCache(tmp_path)
    key = "cd" + "0" * 62
    cache.store(key, make_record())
    path = cache.path_for(key)
    row = json.loads(path.read_text(encoding="utf-8"))
    row["schema_version"] = RUN_RECORD_SCHEMA_VERSION - 1
    path.write_text(json.dumps(row), encoding="utf-8")
    assert cache.load(key) is None
    assert cache.misses == 1


def test_cache_key_depends_on_record_schema_version(tmp_path, monkeypatch):
    """Regression: bumping RUN_RECORD_SCHEMA_VERSION must move every cell's
    content address, so old entries become unreachable, not just unreadable."""
    import repro.fleet.cache as cache_mod
    from repro.fleet.cache import ResultCache
    from repro.fleet.spec import RunSpec

    cache = ResultCache(tmp_path)
    spec = RunSpec(dataset="03", config="ondemand", rep=0, master_seed=2014)
    fingerprint = "f" * 64
    key = cache.key_for(spec, fingerprint)
    monkeypatch.setattr(
        cache_mod, "RUN_RECORD_SCHEMA_VERSION", RUN_RECORD_SCHEMA_VERSION + 1
    )
    assert cache.key_for(spec, fingerprint) != key


# --- the wire row -------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_records(artifacts_ds03):
    """Records as the fleet engine returns them, one per evaluation path."""
    from repro.fleet.engine import FleetEngine
    from repro.fleet.spec import enumerate_sweep_specs

    specs = enumerate_sweep_specs(
        artifacts_ds03.name,
        ["fixed:300000", "fixed:2150400", "ondemand", "interactive"],
        1,
        artifacts_ds03.recording_master_seed,
    )
    return FleetEngine(jobs=1).run(artifacts_ds03, specs)


def test_wire_round_trip_keeps_the_canonical_row(fleet_records):
    for record in [make_record(), make_record(obs={"counters": {"x": 1}})] + list(
        fleet_records
    ):
        wire = json.loads(json.dumps(record.to_wire()))
        again = RunRecord.from_wire(wire)
        assert again == record
        assert again.dumps() == record.dumps()
        assert again.obs == record.obs


def test_wire_row_is_a_quarter_of_the_canonical_row_on_ds02():
    from repro.harness.experiment import record_workload, replay_run
    from repro.workloads.datasets import dataset

    record = replay_run(record_workload(dataset("02")), "ondemand")
    assert len(json.dumps(record.to_wire())) <= len(record.dumps()) / 4


def test_wire_row_with_another_schema_version_is_stale():
    row = make_record().to_wire()
    row["schema_version"] = RUN_RECORD_SCHEMA_VERSION - 1
    with pytest.raises(RunRecordSchemaError):
        RunRecord.from_wire(row)


def _without(key):
    row = make_record().to_wire()
    del row[key]
    return row


def _with(key, value):
    row = make_record().to_wire()
    row[key] = value
    return row


def _with_lag_column(name, column):
    """A wire row with lag column ``name`` replaced (None: removed)."""
    row = make_record().to_wire()
    if column is None:
        del row["lags"][name]
    else:
        row["lags"][name] = column
    return row


@pytest.mark.parametrize(
    "row",
    [
        [],
        "a string",
        {},
        _without("schema_version"),
        _without("energy_j"),
        _without("busy_intervals"),
        _with("lags", [{"lag_index": 0}]),
        _with("lags", 3),
        # The v3 wire row's lags: one eight-key object per lag.
        _with("lags", make_record().to_json_dict()["lags"]),
        _with_lag_column("duration_us", None),  # a missing column
        _with_lag_column("label", ["lag0", "lag1"]),  # a short column
        _with_lag_column("end_frame", 40),  # not a list
        _with_lag_column("frames", [1, 2, 3]),  # an unexpected column
        make_record().to_json_dict(),  # the canonical row: list columns
        _with("transitions", 17),
        _with("transitions", "@@@@"),  # not base64
        _with("busy_intervals", "bm90IHpsaWI="),  # base64, not zlib
    ],
)
def test_malformed_wire_rows_raise_one_error(row):
    with pytest.raises(RunRecordWireError):
        RunRecord.from_wire(row)


@pytest.mark.parametrize("text", ["", "{", "not json", b"\xff\xfe"])
def test_wire_text_that_is_not_json_is_a_wire_error(text):
    with pytest.raises(RunRecordWireError):
        RunRecord.wire_loads(text)


def test_wire_lags_are_eight_equal_length_columns():
    record = make_record()
    lags = record.to_wire()["lags"]
    assert list(lags) == [
        "lag_index", "gesture_index", "label", "category",
        "begin_time_us", "end_frame", "duration_us", "threshold_us",
    ]
    assert {len(column) for column in lags.values()} == {len(record.lags)}
    assert lags["label"] == [lag.label for lag in record.lags]
    assert lags["duration_us"] == [lag.duration_us for lag in record.lags]
    # The canonical row keeps one object per lag.
    assert record.to_json_dict()["lags"][1]["label"] == "lag1"


def test_wire_row_without_lags_has_eight_empty_columns():
    record = make_record(lags=())
    lags = record.to_wire()["lags"]
    assert len(lags) == 8 and all(column == [] for column in lags.values())
    assert RunRecord.from_wire(record.to_wire()) == record


_lag_strategy = st.builds(
    LagMeasurement,
    lag_index=st.integers(0, 10_000),
    gesture_index=st.integers(0, 10_000),
    label=st.text(max_size=12),
    category=st.sampled_from(
        ["simple_frequent", "simple_rare", "complex_frequent", "complex_rare"]
    ),
    begin_time_us=st.integers(0, 2**40),
    end_frame=st.integers(0, 10**7),
    duration_us=st.integers(0, 10**8),
    threshold_us=st.integers(1, 10**8),
)
_pairs_strategy = st.lists(
    st.tuples(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62)),
    max_size=20,
)
_float_strategy = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(
    lags=st.lists(_lag_strategy, max_size=6),
    transitions=_pairs_strategy,
    busy_intervals=_pairs_strategy,
    energy_j=_float_strategy,
    dynamic_energy_j=_float_strategy,
    obs=st.none() | st.dictionaries(
        st.text(max_size=6), st.integers() | st.text(max_size=6), max_size=3
    ),
)
def test_wire_round_trip_keeps_dumps_byte_identical(
    lags, transitions, busy_intervals, energy_j, dynamic_energy_j, obs
):
    """Zero lags, empty traces and an ``obs`` section included."""
    record = make_record(
        lags=tuple(lags),
        transitions=transitions,
        busy_intervals=busy_intervals,
        energy_j=energy_j,
        dynamic_energy_j=dynamic_energy_j,
        obs=obs,
    )
    text = json.dumps(record.to_wire(), separators=(",", ":"))
    again = RunRecord.wire_loads(text)
    assert again.dumps() == record.dumps()
    assert again.lags == record.lags
    assert again.obs == record.obs
