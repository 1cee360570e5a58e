"""Tests for run specs and the sweep-grid enumerator."""

import dataclasses
import pickle

from repro.fleet.spec import RunSpec, enumerate_sweep_specs


def test_enumerator_is_config_major_serial_order():
    specs = enumerate_sweep_specs("02", ["a", "b"], 3, 2014)
    assert [(s.config, s.rep) for s in specs] == [
        ("a", 0), ("a", 1), ("a", 2),
        ("b", 0), ("b", 1), ("b", 2),
    ]
    assert all(s.dataset == "02" and s.master_seed == 2014 for s in specs)


def test_spec_is_hashable_and_picklable():
    spec = RunSpec("02", "ondemand:up_threshold=80", 1, 2014)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert len({spec, spec}) == 1


def test_cache_token_is_canonical():
    one = RunSpec("02", "ondemand", 1, 2014)
    two = RunSpec("02", "ondemand", 1, 2014)
    assert one.cache_token() == two.cache_token()
    # Every identity field must reach the token.
    assert one.cache_token() != RunSpec("02", "ondemand", 2, 2014).cache_token()
    assert one.cache_token() != RunSpec("02", "ondemand", 1, 7).cache_token()
    assert one.cache_token() != RunSpec("03", "ondemand", 1, 2014).cache_token()
    tuned = RunSpec("02", "ondemand:up_threshold=80", 1, 2014)
    assert one.cache_token() != tuned.cache_token()


def test_spec_identity_is_four_fields():
    """The config string carries every governor parameter; a spec has no
    second place for them."""
    assert [f.name for f in dataclasses.fields(RunSpec)] == [
        "dataset", "config", "rep", "master_seed",
    ]
    assert set(RunSpec("02", "ondemand", 0, 2014).to_wire()) == {
        "dataset", "config", "rep", "master_seed",
    }


def test_label_names_the_cell():
    assert RunSpec("02", "fixed:300000", 4, 2014).label() == "02:fixed:300000:rep4"


def test_cache_token_wire_format_is_pinned():
    """The token is the cache-key payload: changing its shape silently
    orphans every previously cached cell.  Pin the literal bytes."""
    spec = RunSpec("02", "qoe_aware:boost=1036800,settle=40000", 0, 2014)
    assert spec.cache_token() == (
        '{"config":"qoe_aware:boost=1036800,settle=40000","dataset":"02",'
        '"master_seed":2014,"rep":0}'
    )


def test_wire_round_trip_preserves_identity():
    spec = RunSpec("02", "ondemand:up_threshold=80", 3, 2014)
    clone = RunSpec.from_wire(spec.to_wire())
    assert clone == spec
    assert clone.cache_token() == spec.cache_token()
