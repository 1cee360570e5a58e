"""DemandTrace schema: roundtrip, content addressing, contract checks."""

import base64
import json
import zlib

import pytest

from repro.demand import DemandNode, DemandTrace, DemandTraceError
from repro.demand import store as store_module
from repro.demand.trace import (
    DEMAND_TRACE_SCHEMA_VERSION,
    KIND_CHAIN_START,
    KIND_CHAIN_STOP,
    KIND_CHUNKED,
    KIND_INVALIDATE,
    KIND_TASK,
    KIND_TIMER,
)


def make_trace(**overrides) -> DemandTrace:
    """A small but kind-complete valid trace (one state, one input)."""
    fields = dict(
        workload="unit",
        capture_config="fixed:300000",
        duration_us=1_000_000,
        input_events=2,
        state_count=1,
        nodes=[
            DemandNode(0, KIND_CHAIN_START, chain_key=7, name="svc",
                       period_us=1_000, cycles=5e5, priority=1),
            DemandNode(1, KIND_TASK, input_ordinal=0, name="fg",
                       cycles=1e6, priority=0),
            DemandNode(2, KIND_TIMER, parent=1, delay_us=100),
            DemandNode(3, KIND_INVALIDATE, parent=2, state_id=0),
            DemandNode(4, KIND_CHAIN_STOP, chain_key=7),
        ],
        guards={1: (1,)},
        match_states=[(0,)],
        blank_matches=(0,),
    )
    fields.update(overrides)
    return DemandTrace(**fields)


def test_valid_trace_passes_validation():
    make_trace().validate()


def test_json_roundtrip_is_lossless_and_content_addressed():
    trace = make_trace()
    clone = DemandTrace.loads(trace.dumps())
    clone.validate()
    assert clone.to_json_dict() == trace.to_json_dict()
    assert clone.content_hash() == trace.content_hash()
    assert clone.guards == trace.guards
    assert clone.match_states == trace.match_states
    assert clone.blank_matches == trace.blank_matches


def test_stats_counts_every_kind():
    stats = make_trace().stats()
    assert stats["task_arrivals"] == 1
    assert stats["timers"] == 1
    assert stats["frame_deadlines"] == 1
    assert stats["chain_starts"] == 1
    assert stats["chain_stops"] == 1
    assert stats["input_windows"] == 1
    assert stats["guarded_windows"] == 1
    assert stats["states"] == 1
    assert stats["match_annotations"] == 1


def test_children_by_parent_partitions_roots_and_children():
    setup, by_input, by_node = make_trace().children_by_parent()
    assert [node.node_id for node in setup] == [0, 4]
    assert [node.node_id for node in by_input[0]] == [1]
    assert [node.node_id for node in by_node[2]] == [3]


def test_payload_without_state_count_is_malformed():
    payload = make_trace().to_json_dict()
    del payload["state_count"]
    with pytest.raises(
        DemandTraceError, match="malformed demand trace payload: 'state_count'"
    ):
        DemandTrace.from_json_dict(payload)


def test_not_json_rejected():
    with pytest.raises(DemandTraceError, match="not valid JSON"):
        DemandTrace.loads("{nope")


def test_malformed_payload_rejected():
    with pytest.raises(DemandTraceError, match="malformed"):
        DemandTrace.loads('{"workload": "x"}')


@pytest.mark.parametrize(
    "overrides, pattern",
    [
        ({"schema_version": 99}, "schema 99"),
        ({"duration_us": 0}, "positive duration"),
        ({"state_count": -1}, "non-negative integer"),
        ({"state_count": 1.0}, "non-negative integer"),
        ({"state_count": True}, "non-negative integer"),
        ({"state_count": 0}, "invalidate references state 0 of 0"),
        ({"match_states": [(5,)]}, "references state 5"),
        ({"match_states": [(1,)]}, "references state 1 of 1"),
        ({"match_states": [(0,)], "blank_matches": (3,)},
         "references annotation 3"),
        ({"match_states": None, "blank_matches": (0,)},
         "without a match table"),
        ({"guards": {5: (1,)}}, "guard ordinal 5"),
        ({"guards": {0: (2,)}}, "not a task"),
        ({"guards": {0: (0,)}}, "not a task"),
    ],
)
def test_contract_violations_are_rejected(overrides, pattern):
    with pytest.raises(DemandTraceError, match=pattern):
        make_trace(**overrides).validate()


def test_background_task_cannot_guard():
    trace = make_trace()
    trace.nodes[1].priority = 1  # fg task becomes background
    with pytest.raises(DemandTraceError, match="background"):
        trace.validate()


def test_node_ids_must_be_dense_and_ordered():
    trace = make_trace()
    trace.nodes[2].node_id = 9
    with pytest.raises(DemandTraceError, match="dense and ordered"):
        trace.validate()


def test_invalidate_cannot_parent_children():
    trace = make_trace()
    trace.nodes[4] = DemandNode(4, KIND_TIMER, parent=3, delay_us=1)
    with pytest.raises(DemandTraceError, match="cannot have children"):
        trace.validate()


def test_chain_stop_before_start_rejected():
    trace = make_trace(nodes=[DemandNode(0, KIND_CHAIN_STOP, chain_key=1)])
    with pytest.raises(DemandTraceError, match="before any start"):
        trace.validate()


@pytest.mark.parametrize("table", ["missing", "null"])
def test_trace_without_a_match_table_fails_loudly(table, tmp_path, monkeypatch):
    """No pixel fallback exists: a payload without verdicts is rejected
    with one line, and the demand store counts it as a miss."""
    payload = make_trace().to_json_dict()
    if table == "missing":
        del payload["match_states"]
    else:
        payload["match_states"] = None
    with pytest.raises(DemandTraceError, match="without a match table") as info:
        DemandTrace.from_json_dict(payload)
    assert "\n" not in str(info.value)
    with pytest.raises(DemandTraceError, match="without a match table"):
        make_trace(match_states=None).validate()

    monkeypatch.setattr(store_module, "demand_trace_key", lambda _a: "key")
    store = store_module.DemandTraceStore(tmp_path)
    store.path_for("key").write_text(json.dumps(payload), encoding="utf-8")
    assert store.load(object()) is None
    assert (store.hits, store.misses) == (0, 1)


def _chunked_node(node_id: int = 5, **overrides) -> DemandNode:
    fields = dict(parent=1, name="aftermath:open", cycles=4.5e7,
                  chunk_cycles=15e6, delay_us=60_000, priority=1)
    fields.update(overrides)
    return DemandNode(node_id, KIND_CHUNKED, **fields)


def with_chunked(node: DemandNode) -> DemandTrace:
    return make_trace(nodes=make_trace().nodes + [node])


def test_chunked_node_validates_round_trips_and_is_counted():
    trace = with_chunked(_chunked_node())
    trace.validate()
    clone = DemandTrace.loads(trace.dumps())
    clone.validate()
    assert clone.to_json_dict() == trace.to_json_dict()
    assert clone.nodes[5] == trace.nodes[5]
    assert clone.nodes[5].chunk_cycles == 15e6
    assert clone.nodes[5].delay_us == 60_000
    stats = clone.stats()
    assert stats["chunk_chains"] == 1
    assert stats["task_arrivals"] == 1
    assert stats["work_units_cycles"] == 1e6 + 4.5e7
    assert make_trace().stats()["chunk_chains"] == 0


@pytest.mark.parametrize(
    "overrides, pattern",
    [
        ({"name": None}, "chunked chain needs"),
        ({"cycles": 0.0}, "chunked chain needs"),
        ({"chunk_cycles": None}, "chunked chain needs"),
        ({"chunk_cycles": -1.0}, "chunked chain needs"),
        ({"delay_us": None}, "chunked chain needs"),
        ({"delay_us": -1}, "chunked chain needs"),
        ({"delay_us": 60_000.0}, "delay_us must be an integer"),
        ({"priority": 2}, "chunked chain needs"),
    ],
)
def test_invalid_chunked_nodes_are_rejected(overrides, pattern):
    with pytest.raises(DemandTraceError, match=pattern):
        with_chunked(_chunked_node(**overrides)).validate()


def test_chunked_node_cannot_parent_children():
    trace = with_chunked(_chunked_node())
    trace.nodes.append(DemandNode(6, KIND_TIMER, parent=5, delay_us=1))
    with pytest.raises(DemandTraceError, match="cannot have children"):
        trace.validate()


def test_schema_1_trace_is_a_store_miss(tmp_path, monkeypatch):
    """A trace written before chunk chains were one node is never served:
    its store key differs, and a schema-1 payload under the current key
    fails validation — both are plain misses."""
    import repro.fleet.cache as cache_module

    assert DEMAND_TRACE_SCHEMA_VERSION == 3
    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "code")
    current_key = store_module.demand_trace_key("workload")
    monkeypatch.setattr(store_module, "DEMAND_TRACE_SCHEMA_VERSION", 1)
    old_key = store_module.demand_trace_key("workload")
    monkeypatch.setattr(store_module, "DEMAND_TRACE_SCHEMA_VERSION", 3)
    assert old_key != current_key

    store = store_module.DemandTraceStore(tmp_path)
    payload = make_trace(schema_version=1).dumps()
    store.root.mkdir(parents=True, exist_ok=True)
    store.path_for(old_key).write_text(payload, encoding="utf-8")
    assert store.load("workload") is None
    store.path_for(current_key).write_text(payload, encoding="utf-8")
    assert store.load("workload") is None
    assert (store.hits, store.misses) == (0, 2)


def test_store_key_folds_code_and_workload_fingerprints(tmp_path, monkeypatch):
    """Editing the simulator or the workload re-captures: either
    fingerprint changes the key, and a trace stored for one workload is
    a miss for another."""
    import repro.fleet.cache as cache_module

    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "code")
    key = store_module.demand_trace_key("workload")
    assert store_module.demand_trace_key("workload") == key
    assert store_module.demand_trace_key("other") != key
    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "edited")
    assert store_module.demand_trace_key("workload") != key

    store = store_module.DemandTraceStore(tmp_path)
    trace = make_trace()
    store.store("workload", trace)
    assert store.load("other") is None
    assert store.load("workload").content_hash() == trace.content_hash()
    assert (store.hits, store.misses) == (1, 1)


def _schema_2_payload() -> dict:
    """The trace as schema 2 wrote it: frame size and base64-encoded
    zlib framebuffers instead of a state count."""
    payload = make_trace().to_json_dict()
    del payload["state_count"]
    payload.update(
        schema=2, width=2, height=2,
        states=[base64.b64encode(zlib.compress(bytes(4))).decode("ascii")],
    )
    return payload


def test_schema_2_trace_is_a_store_miss_and_invalid_input(
    tmp_path, monkeypatch, capsys
):
    """A trace that still carries framebuffers is never served: under
    the current key it fails to load (a plain store miss), and ``demand
    -i`` rejects it with one line and exit 1."""
    import repro.fleet.cache as cache_module
    from repro.harness.cli import main

    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "code")
    text = json.dumps(_schema_2_payload())
    with pytest.raises(DemandTraceError, match="schema 2 != supported 3"):
        DemandTrace.loads(text)

    store = store_module.DemandTraceStore(tmp_path / "demand")
    store.root.mkdir(parents=True)
    store.path_for(store_module.demand_trace_key("workload")).write_text(
        text, encoding="utf-8"
    )
    assert store.load("workload") is None
    assert (store.hits, store.misses) == (0, 1)

    path = tmp_path / "schema2.json"
    path.write_text(text, encoding="utf-8")
    assert main(["demand", "03", "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    invalid = [
        line for line in captured.err.splitlines()
        if "demand trace invalid:" in line
    ]
    assert invalid == [
        "repro-qoe: demand trace invalid: demand trace schema 2 != "
        "supported 3"
    ]


def test_trace_json_carries_no_framebuffers():
    payload = make_trace().to_json_dict()
    assert payload["state_count"] == 1
    assert not {"states", "width", "height"} & payload.keys()
