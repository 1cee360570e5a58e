"""DemandTrace schema: roundtrip, content addressing, contract checks."""

import json
import zlib

import pytest

from repro.demand import DemandNode, DemandTrace, DemandTraceError
from repro.demand import store as store_module
from repro.demand.trace import (
    KIND_CHAIN_START,
    KIND_CHAIN_STOP,
    KIND_INVALIDATE,
    KIND_TASK,
    KIND_TIMER,
)


def make_trace(**overrides) -> DemandTrace:
    """A small but kind-complete valid trace (2x2 frames, one input)."""
    fields = dict(
        workload="unit",
        capture_config="fixed:300000",
        duration_us=1_000_000,
        width=2,
        height=2,
        input_events=2,
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
        states=[zlib.compress(bytes(4))],
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
        ({"duration_us": 0}, "positive dimensions and duration"),
        ({"states": [b"not zlib"]}, "not valid zlib"),
        ({"states": [zlib.compress(bytes(3))]}, "decompresses to 3 bytes"),
        ({"match_states": [(5,)]}, "references state 5"),
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
