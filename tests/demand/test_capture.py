"""Capture semantics: trace shape, match-table correctness, store."""

import numpy as np
import pytest

from repro.analysis.diff import build_mask, frames_equal
from repro.demand import (
    DemandProgram,
    DemandRecorder,
    DemandTraceStore,
    capture_demand,
)
from repro.demand.trace import KIND_INVALIDATE
from repro.fleet.cache import ResultCache, workload_fingerprint


@pytest.fixture(scope="module")
def captured_ds03(artifacts_ds03):
    """The ds03 trace, plus the framebuffers the recorder interned (the
    trace keeps only their match verdicts), in state-id order."""
    frames = []
    real_match_table = DemandRecorder.match_table

    def match_table(recorder, database):
        display = recorder._device.display
        shape = (display.height, display.width)
        interned = sorted(recorder._state_ids.items(), key=lambda kv: kv[1])
        frames.extend(
            np.frombuffer(raw, dtype=np.uint8).reshape(shape)
            for raw, _state_id in interned
        )
        return real_match_table(recorder, database)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DemandRecorder, "match_table", match_table)
        trace = capture_demand(artifacts_ds03)
    return trace, frames


@pytest.fixture(scope="module")
def trace_ds03(captured_ds03):
    return captured_ds03[0]


def test_capture_produces_a_valid_trace(artifacts_ds03, trace_ds03):
    trace_ds03.validate()
    assert trace_ds03.workload == artifacts_ds03.name
    assert trace_ds03.capture_config.startswith("fixed:")
    assert trace_ds03.input_events > 0
    assert trace_ds03.state_count > 0
    assert trace_ds03.guards == {}  # scripted gestures wait for quiescence


def test_match_table_equals_brute_force_pixel_comparison(
    artifacts_ds03, captured_ds03
):
    trace_ds03, states = captured_ds03
    database = artifacts_ds03.database
    assert trace_ds03.match_states is not None
    assert len(trace_ds03.match_states) == len(database.annotations)
    assert len(states) == trace_ds03.state_count
    blank = np.zeros(states[0].shape, dtype=np.uint8)
    for lag_index, annotation in enumerate(database.annotations):
        mask = build_mask(annotation.image.shape, annotation.mask_rects)
        expected = tuple(
            state_id
            for state_id, frame in enumerate(states)
            if frames_equal(frame, annotation.image, mask,
                            annotation.tolerance_px)
        )
        assert trace_ds03.match_states[lag_index] == expected, lag_index
        blank_matches = frames_equal(
            blank, annotation.image, mask, annotation.tolerance_px
        )
        assert (lag_index in trace_ds03.blank_matches) == blank_matches


def test_states_are_interned_in_first_invalidate_order(trace_ds03):
    """Each distinct composed frame takes the next id at its first
    invalidate; a repaint of a frame already seen reuses its id."""
    ids = [
        node.state_id for node in trace_ds03.nodes
        if node.kind == KIND_INVALIDATE
    ]
    assert list(dict.fromkeys(ids)) == list(range(trace_ds03.state_count))
    assert len(ids) > trace_ds03.state_count


def test_program_precomputes_match_sets(trace_ds03):
    program = DemandProgram(trace_ds03)
    assert program.match_sets is not None
    assert len(program.match_sets) == len(trace_ds03.match_states)
    for lag_index, matched in enumerate(trace_ds03.match_states):
        assert program.match_sets[lag_index].issuperset(matched)


def test_store_roundtrip_counts_hits_and_misses(artifacts_ds03, trace_ds03, tmp_path):
    store = DemandTraceStore.for_cache(ResultCache(tmp_path))
    fingerprint = workload_fingerprint(artifacts_ds03)
    assert store.load(fingerprint) is None
    assert store.misses == 1
    store.store(fingerprint, trace_ds03)
    loaded = store.load(fingerprint)
    assert store.hits == 1
    assert loaded.content_hash() == trace_ds03.content_hash()


def test_store_absent_without_a_result_cache():
    assert DemandTraceStore.for_cache(None) is None
