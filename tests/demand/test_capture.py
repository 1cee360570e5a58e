"""Capture semantics: trace shape, match-table correctness, store."""

import zlib

import numpy as np
import pytest

from repro.analysis.diff import build_mask, frames_equal
from repro.demand import DemandProgram, DemandTraceStore, capture_demand
from repro.fleet.cache import ResultCache


@pytest.fixture(scope="module")
def trace_ds03(artifacts_ds03):
    return capture_demand(artifacts_ds03)


def test_capture_produces_a_valid_trace(artifacts_ds03, trace_ds03):
    trace_ds03.validate()
    assert trace_ds03.workload == artifacts_ds03.name
    assert trace_ds03.capture_config.startswith("fixed:")
    assert trace_ds03.input_events > 0
    assert trace_ds03.states
    assert trace_ds03.guards == {}  # scripted gestures wait for quiescence


def test_match_table_equals_brute_force_pixel_comparison(
    artifacts_ds03, trace_ds03
):
    database = artifacts_ds03.database
    assert trace_ds03.match_states is not None
    assert len(trace_ds03.match_states) == len(database.annotations)
    shape = (trace_ds03.height, trace_ds03.width)
    states = [
        np.frombuffer(zlib.decompress(blob), dtype=np.uint8).reshape(shape)
        for blob in trace_ds03.states
    ]
    blank = np.zeros(shape, dtype=np.uint8)
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


def test_program_precomputes_match_sets(trace_ds03):
    program = DemandProgram(trace_ds03)
    assert program.match_sets is not None
    assert len(program.match_sets) == len(trace_ds03.match_states)
    for lag_index, matched in enumerate(trace_ds03.match_states):
        assert program.match_sets[lag_index].issuperset(matched)


def test_store_roundtrip_counts_hits_and_misses(artifacts_ds03, trace_ds03, tmp_path):
    store = DemandTraceStore.for_cache(ResultCache(tmp_path))
    assert store.load(artifacts_ds03) is None
    assert store.misses == 1
    store.store(artifacts_ds03, trace_ds03)
    loaded = store.load(artifacts_ds03)
    assert store.hits == 1
    assert loaded.content_hash() == trace_ds03.content_hash()


def test_store_absent_without_a_result_cache():
    assert DemandTraceStore.for_cache(None) is None
