"""Unit tests for the ground-truth journal."""

import pytest

from repro.core.errors import SimulationError
from repro.uifw.journal import GroundTruthJournal


@pytest.fixture
def journal():
    return GroundTruthJournal()


def dispatch_gesture(journal, kind="tap", down=1000):
    note = journal.note_gesture(kind, down)
    return note


def test_gesture_indices_increment(journal):
    a = dispatch_gesture(journal)
    journal.gesture_dispatched(True)
    b = dispatch_gesture(journal)
    assert (a.index, b.index) == (0, 1)


def test_interaction_begin_is_gesture_down_time(journal):
    dispatch_gesture(journal, down=5000)
    token = journal.open_interaction("x", "common", journal.current_down_time())
    assert journal.interactions[-1].begin_time == 5000


def test_open_outside_dispatch_rejected(journal):
    with pytest.raises(SimulationError):
        journal.open_interaction("x", "common", 0)


def test_one_interaction_per_gesture(journal):
    dispatch_gesture(journal)
    journal.open_interaction("x", "common", 0)
    with pytest.raises(SimulationError):
        journal.open_interaction("y", "common", 0)


def test_only_the_latest_gesture_can_collide(journal):
    dispatch_gesture(journal)
    journal.open_interaction("x", "common", 0)
    journal.gesture_dispatched(True)
    dispatch_gesture(journal)
    journal.open_interaction("y", "common", 0)
    with pytest.raises(SimulationError, match="gesture 1 already has"):
        journal.open_interaction("z", "common", 0)


def test_open_interactions_counts_incomplete_records(journal):
    tokens = []
    for index in range(3):
        dispatch_gesture(journal, down=index)
        tokens.append(journal.open_interaction(f"x{index}", "common", index))
        journal.gesture_dispatched(True)
    assert journal.open_interactions == 3
    tokens[1].complete(10)
    assert journal.open_interactions == 2
    with pytest.raises(SimulationError):
        tokens[1].complete(11)
    assert journal.open_interactions == 2
    tokens[0].complete(12)
    tokens[2].complete(13)
    assert journal.open_interactions == 0


def test_complete_records_end_time(journal):
    dispatch_gesture(journal)
    token = journal.open_interaction("x", "common", 1000)
    token.complete(9000)
    assert journal.interactions[-1].end_time == 9000
    assert journal.interactions[-1].duration_us == 8000


def test_double_complete_rejected(journal):
    dispatch_gesture(journal)
    token = journal.open_interaction("x", "common", 1000)
    token.complete(2000)
    with pytest.raises(SimulationError):
        token.complete(3000)


def test_spurious_gesture_tracking(journal):
    dispatch_gesture(journal)
    journal.open_interaction("x", "common", 0)
    journal.gesture_dispatched(True)
    dispatch_gesture(journal)  # no interaction
    journal.gesture_dispatched(False)
    # Gesture 1 triggered no interaction: the paper's spurious lag.
    assert len(journal.gestures) == 2
    assert [r.gesture_index for r in journal.interactions] == [0]


def test_mask_provider_snapshot_at_completion(journal):
    regions = ["rect-a"]
    journal.mask_provider = lambda: regions
    dispatch_gesture(journal)
    token = journal.open_interaction("x", "common", 0)
    regions.append("rect-b")
    token.complete(100)
    assert journal.interactions[-1].mask_rects == ["rect-a", "rect-b"]


def test_completion_listener_fires(journal):
    completed = []
    journal.completion_listener = completed.append
    dispatch_gesture(journal)
    token = journal.open_interaction("x", "common", 0)
    token.complete(100)
    assert completed == journal.interactions


def test_incomplete_duration_raises(journal):
    dispatch_gesture(journal)
    journal.open_interaction("x", "common", 0)
    with pytest.raises(SimulationError):
        _ = journal.interactions[-1].duration_us
