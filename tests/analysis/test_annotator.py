"""Tests for the AutoAnnotator against real recorded sessions."""

import numpy as np
import pytest

import repro.analysis.annotator as annotator_module
import repro.analysis.suggester as suggester_module
from repro.core.errors import AnnotationError
from repro.core.simtime import millis
from repro.analysis.annotator import AutoAnnotator
from repro.analysis.diff import frames_equal
from repro.capture.video import Video
from repro.device.display import VSYNC_PERIOD_US
from repro.harness import experiment
from repro.harness.experiment import record_workload
from repro.metrics.hci import SHNEIDERMAN_MODEL
from repro.scenarios.personas import persona_names
from repro.uifw.journal import GroundTruthJournal
from repro.workloads import dataset
from tests.analysis.test_suggester import reference_suggest


def test_annotates_every_completed_interaction(gallery_session, gallery_database):
    _dev, wm, _trace, _video = gallery_session
    completed = [r for r in wm.journal.interactions if r.complete]
    assert gallery_database.lag_count == len(completed) == 3


def test_spurious_gesture_not_annotated(gallery_database):
    assert gallery_database.spurious_count == 1


def test_thresholds_follow_hci_model(gallery_database):
    for annotation in gallery_database.annotations:
        expected = SHNEIDERMAN_MODEL.threshold_us(annotation.category)
        assert annotation.threshold_us == expected


def test_threshold_overrides(gallery_session):
    _dev, wm, _trace, video = gallery_session
    annotator = AutoAnnotator(
        "w", threshold_overrides={"launcher:launch:gallery": millis(500)}
    )
    db = annotator.annotate(video, wm.journal)
    launch = [a for a in db.annotations if a.label == "launcher:launch:gallery"]
    assert launch[0].threshold_us == millis(500)


def test_chosen_frame_shows_completion(gallery_session, gallery_database):
    _dev, wm, _trace, video = gallery_session
    for annotation in gallery_database.annotations:
        record = next(
            r
            for r in wm.journal.interactions
            if r.gesture_index == annotation.gesture_index
        )
        completion_frame = record.end_time // VSYNC_PERIOD_US + 1
        # The annotation image is the screen at/after semantic completion.
        end_frame_indices = [
            idx
            for idx, _c in video.iter_frames(completion_frame, completion_frame + 1)
        ]
        assert end_frame_indices  # completion lies inside the video


def test_masks_include_the_status_bar_clock(gallery_database):
    for annotation in gallery_database.annotations:
        assert annotation.mask_rects, annotation.label
        assert any(rect.y < 8 for rect in annotation.mask_rects)


def test_begin_times_match_gesture_downs(gallery_session, gallery_database):
    _dev, wm, _trace, _video = gallery_session
    for annotation in gallery_database.annotations:
        gesture = wm.journal.gestures[annotation.gesture_index]
        assert annotation.begin_time_us == gesture.down_time


def test_incomplete_interaction_rejected(gallery_session):
    _dev, wm, _trace, video = gallery_session
    # Forge an incomplete record.
    import copy

    journal = copy.deepcopy(wm.journal)
    journal.interactions[0].end_time = None
    with pytest.raises(AnnotationError):
        AutoAnnotator("w").annotate(video, journal)


def test_manual_pick_path(gallery_session, gallery_database):
    _dev, wm, _trace, video = gallery_session
    auto = gallery_database.annotations[0]
    manual = AutoAnnotator("w").pick(
        video,
        wm.journal,
        gesture_index=auto.gesture_index,
        frame_index=auto.begin_time_us // VSYNC_PERIOD_US + 40,
        mask_rects=auto.mask_rects,
    )
    assert manual.gesture_index == auto.gesture_index
    assert manual.occurrence >= 1


def test_manual_pick_unknown_gesture_rejected(gallery_session):
    _dev, wm, _trace, video = gallery_session
    with pytest.raises(AnnotationError):
        AutoAnnotator("w").pick(video, wm.journal, gesture_index=99, frame_index=1)


# --- equivalence with the full-window pick ----------------------------------------


class ReferenceAnnotator(AutoAnnotator):
    """Suggests over the whole rest of the video, then takes the earliest
    candidate at or after the completion frame."""

    def _pick_candidate(self, video, begin_frame, record, config):
        candidates = reference_suggest(video, begin_frame, video.end_frame, config)
        if not candidates:
            raise AnnotationError(
                f"suggester found no candidates for {record.label!r}"
            )
        completion_frame = record.end_time // VSYNC_PERIOD_US + 1
        at_or_after = [c for c in candidates if c.frame_index >= completion_frame]
        if not at_or_after:
            raise AnnotationError("no suggester candidate at or after the completion")
        return min(at_or_after, key=lambda c: c.frame_index)


def _rows(db):
    """Every field of a database, image bytes included."""
    return (
        db.workload_name,
        db.screen_width,
        db.screen_height,
        db.gestures,
        [
            (
                a.gesture_index,
                a.label,
                a.category,
                a.begin_time_us,
                a.mask_rects,
                a.tolerance_px,
                a.occurrence,
                a.threshold_us,
                a.image.dtype.str,
                a.image.shape,
                a.image.tobytes(),
            )
            for a in db.annotations
        ],
    )


def _record_with_inputs(monkeypatch, spec):
    """Record ``spec``; also return the video and journal it annotated."""
    seen = {}

    class Capturing(AutoAnnotator):
        def annotate(self, video, journal):
            seen["inputs"] = (video, journal)
            return super().annotate(video, journal)

    monkeypatch.setattr(experiment, "AutoAnnotator", Capturing)
    artifacts = record_workload(spec)
    return artifacts, *seen["inputs"]


@pytest.mark.parametrize(
    "name",
    ["02"] + [f"persona={who},seed=3,duration=2m" for who in persona_names()],
)
def test_streamed_pick_equals_full_window_reference(monkeypatch, name):
    spec = dataset(name)
    artifacts, video, journal = _record_with_inputs(monkeypatch, spec)
    reference = ReferenceAnnotator(spec.name).annotate(video, journal)
    assert artifacts.database.lag_count > 0
    assert _rows(artifacts.database) == _rows(reference)


def _frames_equal_calls_per_lag(monkeypatch, duration):
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return frames_equal(*args)

    monkeypatch.setattr(suggester_module, "frames_equal", counting)
    monkeypatch.setattr(annotator_module, "frames_equal", counting)
    spec = dataset(f"persona=burst-commuter,seed=2014,duration={duration}")
    artifacts = record_workload(spec)
    return calls[0] / artifacts.database.lag_count


def test_annotation_work_per_lag_does_not_grow_with_session(monkeypatch):
    """Comparing frames to the end of the video for every lag made the
    per-lag work grow with the session (57 -> 137 calls from 15 to 30
    minutes); stopping at the completion keeps it flat (~5)."""
    short = _frames_equal_calls_per_lag(monkeypatch, "15m")
    long = _frames_equal_calls_per_lag(monkeypatch, "30m")
    assert long <= 1.5 * short


# --- error paths on tiny synthetic videos ----------------------------------------


def _tiny_case(values, end_frame_of_completion):
    """A one-lag video (one frame per value) and a journal whose only
    interaction begins at frame 0 and completes during the given frame."""
    video = Video(8, 8)
    for index, value in enumerate(values):
        video.record_frame(index, np.full((8, 8), value, dtype=np.uint8))
    video.finalize(len(values))
    journal = GroundTruthJournal()
    journal.note_gesture("tap", 0)
    token = journal.open_interaction("tiny:lag", "common", 0)
    journal.gesture_dispatched(True)
    token.complete(end_frame_of_completion * VSYNC_PERIOD_US)
    return video, journal


def test_no_candidate_at_all_rejected():
    video, journal = _tiny_case([1, 1, 1, 1], 1)
    with pytest.raises(AnnotationError, match="suggester found no candidates"):
        AutoAnnotator("w").annotate(video, journal)


def test_no_candidate_after_completion_rejected():
    # The only still period starts at frame 1; completion renders at 4.
    video, journal = _tiny_case([1, 2, 2, 2, 2, 2], 3)
    with pytest.raises(
        AnnotationError, match="no suggester candidate at or after the completion"
    ):
        AutoAnnotator("w").annotate(video, journal)


def test_pick_skips_candidates_before_completion():
    video, journal = _tiny_case([1, 2, 2, 3, 3, 4, 4], 2)
    db = AutoAnnotator("w").annotate(video, journal)
    assert db.annotations[0].image[0, 0] == 3
