"""Annotation: building the database from one reference execution.

The paper's annotation step is semi-automatic: the suggester proposes
candidate ending frames and a human picks the right one (a couple of
seconds per lag).  In this reproduction the :class:`AutoAnnotator` stands
in for that human: it knows from the device's ground-truth journal when
each interaction semantically completed, and picks the suggester candidate
showing that completion.  Crucially it only *selects among the
suggester's candidates* — the pipeline shape is the paper's, with the one
human click automated.  The candidates are streamed from the lag's begin
frame and the pick stops at the first one at or after the completion, so
annotating a session costs time linear in its length.  A manual path (:meth:`AutoAnnotator.pick`) exists
for tests and custom workloads.
"""

from __future__ import annotations

from repro.core.errors import AnnotationError
from repro.analysis.annotation import AnnotationDatabase, GestureInfo, LagAnnotation
from repro.analysis.diff import build_mask, frames_equal
from repro.analysis.suggester import SuggesterConfig, Suggestion, iter_suggestions
from repro.capture.video import Video
from repro.device.display import VSYNC_PERIOD_US
from repro.metrics.hci import SHNEIDERMAN_MODEL, HciModel
from repro.uifw.journal import GroundTruthJournal, InteractionRecord


class AutoAnnotator:
    """Builds an :class:`AnnotationDatabase` from an annotation run."""

    def __init__(
        self,
        workload_name: str,
        hci_model: HciModel = SHNEIDERMAN_MODEL,
        threshold_overrides: dict[str, int] | None = None,
        default_tolerance_px: int = 0,
    ) -> None:
        self.workload_name = workload_name
        self.hci_model = hci_model
        self.threshold_overrides = dict(threshold_overrides or {})
        self.default_tolerance_px = default_tolerance_px

    def annotate(self, video: Video, journal: GroundTruthJournal) -> AnnotationDatabase:
        """Annotate every completed interaction of the reference run."""
        db = AnnotationDatabase(
            self.workload_name, video.width, video.height
        )
        for gesture in journal.gestures:
            db.add_gesture(
                GestureInfo(gesture.index, gesture.kind, gesture.down_time)
            )
        for record in journal.interactions:
            if not record.complete:
                raise AnnotationError(
                    f"interaction {record.label!r} never completed in the "
                    "annotation run; extend the run or fix the workload"
                )
            db.add(self._annotate_one(video, record))
        return db

    def _annotate_one(
        self, video: Video, record: InteractionRecord
    ) -> LagAnnotation:
        begin_frame = record.begin_time // VSYNC_PERIOD_US
        config = SuggesterConfig(
            mask_rects=tuple(record.mask_rects),
            tolerance_px=self.default_tolerance_px,
            min_still_frames=1,
        )
        chosen = self._pick_candidate(video, begin_frame, record, config)
        image = video.frame_at(chosen.frame_index).copy()
        occurrence = self._count_occurrences(
            video, begin_frame, chosen.frame_index, image, config
        )
        return LagAnnotation(
            gesture_index=record.gesture_index,
            label=record.label,
            category=record.category,
            begin_time_us=record.begin_time,
            image=image,
            mask_rects=list(record.mask_rects),
            tolerance_px=self.default_tolerance_px,
            occurrence=occurrence,
            threshold_us=self._threshold_for(record),
        )

    # --- the "human" decisions --------------------------------------------------------

    def _pick_candidate(
        self,
        video: Video,
        begin_frame: int,
        record: InteractionRecord,
        config: SuggesterConfig,
    ) -> Suggestion:
        """Pick the candidate showing the semantic completion.

        The completion renders on the first vsync after ``end_time``, so
        the right candidate is the earliest one at or past that frame.
        Suggestions stream in frame order, so the walk stops at the first
        such candidate and never reads the video beyond the lag.
        """
        assert record.end_time is not None
        completion_frame = record.end_time // VSYNC_PERIOD_US + 1
        seen_any = False
        for candidate in iter_suggestions(
            video, begin_frame, video.end_frame, config
        ):
            if candidate.frame_index >= completion_frame:
                return candidate
            seen_any = True
        if not seen_any:
            raise AnnotationError(
                f"suggester found no candidates for {record.label!r}"
            )
        raise AnnotationError(
            f"no suggester candidate at or after the completion of "
            f"{record.label!r} (frame {completion_frame}); the "
            "interaction produced no visual change when it finished"
        )

    def _count_occurrences(
        self,
        video: Video,
        begin_frame: int,
        chosen_frame: int,
        image,
        config: SuggesterConfig,
    ) -> int:
        """How many match-runs precede (and include) the chosen ending.

        This is what a careful user does when "the suggested lag ending
        looks like the beginning": they tell the matcher to take the n-th
        occurrence of the image.
        """
        mask = build_mask(image.shape, list(config.mask_rects))
        occurrences = 0
        in_match = False
        for segment in video.segments_between(begin_frame, chosen_frame + 1):
            matches = frames_equal(
                segment.content, image, mask, config.tolerance_px
            )
            if matches and not in_match:
                occurrences += 1
            in_match = matches
        if occurrences == 0:
            raise AnnotationError(
                "chosen ending frame does not match its own image; "
                "mask or tolerance is inconsistent"
            )
        return occurrences

    def _threshold_for(self, record: InteractionRecord) -> int:
        if record.label in self.threshold_overrides:
            return self.threshold_overrides[record.label]
        return self.hci_model.threshold_us(record.category)

    # --- manual annotation path ------------------------------------------------------------

    def pick(
        self,
        video: Video,
        journal: GroundTruthJournal,
        gesture_index: int,
        frame_index: int,
        mask_rects=(),
        tolerance_px: int | None = None,
        occurrence: int | None = None,
        threshold_us: int | None = None,
    ) -> LagAnnotation:
        """Manually annotate one lag by choosing an explicit ending frame.

        Mirrors the GUI path where the user overrides the automation; used
        by tests and available for custom workloads.
        """
        record = None
        for candidate in journal.interactions:
            if candidate.gesture_index == gesture_index:
                record = candidate
                break
        if record is None:
            raise AnnotationError(f"gesture {gesture_index} has no interaction")
        tolerance = (
            self.default_tolerance_px if tolerance_px is None else tolerance_px
        )
        image = video.frame_at(frame_index).copy()
        begin_frame = record.begin_time // VSYNC_PERIOD_US
        config = SuggesterConfig(
            mask_rects=tuple(mask_rects), tolerance_px=tolerance
        )
        found_occurrence = (
            occurrence
            if occurrence is not None
            else self._count_occurrences(
                video, begin_frame, frame_index, image, config
            )
        )
        return LagAnnotation(
            gesture_index=gesture_index,
            label=record.label,
            category=record.category,
            begin_time_us=record.begin_time,
            image=image,
            mask_rects=list(mask_rects),
            tolerance_px=tolerance,
            occurrence=found_occurrence,
            threshold_us=(
                threshold_us
                if threshold_us is not None
                else self._threshold_for(record)
            ),
        )
