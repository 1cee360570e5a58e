"""Pixel-free lag matching for the demand evaluation pass.

The evaluation pass only ever composes framebuffer states interned at
capture time, so the expensive half of lag detection — comparing frame
pixels against annotation endings — collapses to a set probe against the
trace's precomputed match table.  What remains timing-dependent is the
*segmentation* of the frame stream, and that depends only on frame
indices and run equality: the pass feeds ``(frame_index, state_id)``
pairs through the capture's own :class:`~repro.capture.stream.
SegmentStreamer`, keyed by state id instead of content digest
(interned states are deduplicated by raw bytes, so distinct ids are
distinct pixels).

:class:`TableMatcher` subclasses :class:`~repro.analysis.online.
OnlineMatcher`, overriding only the comparison strategy — window
activation order, occurrence counting, and the profile/error contract
are shared code, so the two paths cannot drift.  It reads each
segment's state id off its ``key``.

One boundary asymmetry is harmless by construction: a state that is
pixel-equal to the blank power-on frame would be *merged* with it by a
digest-keyed stream but kept as a separate run here.  Refining a run of
pixel-equal content into adjacent segments cannot change any match
verdict (verdicts are functions of content), cannot change a rising
edge (the follow-up segment sees ``in_match`` already set), and cannot
move a measurement's end frame (the edge fires on the refined run's
first segment, which shares the merged run's start).
"""

from __future__ import annotations

from repro.analysis.annotation import AnnotationDatabase
from repro.analysis.online import OnlineMatcher, _ScanState

#: State id of the blank power-on framebuffer (never interned).
BLANK_STATE = -1


class TableMatcher(OnlineMatcher):
    """The online matcher with comparison replaced by a verdict table.

    ``match_sets`` holds, per annotation in database order, the set of
    state ids (plus possibly :data:`BLANK_STATE`) whose pixels match that
    annotation's ending image — built once per trace by
    :class:`~repro.demand.replayer.DemandProgram`.
    """

    def __init__(
        self,
        database: AnnotationDatabase,
        match_sets: list[frozenset[int]],
    ) -> None:
        super().__init__(database)
        self._matched = match_sets

    def _activate(self, scan: _ScanState) -> None:
        """No pixel mask needed — verdicts were computed under it."""

    def _matches(self, scan: _ScanState, segment) -> bool:
        return segment.key in self._matched[scan.lag_index]
