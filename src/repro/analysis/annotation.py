"""The annotation database (paper Fig. 4, part A).

Annotating a workload "means selecting an image for each interaction lag
that shows how the mobile screen looks when the user feels that the system
has serviced his input.  This needs to be done only once, after which the
workload will be reusable time and again."  Each annotation carries the
extra information of §II-E: an image mask, the occurrence index (for lags
whose ending looks like their beginning) and the irritation threshold.
"""

from __future__ import annotations

from bisect import insort_right
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.core.errors import AnnotationError
from repro.core.geometry import Rect


@dataclass(frozen=True, slots=True)
class GestureInfo:
    """Metadata for one recorded gesture (input timings for the matcher)."""

    index: int
    kind: str  # "tap" | "swipe"
    down_time_us: int


@dataclass(slots=True)
class LagAnnotation:
    """Expected ending of one interaction lag."""

    gesture_index: int
    label: str
    category: str
    begin_time_us: int
    image: np.ndarray
    mask_rects: list[Rect] = field(default_factory=list)
    tolerance_px: int = 0
    occurrence: int = 1
    threshold_us: int = 0

    def __post_init__(self) -> None:
        if self.occurrence < 1:
            raise AnnotationError("occurrence must be >= 1")
        if self.image.ndim != 2:
            raise AnnotationError("annotation image must be 2-D grayscale")


class AnnotationDatabase:
    """All annotations of one workload, plus gesture timing metadata."""

    def __init__(
        self,
        workload_name: str,
        screen_width: int,
        screen_height: int,
    ) -> None:
        self.workload_name = workload_name
        self.screen_width = screen_width
        self.screen_height = screen_height
        self.gestures: list[GestureInfo] = []
        self.annotations: list[LagAnnotation] = []
        self._annotated: set[int] = set()

    def add_gesture(self, info: GestureInfo) -> None:
        self.gestures.append(info)

    def add(self, annotation: LagAnnotation) -> None:
        if annotation.image.shape != (self.screen_height, self.screen_width):
            raise AnnotationError(
                "annotation image shape does not match the workload screen"
            )
        if annotation.gesture_index in self._annotated:
            raise AnnotationError(
                f"gesture {annotation.gesture_index} already annotated"
            )
        self._annotated.add(annotation.gesture_index)
        # insort_right keeps equal begin times in insertion order, exactly
        # as a stable re-sort after each append would.
        insort_right(self.annotations, annotation, key=attrgetter("begin_time_us"))

    @property
    def lag_count(self) -> int:
        return len(self.annotations)

    @property
    def spurious_count(self) -> int:
        return sum(1 for g in self.gestures if g.index not in self._annotated)
