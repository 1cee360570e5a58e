"""The suggester algorithm (paper §II-D, Fig. 7).

Successive frames are mapped to a change string: "a zero [is assigned] to
a frame that is equal to its predecessor and a one to a frame that is
different.  The algorithm then suggests each one preceding a zero" — the
first frame of every still period.  The minimum still length, an allowed
pixel difference and image masks are configurable per lag, exactly the
knobs the paper's GUI exposes.

The window is walked lazily, one RLE segment at a time:
:func:`iter_suggestions` yields each candidate as soon as its still period
is closed, and :func:`suggest` is simply its list.  A caller that only
needs the first candidate past some frame (the annotator) stops there,
so its cost is the lag's length, not the rest of the session's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import AnnotationError
from repro.core.geometry import Rect
from repro.analysis.diff import build_mask, frames_equal
from repro.capture.video import Video


@dataclass(frozen=True, slots=True)
class SuggesterConfig:
    """Per-lag tuning of the suggester."""

    mask_rects: tuple[Rect, ...] = ()
    tolerance_px: int = 0
    min_still_frames: int = 1

    def __post_init__(self) -> None:
        if self.tolerance_px < 0:
            raise AnnotationError("tolerance must be >= 0")
        if self.min_still_frames < 1:
            raise AnnotationError("min_still_frames must be >= 1")


@dataclass(frozen=True, slots=True)
class Suggestion:
    """One candidate lag-ending frame."""

    frame_index: int
    still_frames: int  # zeros following the suggested one


def _boundary_runs(
    video: Video, start: int, end: int, config: SuggesterConfig
) -> Iterator[tuple[int, int]]:
    """Collapse the window into runs of effectively-equal frames.

    Yields ``(run_start_frame, run_length)`` pairs lazily: a run is
    yielded as soon as the next unequal segment closes it (the last one
    when the window ends), so a caller that stops early reads and compares
    only the segments up to that point.  Consecutive RLE segments whose
    contents are equal under the mask/tolerance merge into one run,
    preserving exact frame-by-frame semantics.
    """
    segments = video.segments_between(start, end)
    prev = next(segments, None)
    if prev is None:
        return
    mask = build_mask(prev.content.shape, list(config.mask_rects))
    run_start = prev.start
    run_len = prev.length
    for segment in segments:
        if frames_equal(prev.content, segment.content, mask, config.tolerance_px):
            run_len += segment.length
        else:
            yield run_start, run_len
            run_start = segment.start
            run_len = segment.length
        prev = segment
    yield run_start, run_len


def iter_suggestions(
    video: Video,
    start_frame: int,
    end_frame: int,
    config: SuggesterConfig | None = None,
) -> Iterator[Suggestion]:
    """Candidate lag endings in ``[start_frame, end_frame)``, in frame order.

    A frame is suggested when it differs from its predecessor (a "one")
    and is followed by at least ``min_still_frames`` unchanged frames
    ("zeros") — i.e. it starts a still period.  Each candidate is yielded
    once the segment ending its still period has been compared, so a
    consumer that stops at the first suitable candidate never scans the
    rest of the window.
    """
    config = config or SuggesterConfig()
    runs = _boundary_runs(video, start_frame, end_frame, config)
    # The window's first run is the pre-existing screen content, not a
    # change; the paper scans frames *after* the input.
    next(runs, None)
    for run_start, run_len in runs:
        zeros = run_len - 1
        if zeros >= config.min_still_frames:
            yield Suggestion(run_start, zeros)


def suggest(
    video: Video,
    start_frame: int,
    end_frame: int,
    config: SuggesterConfig | None = None,
) -> list[Suggestion]:
    """Every candidate lag ending in ``[start_frame, end_frame)``."""
    return list(iter_suggestions(video, start_frame, end_frame, config))


def change_string(
    video: Video,
    start_frame: int,
    end_frame: int,
    config: SuggesterConfig | None = None,
) -> str:
    """The suggester's inner 0/1 representation (Fig. 7's long box).

    Character ``i`` describes frame ``start_frame + 1 + i`` versus its
    predecessor.
    """
    config = config or SuggesterConfig()
    runs = _boundary_runs(video, start_frame, end_frame, config)
    bits: list[str] = []
    for index, (_, run_len) in enumerate(runs):
        if index == 0:
            bits.append("0" * (run_len - 1))
        else:
            bits.append("1" + "0" * (run_len - 1))
    return "".join(bits)


def reduction_factor(
    video: Video,
    start_frame: int,
    end_frame: int,
    config: SuggesterConfig | None = None,
) -> float:
    """How many fewer frames the user inspects thanks to the suggester.

    The paper reports ~20x for the Gallery launch and "much larger" for
    workloads with long still periods.
    """
    count = len(suggest(video, start_frame, end_frame, config))
    window = end_frame - start_frame
    if count == 0:
        return float(window)
    return window / count
