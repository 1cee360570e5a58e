"""The video container.

A capture is a 30 fps sequence of frames.  Because the screen is still for
long stretches (the paper's 24-hour workload especially), frames are
stored as run-length segments of identical content, while the API exposes
exact frame-by-frame semantics: ``frame_at(i)`` for any index, and
segment iteration for algorithms (the suggester, the annotator) that can
short-circuit over still periods.  A :class:`Video` is one more frame tap
on the capture's segment stream, the one that keeps every segment, for
the consumers that need random access to the whole capture.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

import numpy as np

from repro.core.errors import CaptureError

Frame = np.ndarray


def content_digest(frame: Frame) -> bytes:
    """A stable digest of a frame's pixels (for exact-equality checks)."""
    return hashlib.blake2b(frame.tobytes(), digest_size=16).digest()


@dataclass(slots=True)
class VideoSegment:
    """A run of consecutive identical frames ``[start, end)``.

    ``key`` is the run's equality key: the content digest on a pixel
    capture (which also keeps ``content``), or the interned state id on
    the demand evaluation pass (``content`` is None there).
    """

    start: int
    end: int
    content: Frame | None
    key: bytes | int

    @property
    def length(self) -> int:
        return self.end - self.start


class Video:
    """An RLE-compressed, frame-addressable screen capture.

    A frame tap: subscribe it to a capture (``card.add_tap(video)``) and
    it keeps every closed segment the
    :class:`~repro.capture.stream.SegmentStreamer` emits, so its segments
    are bit-identical to the ones every other tap sees.  Read it once the
    capture has stopped.
    """

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self._segments: list[VideoSegment] = []

    # --- FrameTap interface -----------------------------------------------------------

    def on_segment(self, segment: VideoSegment) -> None:
        self._segments.append(segment)

    def on_stop(self, end_frame: int) -> None:
        pass

    # --- read side ---------------------------------------------------------------------

    @property
    def start_frame(self) -> int:
        segments = self._segments
        if not segments:
            raise CaptureError("video is empty")
        return segments[0].start

    @property
    def end_frame(self) -> int:
        """One past the last frame index."""
        segments = self._segments
        if not segments:
            raise CaptureError("video is empty")
        return segments[-1].end

    @property
    def frame_count(self) -> int:
        return self.end_frame - self.start_frame

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def segments(self) -> list[VideoSegment]:
        return list(self._segments)

    def segments_between(self, start: int, end: int) -> Iterator[VideoSegment]:
        """Segments overlapping frame range ``[start, end)``, clipped.

        Seeks to the first overlapping segment by bisection, so the cost
        is the number of segments yielded, not the window's offset.
        """
        segments = self._segments
        first = bisect_right(segments, start, key=attrgetter("end"))
        for index in range(first, len(segments)):
            segment = segments[index]
            if segment.start >= end:
                break
            yield VideoSegment(
                max(segment.start, start),
                min(segment.end, end),
                segment.content,
                segment.key,
            )

    def frame_at(self, frame_index: int) -> Frame:
        """The content shown during frame ``frame_index``."""
        segment = self._segment_for(frame_index)
        return segment.content

    def _segment_for(self, frame_index: int) -> VideoSegment:
        segments = self._segments
        lo, hi = 0, len(segments) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            segment = segments[mid]
            if frame_index < segment.start:
                hi = mid - 1
            elif frame_index >= segment.end:
                lo = mid + 1
            else:
                return segment
        raise CaptureError(f"frame {frame_index} outside video range")
