"""The video container.

A capture is a 30 fps sequence of frames.  Because the screen is still for
long stretches (the paper's 24-hour workload especially), frames are
stored as run-length segments of identical content, while the API exposes
exact frame-by-frame semantics: ``frame_at(i)`` for any index, and
segment iteration for algorithms (suggester, matcher) that can
short-circuit over still periods.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

import numpy as np

from repro.core.errors import CaptureError
from repro.device.display import VSYNC_PERIOD_US

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


class _CollectTap:
    """Streamer tap that accumulates closed segments into a list."""

    __slots__ = ("_segments",)

    def __init__(self, segments: list[VideoSegment]) -> None:
        self._segments = segments

    def on_segment(self, segment: VideoSegment) -> None:
        self._segments.append(segment)

    def on_stop(self, end_frame: int) -> None:
        pass


class Video:
    """An RLE-compressed, frame-addressable screen capture.

    Recording runs through the same :class:`~repro.capture.stream.
    SegmentStreamer` state machine the streaming pipeline uses, so the
    segments a materialised video exposes are bit-identical to the ones
    streamed to frame taps.
    """

    def __init__(self, width: int, height: int, fps_period_us: int = VSYNC_PERIOD_US):
        from repro.capture.stream import SegmentStreamer

        self.width = width
        self.height = height
        self.fps_period_us = fps_period_us
        self._segments: list[VideoSegment] = []
        self._streamer = SegmentStreamer(width, height)
        self._streamer.add_tap(_CollectTap(self._segments))

    # --- recording side -------------------------------------------------------------

    def record_frame(self, frame_index: int, content: Frame) -> None:
        """Record the display content as of ``frame_index``.

        Gaps since the previous recorded frame are filled with the
        previous content (the capture card samples a static signal).
        Re-recording the current index replaces its content (two
        compositions inside one vsync interval).
        """
        self._streamer.record_frame(frame_index, content)

    def finalize(self, end_frame_index: int) -> None:
        """Extend the last still period to the capture stop point."""
        self._streamer.finalize(end_frame_index)

    @property
    def _finalized(self) -> bool:
        return self._streamer.finalized

    def _all_segments(self) -> list[VideoSegment]:
        """Closed plus still-pending segments (pending empty once final)."""
        if self._streamer.finalized:
            return self._segments
        return self._segments + self._streamer.pending_segments()

    # --- read side ---------------------------------------------------------------------

    @property
    def start_frame(self) -> int:
        segments = self._all_segments()
        if not segments:
            raise CaptureError("video is empty")
        return segments[0].start

    @property
    def end_frame(self) -> int:
        """One past the last frame index."""
        segments = self._all_segments()
        if not segments:
            raise CaptureError("video is empty")
        return segments[-1].end

    @property
    def frame_count(self) -> int:
        return self.end_frame - self.start_frame

    @property
    def segment_count(self) -> int:
        return len(self._all_segments())

    def segments(self) -> list[VideoSegment]:
        return list(self._all_segments())

    def segments_between(self, start: int, end: int) -> Iterator[VideoSegment]:
        """Segments overlapping frame range ``[start, end)``, clipped.

        Seeks to the first overlapping segment by bisection, so the cost
        is the number of segments yielded, not the window's offset.
        """
        segments = self._all_segments()
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
        segments = self._all_segments()
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
