"""Streaming frame segments: the capture card's tap bus.

The batch pipeline materialises a whole :class:`~repro.capture.video.Video`
and analyses it post-hoc, which costs O(session) memory — the wall the
day-long and persona workloads hit first.  This module is the streaming
alternative: a :class:`SegmentStreamer` runs the exact RLE state machine
the video container uses, but *emits* each run of identical frames to
subscribed :class:`FrameTap` objects as soon as the run can no longer
change, then forgets it.  Consumers that can reduce online (the matcher,
digest accumulators) therefore hold O(active-window) state instead of the
whole capture.

A segment is emitted once two newer runs exist behind it: the recording
semantics (same-vsync recomposition may replace the last run or merge it
back into its predecessor) can only ever mutate the last two runs, so
holding exactly two pending runs makes emitted segments immutable.  The
``Video`` container records through this same state machine, which is what
makes streamed segments bit-identical to ``video.segments()``.

The state machine compares runs by an opaque key, so it is the only
copy of the RLE rules: a full replay streams the display through the
capture card keyed by content digest (see
:func:`repro.harness.experiment.stream_lags`), and the demand evaluation
pass streams interned state ids through it without any pixels (see
:mod:`repro.demand.tablematch`).  The batch ``Video`` remains for
recording and annotation, which need random access to the whole capture.
"""

from __future__ import annotations

import hashlib

from repro.capture.video import Frame, VideoSegment, content_digest
from repro.core.errors import CaptureError
from repro.obs.session import active as _obs_active


class FrameTap:
    """A subscriber to the capture card's segment stream.

    Taps receive every closed segment, in frame order, exactly once —
    live on a streaming capture, or replayed from the finished video at
    ``stop()`` on a batch capture, so a tap observes the same sequence
    either way.  Subclasses override what they need; both
    methods are no-ops by default.
    """

    def on_segment(self, segment: VideoSegment) -> None:
        """One closed run of identical frames ``[start, end)``."""

    def on_stop(self, end_frame: int) -> None:
        """The capture stopped; ``end_frame`` is one past the last frame."""


class FrameDigestTap(FrameTap):
    """Accumulates the frame-journal digest without holding any frames.

    Digest of the ``(start, end, content-digest)`` triple of every
    segment — the quantity the golden-equivalence tests pin, computed in
    O(1) memory instead of over a materialised video.
    """

    def __init__(self) -> None:
        self._digest = hashlib.blake2b(digest_size=16)
        self.segment_count = 0
        self.end_frame: int | None = None

    def on_segment(self, segment: VideoSegment) -> None:
        self._digest.update(segment.start.to_bytes(8, "big"))
        self._digest.update(segment.end.to_bytes(8, "big"))
        self._digest.update(segment.key)
        self.segment_count += 1

    def on_stop(self, end_frame: int) -> None:
        self.end_frame = end_frame

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


class SegmentStreamer:
    """The RLE recording state machine with incremental segment emission.

    Runs are keyed by an opaque equality key: a frame joins the current
    run exactly when its key equals the run's.  The capture card and
    :class:`Video` key by content digest (:meth:`record_frame`); the
    demand evaluation pass keys by interned framebuffer state id
    (:meth:`record`).  Either way frames are recorded with gap filling,
    same-vsync replacement and merge-back, and completed runs flow out
    to taps instead of accumulating: at most two pending runs are held
    at any time.
    """

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self._pending: list[VideoSegment] = []
        self._taps: list[FrameTap] = []
        self._finalized = False
        self._obs = _obs_active()
        self._emitted = 0

    @property
    def finalized(self) -> bool:
        return self._finalized

    def add_tap(self, tap: FrameTap) -> None:
        self._taps.append(tap)

    def pending_segments(self) -> list[VideoSegment]:
        """The (at most two) runs that may still change."""
        return list(self._pending)

    # --- recording ------------------------------------------------------------

    def record_frame(self, frame_index: int, content: Frame) -> None:
        """Record the display content as of ``frame_index``.

        Same contract as :meth:`Video.record_frame`: runs are keyed by
        content digest, and a frame is copied only when it opens a run.
        """
        if content.shape != (self.height, self.width):
            raise CaptureError(
                f"frame shape {content.shape} != video {self.height, self.width}"
            )
        self.record(frame_index, content_digest(content), content)

    def record(self, frame_index: int, key, content: Frame | None = None) -> None:
        """Record the run key shown as of ``frame_index``.

        Gaps are filled with the previous key, re-recording the current
        index replaces it (two compositions inside one vsync interval),
        and a replaced single-frame run merges back into its predecessor
        when their keys are equal.  ``content`` (copied) is kept on a
        run this frame opens; without it, segments carry only the key.
        """
        if self._finalized:
            raise CaptureError("capture already finalized")
        pending = self._pending
        if not pending:
            if frame_index < 0:
                raise CaptureError("frame index must be >= 0")
            self._open(frame_index, frame_index + 1, key, content)
            return
        last = pending[-1]
        if frame_index == last.end - 1:
            # Same vsync slot composed again: replace.
            if key == last.key:
                return
            if last.end - last.start == 1:
                pending.pop()
                if pending and pending[-1].key == key:
                    pending[-1].end = frame_index + 1
                else:
                    self._open(last.start, last.end, key, content)
            else:
                last.end = frame_index
                self._open(frame_index, frame_index + 1, key, content)
            return
        if frame_index < last.end - 1:
            raise CaptureError(
                f"frame {frame_index} recorded after frame {last.end - 1}"
            )
        # Fill the still gap, then start a new segment if the key changed.
        if key == last.key:
            last.end = frame_index + 1
        else:
            last.end = frame_index
            self._open(frame_index, frame_index + 1, key, content)

    def finalize(self, end_frame_index: int) -> None:
        """Extend the last still period to the capture stop point, flush
        every pending segment to the taps and signal the stop."""
        if self._finalized:
            raise CaptureError("capture already finalized")
        if not self._pending:
            raise CaptureError("cannot finalize an empty video")
        last = self._pending[-1]
        if end_frame_index < last.end:
            raise CaptureError("finalize cannot truncate the video")
        last.end = end_frame_index
        self._finalized = True
        for segment in self._pending:
            self._emit(segment)
        self._pending.clear()
        for tap in self._taps:
            tap.on_stop(end_frame_index)
        obs = self._obs
        if obs is not None:
            obs.segments_streamed(self._emitted, end_frame_index)

    # --- internals ------------------------------------------------------------

    def _open(self, start: int, end: int, key, content) -> None:
        if content is not None:
            content = content.copy()
        self._pending.append(VideoSegment(start, end, content, key))
        # Mutations (gap fill, same-vsync replace, merge-back) only ever
        # touch the last two runs; anything older is immutable — emit it.
        while len(self._pending) > 2:
            self._emit(self._pending.pop(0))

    def _emit(self, segment: VideoSegment) -> None:
        self._emitted += 1
        for tap in self._taps:
            tap.on_segment(segment)


def replay_segments(segments, end_frame: int, tap: FrameTap) -> None:
    """Feed an already-materialised segment list through a tap.

    A batch capture uses this at stop so a tap observes the identical
    segment sequence a streaming capture would have delivered live.
    """
    for segment in segments:
        tap.on_segment(segment)
    tap.on_stop(end_frame)
