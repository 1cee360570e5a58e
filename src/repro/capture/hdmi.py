"""The capture card: display → video or segment stream.

Stands in for the paper's HDMI → Elgato Game Capture HD chain (Fig. 6):
a lossless tap on the panel's composed frames.  Lossless direct capture is
the point — "we avoid image artifacts which would significantly complicate
the process of comparing video frames".

Two delivery modes share one recording state machine:

* **batch** (``start(now)``): frames accumulate into a terminal
  :class:`Video` returned by ``stop`` — O(session) memory, needed when a
  consumer requires random access (the annotator, the suggester);
* **streaming** (``start(now, streaming=True)``): no video is kept;
  closed frame runs flow to subscribed :class:`~repro.capture.stream.
  FrameTap` objects as the replay executes and are then released —
  O(active-window) memory, the path every replay takes.

Taps registered via :meth:`add_tap` observe the identical segment
sequence in both modes: live in streaming mode, replayed from the
finished video at ``stop`` in batch mode.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import CaptureError
from repro.device.display import Display, frame_index_at
from repro.capture.stream import FrameTap, SegmentStreamer, replay_segments
from repro.capture.video import Video


class CaptureCard:
    """Records the display's composed frames into a video or a stream."""

    def __init__(self, display: Display) -> None:
        self._display = display
        self._video: Video | None = None
        self._streamer: SegmentStreamer | None = None
        self._taps: list[FrameTap] = []
        self._capturing = False
        self._attached = False

    def add_tap(self, tap: FrameTap) -> None:
        """Subscribe ``tap`` to the closed-segment stream of every
        subsequent capture (register before :meth:`start`)."""
        if self._capturing:
            raise CaptureError("cannot add a tap while a capture is running")
        self._taps.append(tap)

    def start(self, now: int, *, streaming: bool = False) -> None:
        """Begin capturing; grabs the current screen as the first frame.

        With ``streaming=True`` no :class:`Video` is materialised —
        frames flow to the registered taps and are released.
        """
        if self._capturing:
            raise CaptureError("capture already running")
        if streaming:
            self._streamer = SegmentStreamer(
                self._display.width, self._display.height
            )
            for tap in self._taps:
                self._streamer.add_tap(tap)
        else:
            self._video = Video(self._display.width, self._display.height)
        self._capturing = True
        if not self._attached:
            self._display.add_frame_observer(self._on_frame)
            self._attached = True
        # Seed with what is on screen right now.
        self._sink().record_frame(
            frame_index_at(now), np.array(self._display.framebuffer, copy=True)
        )

    def stop(self, now: int) -> Video | None:
        """Stop capturing; returns the finished video (batch mode) or
        ``None`` (streaming mode — the taps already saw everything)."""
        if not self._capturing:
            raise CaptureError("no capture running")
        self._capturing = False
        end_frame = frame_index_at(now) + 1
        if self._streamer is not None:
            streamer, self._streamer = self._streamer, None
            streamer.finalize(end_frame)
            return None
        if self._video is None:
            raise CaptureError("no capture running")
        video, self._video = self._video, None
        video.finalize(end_frame)
        for tap in self._taps:
            replay_segments(video.segments(), end_frame, tap)
        return video

    def _sink(self):
        return self._streamer if self._streamer is not None else self._video

    def _on_frame(self, frame_index: int, content) -> None:
        if self._capturing:
            self._sink().record_frame(frame_index, content)
