"""The capture card: display → segment stream.

Stands in for the paper's HDMI → Elgato Game Capture HD chain (Fig. 6):
a lossless tap on the panel's composed frames.  Lossless direct capture is
the point — "we avoid image artifacts which would significantly complicate
the process of comparing video frames".

A capture always streams: closed frame runs flow to the subscribed
:class:`~repro.capture.stream.FrameTap` objects as the device runs and
are then released, so the card itself holds O(active-window) memory.  A
consumer that needs random access to the whole capture (the annotator,
the suggester) subscribes a :class:`~repro.capture.video.Video`, the tap
that keeps every segment.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import CaptureError
from repro.device.display import Display, frame_index_at
from repro.capture.stream import FrameTap, SegmentStreamer


class CaptureCard:
    """Streams the display's composed frames to its taps."""

    def __init__(self, display: Display) -> None:
        self._display = display
        self._streamer: SegmentStreamer | None = None
        self._taps: list[FrameTap] = []
        self._attached = False

    def add_tap(self, tap: FrameTap) -> None:
        """Subscribe ``tap`` to the closed-segment stream of the next
        capture (register before :meth:`start`)."""
        if self._streamer is not None:
            raise CaptureError("cannot add a tap while a capture is running")
        self._taps.append(tap)

    def start(self, now: int) -> None:
        """Begin capturing; grabs the current screen as the first frame."""
        if self._streamer is not None:
            raise CaptureError("capture already running")
        self._streamer = SegmentStreamer(self._display.width, self._display.height)
        # The streamer owns the taps from here on, so the card (which the
        # display keeps alive) holds no tap, and no Video, past stop().
        for tap in self._taps:
            self._streamer.add_tap(tap)
        self._taps.clear()
        if not self._attached:
            self._display.add_frame_observer(self._on_frame)
            self._attached = True
        # Seed with what is on screen right now.
        self._streamer.record_frame(
            frame_index_at(now), np.array(self._display.framebuffer, copy=True)
        )

    def stop(self, now: int) -> None:
        """Stop capturing; flushes the last runs and signals the taps."""
        if self._streamer is None:
            raise CaptureError("no capture running")
        streamer, self._streamer = self._streamer, None
        streamer.finalize(frame_index_at(now) + 1)

    def _on_frame(self, frame_index: int, content) -> None:
        if self._streamer is not None:
            self._streamer.record_frame(frame_index, content)
