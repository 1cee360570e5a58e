"""Screen capture: lossless video of the device display (paper §II-C).

Batch captures materialise a :class:`Video`; the streaming pipeline
delivers closed frame runs to :class:`FrameTap` subscribers instead (see
:mod:`repro.capture.stream`).
"""

from repro.capture.hdmi import CaptureCard
from repro.capture.stream import (
    FrameDigestTap,
    FrameTap,
    SegmentStreamer,
    replay_segments,
)
from repro.capture.video import Frame, Video, VideoSegment

__all__ = [
    "CaptureCard",
    "Frame",
    "FrameDigestTap",
    "FrameTap",
    "SegmentStreamer",
    "Video",
    "VideoSegment",
    "replay_segments",
]
