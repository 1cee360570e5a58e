"""Screen capture: lossless video of the device display (paper §II-C).

A capture streams closed frame runs to :class:`FrameTap` subscribers
(see :mod:`repro.capture.stream`); a :class:`Video` is the tap that keeps
them all, for consumers that need random access.
"""

from repro.capture.hdmi import CaptureCard
from repro.capture.stream import FrameDigestTap, FrameTap, SegmentStreamer
from repro.capture.video import Frame, Video, VideoSegment

__all__ = [
    "CaptureCard",
    "Frame",
    "FrameDigestTap",
    "FrameTap",
    "SegmentStreamer",
    "Video",
    "VideoSegment",
]
