"""Framebuffer display with on-demand vsync.

The display owns the framebuffer the UI framework draws into.  Like
Android's Choreographer, a frame is only composed when a client invalidated
something; composition happens on the next 30 fps vsync boundary.  Capture
clients (the HDMI capture card) observe composed frames.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.engine import PRIORITY_RENDER, Engine
from repro.core.errors import CaptureError
from repro.obs.session import active as _obs_active

FRAME_RATE = 30
VSYNC_PERIOD_US = 33_333  # 1e6 / 30, truncated; the video time base

FrameObserver = Callable[[int, np.ndarray], None]
"""Called with ``(frame_index, framebuffer_copy)`` after composition."""


def frame_index_at(timestamp: int) -> int:
    """The vsync frame index in force at a simulation timestamp."""
    return timestamp // VSYNC_PERIOD_US


def frame_timestamp(frame_index: int) -> int:
    """Simulation timestamp of a frame's vsync boundary."""
    return frame_index * VSYNC_PERIOD_US


class Display:
    """A ``width x height`` 8-bit grayscale panel with vsync composition."""

    def __init__(self, engine: Engine, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise CaptureError("display dimensions must be positive")
        self._engine = engine
        self.width = width
        self.height = height
        self._framebuffer = np.zeros((height, width), dtype=np.uint8)
        self._observers: list[FrameObserver] = []
        self._composer: Callable[[np.ndarray], None] | None = None
        self._vsync_scheduled = False
        self._frames_composed = 0
        self._obs = _obs_active()

    @property
    def frames_composed(self) -> int:
        return self._frames_composed

    @property
    def framebuffer(self) -> np.ndarray:
        """The live framebuffer (callers must not mutate)."""
        return self._framebuffer

    def set_composer(self, composer: Callable[[np.ndarray], None]) -> None:
        """Install the client that redraws the framebuffer on vsync.

        The window manager registers here; on each vsync with pending
        invalidations the composer is handed the framebuffer to repaint.
        """
        self._composer = composer

    def add_frame_observer(self, observer: FrameObserver) -> None:
        self._observers.append(observer)

    def invalidate(self) -> None:
        """Request composition on the next vsync boundary."""
        if self._vsync_scheduled:
            return
        self._vsync_scheduled = True
        now = self._engine.now
        next_boundary = frame_timestamp(frame_index_at(now) + 1)
        self._engine.schedule_at(
            next_boundary, self._compose, priority=PRIORITY_RENDER
        )

    def _compose(self) -> None:
        self._vsync_scheduled = False
        if self._composer is not None:
            self._composer(self._framebuffer)
        index = frame_index_at(self._engine.now)
        self._frames_composed += 1
        obs = self._obs
        if obs is not None:
            obs.frame_composed(self._engine.now, index)
        snapshot = self._framebuffer.copy()
        for observer in self._observers:
            observer(index, snapshot)
