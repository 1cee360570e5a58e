"""Canvas drawing primitives.

Everything on the simulated screen is 8-bit grayscale.  "Text" other than
the status-bar clock is rendered as deterministic texture blocks — the
video-analysis pipeline only needs frames to be *distinct and repeatable*,
not legible.  The clock uses a real 3x5 digit font because its changing
pixels are what force mask support in the matcher (the paper's Fig. 8).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.geometry import Rect

# 3x5 bitmaps for the status-bar clock.
_DIGIT_FONT: dict[str, tuple[str, ...]] = {
    "0": ("111", "101", "101", "101", "111"),
    "1": ("010", "110", "010", "010", "111"),
    "2": ("111", "001", "111", "100", "111"),
    "3": ("111", "001", "111", "001", "111"),
    "4": ("101", "101", "111", "001", "001"),
    "5": ("111", "100", "111", "001", "111"),
    "6": ("111", "100", "111", "101", "111"),
    "7": ("111", "001", "010", "010", "010"),
    "8": ("111", "101", "111", "101", "111"),
    "9": ("111", "101", "111", "001", "111"),
    ":": ("000", "010", "000", "010", "000"),
}

_texture_cache: dict[tuple[str, int, int], np.ndarray] = {}


def texture(key: str, width: int, height: int) -> np.ndarray:
    """A deterministic pseudo-random texture for ``key``.

    The same key always produces the same pixels, across runs and Python
    processes, so screens containing it are repeatable between workload
    executions — the property the matcher relies on.
    """
    cache_key = (key, width, height)
    cached = _texture_cache.get(cache_key)
    if cached is not None:
        return cached
    seed = zlib.crc32(key.encode("utf-8"))
    rng = np.random.default_rng(seed)
    block = rng.integers(32, 224, size=(height, width), dtype=np.int64).astype(
        np.uint8
    )
    _texture_cache[cache_key] = block
    return block


class Canvas:
    """Thin drawing wrapper over a numpy framebuffer slice."""

    def __init__(self, buffer: np.ndarray) -> None:
        self._buffer = buffer
        self.height, self.width = buffer.shape

    def _clip_bounds(self, rect: Rect) -> tuple[int, int, int, int]:
        """Clipped ``(x0, y0, x1, y1)`` as plain ints.

        The draw primitives run once per widget per compose; computing the
        clip arithmetically avoids the two Rect allocations per call that
        clamping through :meth:`Rect.clamped_to` would pay.
        """
        x0 = rect.x
        y0 = rect.y
        x1 = x0 + rect.w
        y1 = y0 + rect.h
        if x0 < 0:
            x0 = 0
        if y0 < 0:
            y0 = 0
        if x1 > self.width:
            x1 = self.width
        if y1 > self.height:
            y1 = self.height
        return x0, y0, x1, y1

    def fill(self, value: int) -> None:
        self._buffer[:, :] = value

    def fill_rect(self, rect: Rect, value: int) -> None:
        x0, y0, x1, y1 = self._clip_bounds(rect)
        if x1 > x0 and y1 > y0:
            self._buffer[y0:y1, x0:x1] = value

    def frame_rect(self, rect: Rect, value: int) -> None:
        """A 1-px border."""
        x0, y0, x1, y1 = self._clip_bounds(rect)
        if x1 <= x0 or y1 <= y0:
            return
        buffer = self._buffer
        buffer[y0, x0:x1] = value
        buffer[y1 - 1, x0:x1] = value
        buffer[y0:y1, x0] = value
        buffer[y0:y1, x1 - 1] = value

    def blit_texture(self, rect: Rect, key: str) -> None:
        """Draw the deterministic texture for ``key`` into ``rect``."""
        x0, y0, x1, y1 = self._clip_bounds(rect)
        if x1 <= x0 or y1 <= y0:
            return
        block = texture(key, rect.w, rect.h)
        self._buffer[y0:y1, x0:x1] = block[
            y0 - rect.y : y1 - rect.y, x0 - rect.x : x1 - rect.x
        ]

    def draw_digits(self, x: int, y: int, text: str, value: int = 255) -> Rect:
        """Render clock-style digits with the 3x5 font; returns the bounds."""
        cursor = x
        for char in text:
            bitmap = _DIGIT_FONT.get(char)
            if bitmap is None:
                cursor += 4
                continue
            for row, bits in enumerate(bitmap):
                for col, bit in enumerate(bits):
                    if bit == "1":
                        px, py = cursor + col, y + row
                        if 0 <= px < self.width and 0 <= py < self.height:
                            self._buffer[py, px] = value
            cursor += 4
        return Rect(x, y, cursor - x, 5)


def digits_bounds(x: int, y: int, text: str) -> Rect:
    """Bounds :meth:`Canvas.draw_digits` would cover, without drawing."""
    return Rect(x, y, 4 * len(text), 5)
