"""Geometry primitives shared by the UI framework, touchscreen and masks."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point:
    """A 2-D integer point in screen coordinates (origin top-left)."""

    x: int
    y: int

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return ((self.x - other.x) ** 2 + (self.y - other.y) ** 2) ** 0.5


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[x, x+w) × [y, y+h)``."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"rectangle dimensions must be >= 0: {self}")

    @property
    def right(self) -> int:
        return self.x + self.w

    @property
    def bottom(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def center(self) -> Point:
        return Point(self.x + self.w // 2, self.y + self.h // 2)

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside this rectangle."""
        return self.x <= point.x < self.right and self.y <= point.y < self.bottom

    def intersection(self, other: "Rect") -> "Rect":
        """The overlapping region, or a zero-area rect at the clamp point."""
        x = max(self.x, other.x)
        y = max(self.y, other.y)
        right = min(self.right, other.right)
        bottom = min(self.bottom, other.bottom)
        return Rect(x, y, max(0, right - x), max(0, bottom - y))

    def clamped_to(self, bounds: "Rect") -> "Rect":
        """This rectangle clipped to ``bounds``."""
        return self.intersection(bounds)

    def inset(self, margin: int) -> "Rect":
        """Shrink the rectangle by ``margin`` on every side (floor at 0)."""
        w = max(0, self.w - 2 * margin)
        h = max(0, self.h - 2 * margin)
        return Rect(self.x + margin, self.y + margin, w, h)
