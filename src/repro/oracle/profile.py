"""Piecewise-constant frequency profiles.

Used both for the oracle's composed frequency trace and for rendering a
governor's transition log into plot-ready series (the paper's Fig. 3).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core.errors import ReproError


@dataclass(frozen=True, slots=True)
class ProfileSegment:
    """Constant frequency over ``[start_us, end_us)``."""

    start_us: int
    end_us: int
    freq_khz: int

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


class FrequencyProfile:
    """An f(t) step function over a run's duration."""

    def __init__(self, segments: list[ProfileSegment]) -> None:
        if not segments:
            raise ReproError("frequency profile cannot be empty")
        for prev, cur in zip(segments, segments[1:]):
            if cur.start_us != prev.end_us:
                raise ReproError(
                    f"profile has a gap: {prev.end_us} -> {cur.start_us}"
                )
        for segment in segments:
            if segment.duration_us < 0:
                raise ReproError("profile segment has negative duration")
        self._segments = [s for s in segments if s.duration_us > 0]
        # Parallel start list: window bisects instead of scanning, so
        # rendering a transition-heavy trace stays O(n log n).
        self._starts = [s.start_us for s in self._segments]

    @classmethod
    def from_transitions(
        cls, transitions: list[tuple[int, int]], end_us: int
    ) -> "FrequencyProfile":
        """Build from ``(timestamp, freq_khz)`` transition pairs."""
        if not transitions:
            raise ReproError("no transitions to build a profile from")
        segments = []
        for (t0, f0), (t1, _f1) in zip(transitions, transitions[1:]):
            segments.append(ProfileSegment(t0, t1, f0))
        last_t, last_f = transitions[-1]
        segments.append(ProfileSegment(last_t, max(end_us, last_t), last_f))
        return cls(segments)

    @property
    def segments(self) -> list[ProfileSegment]:
        return list(self._segments)

    @property
    def end_us(self) -> int:
        return self._segments[-1].end_us

    def window(self, start_us: int, end_us: int) -> list[ProfileSegment]:
        """Segments clipped to a window (for trace snapshots like Fig. 3)."""
        out = []
        first = max(0, bisect_right(self._starts, start_us) - 1)
        for segment in self._segments[first:]:
            if segment.start_us >= end_us:
                break
            if segment.end_us <= start_us:
                continue
            out.append(
                ProfileSegment(
                    max(segment.start_us, start_us),
                    min(segment.end_us, end_us),
                    segment.freq_khz,
                )
            )
        return out
