"""Named, seeded random streams.

Every source of stochasticity in the simulation draws from its own named
stream so that, e.g., perturbing background-noise timing between repetitions
does not change which gestures a synthesised user performs.  This mirrors the
paper's setup where the *recorded* input trace is fixed across runs while
system noise varies.
"""

from __future__ import annotations

import random
import zlib


class RngStreams:
    """A family of independent :class:`random.Random` streams.

    Streams are derived deterministically from a master seed and a stream
    name, so the same ``(seed, name)`` pair always yields the same sequence
    regardless of creation order.
    """

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        derived = self._derive_seed(name)
        stream = random.Random(derived)
        self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngStreams":
        """A child family whose master seed is derived from ``name``.

        Useful for giving each repetition of an experiment its own noise
        streams while keeping the workload streams untouched.
        """
        return RngStreams(self._derive_seed(name))

    def _derive_seed(self, name: str) -> int:
        digest = zlib.crc32(name.encode("utf-8"))
        return (self._master_seed * 1_000_003 + digest) & 0x7FFF_FFFF_FFFF_FFFF
