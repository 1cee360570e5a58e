"""A compact, typed sequence of ``(int, int)`` pairs.

Day-long replays accumulate hundreds of thousands of frequency
transitions and busy intervals; as Python lists of tuples of boxed ints
those traces cost ~130 bytes per pair and dominate a run's resident
memory.  :class:`IntPairs` stores the same data as two parallel
``array('q')`` buffers — 16 bytes per pair — while still *reading* like a
list of tuples: iteration yields ``(a, b)`` tuples, indexing and slicing
work, equality is element-wise.

The device-side accumulators (``CpuCore`` busy trace, ``CpuFreqPolicy``
transition trace) append into raw arrays during the run and hand the
result over as ``IntPairs`` without ever boxing a pair; the
:class:`~repro.results.RunRecord` holds them in this form for its whole
lifetime.

Two text forms exist.  :meth:`IntPairs.to_lists` is the canonical JSON
form ``[[a, b], ...]`` that record digests hash.  :meth:`IntPairs.pack`
is the compact wire form that stores and worker IPC carry: both columns
delta-encoded, laid out as little-endian int64 (``a`` deltas, then ``b``
deltas), compressed with zlib level 1 and base64-encoded — about a fifth
of the canonical text, and decoded with a few vectorised numpy calls.
Deltas and their prefix sums wrap modulo 2**64 identically, so the round
trip is exact over the whole int64 range.
"""

from __future__ import annotations

import base64
import binascii
import zlib
from array import array
from typing import Iterable, Iterator

import numpy as np

_TYPECODE = "q"  # signed 64-bit: microsecond timestamps and kHz both fit
_WIRE_DTYPE = np.dtype("<i8")  # fixed byte order: a shared store is portable


class IntPairs:
    """An immutable-by-convention sequence of integer pairs."""

    __slots__ = ("_a", "_b")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()) -> None:
        a = array(_TYPECODE)
        b = array(_TYPECODE)
        for first, second in pairs:
            a.append(first)
            b.append(second)
        self._a = a
        self._b = b

    @classmethod
    def from_arrays(cls, a: array, b: array) -> "IntPairs":
        """Adopt two parallel ``array('q')`` buffers (no copy)."""
        if len(a) != len(b):
            raise ValueError(
                f"parallel arrays disagree in length: {len(a)} != {len(b)}"
            )
        pairs = cls.__new__(cls)
        pairs._a = a
        pairs._b = b
        return pairs

    # --- sequence protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._a)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._a, self._b)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self._a[index], self._b[index]))
        return (self._a[index], self._b[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPairs):
            return self._a == other._a and self._b == other._b
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                pair == mine for pair, mine in zip(other, self)
            )
        return NotImplemented

    def __repr__(self) -> str:
        preview = ", ".join(repr(pair) for pair in self[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"IntPairs([{preview}{suffix}], len={len(self)})"

    # --- views ------------------------------------------------------------------

    def firsts(self) -> array:
        """The first elements as a live ``array('q')`` (do not mutate)."""
        return self._a

    def seconds(self) -> array:
        return self._b

    def to_lists(self) -> list[list[int]]:
        """JSON form: ``[[a, b], ...]``."""
        return [[first, second] for first, second in self]

    def tolist(self) -> list[tuple[int, int]]:
        return list(self)

    # --- wire form --------------------------------------------------------------

    def pack(self) -> str:
        """The compact wire form: one ASCII string (see module docstring)."""
        deltas = np.diff(
            np.frombuffer(self._a + self._b, dtype=np.int64).reshape(2, -1),
            axis=1,
            prepend=0,
        )
        raw = zlib.compress(deltas.astype(_WIRE_DTYPE, copy=False).tobytes(), 1)
        return base64.b64encode(raw).decode("ascii")

    @classmethod
    def unpack(cls, text: str) -> "IntPairs":
        """Decode :meth:`pack` output; ``ValueError`` on any malformed text."""
        try:
            raw = zlib.decompress(base64.b64decode(text, validate=True))
        except (binascii.Error, zlib.error) as exc:
            raise ValueError(f"bad packed pairs: {exc}") from None
        if len(raw) % (2 * _WIRE_DTYPE.itemsize):
            raise ValueError(
                f"packed pairs hold {len(raw)} bytes, not a whole number "
                f"of int64 pairs"
            )
        deltas = np.frombuffer(raw, dtype=_WIRE_DTYPE).reshape(2, -1)
        a, b = (
            array(_TYPECODE, np.cumsum(column, dtype=np.int64).tobytes())
            for column in deltas
        )
        return cls.from_arrays(a, b)
