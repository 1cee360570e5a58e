"""Process-wide ``REPRO_*`` kill-switch flags.

Every environment kill switch in the simulator follows one convention:
the variable set to ``"0"`` means *off*, any other value means *on*, and
an unset variable takes the flag's default.  ``REPRO_FASTPATH`` and
``REPRO_DEMAND`` default on (they are opt-out A/B switches for
semantics-preserving optimisations, each checked against an independent
reference path); ``REPRO_TRACE`` defaults off (it is an opt-in
observability switch).

:func:`env_flag` is the one place that parsing lives.  The parsed value
is cached per process keyed on the raw environment string, so repeated
reads cost a dict probe — and a test (or caller) that mutates
``os.environ`` between reads still sees the new value, because a changed
raw string invalidates the cached parse.  Each flag name must be read
with one consistent ``default`` across the process; the well-known flags
below each have exactly one call site defining theirs.
"""

from __future__ import annotations

import os

#: The well-known kill switches, documented in the README's environment
#: variable table.  Name -> (default when unset, one-line meaning).
KNOWN_FLAGS: dict[str, tuple[bool, str]] = {
    "REPRO_FASTPATH": (
        True,
        "governor tick-elision fast path (0 = A/B-verify the slow path)",
    ),
    "REPRO_TRACE": (
        False,
        "observability: per-run metrics + flight recorder (1 = on)",
    ),
    "REPRO_DEMAND": (
        True,
        "kernel-only sweep evaluation over demand traces "
        "(0 = full replay per cell)",
    ),
}

# name -> (raw environ string at parse time, parsed value).  The raw
# string is re-read on every call (a dict probe on os.environ); the cache
# only skips re-parsing — and, crucially, makes the parse auditable in
# one place instead of hand-rolled `!= "0"` comparisons per module.
_FLAG_CACHE: dict[str, tuple[str | None, bool]] = {}


def env_flag(name: str, default: bool = True) -> bool:
    """Whether the kill switch ``name`` is on.

    ``"0"`` means off; any other set value means on; unset means
    ``default``.  "Garbage" values (``""``, ``"no"``, ``"false"``) are
    deliberately *on* — a kill switch must only disarm on the one
    documented spelling, never on a typo.
    """
    raw = os.environ.get(name)
    hit = _FLAG_CACHE.get(name)
    if hit is not None and hit[0] == raw:
        return hit[1]
    value = default if raw is None else raw != "0"
    _FLAG_CACHE[name] = (raw, value)
    return value


def reset_env_flag_cache() -> None:
    """Drop every cached parse (test isolation helper)."""
    _FLAG_CACHE.clear()
