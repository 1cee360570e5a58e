"""Scaling regression tests for the cpufreq trace queries.

The seed implementation scanned the whole transition list per
``frequency_at`` call — quadratic over a run for the oracle/energy
callers.  These tests pin the bisect fast path: a synthetic
10k-transition policy must answer 10k point queries in far less time than
any linear scan could (a linear implementation needs ~50M comparisons
here; bisect needs ~140k).
"""

import time

from repro.core.engine import Engine
from repro.device.cpu import CpuCore
from repro.device.cpufreq import CpuFreqPolicy
from repro.device.frequencies import snapdragon_8074_table

TRANSITIONS = 10_000
QUERIES = 10_000


def build_policy():
    engine = Engine()
    table = snapdragon_8074_table()
    core = CpuCore(engine.clock, table)
    policy = CpuFreqPolicy(engine.clock, core)
    freqs = table.frequencies_khz
    for index in range(TRANSITIONS):
        engine.clock.advance_to((index + 1) * 100)
        policy.set_target(freqs[index % len(freqs)])
    return policy


def test_frequency_at_matches_linear_reference():
    policy = build_policy()
    pairs = list(policy.transition_points())

    def linear_reference(timestamp):
        result = pairs[0][1]
        for t, khz in pairs:
            if t > timestamp:
                break
            result = khz
        return result

    for timestamp in (0, 1, 99, 100, 101, 4_999, 5_000, 500_000, 999_999,
                      TRANSITIONS * 100 + 1):
        assert policy.frequency_at(timestamp) == linear_reference(timestamp)


def test_transition_heavy_queries_stay_subquadratic():
    policy = build_policy()
    span = TRANSITIONS * 100
    start = time.perf_counter()
    checksum = 0
    for index in range(QUERIES):
        checksum += policy.frequency_at((index * 7919) % span)
    elapsed = time.perf_counter() - start
    assert checksum > 0
    # Bisect completes in ~20ms even on slow CI; the seed's linear scan
    # took ~1s on a fast machine and several seconds on CI.
    assert elapsed < 1.5, (
        f"frequency_at looks super-logarithmic again: {QUERIES} queries "
        f"over {TRANSITIONS} transitions took {elapsed:.2f}s"
    )


def test_transition_points_record_every_change():
    pairs = list(build_policy().transition_points())
    # The first set_target re-targets the frequency the core booted at,
    # so it records no transition: initial entry + (TRANSITIONS - 1).
    assert len(pairs) == TRANSITIONS
    assert [t for t, _khz in pairs] == sorted(t for t, _khz in pairs)
