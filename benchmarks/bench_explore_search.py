"""Explore throughput — candidates/second, cold vs warm cache, across jobs.

The design-space explorer's cost model is candidate evaluations lowered
to replays; its speed comes from two places the fleet engine provides:
worker parallelism (``jobs``) and the content-addressed result cache.
This bench runs the same random search over the QoE-aware space at
1/4/8 workers with a cold cache, then re-runs it warm, reporting
candidates/second for each cell.  Every configuration must produce
scores bit-identical to the serial reference — speed never changes
results.
"""

from __future__ import annotations

import os
import random
import time

from repro.explore.evaluator import ExploreEvaluator
from repro.explore.space import builtin_space
from repro.explore.strategies import RandomSearch
from repro.fleet.cache import ResultCache
from repro.scenarios.profiles import frequency_table_for

JOB_COUNTS = (1, 4, 8)
BUDGET = 12
SEED = 2014


def _search(artifacts, jobs, cache):
    space = builtin_space("qoe_aware", frequency_table_for(artifacts.spec))
    evaluator = ExploreEvaluator(artifacts, jobs=jobs, cache=cache)
    scores = RandomSearch().search(
        space, evaluator.evaluate, BUDGET, random.Random(SEED)
    )
    return scores, evaluator


def test_explore_search_throughput(artifacts_ds02, tmp_path):
    print(f"\nExplore search — dataset 02, budget {BUDGET}, "
          f"{os.cpu_count()} CPU(s)")
    reference = None
    for jobs in JOB_COUNTS:
        cache = ResultCache(tmp_path / f"cache-j{jobs}")
        t0 = time.perf_counter()
        cold_scores, cold_eval = _search(artifacts_ds02, jobs, cache)
        cold_s = time.perf_counter() - t0
        if reference is None:
            reference = cold_scores
        else:
            # Worker count must never change the scores.
            assert cold_scores == reference
        assert cold_eval.replays_executed > 0

        t0 = time.perf_counter()
        warm_scores, warm_eval = _search(artifacts_ds02, jobs, cache)
        warm_s = time.perf_counter() - t0
        assert warm_scores == reference
        # A warm re-run is pure cache traffic: zero replays executed.
        assert warm_eval.replays_executed == 0
        print(f"  jobs={jobs}: cold {cold_s:6.2f}s "
              f"({BUDGET / cold_s:5.1f} cand/s)   "
              f"warm {warm_s:6.2f}s ({BUDGET / warm_s:6.1f} cand/s)   "
              f"speedup {cold_s / max(warm_s, 1e-9):5.1f}x")
