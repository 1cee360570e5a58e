"""Batch evaluation against real replays, the cache and the oracle."""

import pytest

from repro.explore.evaluator import ExploreEvaluator
from repro.fleet.cache import ResultCache
from repro.harness.experiment import replay_run
from repro.device.frequencies import snapdragon_8074_table
from repro.harness.sweep import fixed_configs

ORACLE_RUNS = len(fixed_configs(snapdragon_8074_table()))
CANDIDATE = "qoe_aware:boost=1036800,settle=40000"


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("explore-cache"))


@pytest.fixture(scope="module")
def evaluator(artifacts_ds03, shared_cache) -> ExploreEvaluator:
    return ExploreEvaluator(artifacts_ds03, jobs=2, cache=shared_cache)


def test_scores_match_a_direct_replay(artifacts_ds03, evaluator):
    [score] = evaluator.evaluate([CANDIDATE], reps=1)
    reference = replay_run(
        artifacts_ds03,
        CANDIDATE,
        rep=0,
        master_seed=artifacts_ds03.recording_master_seed,
    )
    assert score.mean_energy_j == reference.dynamic_energy_j
    assert score.irritation_s == reference.irritation_seconds()
    assert score.energy_norm == pytest.approx(
        reference.dynamic_energy_j / evaluator.oracle.energy_j
    )


def test_oracle_built_once_from_fixed_runs(evaluator):
    evaluator.evaluate([CANDIDATE], reps=1)  # memoized after the first test
    # The first evaluate() composed the oracle: 14 fixed cells + 1 candidate.
    assert evaluator.replays_executed == ORACLE_RUNS + 1
    energy = evaluator.oracle.energy_j
    assert energy > 0
    assert evaluator.oracle is evaluator.oracle  # memoized, no re-runs
    assert evaluator.replays_executed == ORACLE_RUNS + 1


def test_memo_and_canonicalisation_serve_repeats_for_free(evaluator):
    executed = evaluator.replays_executed
    [first] = evaluator.evaluate([CANDIDATE], reps=1)
    # A different spelling of the same candidate is the same cell.
    [respelled] = evaluator.evaluate(
        ["qoe_aware:settle=40_000,boost=1_036_800"], reps=1
    )
    assert respelled is first
    assert evaluator.replays_executed == executed


def test_batch_preserves_order_and_dedupes(evaluator):
    scores = evaluator.evaluate(
        [CANDIDATE, "qoe_aware", CANDIDATE], reps=1
    )
    assert [s.config for s in scores] == [CANDIDATE, "qoe_aware", CANDIDATE]
    assert scores[0] is scores[2]


def test_warm_evaluator_executes_zero_replays(artifacts_ds03, shared_cache, evaluator):
    warm = ExploreEvaluator(artifacts_ds03, jobs=1, cache=shared_cache)
    [score] = warm.evaluate([CANDIDATE], reps=1)
    assert warm.replays_executed == 0
    assert warm.cache_hits == ORACLE_RUNS + 1
    [reference] = evaluator.evaluate([CANDIDATE], reps=1)
    assert score == reference


def test_jobs_do_not_change_scores(artifacts_ds03, evaluator):
    serial = ExploreEvaluator(artifacts_ds03, jobs=1)
    configs = [CANDIDATE, "qoe_aware", "ondemand"]
    assert serial.evaluate(configs, reps=1) == evaluator.evaluate(
        configs, reps=1
    )


class TestDominantCauseOfRuns:
    def run(self, attribution):
        from repro.results import RunRecord

        obs = None
        if attribution is not None:
            obs = {"attribution": attribution}
        return RunRecord(
            workload="w", config="c", rep=0, duration_us=1_000,
            energy_j=1.0, dynamic_energy_j=0.5, busy_us=0,
            transitions=[], busy_intervals=[], lags=(), obs=obs,
        )

    def test_none_when_untraced(self):
        from repro.explore.evaluator import dominant_cause_of_runs

        assert dominant_cause_of_runs([self.run(None)]) is None

    def test_none_when_any_rep_lacks_attribution(self):
        from repro.explore.evaluator import dominant_cause_of_runs

        attributed = self.run({"per_cause_penalty_us": {"slow_ramp": 100}})
        assert dominant_cause_of_runs([attributed, self.run(None)]) is None

    def test_none_when_irritation_is_zero(self):
        from repro.explore.evaluator import dominant_cause_of_runs

        assert dominant_cause_of_runs(
            [self.run({"per_cause_penalty_us": {}})]
        ) is None

    def test_sums_across_reps_and_breaks_ties_by_taxonomy_order(self):
        from repro.explore.evaluator import dominant_cause_of_runs

        runs = [
            self.run({"per_cause_penalty_us": {"at_speed": 60, "park_wake": 50}}),
            self.run({"per_cause_penalty_us": {"park_wake": 10}}),
        ]
        # 60 at_speed vs 60 park_wake: park_wake is earlier in the taxonomy.
        assert dominant_cause_of_runs(runs) == "park_wake"

    def test_traced_evaluation_scores_carry_a_cause(
        self, artifacts_ds03, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_TRACE", "1")
        fresh = ExploreEvaluator(
            artifacts_ds03, jobs=1, cache=ResultCache(tmp_path / "cache")
        )
        [score] = fresh.evaluate(["conservative"], reps=1)
        assert score.dominant_cause is not None
