"""Search strategies over a synthetic, replay-free landscape."""

import random

import pytest

from repro.core.errors import ReproError
from repro.device.frequencies import snapdragon_8074_table
from repro.explore.evaluator import CandidateScore
from repro.explore.space import GovernorSpace, ParamSpec
from repro.explore.strategies import (
    GridSearch,
    HillClimb,
    RandomSearch,
    SuccessiveHalving,
    make_strategy,
    strategy_names,
)

BOOSTS = (960_000, 1_036_800, 1_190_400, 1_497_600)
SETTLES = (20_000, 40_000, 60_000)


@pytest.fixture
def space() -> GovernorSpace:
    return GovernorSpace(
        "qoe_aware",
        [
            ParamSpec("boost", BOOSTS, unit="khz"),
            ParamSpec("settle", SETTLES, unit="us"),
        ],
        snapdragon_8074_table(),
    )


class FakeEvaluator:
    """Separable convex landscape with its optimum inside the grid.

    Energy is minimised at boost=1_036_800, irritation at settle=40_000,
    so every ranking strategy should steer towards
    ``qoe_aware:boost=1036800,settle=40000``.
    """

    OPTIMUM = "qoe_aware:boost=1036800,settle=40000"

    def __init__(self, space: GovernorSpace) -> None:
        self.space = space
        self.calls: list[tuple[str, int]] = []

    def __call__(self, configs: list[str], reps: int) -> list[CandidateScore]:
        out = []
        for config in configs:
            self.calls.append((config, reps))
            params = self.space.parse(config)
            energy = 1.0 + abs(BOOSTS.index(params["boost"]) - 1) / 10
            irritation = abs(SETTLES.index(params["settle"]) - 1) * 2.0
            out.append(
                CandidateScore(
                    config=config,
                    reps=reps,
                    mean_energy_j=energy * 30,
                    energy_norm=energy,
                    irritation_s=irritation,
                )
            )
        return out

    def spent(self) -> int:
        return len(self.calls)


def test_registry_and_aliases():
    assert strategy_names() == ["grid", "halving", "hillclimb", "random"]
    assert make_strategy("exhaustive").name == "grid"
    with pytest.raises(ReproError, match="anneal"):
        make_strategy("anneal")


def test_budget_must_be_positive(space):
    with pytest.raises(ReproError, match="budget"):
        GridSearch().search(space, FakeEvaluator(space), 0, random.Random(0))


class TestGridSearch:
    def test_covers_whole_space_within_budget(self, space):
        evaluate = FakeEvaluator(space)
        scores = GridSearch().search(space, evaluate, 100, random.Random(0))
        assert len(scores) == space.size
        assert evaluate.spent() == space.size

    def test_truncates_to_budget_in_grid_order(self, space):
        evaluate = FakeEvaluator(space)
        scores = GridSearch().search(space, evaluate, 5, random.Random(0))
        assert len(scores) == 5
        expected = [space.config(c) for c in space.grid()][:5]
        assert [s.config for s in scores] == expected


class TestRandomSearch:
    def test_deterministic_for_a_seed_and_within_budget(self, space):
        first = RandomSearch().search(
            space, FakeEvaluator(space), 7, random.Random(42)
        )
        again = RandomSearch().search(
            space, FakeEvaluator(space), 7, random.Random(42)
        )
        assert [s.config for s in first] == [s.config for s in again]
        assert len(first) == 7
        assert len({s.config for s in first}) == 7


class TestSuccessiveHalving:
    def test_promotes_survivors_at_doubled_reps(self, space):
        evaluate = FakeEvaluator(space)
        scores = SuccessiveHalving(reps=1).search(
            space, evaluate, 12, random.Random(1)
        )
        assert evaluate.spent() <= 12
        reps_seen = sorted({reps for _config, reps in evaluate.calls})
        assert reps_seen[0] == 1 and len(reps_seen) > 1  # at least one rung up
        # The returned scores carry each survivor's deepest evaluation.
        deepest = max(s.reps for s in scores)
        assert deepest == reps_seen[-1]

    def test_final_survivor_is_the_optimum(self, space):
        evaluate = FakeEvaluator(space)
        scores = SuccessiveHalving(reps=1).search(
            space, evaluate, 24, random.Random(3)
        )
        deepest = max(s.reps for s in scores)
        champions = [s for s in scores if s.reps == deepest]
        best = min(champions, key=lambda s: s.scalar())
        assert best.config == FakeEvaluator.OPTIMUM


class TestHillClimb:
    def test_descends_to_the_global_optimum(self, space):
        evaluate = FakeEvaluator(space)
        scores = HillClimb().search(space, evaluate, 50, random.Random(7))
        best = min(scores, key=lambda s: s.scalar())
        assert best.config == FakeEvaluator.OPTIMUM
        # The separable landscape never needs the whole grid.
        assert evaluate.spent() < space.size * 2

    def test_never_reevaluates_a_candidate(self, space):
        evaluate = FakeEvaluator(space)
        HillClimb().search(space, evaluate, 50, random.Random(7))
        assert len(evaluate.calls) == len(set(evaluate.calls))

    def test_respects_budget(self, space):
        evaluate = FakeEvaluator(space)
        HillClimb().search(space, evaluate, 3, random.Random(5))
        assert evaluate.spent() <= 3
