"""Parameter-space model: specs, enumeration, sampling, serialization."""

import random

import pytest

from repro.core.errors import ReproError
from repro.device.frequencies import snapdragon_8074_table
from repro.explore.space import (
    GovernorSpace,
    ParamSpec,
    builtin_space,
    builtin_space_names,
)


class TestParamSpec:
    def test_values_sorted_and_deduped(self):
        spec = ParamSpec("settle", (40_000, 20_000, 40_000))
        assert spec.values == (20_000, 40_000)

    def test_empty_values_rejected(self):
        with pytest.raises(ReproError):
            ParamSpec("settle", ())

    def test_neighbours_are_adjacent_grid_values(self):
        spec = ParamSpec("settle", (1, 2, 3))
        assert spec.neighbours(1) == (2,)
        assert spec.neighbours(2) == (1, 3)
        assert spec.neighbours(3) == (2,)

    def test_off_grid_value_rejected(self):
        spec = ParamSpec("settle", (1, 2, 3))
        with pytest.raises(ReproError, match="4"):
            spec.index(4)


@pytest.fixture
def small_space() -> GovernorSpace:
    return GovernorSpace(
        "qoe_aware",
        [
            ParamSpec("boost", (960_000, 1_036_800, 1_190_400), unit="khz"),
            ParamSpec("settle", (20_000, 40_000), unit="us"),
        ],
        snapdragon_8074_table(),
    )


class TestGovernorSpace:
    def test_size_and_grid(self, small_space):
        assert small_space.size == 6
        grid = list(small_space.grid())
        assert len(grid) == 6
        assert len({small_space.config(c) for c in grid}) == 6

    def test_config_strings_are_canonical(self, small_space):
        candidate = {"settle": 40_000, "boost": 960_000}
        assert (
            small_space.config(candidate)
            == "qoe_aware:boost=960000,settle=40000"
        )

    def test_parse_round_trips(self, small_space):
        for candidate in small_space.grid():
            config = small_space.config(candidate)
            assert small_space.parse(config) == candidate

    def test_parse_rejects_off_grid_and_wrong_governor(self, small_space):
        with pytest.raises(ReproError):
            small_space.parse("qoe_aware:boost=300000,settle=40000")
        with pytest.raises(ReproError, match="ondemand"):
            small_space.parse("ondemand:up_threshold=90")
        with pytest.raises(ReproError):
            small_space.parse("qoe_aware:boost=960000")  # missing key

    def test_sample_is_seeded_and_distinct(self, small_space):
        first = small_space.sample(random.Random(42), 4)
        again = small_space.sample(random.Random(42), 4)
        assert first == again
        configs = [small_space.config(c) for c in first]
        assert len(set(configs)) == 4

    def test_sample_caps_at_space_size(self, small_space):
        everything = small_space.sample(random.Random(0), 100)
        assert len(everything) == small_space.size

    def test_neighbours_step_one_param_by_one_notch(self, small_space):
        centre = {"boost": 1_036_800, "settle": 20_000}
        steps = small_space.neighbours(centre)
        assert {small_space.config(c) for c in steps} == {
            "qoe_aware:boost=960000,settle=20000",
            "qoe_aware:boost=1190400,settle=20000",
            "qoe_aware:boost=1036800,settle=40000",
        }

    def test_unknown_governor_rejected(self):
        with pytest.raises(ReproError, match="warp"):
            GovernorSpace(
                "warp", [ParamSpec("x", (1,))], snapdragon_8074_table()
            )

    def test_undeclared_tunable_rejected(self):
        with pytest.raises(ReproError, match="bogus"):
            GovernorSpace(
                "qoe_aware",
                [ParamSpec("bogus", (1,))],
                snapdragon_8074_table(),
            )

    def test_out_of_table_frequency_rejected(self):
        with pytest.raises(ReproError, match="123"):
            GovernorSpace(
                "qoe_aware",
                [ParamSpec("boost", (123,), unit="khz")],
                snapdragon_8074_table(),
            )


class TestBuiltinSpaces:
    def test_every_studied_governor_has_a_space(self):
        assert builtin_space_names() == [
            "conservative",
            "interactive",
            "ondemand",
            "qoe_aware",
        ]

    @pytest.mark.parametrize("governor", builtin_space_names())
    def test_candidates_construct_real_governors(self, governor, device):
        space = builtin_space(governor, snapdragon_8074_table())
        assert space.size > 1
        candidate = next(space.grid())
        installed = device.set_governor(space.config(candidate))
        assert installed.name == governor

    def test_unknown_space_rejected(self):
        with pytest.raises(ReproError, match="powersave"):
            builtin_space("powersave", snapdragon_8074_table())
