"""Tests for the sweep orchestration and oracle composition."""

import pytest

from repro.core.errors import ReproError
from repro.device.frequencies import snapdragon_8074_table
from repro.harness.sweep import (
    SweepResult,
    config_label,
    fixed_configs,
    governor_configs,
    run_sweep,
    sweep_configs,
)


@pytest.fixture(scope="module")
def small_sweep(artifacts_ds03):
    return run_sweep(artifacts_ds03, reps=1)


def test_seventeen_configurations():
    configs = sweep_configs(snapdragon_8074_table())
    assert len(configs) == 17
    assert len(fixed_configs(snapdragon_8074_table())) == 14
    assert governor_configs() == ["conservative", "interactive", "ondemand"]


def test_config_labels():
    table = snapdragon_8074_table()
    assert config_label("fixed:960000", table) == "0.96 GHz"
    assert config_label("ondemand", table) == "ondemand"


def test_sweep_runs_every_config(small_sweep):
    assert set(small_sweep.configs()) == set(sweep_configs(small_sweep.table))
    for config in small_sweep.configs():
        assert len(small_sweep.runs[config]) == 1


def test_oracle_energy_not_above_max_frequency(small_sweep):
    max_energy = small_sweep.mean_energy_j("fixed:2150400")
    assert small_sweep.oracle.energy_j < max_energy


def test_oracle_base_is_efficient_opp(small_sweep):
    assert small_sweep.oracle.base_khz == 960_000


def test_fixed_energy_curve_is_u_shaped(small_sweep):
    energies = [
        small_sweep.mean_energy_j(config)
        for config in fixed_configs(small_sweep.table)
    ]
    best = energies.index(min(energies))
    assert 0 < best < len(energies) - 1


def test_irritation_decreases_with_frequency(small_sweep):
    irritations = [
        small_sweep.mean_irritation_s(config)
        for config in fixed_configs(small_sweep.table)
    ]
    # Allow small non-monotonicities from frame quantisation.
    assert irritations[0] > irritations[-1]
    assert irritations[-1] == pytest.approx(0.0, abs=0.2)


def test_conservative_most_irritating_governor(small_sweep):
    conservative = small_sweep.mean_irritation_s("conservative")
    assert conservative > small_sweep.mean_irritation_s("interactive")
    assert conservative > small_sweep.mean_irritation_s("ondemand")


def test_conservative_cheapest_governor(small_sweep):
    conservative = small_sweep.mean_energy_j("conservative")
    assert conservative < small_sweep.mean_energy_j("interactive")
    assert conservative < small_sweep.mean_energy_j("ondemand")


def test_pooled_lag_durations(small_sweep):
    durations = small_sweep.pooled_lag_durations_ms("ondemand")
    assert len(durations) == len(small_sweep.runs["ondemand"][0].lag_profile)


def test_unknown_config_rejected(small_sweep):
    with pytest.raises(ReproError):
        small_sweep.mean_energy_j("warp-drive")


def test_normalisation_to_oracle(small_sweep):
    ratio = small_sweep.energy_normalised_to_oracle("fixed:960000")
    assert ratio == pytest.approx(
        small_sweep.mean_energy_j("fixed:960000") / small_sweep.oracle.energy_j
    )


class TestConfigParsing:
    """Edge cases of config_label / parse_sweep_configs (user input)."""

    table = snapdragon_8074_table()

    def test_parameterized_label_is_canonical(self):
        assert (
            config_label("qoe_aware:settle=40_000,boost=1_036_800", self.table)
            == "qoe_aware:boost=1036800,settle=40000"
        )

    def test_label_rejects_out_of_table_frequency(self):
        with pytest.raises(ReproError, match="999"):
            config_label("fixed:999", self.table)

    def test_label_rejects_malformed_strings(self):
        with pytest.raises(ReproError):
            config_label("fixed:fast", self.table)
        with pytest.raises(ReproError):
            config_label("qoe_aware:boost", self.table)

    def test_parse_sweep_configs_canonicalises_and_dedupes(self):
        from repro.harness.sweep import parse_sweep_configs

        out = parse_sweep_configs(
            [
                "qoe_aware:settle=40_000,boost=1_036_800",
                "qoe_aware:boost=1036800,settle=40000",
                "fixed:960_000",
            ],
            self.table,
        )
        assert out == [
            "qoe_aware:boost=1036800,settle=40000",
            "fixed:960000",
        ]

    def test_parse_sweep_configs_unknown_governor(self):
        from repro.harness.sweep import parse_sweep_configs

        with pytest.raises(ReproError, match="unknown governor 'warp'"):
            parse_sweep_configs(["warp:speed=9"], self.table)

    def test_parse_sweep_configs_unknown_tunable(self):
        from repro.harness.sweep import parse_sweep_configs

        with pytest.raises(ReproError, match="no tunable 'bogus'"):
            parse_sweep_configs(["qoe_aware:bogus=1"], self.table)

    def test_parse_sweep_configs_malformed_pair(self):
        from repro.harness.sweep import parse_sweep_configs

        with pytest.raises(ReproError, match="key=value"):
            parse_sweep_configs(["ondemand:up_threshold"], self.table)

    def test_parse_sweep_configs_out_of_table_fixed(self):
        from repro.harness.sweep import parse_sweep_configs

        with pytest.raises(ReproError, match="not an operating point"):
            parse_sweep_configs(["fixed:123456"], self.table)

    def test_parse_sweep_configs_out_of_table_frequency_param(self):
        from repro.harness.sweep import parse_sweep_configs

        # Off-table boost/hispeed values would silently clamp at runtime,
        # mislabelling the study data; they must be rejected pre-flight.
        with pytest.raises(ReproError, match="boost=103680"):
            parse_sweep_configs(["qoe_aware:boost=103680"], self.table)
        with pytest.raises(ReproError, match="hispeed=999"):
            parse_sweep_configs(["interactive:hispeed=999"], self.table)

    def test_parse_sweep_configs_rejects_out_of_range_values(self):
        from repro.harness.sweep import parse_sweep_configs

        with pytest.raises(ReproError, match="up_threshold"):
            parse_sweep_configs(["ondemand:up_threshold=0"], self.table)
        with pytest.raises(ReproError, match="timer period"):
            parse_sweep_configs(["qoe_aware:timer=-5"], self.table)
        with pytest.raises(ReproError, match="down_threshold"):
            parse_sweep_configs(["conservative:up_threshold=10"], self.table)

    def test_run_sweep_rejects_bad_config_before_replaying(self, artifacts_ds03):
        with pytest.raises(ReproError, match="no tunable"):
            run_sweep(
                artifacts_ds03, reps=1, configs=["qoe_aware:warp=1"]
            )
