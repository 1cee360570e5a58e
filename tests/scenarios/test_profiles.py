"""Tests for device profiles."""

import pytest

from repro.core.errors import WorkloadError
from repro.device.frequencies import snapdragon_8074_table
from repro.scenarios.profiles import (
    PROFILES,
    device_config_for,
    device_profile,
    frequency_table_for,
)
from repro.workloads.datasets import dataset


def test_profile_registry_shape():
    assert len(PROFILES) >= 2
    assert "stock" in PROFILES
    for profile in PROFILES.values():
        table = profile.frequency_table()
        assert len(table) >= 2
        assert profile.screen_width > 0 and profile.screen_height > 0
        # PowerModel invariants enforced at construction.
        profile.power_model()


def test_stock_profile_is_the_papers_device():
    config = device_profile("stock").device_config()
    stock = snapdragon_8074_table()
    assert config.frequency_table.frequencies_khz == stock.frequencies_khz
    assert config.screen_width == 72
    assert config.screen_height == 128


def test_quad_ls_is_a_subset_of_the_stock_table():
    table = device_profile("quad_ls").frequency_table()
    stock = set(snapdragon_8074_table().frequencies_khz)
    assert set(table.frequencies_khz) < stock
    assert table.max_khz < snapdragon_8074_table().max_khz


def test_unknown_profile_one_line_error():
    with pytest.raises(WorkloadError) as excinfo:
        device_profile("octa_phantom")
    assert "\n" not in str(excinfo.value)


def test_tables_resolve_from_dataset_specs():
    named = dataset("03")
    assert (
        frequency_table_for(named).frequencies_khz
        == snapdragon_8074_table().frequencies_khz
    )
    scenario = dataset("persona=gamer,seed=1,duration=45s,profile=quad_ls")
    assert (
        frequency_table_for(scenario).frequencies_khz
        == device_profile("quad_ls").frequency_table().frequencies_khz
    )
    assert device_config_for(scenario).frequency_table.min_khz == 300_000


def test_profiles_are_deterministic():
    for name in sorted(PROFILES):
        a = device_profile(name).device_config()
        b = device_profile(name).device_config()
        assert a.frequency_table.frequencies_khz == b.frequency_table.frequencies_khz
        assert a.power_model == b.power_model


def test_recording_and_replay_on_alternate_profile():
    """A scenario on quad_ls records at that table's floor and replays."""
    from repro.harness.experiment import record_workload, replay_run

    artifacts = record_workload(
        dataset("persona=messenger,seed=2,duration=45s,profile=quad_ls")
    )
    assert artifacts.input_count > 0
    table = frequency_table_for(artifacts.spec)
    result = replay_run(artifacts, f"fixed:{table.max_khz}")
    assert result.dynamic_energy_j > 0
    # Every DVFS state visited belongs to the profile's table.
    freqs = {khz for _t, khz in result.transitions}
    assert freqs <= set(table.frequencies_khz)
