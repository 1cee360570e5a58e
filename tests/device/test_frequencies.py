"""Unit tests for the OPP table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.device.frequencies import (
    OperatingPoint,
    FrequencyTable,
    SNAPDRAGON_8074_FREQS_KHZ,
    VOLTAGE_FLOOR,
    rail_voltage,
    snapdragon_8074_table,
)


@pytest.fixture
def table():
    return snapdragon_8074_table()


def test_fourteen_operating_points(table):
    assert len(table) == 14


def test_min_max(table):
    assert table.min_khz == 300_000
    assert table.max_khz == 2_150_400


def test_labels_match_paper_axis(table):
    labels = [p.label for p in table]
    assert labels[0] == "0.30 GHz"
    assert labels[5] == "0.96 GHz"
    assert labels[-1] == "2.15 GHz"


def test_voltage_floor_below_knee():
    assert rail_voltage(300_000) == VOLTAGE_FLOOR
    assert rail_voltage(960_000) == VOLTAGE_FLOOR


def test_voltage_rises_above_knee():
    assert rail_voltage(2_150_400) > rail_voltage(1_497_600) > VOLTAGE_FLOOR


def test_voltages_monotonic(table):
    volts = [p.volts for p in table]
    assert volts == sorted(volts)


def test_ceil_and_floor(table):
    assert table.ceil(960_001) == 1_036_800
    assert table.floor(960_001) == 960_000
    assert table.ceil(960_000) == 960_000
    assert table.floor(960_000) == 960_000


def test_ceil_clamps_to_max(table):
    assert table.ceil(9_999_999) == table.max_khz


def test_floor_clamps_to_min(table):
    assert table.floor(1) == table.min_khz


def test_step_up(table):
    assert table.step_up(300_000) == 422_400
    assert table.step_up(table.max_khz) == table.max_khz
    assert table.step_up(300_000, steps=2) == 652_800


def test_point_lookup(table):
    assert table.point(960_000).freq_ghz == pytest.approx(0.96)
    with pytest.raises(SimulationError):
        table.point(123_456)


def test_contains(table):
    assert table.contains(1_728_000)
    assert not table.contains(1_728_001)


def test_empty_table_rejected():
    with pytest.raises(SimulationError):
        FrequencyTable([])


def test_duplicate_points_rejected():
    point = OperatingPoint(100_000, 0.8)
    with pytest.raises(SimulationError):
        FrequencyTable([point, OperatingPoint(100_000, 0.9)])


@given(st.integers(1, 3_000_000))
def test_floor_le_ceil(khz):
    table = snapdragon_8074_table()
    assert table.floor(khz) <= table.ceil(khz)


@given(st.sampled_from(SNAPDRAGON_8074_FREQS_KHZ))
def test_floor_ceil_fixpoint_on_opp(khz):
    table = snapdragon_8074_table()
    assert table.floor(khz) == khz == table.ceil(khz)
