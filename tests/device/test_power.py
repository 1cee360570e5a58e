"""Unit tests for the power model and energy meter."""

import pytest

from repro.core.errors import SimulationError
from repro.device.frequencies import snapdragon_8074_table
from repro.device.power import EnergyMeter, PowerModel


@pytest.fixture
def model():
    return PowerModel()


@pytest.fixture
def table():
    return snapdragon_8074_table()


class TestPowerModel:
    def test_active_power_increases_with_frequency(self, model, table):
        powers = [model.active_power(p.freq_khz, p.volts) for p in table]
        assert powers == sorted(powers)
        assert powers[0] > model.idle_power()

    def test_most_efficient_frequency_is_the_voltage_knee(self, model, table):
        # The paper's calibration finds 0.96 GHz the most efficient OPP.
        assert model.most_efficient_frequency(table) == 960_000

    def test_energy_per_work_u_shape(self, model, table):
        energies = [
            model.energy_per_gigacycle(p.freq_khz, p.volts) for p in table
        ]
        best = energies.index(min(energies))
        assert 0 < best < len(energies) - 1
        # Low end ~1.1x the minimum, high end ~1.7-2.0x (the paper's shape).
        assert 1.05 < energies[0] / min(energies) < 1.3
        assert 1.5 < energies[-1] / min(energies) < 2.2

    def test_invalid_constants_rejected(self):
        with pytest.raises(SimulationError):
            PowerModel(kappa=0)
        with pytest.raises(SimulationError):
            PowerModel(idle_w=0.5, active_base_w=0.1)


class TestEnergyMeter:
    def test_idle_energy_accumulates(self, model, table):
        meter = EnergyMeter(model, table)
        assert meter.energy_at(1_000_000) == pytest.approx(model.idle_power())
        meter.set_state(1_000_000, False, table.min_khz)
        assert meter.energy_at(1_000_000) == pytest.approx(model.idle_power())

    def test_busy_energy_at_frequency(self, model, table):
        meter = EnergyMeter(model, table)
        point = table.point(960_000)
        meter.set_state(0, True, point.freq_khz)
        meter.set_state(2_000_000, True, point.freq_khz)
        expected = 2 * model.active_power(point.freq_khz, point.volts)
        assert meter.energy_at(2_000_000) == pytest.approx(expected)
        assert meter.busy_energy_at(2_000_000) == pytest.approx(expected)

    def test_energy_at_includes_open_interval(self, model, table):
        meter = EnergyMeter(model, table)
        point = table.point(300_000)
        meter.set_state(0, True, point.freq_khz)
        live = meter.energy_at(500_000)
        assert live == pytest.approx(
            0.5 * model.active_power(point.freq_khz, point.volts)
        )

    def test_meter_cannot_rewind(self, model, table):
        meter = EnergyMeter(model, table)
        meter.set_state(100, False, table.min_khz)
        with pytest.raises(SimulationError):
            meter.set_state(50, False, table.min_khz)

    def test_mixed_busy_idle_split(self, model, table):
        meter = EnergyMeter(model, table)
        point = table.point(960_000)
        meter.set_state(0, True, point.freq_khz)
        meter.set_state(1_000_000, False, point.freq_khz)
        meter.set_state(2_000_000, False, point.freq_khz)
        active = model.active_power(point.freq_khz, point.volts)
        assert meter.busy_energy_at(2_000_000) == pytest.approx(active)
        assert meter.energy_at(2_000_000) == pytest.approx(
            active + model.idle_power()
        )

    def test_busy_energy_at_while_idle_is_static(self, model, table):
        meter = EnergyMeter(model, table)
        meter.set_state(1_000_000, False, table.min_khz)
        assert meter.busy_energy_at(2_000_000) == meter.busy_energy_at(1_000_000)
