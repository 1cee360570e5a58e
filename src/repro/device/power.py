"""Power model and energy accounting.

The paper calibrates a power model by running a CPU-bound microbenchmark at
every operating point, measuring overall system power and subtracting the
idle system power to obtain dynamic core power per frequency.  We model
active power as

    P_active(f) = P_base + kappa * V(f)^2 * f

(the classic CMOS dynamic term plus the static power burnt while the core
is out of its sleep state) and a low idle power while the core sleeps.
Because the rail voltage has a floor below ~0.96 GHz, the energy needed to
retire a fixed amount of work,

    E_per_work(f) = (P_base - P_idle) / f + kappa * V(f)^2,

is minimised at the voltage knee — reproducing both the paper's
race-to-idle discussion and its observation that 0.96 GHz is the most
energy-efficient fixed frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import SimulationError
from repro.core.simtime import MICROS_PER_SECOND
from repro.device.frequencies import FrequencyTable

# Default model constants (watts, watts per GHz*V^2).  Chosen so that a
# 10-minute interaction-intensive workload lands in the paper's 60-100 J
# range (Fig. 13) and the fixed-frequency energy curve has the paper's
# shape: ~1.1x minimum at 0.30 GHz and ~1.7x minimum at 2.15 GHz.
DEFAULT_KAPPA = 0.62
DEFAULT_ACTIVE_BASE_W = 0.062
DEFAULT_IDLE_W = 0.037


@dataclass(frozen=True, slots=True)
class PowerModel:
    """Maps core state (busy/idle, frequency) to power draw in watts."""

    kappa: float = DEFAULT_KAPPA
    active_base_w: float = DEFAULT_ACTIVE_BASE_W
    idle_w: float = DEFAULT_IDLE_W

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise SimulationError("kappa must be positive")
        if self.idle_w < 0 or self.active_base_w < self.idle_w:
            raise SimulationError(
                "need 0 <= idle power <= active base power for race-to-idle"
            )

    def active_power(self, freq_khz: int, volts: float) -> float:
        """Power while the core is executing at the given operating point."""
        freq_ghz = freq_khz / 1e6
        return self.active_base_w + self.kappa * volts * volts * freq_ghz

    def idle_power(self) -> float:
        """Power while the core sleeps in its idle state."""
        return self.idle_w

    def energy_per_gigacycle(self, freq_khz: int, volts: float) -> float:
        """Joules to retire 1e9 cycles at an OPP, *beyond* the idle floor.

        This is the quantity race-to-idle trades on: running slower keeps
        the core out of sleep longer, paying the base-power premium for
        more seconds.
        """
        freq_ghz = freq_khz / 1e6
        base_premium = self.active_base_w - self.idle_w
        return base_premium / freq_ghz + self.kappa * volts * volts

    def most_efficient_frequency(self, table: FrequencyTable) -> int:
        """The OPP minimising energy-per-work — the paper's microbenchmark
        calibration outcome (0.96 GHz on the Snapdragon 8074 table)."""
        best = min(
            table.points,
            key=lambda p: self.energy_per_gigacycle(p.freq_khz, p.volts),
        )
        return best.freq_khz


class EnergyMeter:
    """Integrates a core's power draw over time as it changes state.

    The meter is updated lazily: callers invoke :meth:`set_state` with
    the current timestamp, and the meter charges the elapsed interval at
    the power of the *previous* state.
    Active power per operating point is computed once from the model:
    busy edges and retunes run tens of thousands of times per replay,
    always among the table's handful of OPPs.
    """

    def __init__(self, model: PowerModel, table: FrequencyTable) -> None:
        self._opp_power_w = {
            point.freq_khz: model.active_power(point.freq_khz, point.volts)
            for point in table.points
        }
        self._idle_power_w = model.idle_power()
        self._energy_j = 0.0
        self._busy_energy_j = 0.0
        self._last_sync = 0
        self._power_w = self._idle_power_w
        self._busy = False

    @property
    def energy_joules(self) -> float:
        """Total energy charged up to the last :meth:`set_state`."""
        return self._energy_j

    def busy_energy_at(self, now: int) -> float:
        """Busy energy including the open tail interval up to ``now``."""
        if not self._busy:
            return self._busy_energy_j
        elapsed_s = (now - self._last_sync) / MICROS_PER_SECOND
        if elapsed_s < 0:
            raise SimulationError("cannot query energy in the past")
        return self._busy_energy_j + self._power_w * elapsed_s

    def set_state(self, now: int, busy: bool, freq_khz: int) -> None:
        """Record a state change (busy/idle or frequency) at ``now``.

        Charges the interval since the last change at the previous
        state's power first.
        """
        if now < self._last_sync:
            raise SimulationError(
                f"energy meter cannot rewind: {now} < {self._last_sync}"
            )
        charge = self._power_w * ((now - self._last_sync) / MICROS_PER_SECOND)
        self._energy_j += charge
        if self._busy:
            self._busy_energy_j += charge
        self._last_sync = now
        self._busy = busy
        self._power_w = self._opp_power_w[freq_khz] if busy else self._idle_power_w

    def energy_at(self, now: int) -> float:
        """Total energy including the open tail interval up to ``now``."""
        elapsed_s = (now - self._last_sync) / MICROS_PER_SECOND
        if elapsed_s < 0:
            raise SimulationError("cannot query energy in the past")
        return self._energy_j + self._power_w * elapsed_s
