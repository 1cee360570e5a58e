"""Device profiles: hardware variants scenarios can run on.

A :class:`DeviceProfile` names one hardware configuration — an OPP
subset of the Snapdragon 8074 table (or the full table), a power-model
variant and a panel size — and builds the matching
:class:`~repro.device.device.DeviceConfig`.  Profiles are pure values
derived from :mod:`repro.device.frequencies`, so the same profile name
always yields the same table, the same recording frequency (the
table's lowest OPP) and the same sweep grid (one ``fixed:<khz>``
configuration per OPP plus the governors).

``stock`` reproduces the paper's Dragonboard exactly: the full
14-point table, the default power model and the default panel —
running a scenario on ``stock`` is bit-identical to the pre-profile
code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import WorkloadError
from repro.device.device import (
    DEFAULT_SCREEN_HEIGHT,
    DEFAULT_SCREEN_WIDTH,
    DeviceConfig,
)
from repro.device.frequencies import (
    SNAPDRAGON_8074_FREQS_KHZ,
    FrequencyTable,
    OperatingPoint,
    rail_voltage,
    snapdragon_8074_table,
)
from repro.device.power import (
    DEFAULT_ACTIVE_BASE_W,
    DEFAULT_IDLE_W,
    DEFAULT_KAPPA,
    PowerModel,
)


@dataclass(frozen=True, slots=True)
class DeviceProfile:
    """One simulated hardware variant."""

    name: str
    description: str
    #: The OPPs this device exposes (a subset of the 8074 table).
    freqs_khz: tuple[int, ...]
    screen_width: int = DEFAULT_SCREEN_WIDTH
    screen_height: int = DEFAULT_SCREEN_HEIGHT
    #: Power-model constants (see :class:`repro.device.power.PowerModel`).
    kappa: float = DEFAULT_KAPPA
    active_base_w: float = DEFAULT_ACTIVE_BASE_W
    idle_w: float = DEFAULT_IDLE_W

    def frequency_table(self) -> FrequencyTable:
        if self.freqs_khz == SNAPDRAGON_8074_FREQS_KHZ:
            return snapdragon_8074_table()
        return FrequencyTable(
            [
                OperatingPoint(freq_khz=khz, volts=rail_voltage(khz))
                for khz in self.freqs_khz
            ]
        )

    def power_model(self) -> PowerModel:
        return PowerModel(
            kappa=self.kappa,
            active_base_w=self.active_base_w,
            idle_w=self.idle_w,
        )

    def device_config(self) -> DeviceConfig:
        return DeviceConfig(
            screen_width=self.screen_width,
            screen_height=self.screen_height,
            power_model=self.power_model(),
            frequency_table=self.frequency_table(),
        )


PROFILES: dict[str, DeviceProfile] = {
    profile.name: profile
    for profile in (
        DeviceProfile(
            name="stock",
            description="The paper's Dragonboard APQ8074: full 14-OPP table.",
            freqs_khz=SNAPDRAGON_8074_FREQS_KHZ,
        ),
        DeviceProfile(
            name="quad_ls",
            description=(
                "Little-cluster quad: the eight OPPs up to 1.19 GHz, "
                "low-power core constants."
            ),
            freqs_khz=SNAPDRAGON_8074_FREQS_KHZ[:8],
            kappa=0.48,
            active_base_w=0.052,
            idle_w=0.031,
        ),
        DeviceProfile(
            name="hexa_perf",
            description=(
                "Performance hexa: the six OPPs from 1.27 GHz up, hotter "
                "idle floor (no deep sleep below the big cluster)."
            ),
            freqs_khz=SNAPDRAGON_8074_FREQS_KHZ[8:],
            kappa=0.66,
            active_base_w=0.080,
            idle_w=0.052,
        ),
        DeviceProfile(
            name="tablet_hd",
            description=(
                "Tablet variant: full OPP table driving a 96x160 panel "
                "with a higher display power floor."
            ),
            freqs_khz=SNAPDRAGON_8074_FREQS_KHZ,
            screen_width=96,
            screen_height=160,
            active_base_w=0.074,
            idle_w=0.049,
        ),
    )
}


def device_profile(name: str) -> DeviceProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise WorkloadError(
            f"unknown device profile {name!r} (known: {known})"
        ) from None


def device_config_for(spec) -> DeviceConfig:
    """The :class:`DeviceConfig` a dataset spec's profile prescribes."""
    return device_profile(getattr(spec, "profile", "stock")).device_config()


def frequency_table_for(spec) -> FrequencyTable:
    """The OPP table a dataset spec's profile prescribes."""
    return device_profile(getattr(spec, "profile", "stock")).frequency_table()


def power_model_for(spec) -> PowerModel:
    """The power model a dataset spec's profile prescribes."""
    return device_profile(getattr(spec, "profile", "stock")).power_model()
