"""The assembled device: engine, core, cpufreq, input, display.

A :class:`Device` is the simulated equivalent of the paper's Dragonboard:
one active core with the Snapdragon 8074 OPP table, a touchscreen exposed
at ``/dev/input/event1``, a 30 fps panel, and a cpufreq policy ready to
host any registered governor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import Engine
from repro.core.errors import GovernorError
from repro.device.cpu import CpuCore
from repro.device.cpufreq import CpuFreqPolicy
from repro.device.display import Display
from repro.device.frequencies import FrequencyTable, snapdragon_8074_table
from repro.device.input_device import InputSubsystem
from repro.device.loadtracker import LoadTracker
from repro.device.power import PowerModel
from repro.device.touchscreen import Touchscreen
from repro.kernel.scheduler import Scheduler

TOUCHSCREEN_PATH = "/dev/input/event1"
TOUCHSCREEN_NAME = "synthetic-touchscreen"

# Galaxy-Nexus-class 720x1280 panel scaled 1:10; touch coordinates map 1:1
# onto framebuffer pixels.
DEFAULT_SCREEN_WIDTH = 72
DEFAULT_SCREEN_HEIGHT = 128


@dataclass(slots=True)
class DeviceConfig:
    """Construction parameters for a simulated device."""

    screen_width: int = DEFAULT_SCREEN_WIDTH
    screen_height: int = DEFAULT_SCREEN_HEIGHT
    power_model: PowerModel = field(default_factory=PowerModel)
    frequency_table: FrequencyTable = field(default_factory=snapdragon_8074_table)


class Device:
    """The simulated phone the experiments run on."""

    def __init__(self, config: DeviceConfig | None = None) -> None:
        self.config = config or DeviceConfig()
        self.engine = Engine()
        self.cpu = CpuCore(
            self.engine.clock,
            self.config.frequency_table,
            self.config.power_model,
        )
        self.policy = CpuFreqPolicy(self.engine.clock, self.cpu)
        self.scheduler = Scheduler(self.engine, self.cpu)
        # Bound method, not a lambda: one frame less per DVFS transition.
        self.policy.add_transition_observer(self.scheduler.on_transition)
        self.input_subsystem = InputSubsystem()
        touch_node = self.input_subsystem.register(
            TOUCHSCREEN_PATH, TOUCHSCREEN_NAME
        )
        self.touchscreen = Touchscreen(
            self.engine,
            touch_node,
            self.config.screen_width,
            self.config.screen_height,
        )
        self.display = Display(
            self.engine, self.config.screen_width, self.config.screen_height
        )
        self._governor = None

    @property
    def governor(self):
        return self._governor

    def governor_context(self):
        """A fresh :class:`~repro.governors.base.GovernorContext`."""
        from repro.governors.base import GovernorContext

        return GovernorContext(
            engine=self.engine,
            policy=self.policy,
            load_tracker=LoadTracker(self.engine.clock, self.cpu),
            input_subsystem=self.input_subsystem,
            scheduler=self.scheduler,
        )

    def set_governor(self, name: str):
        """Install and start a governor by its config string.

        A device takes one governor for its lifetime, as each of the
        paper's replays runs under one configuration; a second call
        raises :class:`GovernorError`.  ``fixed:<khz>`` pins the userspace
        governor at a frequency and is the only spelling of a pinned
        frequency, which is how the paper's 14 fixed-frequency
        configurations are run; ``name:key=value,...`` sets a governor's
        parameters.
        """
        from repro.governors.base import create_governor

        if self._governor is not None:
            raise GovernorError(
                f"device already runs governor {self._governor.name!r}; "
                "a device takes one governor"
            )
        governor = create_governor(name, self.governor_context())
        governor.start()
        self._governor = governor
        return governor

    def run_for(self, duration_us: int) -> None:
        """Advance the simulation by ``duration_us`` microseconds."""
        if duration_us < 0:
            raise GovernorError("duration must be >= 0")
        self.engine.run_until(self.engine.now + duration_us)
