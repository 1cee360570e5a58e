"""Tests for the assembled Device facade."""

import pytest

from repro.core.errors import GovernorError
from repro.core.simtime import seconds
from repro.device.device import (
    DEFAULT_SCREEN_HEIGHT,
    DEFAULT_SCREEN_WIDTH,
    TOUCHSCREEN_PATH,
    Device,
    DeviceConfig,
)
from repro.device.power import PowerModel


def test_default_configuration(device):
    assert device.display.width == DEFAULT_SCREEN_WIDTH
    assert device.display.height == DEFAULT_SCREEN_HEIGHT
    assert len(device.cpu.table) == 14
    assert device.input_subsystem.node(TOUCHSCREEN_PATH) is device.touchscreen.node


def test_governor_lifecycle(device):
    governor = device.set_governor("ondemand")
    with pytest.raises(GovernorError, match="one governor"):
        device.set_governor("fixed:2150400")
    assert device.governor is governor
    with pytest.raises(GovernorError, match="already started"):
        governor.start()


def test_fixed_governor_shorthand(device):
    device.set_governor("fixed:1497600")
    assert device.policy.current_khz == 1_497_600


def test_governor_tunables_forwarded(device):
    governor = device.set_governor("ondemand:up_threshold=60")
    assert governor.up_threshold == 60


def test_run_for_advances_time(device):
    device.run_for(seconds(5))
    assert device.engine.now == seconds(5)


def test_run_for_negative_rejected(device):
    with pytest.raises(GovernorError):
        device.run_for(-1)


def test_frequency_change_reschedules_running_task(device):
    from repro.device.cpufreq import RELATION_HIGH
    from repro.kernel.task import Task

    device.set_governor("fixed:300000")
    done = []
    device.scheduler.submit(
        Task("t", 600e6, on_complete=lambda t: done.append(device.engine.now))
    )
    device.engine.schedule_at(
        seconds(1),
        lambda: device.policy.set_target(2_150_400, RELATION_HIGH),
    )
    device.run_for(seconds(3))
    # 1 s at 0.3 GHz + remaining 300e6 at 2.1504 GHz.
    assert done[0] == pytest.approx(1_139_509, abs=10)


def test_custom_power_model(device):
    custom = DeviceConfig(power_model=PowerModel(idle_w=0.0, active_base_w=0.01))
    dev = Device(custom)
    dev.run_for(seconds(10))
    assert dev.cpu.energy_joules() == pytest.approx(0.0)


def test_custom_screen_size():
    dev = Device(DeviceConfig(screen_width=40, screen_height=60))
    assert dev.display.framebuffer.shape == (60, 40)
