"""Integration-style tests for the window manager and views."""

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.core.simtime import seconds
from repro.device.display import VSYNC_PERIOD_US


def test_home_app_is_foreground(phone):
    _device, wm = phone
    assert wm.foreground is wm.app("launcher")


def test_duplicate_install_rejected(phone):
    from repro.apps.launcher import LauncherApp

    _device, wm = phone
    with pytest.raises(SimulationError):
        wm.install(LauncherApp())


def test_unknown_app_rejected(phone):
    _device, wm = phone
    with pytest.raises(SimulationError):
        wm.app("does-not-exist")


def test_tap_on_icon_dispatches_and_journals(phone):
    device, wm = phone
    device.set_governor("fixed:960000")
    launcher = wm.app("launcher")
    device.touchscreen.schedule_tap(
        seconds(1), launcher.tap_target("icon:gallery")
    )
    device.run_for(seconds(5))
    assert wm.foreground is wm.app("gallery")
    assert wm.journal.gestures[0].consumed
    assert wm.journal.interactions[0].label == "launcher:launch:gallery"


def test_dead_tap_is_spurious(phone):
    device, wm = phone
    device.set_governor("fixed:960000")
    launcher = wm.app("launcher")
    device.touchscreen.schedule_tap(seconds(1), launcher.tap_target("dead"))
    device.run_for(seconds(2))
    assert len(wm.journal.gestures) == 1
    assert wm.journal.interactions == []


def test_nav_home_switches_back_with_interaction(phone):
    device, wm = phone
    device.set_governor("fixed:960000")
    launcher = wm.app("launcher")
    device.touchscreen.schedule_tap(
        seconds(1), launcher.tap_target("icon:music")
    )
    device.engine.schedule_at(
        seconds(5),
        lambda: device.touchscreen.schedule_tap(
            seconds(6), wm.home_button_point()
        ),
    )
    device.run_for(seconds(9))
    assert wm.foreground is launcher
    labels = [r.label for r in wm.journal.interactions]
    assert "nav:home" in labels
    assert all(r.complete for r in wm.journal.interactions)


def test_minute_tick_recomposes_for_clock(phone):
    device, _wm = phone
    before = device.display.frames_composed
    device.run_for(seconds(121))
    # At least the two minute boundaries must have composed frames.
    assert device.display.frames_composed >= before + 2


def test_composition_contains_status_bar_and_navbar(phone):
    device, wm = phone
    device.display.invalidate()
    device.run_for(2 * VSYNC_PERIOD_US)
    framebuffer = device.display.framebuffer
    assert np.any(framebuffer[: wm.status_bar.rect.h, :] > 0)
    assert np.any(framebuffer[wm.nav_bar_rect.y :, :] > 0)


def test_dynamic_regions_include_clock(phone):
    _device, wm = phone
    regions = wm._dynamic_regions()
    assert wm.status_bar.clock_rect in regions


def test_animation_hold_drives_recomposition(phone):
    device, wm = phone
    wm.hold_animation()
    start = device.display.frames_composed
    device.run_for(seconds(1))
    wm.release_animation()
    assert device.display.frames_composed - start >= 8


def test_release_without_hold_rejected(phone):
    _device, wm = phone
    with pytest.raises(SimulationError):
        wm.release_animation()


def test_aftermath_work_submitted_on_completion(phone):
    device, wm = phone
    device.set_governor("fixed:2150400")
    launcher = wm.app("launcher")
    device.touchscreen.schedule_tap(
        seconds(1), launcher.tap_target("icon:calculator")
    )
    device.run_for(seconds(3))
    # The launch interaction completed and left background aftermath work.
    assert wm.journal.interactions[0].complete
    assert device.scheduler.completed_cycles > 0
