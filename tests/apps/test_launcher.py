"""Behavioural tests for the launcher (home screen + widget)."""

import numpy as np

from repro.core.simtime import seconds
from repro.device.display import VSYNC_PERIOD_US
from repro.apps.launcher import WIDGET_RECT, WIDGET_REFRESH_PERIOD_US


def test_every_app_has_an_icon(phone):
    _device, wm = phone
    launcher = wm.app("launcher")
    for app in wm.apps():
        if app.name == "launcher":
            continue
        point = launcher.tap_target(f"icon:{app.name}")
        assert point is not None


def test_icons_do_not_overlap(phone):
    _device, wm = phone
    launcher = wm.app("launcher")
    rects = [icon.rect for icon in launcher._icons.values()]
    for i, a in enumerate(rects):
        for b in rects[i + 1 :]:
            assert a.intersection(b).area == 0


def test_widget_tap_opens_pulse(phone):
    device, wm = phone
    device.set_governor("fixed:2150400")
    launcher = wm.app("launcher")
    device.touchscreen.schedule_tap(seconds(1), launcher.tap_target("widget"))
    device.run_for(seconds(4))
    assert wm.foreground is wm.app("pulse")
    assert wm.journal.interactions[0].label == "launcher:widget:open-pulse"


def test_widget_refreshes_periodically(phone):
    device, wm = phone
    device.set_governor("fixed:960000")
    launcher = wm.app("launcher")
    assert launcher._widget.refresh_count == 0
    device.run_for(WIDGET_REFRESH_PERIOD_US + seconds(8))
    assert launcher._widget.refresh_count >= 1


def test_widget_refresh_changes_home_screen(phone):
    device, wm = phone
    device.set_governor("fixed:960000")
    launcher = wm.app("launcher")
    device.display.invalidate()
    device.run_for(2 * VSYNC_PERIOD_US)
    before = device.display.framebuffer.copy()
    device.run_for(WIDGET_REFRESH_PERIOD_US + seconds(8))
    device.display.invalidate()
    device.run_for(2 * VSYNC_PERIOD_US)
    after = device.display.framebuffer
    region = before[
        WIDGET_RECT.y : WIDGET_RECT.bottom, WIDGET_RECT.x : WIDGET_RECT.right
    ]
    region_after = after[
        WIDGET_RECT.y : WIDGET_RECT.bottom, WIDGET_RECT.x : WIDGET_RECT.right
    ]
    assert not np.array_equal(region, region_after)


def test_widget_is_a_dynamic_region(phone):
    _device, wm = phone
    launcher = wm.app("launcher")
    assert WIDGET_RECT in launcher.dynamic_regions()


def test_dead_target_hits_nothing(phone):
    device, wm = phone
    device.set_governor("fixed:960000")
    launcher = wm.app("launcher")
    device.touchscreen.schedule_tap(seconds(1), launcher.tap_target("dead"))
    device.run_for(seconds(2))
    assert wm.journal.interactions == []
