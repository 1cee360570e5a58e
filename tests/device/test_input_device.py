"""Unit tests for the input subsystem."""

import pytest

from repro.core import events as ev
from repro.core.errors import ReplayError
from repro.device.input_device import InputSubsystem

PATH = "/dev/input/event1"


def make_event(path=PATH, value=1):
    return ev.InputEvent(0, path, ev.EV_ABS, ev.ABS_MT_POSITION_X, value)


def test_register_and_lookup():
    subsystem = InputSubsystem()
    node = subsystem.register(PATH, "touch")
    assert subsystem.node(PATH) is node


def test_duplicate_registration_rejected():
    subsystem = InputSubsystem()
    subsystem.register(PATH, "touch")
    with pytest.raises(ReplayError):
        subsystem.register(PATH, "other")


def test_unknown_node_rejected():
    with pytest.raises(ReplayError):
        InputSubsystem().node("/dev/input/event9")


def test_events_delivered_to_all_observers():
    subsystem = InputSubsystem()
    node = subsystem.register(PATH, "touch")
    seen_a, seen_b = [], []
    node.add_observer(seen_a.append)
    node.add_observer(seen_b.append)
    node.emit(make_event())
    assert len(seen_a) == len(seen_b) == 1


def test_wrong_device_rejected():
    subsystem = InputSubsystem()
    node = subsystem.register(PATH, "touch")
    with pytest.raises(ReplayError):
        node.emit(make_event(path="/dev/input/event2"))


def test_removed_observer_stops_receiving():
    subsystem = InputSubsystem()
    node = subsystem.register(PATH, "touch")
    seen = []
    node.add_observer(seen.append)
    node.remove_observer(seen.append)
    node.emit(make_event())
    assert seen == []


def test_subsystem_routes_by_device():
    subsystem = InputSubsystem()
    touch = subsystem.register(PATH, "touch")
    buttons = subsystem.register("/dev/input/event2", "buttons")
    seen = []
    touch.add_observer(seen.append)
    buttons.add_observer(lambda e: seen.append("wrong"))
    subsystem.emit(make_event())
    assert seen != [] and "wrong" not in seen
