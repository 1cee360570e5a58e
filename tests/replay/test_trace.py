"""Unit tests for event traces."""

import pytest

from repro.core import events as ev
from repro.core.errors import ReplayError
from repro.replay.trace import EventTrace

PATH = "/dev/input/event1"


def make_event(timestamp, code=ev.ABS_MT_POSITION_X, value=1):
    return ev.InputEvent(timestamp, PATH, ev.EV_ABS, code, value)


def test_out_of_order_rejected():
    with pytest.raises(ReplayError):
        EventTrace([make_event(100), make_event(50)])


def test_append_monotonic():
    trace = EventTrace([make_event(100)])
    trace.append(make_event(100))
    with pytest.raises(ReplayError):
        trace.append(make_event(99))
