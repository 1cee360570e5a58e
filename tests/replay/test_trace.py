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


def test_duration():
    trace = EventTrace([make_event(100), make_event(500)])
    assert trace.duration_us == 400
    assert EventTrace().duration_us == 0


def test_shifted_moves_all_timestamps():
    trace = EventTrace([make_event(100), make_event(200)])
    shifted = trace.shifted(1000)
    assert [e.timestamp for e in shifted] == [1100, 1200]
    # Original untouched.
    assert [e.timestamp for e in trace] == [100, 200]
