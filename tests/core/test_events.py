"""Unit tests for input-event primitives."""

from repro.core import events as ev


def test_syn_report_detection():
    event = ev.InputEvent(0, "/dev/input/event1", ev.EV_SYN, ev.SYN_REPORT, 0)
    assert event.is_syn_report()


def test_abs_event_is_not_syn():
    event = ev.InputEvent(
        0, "/dev/input/event1", ev.EV_ABS, ev.ABS_MT_POSITION_X, 10
    )
    assert not event.is_syn_report()


def test_tracking_id_none_matches_getevent_ffffffff():
    assert ev.TRACKING_ID_NONE == 0xFFFFFFFF
