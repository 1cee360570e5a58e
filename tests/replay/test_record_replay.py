"""Recorder + replay agent: the paper's core repeatability property."""

import pytest

from repro.core.engine import PRIORITY_TASK, Engine
from repro.core.errors import ReplayError
from repro.core.events import (
    ABS_MT_TRACKING_ID,
    EV_MSC,
    TRACKING_ID_NONE,
    InputEvent,
)
from repro.core.geometry import Point
from repro.core.simtime import seconds
from repro.device.device import Device
from repro.device.input_device import InputSubsystem
from repro.replay import GeteventRecorder, ReplayAgent
from repro.replay.trace import EventTrace


def record_two_taps():
    device = Device()
    recorder = GeteventRecorder(device.input_subsystem)
    recorder.start()
    device.touchscreen.schedule_tap(seconds(1), Point(30, 40))
    device.touchscreen.schedule_tap(seconds(2), Point(50, 60))
    device.run_for(seconds(3))
    return recorder.stop()


def test_recorder_captures_all_packets():
    trace = record_two_taps()
    downs = [
        e.timestamp
        for e in trace
        if e.code == ABS_MT_TRACKING_ID and e.value != TRACKING_ID_NONE
    ]
    assert downs == [seconds(1), seconds(2)]
    # Each tap: 5 ABS + SYN on down, 1 ABS + SYN on up = 8 events.
    assert len(trace) == 16


def test_recorder_stop_detaches():
    device = Device()
    recorder = GeteventRecorder(device.input_subsystem)
    recorder.start()
    trace = recorder.stop()
    device.touchscreen.schedule_tap(seconds(1), Point(30, 40))
    device.run_for(seconds(2))
    assert len(trace) == 0


def test_replay_reproduces_exact_timing():
    trace = record_two_taps()
    device = Device()
    seen = []
    device.input_subsystem.node("/dev/input/event1").add_observer(
        lambda e: seen.append(e)
    )
    agent = ReplayAgent(device.engine, device.input_subsystem)
    last = agent.schedule(trace)
    device.run_for(seconds(3))
    assert agent.events_injected == len(trace)
    assert [e.timestamp for e in seen] == [e.timestamp for e in trace]
    assert last == trace.events[-1].timestamp


def test_recorded_then_replayed_trace_is_identical_when_rerecorded():
    """Record a replay of a recording: the identical event sequence."""
    original = record_two_taps()
    device = Device()
    recorder = GeteventRecorder(device.input_subsystem)
    recorder.start()
    ReplayAgent(device.engine, device.input_subsystem).schedule(original)
    device.run_for(seconds(3))
    rerecorded = recorder.stop()
    assert rerecorded.events == original.events


NODE = "/dev/input/event9"


def bare_rig():
    """An engine and one input node with nothing else on the queue."""
    engine = Engine()
    subsystem = InputSubsystem()
    seen = []
    subsystem.register(NODE, "test-input").add_observer(
        lambda e: seen.append((engine.now, e.value))
    )
    return engine, ReplayAgent(engine, subsystem), seen


def synthetic_trace(timestamps):
    return EventTrace(
        [InputEvent(t, NODE, EV_MSC, 0, index)
         for index, t in enumerate(timestamps)]
    )


@pytest.mark.parametrize("length", [1, 10, 5_000])
def test_schedule_adds_one_queue_entry_whatever_the_trace_length(length):
    engine, agent, seen = bare_rig()
    last = agent.schedule(synthetic_trace(range(100, 100 + 3 * length, 3)))
    assert len(engine._queue) == 1
    assert last == 100 + 3 * (length - 1)
    engine.run_until(last // 2)
    assert len(engine._queue) == 1
    engine.run_until(last)
    assert len(seen) == agent.events_injected == length
    assert [t for t, _value in seen] == list(range(100, last + 1, 3))
    assert len(engine._queue) == 0


def test_same_timestamp_inputs_keep_trace_order_before_task_events():
    engine, agent, seen = bare_rig()
    # Scheduled first, so its seq is lower than every cursor re-arm:
    # only the priority puts the inputs ahead of it.
    engine.schedule_at(
        50, lambda: seen.append((engine.now, "task")), PRIORITY_TASK
    )
    agent.schedule(synthetic_trace([10, 50, 50, 50, 60]))
    engine.run_until(100)
    assert seen == [(10, 0), (50, 1), (50, 2), (50, 3), (50, "task"), (60, 4)]


def test_schedule_draws_one_seq_per_input():
    engine, agent, _seen = bare_rig()
    trace = synthetic_trace([5, 5, 7, 20, 1_000, 1_000])
    agent.schedule(trace)
    engine.run_until(2_000)
    assert engine.events_scheduled == len(trace)
    assert engine.events_fired == len(trace)


def test_empty_trace_arms_nothing_and_returns_now():
    engine, agent, _seen = bare_rig()
    engine.run_until(250)
    assert agent.schedule(EventTrace()) == 250
    assert engine.events_scheduled == 0
    assert len(engine._queue) == 0


def test_second_schedule_while_replaying_raises():
    engine, agent, seen = bare_rig()
    agent.schedule(synthetic_trace([10, 20]))
    with pytest.raises(ReplayError, match="already replaying"):
        agent.schedule(synthetic_trace([30]))
    engine.run_until(100)
    # Once the first trace is exhausted the agent takes another.
    agent.schedule(synthetic_trace([150]))
    engine.run_until(200)
    assert [t for t, _value in seen] == [10, 20, 150]


def test_schedule_rejects_a_past_event_and_arms_nothing():
    engine, agent, _seen = bare_rig()
    engine.run_until(100)
    with pytest.raises(ReplayError, match="in the past"):
        agent.schedule(synthetic_trace([50, 150]))
    assert len(engine._queue) == 0
