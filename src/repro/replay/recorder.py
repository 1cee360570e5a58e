"""Recording: capture kernel input events with exact timestamps.

The functional equivalent of running ``getevent -t`` on the device while
the user goes about their business (paper §II-B1): the recorder attaches
to input device nodes and logs every event it sees.
"""

from __future__ import annotations

from repro.core.events import InputEvent
from repro.device.input_device import InputDeviceNode, InputSubsystem
from repro.replay.trace import EventTrace


class GeteventRecorder:
    """Records all events flowing through the input subsystem."""

    def __init__(self, subsystem: InputSubsystem) -> None:
        self._subsystem = subsystem
        self._recording = False
        self._trace = EventTrace()
        self._attached: list[InputDeviceNode] = []

    def start(self) -> None:
        """Begin recording on every registered input node."""
        if self._recording:
            return
        self._recording = True
        self._trace = EventTrace()
        for node in self._subsystem.nodes():
            node.add_observer(self._on_event)
            self._attached.append(node)

    def stop(self) -> EventTrace:
        """Stop recording and return the captured trace."""
        if self._recording:
            for node in self._attached:
                node.remove_observer(self._on_event)
            self._attached.clear()
            self._recording = False
        return self._trace

    def _on_event(self, event: InputEvent) -> None:
        self._trace.append(event)
