"""The evdev-like input subsystem.

Models ``/dev/input/event*`` device nodes: every hardware event is a
``(type, code, value)`` triple delivered to all readers of the node.  The
recorder (``getevent``), the UI framework's gesture decoder and the
interactive governor's input notifier all attach here, exactly mirroring
the consumers on a real Android system.
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import ReplayError
from repro.core.events import InputEvent

EventObserver = Callable[[InputEvent], None]


class InputDeviceNode:
    """One input device node, e.g. ``/dev/input/event1`` (touchscreen)."""

    def __init__(self, path: str, name: str) -> None:
        self.path = path
        self.name = name
        self._observers: list[EventObserver] = []

    def add_observer(self, observer: EventObserver) -> None:
        """Attach a reader; it will see every subsequent event."""
        self._observers.append(observer)

    def remove_observer(self, observer: EventObserver) -> None:
        self._observers.remove(observer)

    def emit(self, event: InputEvent) -> None:
        """Deliver one event to all readers (driver-side write)."""
        if event.device != self.path:
            raise ReplayError(
                f"event for {event.device} written to node {self.path}"
            )
        for observer in list(self._observers):
            observer(event)


class InputSubsystem:
    """Registry of input device nodes on the device."""

    def __init__(self) -> None:
        self._nodes: dict[str, InputDeviceNode] = {}

    def register(self, path: str, name: str) -> InputDeviceNode:
        if path in self._nodes:
            raise ReplayError(f"input node {path} already registered")
        node = InputDeviceNode(path, name)
        self._nodes[path] = node
        return node

    def node(self, path: str) -> InputDeviceNode:
        try:
            return self._nodes[path]
        except KeyError:
            raise ReplayError(f"no input node at {path}") from None

    def nodes(self) -> list[InputDeviceNode]:
        return list(self._nodes.values())

    def emit(self, event: InputEvent) -> None:
        """Route an event to its device node (used by the replay agent)."""
        self.node(event.device).emit(event)
