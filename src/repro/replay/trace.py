"""Event traces: the recorded artefact a workload replays from."""

from __future__ import annotations

from repro.core.errors import ReplayError
from repro.core.events import InputEvent


class EventTrace:
    """An ordered sequence of recorded kernel input events."""

    def __init__(self, events: list[InputEvent] | None = None) -> None:
        self.events: list[InputEvent] = list(events or [])
        self._check_ordering()

    def _check_ordering(self) -> None:
        for prev, cur in zip(self.events, self.events[1:]):
            if cur.timestamp < prev.timestamp:
                raise ReplayError(
                    "trace events out of order at "
                    f"{prev.timestamp} -> {cur.timestamp}"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def append(self, event: InputEvent) -> None:
        if self.events and event.timestamp < self.events[-1].timestamp:
            raise ReplayError("cannot append event earlier than trace end")
        self.events.append(event)
