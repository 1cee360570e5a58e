"""Tasks: units of CPU work posted by applications and services.

A task demands a number of CPU cycles; how long it takes in wall time
depends on the frequency the governor chooses while it runs — which is the
entire mechanism the paper studies.  Foreground (UI) work preempts
background work, as on Android where the foreground cgroup outweighs
background services.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.core.errors import SimulationError

PRIORITY_FOREGROUND = 0
PRIORITY_BACKGROUND = 1

_task_ids = itertools.count(1)


class Task:
    """A schedulable unit of work measured in CPU cycles."""

    __slots__ = (
        "task_id",
        "name",
        "cycles",
        "priority",
        "on_complete",
        "remaining_cycles",
        "submitted_at",
        "started_at",
        "completed_at",
    )

    def __init__(
        self,
        name: str,
        cycles: float,
        priority: int = PRIORITY_FOREGROUND,
        on_complete: Callable[["Task"], None] | None = None,
    ) -> None:
        if cycles <= 0:
            raise SimulationError(f"task {name!r} must demand positive cycles")
        if priority not in (PRIORITY_FOREGROUND, PRIORITY_BACKGROUND):
            raise SimulationError(f"unknown task priority {priority}")
        self.task_id = next(_task_ids)
        self.name = name
        self.cycles = float(cycles)
        self.priority = priority
        self.on_complete = on_complete
        self.remaining_cycles = float(cycles)
        self.submitted_at: int | None = None
        self.started_at: int | None = None
        self.completed_at: int | None = None

    def __repr__(self) -> str:
        done = self.completed_at is not None
        state = "done" if done else f"{self.remaining_cycles:.0f} left"
        return f"Task({self.name!r}, {self.cycles:.0f} cyc, {state})"
