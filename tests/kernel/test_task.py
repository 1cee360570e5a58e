"""Unit tests for tasks."""

import pytest

from repro.core.errors import SimulationError
from repro.kernel.task import PRIORITY_BACKGROUND, PRIORITY_FOREGROUND, Task


def test_task_ids_unique():
    assert Task("a", 1e6).task_id != Task("b", 1e6).task_id


def test_zero_cycles_rejected():
    with pytest.raises(SimulationError):
        Task("t", 0)


def test_negative_cycles_rejected():
    with pytest.raises(SimulationError):
        Task("t", -5)


def test_unknown_priority_rejected():
    with pytest.raises(SimulationError):
        Task("t", 1e6, priority=7)


def test_fresh_task_state():
    task = Task("t", 5e6, PRIORITY_BACKGROUND)
    assert task.completed_at is None
    assert task.remaining_cycles == 5e6
    assert task.started_at is None


def test_repr_shows_state():
    task = Task("t", 5e6)
    assert "5000000" in repr(task)
    task.completed_at = 10
    assert "done" in repr(task)
