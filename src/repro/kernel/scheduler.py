"""Single-core preemptive scheduler.

Two priority bands (foreground / background) with FIFO order inside each
band; a foreground arrival preempts running background work.  The scheduler
drives the core's busy state and recomputes the running task's completion
time whenever the governor retunes the frequency — the mechanism through
which DVFS decisions become interaction lag.
"""

from __future__ import annotations

from collections import deque
from math import ceil
from typing import Callable

from repro.core.engine import PRIORITY_TASK, Engine, ScheduledEvent
from repro.core.errors import SimulationError
from repro.device.cpu import CpuCore
from repro.kernel.task import PRIORITY_FOREGROUND, Task


class Scheduler:
    """Executes tasks on one :class:`~repro.device.cpu.CpuCore`.

    The task lifecycle runs once per task — tens of thousands of times per
    replay — so it keeps its state flat: one deque per band, the rate read
    straight off the core, and one completion event re-armed for every
    task instead of a fresh event per dispatch.
    """

    def __init__(self, engine: Engine, core: CpuCore) -> None:
        self._engine = engine
        self._clock = engine.clock
        self._core = core
        self._foreground: deque[Task] = deque()
        self._background: deque[Task] = deque()
        self._current: Task | None = None
        self._current_started = 0
        # Rate (cycles/us) the current task has been running at since
        # ``_current_started``; kept separate from the core's live rate so
        # progress is charged at the frequency that was actually in force.
        self._current_rate = core._freq_khz / 1_000.0
        # ``_completion`` is the pending completion event (None when no
        # task runs).  Once it fires it becomes ``_spare`` and the next
        # dispatch re-arms it; a cancelled one stays in the heap as a
        # tombstone, so the next arm allocates afresh.
        self._completion: ScheduledEvent | None = None
        self._spare: ScheduledEvent | None = None
        self._completed_tasks = 0
        self._completed_cycles = 0.0
        self._idle_listeners: list[Callable[[], None]] = []

    # --- introspection -----------------------------------------------------------

    @property
    def current_task(self) -> Task | None:
        return self._current

    @property
    def completed_tasks(self) -> int:
        return self._completed_tasks

    @property
    def completed_cycles(self) -> float:
        return self._completed_cycles

    @property
    def queued_tasks(self) -> int:
        return len(self._foreground) + len(self._background)

    @property
    def is_idle(self) -> bool:
        return self._current is None and self.queued_tasks == 0

    def add_idle_listener(self, listener: Callable[[], None]) -> None:
        """``listener`` fires whenever the run queue drains completely."""
        self._idle_listeners.append(listener)

    # --- task submission ----------------------------------------------------------

    def submit(self, task: Task) -> None:
        """Enqueue a task; may preempt running lower-priority work."""
        if task.completed_at is not None:
            raise SimulationError(f"cannot resubmit completed task {task!r}")
        task.submitted_at = self._clock._now
        if task.priority == PRIORITY_FOREGROUND:
            self._foreground.append(task)
        else:
            self._background.append(task)
        current = self._current
        if current is None:
            self._dispatch()
        elif task.priority < current.priority:
            self._preempt_current()
            self._dispatch()

    def on_transition(self, _timestamp: int, _freq_khz: int) -> None:
        """cpufreq transition observer: re-derive the running task's finish.

        The core has already closed its cycle accounting for the old
        frequency; only the wall-time completion of the cycles still owed
        moves.
        """
        if self._current is None:
            return
        self._charge_current_progress()
        self._schedule_completion()

    # --- internals ------------------------------------------------------------------

    def _dispatch(self) -> None:
        if self._foreground:
            task = self._foreground.popleft()
        elif self._background:
            task = self._background.popleft()
        else:
            self._core.set_busy(False)
            for listener in self._idle_listeners:
                listener()
            return
        now = self._clock._now
        self._current = task
        self._current_started = now
        self._current_rate = self._core._freq_khz / 1_000.0
        if task.started_at is None:
            task.started_at = now
        self._core.set_busy(True)
        self._schedule_completion()

    def _schedule_completion(self) -> None:
        if self._completion is not None:
            self._completion.cancel()
        task = self._current
        if task is None:
            return
        delay = ceil(task.remaining_cycles / (self._core._freq_khz / 1_000.0))
        if delay < 1:
            delay = 1
        time = self._clock._now + delay
        event = self._spare
        if event is None:
            self._completion = self._engine.schedule_at(
                time, self._complete_current, priority=PRIORITY_TASK
            )
        else:
            self._spare = None
            self._engine.rearm(event, time)
            self._completion = event

    def _charge_current_progress(self) -> None:
        """Deduct cycles the running task retired since it (re)started."""
        task = self._current
        if task is None:
            return
        now = self._clock._now
        elapsed = now - self._current_started
        retired = elapsed * self._current_rate
        task.remaining_cycles = max(0.0, task.remaining_cycles - retired)
        self._current_started = now
        self._current_rate = self._core._freq_khz / 1_000.0

    def _preempt_current(self) -> None:
        task = self._current
        if task is None:
            return
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        self._charge_current_progress()
        self._current = None
        # Preempted task resumes ahead of everything else in its band.
        if task.priority == PRIORITY_FOREGROUND:
            self._foreground.appendleft(task)
        else:
            self._background.appendleft(task)

    def _complete_current(self) -> None:
        task = self._current
        if task is None:
            raise SimulationError("completion fired with no running task")
        self._spare = self._completion
        self._completion = None
        task.remaining_cycles = 0.0
        task.completed_at = self._clock._now
        self._current = None
        self._completed_tasks += 1
        self._completed_cycles += task.cycles
        # Dispatch the next task before running the completion callback so
        # the core never shows a spurious idle gap between back-to-back
        # tasks; the callback may itself submit follow-up work.
        self._dispatch()
        if task.on_complete is not None:
            task.on_complete(task)
