"""The synthetic user that records workloads.

The paper's volunteers used the device naturally for ten minutes while the
recorder captured their input events.  Our scripted user does the same on
the simulated device: it performs gestures from a dataset plan, *watches
the screen* — i.e. waits until the current interaction has visibly
completed — thinks for a while, then acts again.

Recording runs on a device pinned at the lowest frequency.  Because the
user always waits for completion at the worst-case speed, the recorded
input timings stay in sync with the system state when replayed at *any*
frequency or governor — the synchronisation requirement of §II-E.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import WorkloadError
from repro.core.geometry import Point
from repro.uifw.view import WindowManager

POLL_PERIOD_US = 50_000
SETTLE_AFTER_COMPLETION_US = 200_000

KIND_TAP = "tap"
KIND_SWIPE = "swipe"


@dataclass(frozen=True, slots=True)
class PlanStep:
    """One user action: where to touch and how long to think first.

    ``app`` and ``target`` are resolved against the live UI at act time,
    so targets that depend on runtime state (scroll offsets, keyboards)
    are looked up exactly when the user would look at the screen.
    """

    kind: str  # KIND_TAP | KIND_SWIPE
    app: str
    target: str
    think_us: int

    def __post_init__(self) -> None:
        if self.kind not in (KIND_TAP, KIND_SWIPE):
            raise WorkloadError(f"unknown step kind {self.kind!r}")
        if self.think_us < 0:
            raise WorkloadError("think time must be >= 0")


class ScriptedUser:
    """Performs a plan of steps against a device, waiting like a human."""

    def __init__(
        self,
        wm: WindowManager,
        plan: Iterator[PlanStep],
        stop_initiating_after_us: int,
    ) -> None:
        self._wm = wm
        self._device = wm.device
        self._engine = wm.engine
        self._plan = iter(plan)
        self._deadline = stop_initiating_after_us
        self._steps_done = 0
        self._finished = False
        self._on_finished = None

    @property
    def steps_performed(self) -> int:
        return self._steps_done

    @property
    def finished(self) -> bool:
        return self._finished

    def start(self, on_finished=None) -> None:
        """Begin the session; ``on_finished`` fires when the user stops."""
        self._on_finished = on_finished
        self._next_step()

    # --- internals ----------------------------------------------------------------------

    def _next_step(self) -> None:
        if self._engine.now >= self._deadline:
            self._finish()
            return
        try:
            step = next(self._plan)
        except StopIteration:
            self._finish()
            return
        self._engine.schedule_after(step.think_us, lambda: self._act(step))

    def _act(self, step: PlanStep) -> None:
        if self._engine.now >= self._deadline:
            self._finish()
            return
        app = self._wm.app(step.app)
        now = self._engine.now
        if step.kind == KIND_TAP:
            point = self._resolve_tap(app, step.target)
            up_time = self._device.touchscreen.schedule_tap(now, point)
        else:
            start, end, duration = app.swipe_target(step.target)
            up_time = self._device.touchscreen.schedule_swipe(
                now, start, end, duration
            )
        self._steps_done += 1
        # Start watching the screen shortly after the finger lifts.
        self._engine.schedule_at(up_time + POLL_PERIOD_US, self._watch)

    def _resolve_tap(self, app, target: str) -> Point:
        """Resolve a tap target; nav-bar buttons are system targets."""
        if target == "nav:back":
            return self._wm.back_button_point()
        if target == "nav:home":
            return self._wm.home_button_point()
        return app.tap_target(target)

    def _watch(self) -> None:
        """Wait until the system looks done servicing, then move on."""
        if self._system_settled():
            self._engine.schedule_after(
                SETTLE_AFTER_COMPLETION_US, self._next_step
            )
        else:
            self._engine.schedule_after(POLL_PERIOD_US, self._watch)

    def _system_settled(self) -> bool:
        if self._wm.journal.open_interactions:
            return False
        scheduler = self._device.scheduler
        current = scheduler.current_task
        foreground_busy = current is not None and current.priority == 0
        return not foreground_busy

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self._on_finished is not None:
            self._on_finished()
