"""Capturing a demand trace: one instrumented full replay per workload.

The recorder runs a normal full replay — apps, window manager, gesture
decoding, the lot — at the capture configuration (pinned lowest OPP, no
background-service noise) and intercepts the three seams where the UI
half hands demand to the kernel half:

* ``engine.schedule_at`` at :data:`~repro.core.engine.PRIORITY_DEFAULT`
  — every IO gap, stage pause and chunk gap the apps schedule.  Kernel
  machinery (governor sampling, task completion, vsync, input
  injection) uses dedicated priorities and passes through untouched.
* ``scheduler.submit`` — every task arrival, with name, cycles and
  priority; the task's completion callback is wrapped so demand it
  produces is recorded as its children.
* ``display.invalidate`` — every frame request.  The window manager's
  composer is a full repaint of live UI state, so painting it into a
  scratch buffer *at invalidate time* captures exactly what the next
  vsync would show; states are deduplicated and interned.  Each state is
  compared with the annotation database once, in
  :meth:`DemandRecorder.match_table`; the trace keeps those verdicts and
  the state count, never the framebuffers.

Three demand sources are deliberately **not** recorded action by action:

* The window manager's minute/animation ticks.  They invalidate without
  submitting CPU work, and only repaint content that is either masked
  by the annotation database (clock, seek bar) or non-matching anyway
  (an animating spinner mid-lag), so dropping them cannot move a match
  time — frame digests differ between the passes, match results do not.
* :class:`~repro.kernel.workchains.PeriodicWorkChain` firings.  A chain
  is recorded as one ``chain_start``/``chain_stop`` node pair and the
  evaluation pass re-runs the loop live, because at a faster config the
  gate can close after fewer firings — unrolling the capture's firings
  would bake the capture config's timing into the trace.
* :func:`~repro.kernel.workchains.submit_chunked` chains.  The call is
  recorded as one ``chunked`` node with its arguments, and its chunk
  tasks and IO gaps are not recorded; the evaluation pass makes the same
  call, so both passes run a chain through one code path (including the
  scheduler's run-ahead at pinned frequencies).

Any default-priority demand arriving outside a recorded context is a
capture bug, not a recoverable condition: :class:`DemandCaptureError`
aborts the capture and the fleet falls back to full replays.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.analysis.diff import build_mask, frames_equal
from repro.core.engine import PRIORITY_DEFAULT
from repro.core.errors import ReproError
from repro.core.simtime import seconds
from repro.demand.trace import (
    KIND_CHAIN_START,
    KIND_CHAIN_STOP,
    KIND_CHUNKED,
    KIND_INVALIDATE,
    KIND_TASK,
    KIND_TIMER,
    DemandNode,
    DemandTrace,
)
from repro.kernel import workchains
from repro.kernel.task import PRIORITY_FOREGROUND

#: How long past the run window the capture may keep simulating to let
#: recorded task subtrees finish (their children must be in the trace:
#: at faster configs they complete *inside* the window).
CAPTURE_TAIL_LIMIT_US = seconds(300)


class DemandCaptureError(ReproError):
    """The workload's demand could not be captured faithfully."""


class _Suppress:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<suppress>"


#: Context marker: demand produced here is intentionally not recorded.
SUPPRESS = _Suppress()

#: Context entry for the setup (app installation) phase.
_SETUP = (None, None)


class DemandRecorder:
    """Builds a :class:`DemandTrace` from one instrumented replay.

    Context is a stack of ``(parent_node_id, input_ordinal)`` entries
    (or :data:`SUPPRESS`); the top entry attributes every intercepted
    demand action.  Recorded task completions and timer expiries push
    their node id, input injections push their ordinal, chain
    transitions and chunk chains push :data:`SUPPRESS`.
    """

    def __init__(self, device) -> None:
        self._device = device
        self._engine = device.engine
        self._wm = None
        self._stack: list = []
        self.nodes: list[DemandNode] = []
        self.guards: dict[int, tuple[int, ...]] = {}
        #: Each interned framebuffer's raw bytes -> its state id.
        self._state_ids: dict[bytes, int] = {}
        self._scratch = np.zeros(
            (device.display.height, device.display.width), dtype=np.uint8
        )
        self._fg_inflight: set[int] = set()
        self._chain_keys: dict[int, int] = {}
        self._chains_seen: list = []  # keep chains alive so ids stay unique
        self.next_ordinal = 0
        self.open_tasks = 0
        self.open_timers = 0
        self._instrument()

    def attach_wm(self, wm) -> None:
        """Bind the window manager whose composer paints scratch states.

        The recorder must instrument the engine *before* the window
        manager exists (its constructor arms the first minute tick), so
        the composer is attached in a second step.
        """
        self._wm = wm

    # --- context ---------------------------------------------------------------

    def _current(self):
        return self._stack[-1] if self._stack else None

    @contextmanager
    def scope(self, entry):
        self._stack.append(entry)
        try:
            yield
        finally:
            self._stack.pop()

    @contextmanager
    def setup_scope(self):
        """Active while the device's apps are installed."""
        with self.scope(_SETUP):
            yield

    def _add_node(self, kind: str, **payload) -> DemandNode:
        context = self._current()
        if context is None or context is SUPPRESS:
            raise DemandCaptureError(
                f"unattributable {kind} demand at t={self._engine.now} "
                f"({payload.get('name') or payload}): not produced by a "
                "recorded callback"
            )
        parent, ordinal = context
        node = DemandNode(
            node_id=len(self.nodes),
            kind=kind,
            parent=parent,
            input_ordinal=ordinal,
            **payload,
        )
        self.nodes.append(node)
        return node

    # --- instrumentation --------------------------------------------------------

    def _instrument(self) -> None:
        device = self._device
        engine = device.engine
        scheduler = device.scheduler
        display = device.display
        original_schedule = engine.schedule_at
        original_submit = scheduler.submit
        original_invalidate = display.invalidate
        from repro.uifw.view import WindowManager

        tick_funcs = (WindowManager._animation_tick, WindowManager._minute_tick)

        def schedule_at(time, callback, priority=PRIORITY_DEFAULT):
            if priority != PRIORITY_DEFAULT:
                return original_schedule(time, callback, priority)
            if (
                self._current() is SUPPRESS
                or getattr(callback, "__func__", None) in tick_funcs
            ):
                return original_schedule(
                    time, self._suppressed_fire(callback), priority
                )
            node = self._add_node(
                KIND_TIMER, delay_us=time - engine.now
            )
            self.open_timers += 1
            return original_schedule(
                time, self._recorded_fire(node.node_id, callback), priority
            )

        def submit(task):
            context = self._current()
            if context is SUPPRESS:
                task.on_complete = self._wrap_completion(
                    task.on_complete, None, False
                )
            else:
                node = self._add_node(
                    KIND_TASK,
                    name=task.name,
                    cycles=task.cycles,
                    priority=task.priority,
                )
                foreground = task.priority == PRIORITY_FOREGROUND
                if foreground:
                    self._fg_inflight.add(node.node_id)
                self.open_tasks += 1
                task.on_complete = self._wrap_completion(
                    task.on_complete, node.node_id, foreground
                )
            return original_submit(task)

        def invalidate():
            context = self._current()
            if context is not SUPPRESS:
                self._add_node(KIND_INVALIDATE, state_id=self._intern_state())
            return original_invalidate()

        engine.schedule_at = schedule_at
        scheduler.submit = submit
        display.invalidate = invalidate

    def _suppressed_fire(self, callback):
        def fire():
            with self.scope(SUPPRESS):
                callback()

        return fire

    def _recorded_fire(self, node_id: int, callback):
        def fire():
            self.open_timers -= 1
            with self.scope((node_id, None)):
                callback()

        return fire

    def _wrap_completion(self, original, node_id, foreground: bool):
        def completed(task):
            if node_id is None:
                entry = SUPPRESS
            else:
                self.open_tasks -= 1
                if foreground:
                    self._fg_inflight.discard(node_id)
                entry = (node_id, None)
            with self.scope(entry):
                if original is not None:
                    original(task)

        return completed

    def _intern_state(self) -> int:
        # The WM composer is a full repaint of live state; painting it at
        # invalidate time equals the next vsync's content up to masked or
        # never-matching time-varying pixels (clock, cursor, spinner).
        self._wm._compose(self._scratch)
        raw = self._scratch.tobytes()
        state_id = self._state_ids.get(raw)
        if state_id is None:
            state_id = self._state_ids[raw] = len(self._state_ids)
        return state_id

    # --- input ordinals ----------------------------------------------------------

    def wrap_agent(self, agent) -> None:
        """Attribute demand produced while injecting event *k* to ordinal k."""
        original_inject = agent._inject

        def inject(event):
            ordinal = self.next_ordinal
            self.next_ordinal = ordinal + 1
            guard = tuple(sorted(self._fg_inflight))
            if guard:
                self.guards[ordinal] = guard
            with self.scope((None, ordinal)):
                original_inject(event)

        agent._inject = inject

    # --- PeriodicWorkChain observer ----------------------------------------------

    def _chain_key(self, chain) -> int:
        key = self._chain_keys.get(id(chain))
        if key is None:
            key = len(self._chain_keys)
            self._chain_keys[id(chain)] = key
            self._chains_seen.append(chain)
        return key

    def chain_started(self, chain) -> None:
        self._add_node(
            KIND_CHAIN_START,
            chain_key=self._chain_key(chain),
            name=chain.name,
            period_us=chain.period_us,
            cycles=chain.cycles,
            priority=chain.priority,
        )

    def chain_stopped(self, chain) -> None:
        self._add_node(KIND_CHAIN_STOP, chain_key=self._chain_key(chain))

    def chain_firing(self, chain):
        return self.scope(SUPPRESS)

    def chunked_submitted(
        self, name, total_cycles, chunk_cycles, gap_us, priority
    ) -> None:
        self._add_node(
            KIND_CHUNKED,
            name=name,
            cycles=total_cycles,
            chunk_cycles=chunk_cycles,
            delay_us=gap_us,
            priority=priority,
        )

    # --- result ------------------------------------------------------------------

    def match_table(
        self, database
    ) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
        """Per-annotation match verdicts for every interned state.

        The evaluation pass only ever composes interned states, so
        comparing each state against each annotation ending *once here*
        lets every swept cell replace pixel comparison with a set probe
        (see :attr:`~repro.demand.trace.DemandTrace.match_states`).
        """
        display = self._device.display
        shape = (display.height, display.width)
        arrays: list = [None] * len(self._state_ids)
        for raw, state_id in self._state_ids.items():
            arrays[state_id] = np.frombuffer(raw, dtype=np.uint8).reshape(shape)
        blank = np.zeros(shape, dtype=np.uint8)
        match_states: list[tuple[int, ...]] = []
        blank_matches: list[int] = []
        for lag_index, annotation in enumerate(database.annotations):
            mask = build_mask(annotation.image.shape, annotation.mask_rects)
            match_states.append(
                tuple(
                    state_id
                    for state_id, frame in enumerate(arrays)
                    if frames_equal(
                        frame, annotation.image, mask, annotation.tolerance_px
                    )
                )
            )
            if frames_equal(blank, annotation.image, mask,
                            annotation.tolerance_px):
                blank_matches.append(lag_index)
        return match_states, tuple(blank_matches)

    def build_trace(
        self,
        workload: str,
        capture_config: str,
        duration_us: int,
        match_states: list[tuple[int, ...]],
        blank_matches: tuple[int, ...],
    ) -> DemandTrace:
        """The recorded forest plus the verdicts of :meth:`match_table`."""
        return DemandTrace(
            workload=workload,
            capture_config=capture_config,
            duration_us=duration_us,
            input_events=self.next_ordinal,
            state_count=len(self._state_ids),
            match_states=match_states,
            nodes=self.nodes,
            guards=self.guards,
            blank_matches=blank_matches,
        )


def capture_demand(artifacts) -> DemandTrace:
    """Run one instrumented full replay and return its demand trace.

    The capture runs at the pinned recording frequency with background
    services disabled: services are config-seeded noise the evaluation
    pass re-runs *live* (same RNG stream as a full replay), so recording
    them here would double them.  After the normal run window the
    simulation keeps going until every recorded task subtree has
    completed — at faster configs those subtrees finish inside the
    window, so their children must be in the trace.
    """
    from repro.apps import install_standard_apps
    from repro.device.device import Device
    from repro.harness.experiment import RUN_TAIL_US
    from repro.replay import ReplayAgent
    from repro.scenarios.profiles import device_config_for
    from repro.uifw.view import WindowManager

    device_config = device_config_for(artifacts.spec)
    capture_config = f"fixed:{device_config.frequency_table.min_khz}"
    device = Device(device_config)
    recorder = DemandRecorder(device)
    previous_observer = workchains.set_chain_observer(recorder)
    try:
        wm = WindowManager(device)
        recorder.attach_wm(wm)
        with recorder.setup_scope():
            install_standard_apps(wm)
        device.set_governor(capture_config)
        agent = ReplayAgent(device.engine, device.input_subsystem)
        recorder.wrap_agent(agent)
        agent.schedule(artifacts.trace)

        run_window = artifacts.duration_us + RUN_TAIL_US
        device.run_for(run_window)
        waited = 0
        while (recorder.open_tasks or recorder.open_timers) and (
            waited < CAPTURE_TAIL_LIMIT_US
        ):
            device.run_for(seconds(1))
            waited += seconds(1)
        if recorder.open_tasks or recorder.open_timers:
            raise DemandCaptureError(
                f"workload {artifacts.name!r}: {recorder.open_tasks} tasks "
                f"and {recorder.open_timers} timers still open "
                f"{CAPTURE_TAIL_LIMIT_US} us past the run window"
            )
    finally:
        workchains.set_chain_observer(previous_observer)
    trace = recorder.build_trace(
        artifacts.name,
        capture_config,
        run_window,
        *recorder.match_table(artifacts.database),
    )
    trace.validate()
    return trace
