"""The kernel-only evaluation pass: replay recorded demand, vary the response.

``demand_replay_run`` is the sweep-side counterpart of
:func:`~repro.harness.experiment.replay_run`: it produces the same
:class:`~repro.results.RunRecord` for a (config, rep) cell, but drives
only the device/governor/cpufreq/energy kernel.  Apps, window manager,
gesture decoding and UI composition are replaced by a
:class:`DemandTrace` walk:

* recorded **task** nodes are re-submitted to the real scheduler with
  their captured name/cycles/priority; when the *evaluation* kernel
  completes one — at whatever time the governor under study produces —
  its recorded children execute;
* recorded **timer** nodes re-arm the same engine delays (IO gaps,
  stage pauses);
* recorded **invalidate** nodes request composition on real vsync
  boundaries, tracking which interned state the screen would show; the
  lag profile is computed pixel-free: the capture's segment state
  machine runs over state ids and the trace's precomputed match table
  supplies every verdict (:mod:`repro.demand.tablematch`);
* recorded **chain** nodes start/stop live
  :class:`~repro.kernel.workchains.PeriodicWorkChain` loops, which fire
  as many times as *this* config's gate timing allows;
* recorded **chunked** nodes call
  :func:`~repro.kernel.workchains.submit_chunked` with the captured
  arguments, exactly as the apps do in a full replay;
* background services run **live** with the same per-cell RNG stream a
  full replay would use — they are response-side noise, not demand.

The governor→timing feedback loop is handled by the trace's guards: the
scripted user only gestures at foreground quiescence, and the capture
runs at the pinned *minimum* frequency, so every config completes
foreground work no later than the capture did and the guards hold —
unless a config's lag pattern genuinely perturbs a recorded think-time
boundary, in which case the pass raises :class:`DemandFallback` and the
fleet re-runs that cell as a full replay (counted in telemetry).

Parity contract: energy, irritation and transition digests are
bit-identical to a full replay of the same cell.  Frame digests are
*not* part of the contract — the evaluation pass drops the window
manager's minute/animation tick frames and repaints masked or
never-matching time-varying pixels (clock, spinner phase, cursor
blink) from capture time, none of which can move a match time.
"""

from __future__ import annotations

from functools import partial

from repro.capture.stream import SegmentStreamer
from repro.core.errors import MatchError, ReproError
from repro.demand.compile import (
    OP_CHAIN_START,
    OP_CHAIN_STOP,
    OP_INVALIDATE,
    OP_TASK,
    OP_TIMER,
    CompiledDemand,
    compile_trace,
)
from repro.demand.tablematch import BLANK_STATE, TableMatcher
from repro.demand.trace import DemandTrace
from repro.device.display import frame_index_at
from repro.kernel.task import PRIORITY_FOREGROUND, Task, _task_ids
from repro.kernel.workchains import PeriodicWorkChain, submit_chunked


class DemandFallback(ReproError):
    """This cell cannot be evaluated on the kernel pass — run it full.

    ``reason`` is a short machine-readable tag the fleet telemetry
    aggregates (``guard_mismatch``, ``match_error``).
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class DemandProgram:
    """A demand trace preprocessed for repeated evaluation.

    Sweeping N cells over one trace repeats per-cell setup work — the
    lowering to action tuples and the match-set construction — that
    depends only on the trace.  A fleet worker builds one program per
    trace and evaluates every assigned cell against it.
    """

    def __init__(self, trace: DemandTrace) -> None:
        self.trace = trace
        blank = frozenset(trace.blank_matches)
        self.match_sets: list[frozenset[int]] = [
            frozenset(states)
            | ({BLANK_STATE} if index in blank else frozenset())
            for index, states in enumerate(trace.match_states)
        ]
        self._compiled: CompiledDemand | None = None

    def compiled(self) -> CompiledDemand:
        """The trace's action-tuple form (lowered once, shared by cells)."""
        if self._compiled is None:
            self._compiled = compile_trace(self.trace)
        return self._compiled


class _DemandTask(Task):
    """A task node's live submission.

    Carries its action tuple so one shared completion callback can find
    the node id, priority and child list without a closure per task.
    The direct ``__init__`` skips ``Task.__init__``'s keyword parsing
    and payload validation: action payloads are pre-floated and
    trace-validated (see :func:`~repro.demand.compile.compile_trace`),
    and the shared task-id counter keeps ids in step with a full
    replay's.
    """

    __slots__ = ("action",)

    def __init__(self, action: tuple, on_complete) -> None:
        # (op, node_id, name, cycles, priority, children)
        self.task_id = next(_task_ids)
        self.name = action[2]
        cycles = action[3]
        self.cycles = cycles
        self.priority = action[4]
        self.on_complete = on_complete
        self.remaining_cycles = cycles
        self.submitted_at = None
        self.started_at = None
        self.completed_at = None
        self.action = action


class DemandExecutor:
    """Walks a demand trace's action tuples over a live device kernel.

    Every node resolves to a precomputed action tuple carrying the
    opcode, the verbatim payloads and the node's children as a
    preallocated list of the child tuples
    (:class:`~repro.demand.compile.CompiledDemand`).  Task completions
    share one bound method and timers re-arm a
    :func:`functools.partial` over the prebuilt child list, so the walk
    allocates no closures.

    Invalidates only track the current interned state id — no state is
    decompressed and nothing is painted; the caller derives the lag
    profile from the trace's match table.
    """

    __slots__ = (
        "_engine",
        "_scheduler",
        "_schedule_after",
        "_submit",
        "_invalidate",
        "_setup_actions",
        "_input_actions",
        "_guards",
        "current_state",
        "_chains",
        "_fg_inflight",
        "_next_ordinal",
    )

    def __init__(self, device, program: DemandProgram) -> None:
        compiled = program.compiled()
        self._engine = device.engine
        self._scheduler = device.scheduler
        # Bound-method interning: the inner loop calls these thousands
        # of times per cell; one attribute load here beats two per node.
        self._schedule_after = device.engine.schedule_after
        self._submit = device.scheduler.submit
        self._invalidate = device.display.invalidate
        self._setup_actions = compiled.setup_actions
        self._input_actions = compiled.input_actions
        self._guards = compiled.guards
        #: Interned state id the screen would show (BLANK_STATE at boot).
        self.current_state = BLANK_STATE
        self._chains: dict[int, PeriodicWorkChain] = {}
        self._fg_inflight: set[int] = set()
        self._next_ordinal = 0

    # --- trace walking -----------------------------------------------------------

    def run_setup(self) -> None:
        """Execute the app-installation phase (engine time 0)."""
        self._run_list(self._setup_actions)

    def on_input(self, event) -> None:
        """Input-node observer: check the guard, run the ordinal's demand."""
        ordinal = self._next_ordinal
        self._next_ordinal = ordinal + 1
        guards = self._guards
        expected = guards[ordinal] if ordinal < len(guards) else ()
        actual = tuple(sorted(self._fg_inflight))
        if actual != expected:
            raise DemandFallback(
                f"input {ordinal} at t={self._engine.now}: foreground tasks "
                f"in flight {list(actual)} != recorded {list(expected)} — "
                "this config perturbs recorded think-time boundaries",
                reason="guard_mismatch",
            )
        roots = self._input_actions
        if ordinal < len(roots):
            actions = roots[ordinal]
            if actions is not None:
                self._run_list(actions)

    def _task_done(self, task) -> None:
        """Shared completion callback for every submitted task node."""
        action = task.action
        # (op, node_id, name, cycles, priority, children)
        if action[4] == PRIORITY_FOREGROUND:
            self._fg_inflight.discard(action[1])
        children = action[5]
        if children is not None:
            self._run_list(children)

    def _run_list(self, actions: list) -> None:
        """Execute one prebuilt action list — the walk's inner loop."""
        for action in actions:
            op = action[0]
            if op == OP_TASK:
                # (op, node_id, name, cycles, priority, children)
                if action[4] == PRIORITY_FOREGROUND:
                    self._fg_inflight.add(action[1])
                self._submit(_DemandTask(action, self._task_done))
            elif op == OP_INVALIDATE:
                # (op, state_id)
                self.current_state = action[1]
                self._invalidate()
            elif op == OP_TIMER:
                # (op, delay_us, children).  A childless timer produced
                # no recorded demand; skipping it is invisible to the
                # kernel.
                children = action[2]
                if children is not None:
                    self._schedule_after(
                        action[1],
                        partial(self._run_list, children),
                    )
            elif op == OP_CHAIN_START:
                # (op, chain_key, name, period_us, cycles, priority)
                key = action[1]
                chain = self._chains.get(key)
                if chain is None:
                    chain = PeriodicWorkChain(
                        self._engine,
                        self._scheduler,
                        action[2],
                        action[3],
                        action[4],
                        priority=action[5],
                    )
                    self._chains[key] = chain
                chain.start()
            elif op == OP_CHAIN_STOP:
                # (op, chain_key)
                chain = self._chains.get(action[1])
                if chain is not None:
                    chain.stop()
            else:  # OP_CHUNKED
                # (op, name, total_cycles, chunk_cycles, gap_us, priority)
                submit_chunked(
                    self._engine, self._scheduler, action[1], action[2],
                    action[3], action[4], action[5],
                )


class _DemandDriver:
    """The kernel-only pass's two :func:`~repro.harness.experiment.run_cell`
    steps: a :class:`DemandExecutor` stands in for the apps, and the lag
    profile comes from the capture's segment state machine keyed by
    state id, matched against the trace's verdict table."""

    def __init__(self, program: DemandProgram, database, cell: str):
        self._program = program
        self._database = database
        self._cell = cell
        self._executor: DemandExecutor | None = None

    def install(self, device) -> None:
        executor = DemandExecutor(device, self._program)
        # Same observer order as a full replay: the window manager's
        # decoder registers before the governor's input boost; here the
        # executor takes the decoder's slot.
        device.touchscreen.node.add_observer(executor.on_input)
        executor.run_setup()
        self._executor = executor

    def lag_source(self, device):
        matcher = TableMatcher(self._database, self._program.match_sets)
        display = device.display
        streamer = SegmentStreamer(display.width, display.height)
        streamer.add_tap(matcher)
        executor = self._executor
        display.add_frame_observer(
            lambda index, _frame: streamer.record(index, executor.current_state)
        )
        # The capture card's start seed: whatever is on screen right
        # now — nothing has composed yet, so the blank boot frame.
        streamer.record(frame_index_at(device.engine.now), BLANK_STATE)

        def finish(now: int):
            try:
                streamer.finalize(frame_index_at(now) + 1)
                return matcher.profile()
            except MatchError as exc:
                raise DemandFallback(
                    f"cell {self._cell}: replayed frames no longer "
                    f"match the annotation database: {exc}",
                    reason="match_error",
                ) from None

        return finish


def demand_replay_run(
    artifacts,
    trace: DemandTrace | DemandProgram,
    config: str,
    rep: int = 0,
    master_seed: int | None = None,
):
    """Evaluate one (config, rep) cell over recorded demand.

    Runs the same :func:`~repro.harness.experiment.run_cell` pipeline as
    :func:`~repro.harness.experiment.replay_run` — same RNG forks,
    services, governor and :class:`~repro.results.RunRecord` shape
    including the observability harvest — with a demand walk in place
    of the apps.  Raises :class:`DemandFallback` when the cell needs a
    full replay.  ``trace`` may be a prebuilt :class:`DemandProgram` to
    share preprocessing across a sweep's cells.
    """
    from repro.harness.experiment import DEFAULT_MASTER_SEED, run_cell

    program = (
        trace if isinstance(trace, DemandProgram) else DemandProgram(trace)
    )
    driver = _DemandDriver(
        program, artifacts.database, f"({config!r}, rep {rep})"
    )
    return run_cell(
        artifacts,
        config,
        rep,
        DEFAULT_MASTER_SEED if master_seed is None else master_seed,
        install=driver.install,
        lag_source=driver.lag_source,
    )
