"""The demand compiler: action-tuple lowering and its walk, checked
against a node-object interpreter kept here as the reference."""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demand.compile import (
    OP_CHAIN_START,
    OP_CHAIN_STOP,
    OP_INVALIDATE,
    OP_TASK,
    OP_TIMER,
    compile_trace,
)
from repro.demand.replayer import DemandExecutor, DemandFallback, DemandProgram
from repro.demand.tablematch import BLANK_STATE
from repro.demand.trace import (
    KIND_CHAIN_START,
    KIND_CHAIN_STOP,
    KIND_INVALIDATE,
    KIND_TASK,
    KIND_TIMER,
    DemandNode,
    DemandTrace,
    DemandTraceError,
)
from repro.device.device import Device
from repro.kernel.task import PRIORITY_FOREGROUND, Task
from repro.kernel.workchains import PeriodicWorkChain

WIDTH = HEIGHT = 4
STATE = zlib.compress(bytes(WIDTH * HEIGHT))


def _trace(nodes, input_events=0, guards=None, states=2):
    trace = DemandTrace(
        workload="test:compile",
        capture_config="fixed:300000",
        duration_us=1_000_000,
        width=WIDTH,
        height=HEIGHT,
        input_events=input_events,
        match_states=[],
        nodes=nodes,
        states=[STATE] * states,
        guards=guards or {},
    )
    trace.validate()
    return trace


def _rich_trace():
    """One of each node kind, setup + input roots + nested children."""
    nodes = [
        DemandNode(
            node_id=0,
            kind=KIND_CHAIN_START,
            chain_key=7,
            name="svc:poll",
            period_us=40_000,
            cycles=2.5e6,
            priority=1,
        ),
        DemandNode(
            node_id=1, kind=KIND_TASK, name="setup", cycles=1e6, priority=1
        ),
        DemandNode(node_id=2, kind=KIND_INVALIDATE, parent=1, state_id=0),
        DemandNode(
            node_id=3,
            kind=KIND_TASK,
            input_ordinal=0,
            name="tap",
            cycles=3e6,
            priority=0,
        ),
        DemandNode(node_id=4, kind=KIND_TIMER, parent=3, delay_us=2_000),
        DemandNode(
            node_id=5,
            kind=KIND_TASK,
            parent=4,
            name="render",
            cycles=2e6,
            priority=0,
        ),
        DemandNode(node_id=6, kind=KIND_INVALIDATE, parent=5, state_id=1),
        DemandNode(node_id=7, kind=KIND_TIMER, parent=3, delay_us=500),
        DemandNode(node_id=8, kind=KIND_CHAIN_STOP, input_ordinal=1, chain_key=7),
        DemandNode(
            node_id=9,
            kind=KIND_TASK,
            input_ordinal=1,
            name="tap2",
            cycles=1e6,
            priority=0,
        ),
    ]
    return _trace(nodes, input_events=2, guards={1: ()})


def test_actions_fuse_payloads_and_children():
    trace = _rich_trace()
    compiled = compile_trace(trace)
    tap = compiled.actions[3]
    assert tap[0] == OP_TASK
    assert tap[1] == 3
    assert tap[2] == "tap"
    assert tap[3] == 3e6 and isinstance(tap[3], float)
    assert tap[4] == 0
    # Children embed as the child nodes' own action tuples, in order.
    assert tap[5] == [compiled.actions[4], compiled.actions[7]]
    timer = compiled.actions[7]
    assert timer == (OP_TIMER, 500, None)  # childless timer
    assert compiled.actions[2] == (OP_INVALIDATE, 0)
    assert compiled.actions[0] == (
        OP_CHAIN_START, 7, "svc:poll", 40_000, 2.5e6, 1
    )
    assert compiled.actions[8] == (OP_CHAIN_STOP, 7)
    assert compiled.setup_actions == [compiled.actions[0], compiled.actions[1]]
    assert compiled.input_actions == [
        [compiled.actions[3]],
        [compiled.actions[8], compiled.actions[9]],
    ]
    # Dense guard list: recorded ordinals verbatim, the rest quiescent.
    assert compiled.guards == [(), ()]


def test_program_memoizes_compiled_form():
    program = DemandProgram(_rich_trace())
    assert program.compiled() is program.compiled()


def _random_trace(rng):
    """A seeded random forest exercising every kind and nesting shape."""
    nodes = []

    def add(kind, **payload):
        node = DemandNode(node_id=len(nodes), kind=kind, **payload)
        nodes.append(node)
        return node.node_id

    chains = 0
    if rng.random() < 0.5:
        add(
            KIND_CHAIN_START,
            chain_key=0,
            name="chain",
            period_us=rng.randrange(20_000, 60_000),
            cycles=float(rng.randrange(1, 5)) * 1e6,
            priority=1,
        )
        chains = 1

    def grow(parent, depth):
        for _ in range(rng.randrange(0, 3)):
            roll = rng.random()
            if roll < 0.45:
                child = add(
                    KIND_TASK,
                    parent=parent,
                    name=f"t{len(nodes)}",
                    cycles=float(rng.randrange(1, 8)) * 1e5,
                    priority=rng.randrange(2),
                )
                if depth < 2:
                    grow(child, depth + 1)
            elif roll < 0.7:
                add(KIND_INVALIDATE, parent=parent, state_id=rng.randrange(2))
            else:
                child = add(
                    KIND_TIMER,
                    parent=parent,
                    delay_us=rng.randrange(0, 3_000),
                )
                if depth < 2:
                    grow(child, depth + 1)

    inputs = rng.randrange(1, 4)
    for ordinal in range(inputs):
        if chains and rng.random() < 0.2:
            add(KIND_CHAIN_STOP, input_ordinal=ordinal, chain_key=0)
        root = add(
            KIND_TASK,
            input_ordinal=ordinal,
            name=f"in{ordinal}",
            cycles=float(rng.randrange(1, 8)) * 1e5,
            priority=0,
        )
        grow(root, 1)
    return _trace(nodes, input_events=inputs)


class InterpretedExecutor:
    """The reference walk: interprets :class:`DemandNode` objects directly.

    Issues the same scheduler submissions and engine timers in the same
    order as :class:`DemandExecutor` walking the lowered action tuples,
    so both must leave the engine in the same state.
    """

    def __init__(self, device, program: DemandProgram) -> None:
        self._engine = device.engine
        self._scheduler = device.scheduler
        self._display = device.display
        self._setup, self._by_input, by_node = program.trace.children_by_parent()
        self._children = [
            by_node.get(node_id) for node_id in range(len(program.trace.nodes))
        ]
        self._guards = program.trace.guards
        self.current_state = BLANK_STATE
        self._chains: dict[int, PeriodicWorkChain] = {}
        self._fg_inflight: set[int] = set()
        self._next_ordinal = 0

    def run_setup(self) -> None:
        self._run_children(self._setup)

    def on_input(self, event) -> None:
        ordinal = self._next_ordinal
        self._next_ordinal = ordinal + 1
        expected = self._guards.get(ordinal, ())
        actual = tuple(sorted(self._fg_inflight))
        if actual != expected:
            raise DemandFallback(
                f"input {ordinal} at t={self._engine.now}: foreground tasks "
                f"in flight {list(actual)} != recorded {list(expected)} — "
                "this config perturbs recorded think-time boundaries",
                reason="guard_mismatch",
            )
        children = self._by_input.get(ordinal)
        if children:
            self._run_children(children)

    def _run_children(self, nodes) -> None:
        for node in nodes:
            self._execute(node)

    def _execute(self, node: DemandNode) -> None:
        kind = node.kind
        if kind == KIND_TASK:
            node_id = node.node_id
            foreground = node.priority == PRIORITY_FOREGROUND
            if foreground:
                self._fg_inflight.add(node_id)
            children = self._children[node_id]

            def completed(_task) -> None:
                if foreground:
                    self._fg_inflight.discard(node_id)
                if children:
                    self._run_children(children)

            self._scheduler.submit(
                Task(
                    node.name,
                    node.cycles,
                    priority=node.priority,
                    on_complete=completed,
                )
            )
        elif kind == KIND_INVALIDATE:
            self.current_state = node.state_id
            self._display.invalidate()
        elif kind == KIND_TIMER:
            children = self._children[node.node_id]
            if children:
                self._engine.schedule_after(
                    node.delay_us, lambda: self._run_children(children)
                )
        elif kind == KIND_CHAIN_START:
            chain = self._chains.get(node.chain_key)
            if chain is None:
                chain = PeriodicWorkChain(
                    self._engine,
                    self._scheduler,
                    node.name,
                    node.period_us,
                    node.cycles,
                    priority=node.priority,
                )
                self._chains[node.chain_key] = chain
            chain.start()
        elif kind == KIND_CHAIN_STOP:
            chain = self._chains.get(node.chain_key)
            if chain is not None:
                chain.stop()


def _evaluate(cls, program, inputs):
    """Run one executor over a real device with scripted input delivery.

    Returns everything engine-observable: final sim time, events fired,
    the screen state, every task submission in order — and the fallback
    it raised, so a guard mismatch is itself compared across the two
    executors.
    """
    device = Device()
    submitted = []
    submit = device.scheduler.submit

    def recording_submit(task):
        submitted.append((device.engine.now, task.name, task.priority))
        submit(task)

    device.scheduler.submit = recording_submit
    executor = cls(device, program)
    executor.run_setup()
    device.set_governor("fixed:960000")
    outcome = []

    def deliver():
        try:
            executor.on_input(None)
        except DemandFallback as exc:
            outcome.append(str(exc))

    for index in range(inputs):
        device.engine.schedule_at(5_000 + index * 50_000, deliver)
    device.run_for(inputs * 50_000 + 50_000)
    return (
        device.engine.now,
        device.engine.events_fired,
        executor.current_state,
        submitted,
        outcome,
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_compiled_walk_equals_interpreted_walk(seed):
    import random

    rng = random.Random(seed)
    trace = _random_trace(rng)
    program = DemandProgram(trace)
    compiled = _evaluate(DemandExecutor, program, trace.input_events)
    interpreted = _evaluate(InterpretedExecutor, program, trace.input_events)
    assert compiled == interpreted


def test_compile_rejects_non_integer_payload():
    """A stored trace whose integer payloads are not ints fails validation
    by name instead of reaching the walk."""
    payload = _trace(
        [DemandNode(node_id=0, kind=KIND_TIMER, delay_us=1_500)]
    ).to_json_dict()
    for bad in (1_500.5, True):
        payload["nodes"][0]["delay_us"] = bad
        trace = DemandTrace.loads(json.dumps(payload))
        with pytest.raises(DemandTraceError, match="node 0: delay_us"):
            trace.validate()
