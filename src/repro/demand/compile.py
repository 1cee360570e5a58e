"""Lowering a demand trace to fused action tuples.

The trace is immutable, so everything the evaluation walk needs per node
can be resolved **once per worker**: :func:`compile_trace` turns each
:class:`~repro.demand.trace.DemandNode` into one tuple carrying an
integer opcode, the node's verbatim payloads and its children resolved
to a preallocated list of the child tuples.  The executor
(:class:`~repro.demand.replayer.DemandExecutor`) iterates those lists
directly: evaluating a node is tuple indexing off one iteration
variable, with no per-walk dict probes, dataclass attribute loads or
closure allocations.

A :class:`CompiledDemand` holds:

* ``actions`` — one tuple per node, indexed by node id;
* ``setup_actions``/``input_actions`` — the root execution lists (the
  setup phase, and each input ordinal's roots or ``None``), in the
  capture's callback order, exactly as
  :meth:`~repro.demand.trace.DemandTrace.children_by_parent` returns it;
* ``guards`` as a dense list indexed by input ordinal.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from repro.demand.trace import (
    KIND_CHAIN_START,
    KIND_CHAIN_STOP,
    KIND_INVALIDATE,
    KIND_TASK,
    KIND_TIMER,
    DemandTrace,
)

#: Integer opcodes of the compiled walk, one per node kind.
OP_TASK = 0
OP_TIMER = 1
OP_INVALIDATE = 2
OP_CHAIN_START = 3
OP_CHAIN_STOP = 4

_OPCODES: dict[str, int] = {
    KIND_TASK: OP_TASK,
    KIND_TIMER: OP_TIMER,
    KIND_INVALIDATE: OP_INVALIDATE,
    KIND_CHAIN_START: OP_CHAIN_START,
    KIND_CHAIN_STOP: OP_CHAIN_STOP,
}


class CompiledDemand(NamedTuple):
    """The action-tuple form of one demand trace (see module docstring),
    shared read-only by every cell a worker evaluates."""

    guards: list
    actions: list
    setup_actions: list
    input_actions: list


def compile_trace(trace: DemandTrace) -> CompiledDemand:
    """Lower ``trace`` into its action-tuple form.

    Pure data transformation: the input is assumed to satisfy
    :meth:`DemandTrace.validate` (the capture and load paths enforce
    it), which is what lets the executor's task path skip
    ``Task.__init__``'s per-construction payload checks.  Payloads are
    the recorded objects verbatim, so the walk hands the scheduler
    bit-identical task parameters.
    """
    nodes = trace.nodes
    setup, by_input, by_node = trace.children_by_parent()

    # Children embed as preallocated lists of the child tuples (``None``
    # when childless); the lists are created empty first so parent
    # tuples can reference them before the children's own tuples exist.
    child_lists: list[list | None] = [None] * len(nodes)
    for node_id in by_node:
        child_lists[node_id] = []
    actions: list[tuple] = []
    for node in nodes:
        node_id = node.node_id
        op = _OPCODES[node.kind]
        if op == OP_TASK:
            action = (
                op,
                node_id,
                sys.intern(node.name),
                # Pre-floated: Task stores float(cycles), and float() of
                # an exact float is the identity, so the scheduler sees
                # the value Task's own conversion produces.
                float(node.cycles),
                node.priority,
                child_lists[node_id],
            )
        elif op == OP_INVALIDATE:
            action = (op, node.state_id)
        elif op == OP_TIMER:
            action = (op, node.delay_us, child_lists[node_id])
        elif op == OP_CHAIN_START:
            action = (
                op,
                node.chain_key,
                sys.intern(node.name),
                node.period_us,
                node.cycles,
                node.priority,
            )
        else:
            action = (op, node.chain_key)
        actions.append(action)
    for node_id, children in by_node.items():
        child_lists[node_id].extend(
            actions[child.node_id] for child in children
        )

    return CompiledDemand(
        guards=[
            trace.guards.get(ordinal, ())
            for ordinal in range(trace.input_events)
        ],
        actions=actions,
        setup_actions=[actions[node.node_id] for node in setup],
        input_actions=[
            [actions[node.node_id] for node in by_input[ordinal]]
            if ordinal in by_input
            else None
            for ordinal in range(trace.input_events)
        ],
    )
