"""The demand trace: the governor-invariant half of one workload replay.

A full replay simulates two coupled halves.  The *demand* half — which
tasks the apps submit, with how many cycles and what priority, which
timers chain them, and which framebuffer contents the UI paints — is a
pure function of the recorded input trace and therefore identical under
every governor configuration.  The *response* half — when tasks finish,
what frequency the CPU runs at, what the energy meter integrates — is
what a sweep actually varies.

:class:`DemandTrace` is the demand half captured once, as a forest of
causal nodes:

* roots are the **setup** phase (app installation) and each **input
  ordinal** (the k-th getevent record delivered to the touchscreen);
* a node is a **task** submission, an engine **timer** (IO gap, think
  pause), a display **invalidate** carrying the id of an interned
  framebuffer state, the **start/stop** of a
  :class:`~repro.kernel.workchains.PeriodicWorkChain`, or a **chunked**
  chain (one :func:`~repro.kernel.workchains.submit_chunked` call with
  its arguments; its chunks and IO gaps are not nodes);
* a node's children are exactly the demand actions its completion
  callback performed, in callback order — replaying a node therefore
  means re-submitting the same work and running the children when the
  *evaluation* kernel finishes it, at whatever time the governor under
  study produces.

``guards`` snapshot the foreground tasks in flight at each input
ordinal during capture.  The scripted user only gestures at foreground
quiescence, so a guard mismatch during evaluation means the config's
lag pattern perturbed recorded think-time boundaries beyond what the
trace can express — the evaluation pass must fall back to full replay
for that cell (see :mod:`repro.demand.replayer`).

Framebuffer states are deduplicated at capture; ``state_id`` numbers
them from 0 to :attr:`state_count` - 1.  Because the evaluation pass
only ever composes interned states, frame comparison reduces to a table
lookup: ``match_states`` records, per annotation of the workload's
database (in database order), exactly which state ids satisfy
:func:`~repro.analysis.diff.frames_equal` under that annotation's mask
and tolerance — computed once at capture, so the evaluation pass never
touches pixels.  The trace therefore carries these verdicts, not the
framebuffers.  Every trace carries the table; a payload without one is
rejected.  The trace is schema-versioned and content-addressed
(:meth:`content_hash`), and serializes to JSON for the fleet's demand
store and the ``repro-qoe demand`` inspector.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.errors import ReproError

#: 2: a ``submit_chunked`` chain is one ``chunked`` node instead of its
#: unrolled chunk tasks and gap timers.  3: the trace carries the number
#: of interned states instead of their compressed framebuffers.
DEMAND_TRACE_SCHEMA_VERSION = 3

KIND_TASK = "task"
KIND_TIMER = "timer"
KIND_INVALIDATE = "invalidate"
KIND_CHAIN_START = "chain_start"
KIND_CHAIN_STOP = "chain_stop"
KIND_CHUNKED = "chunked"

_KINDS = (KIND_TASK, KIND_TIMER, KIND_INVALIDATE, KIND_CHAIN_START,
          KIND_CHAIN_STOP, KIND_CHUNKED)

#: Kinds whose completion/expiry callbacks may record children.
_PARENT_KINDS = (KIND_TASK, KIND_TIMER)

#: Payload fields that must hold a plain ``int`` when present.
_INT_FIELDS = ("priority", "delay_us", "state_id", "chain_key", "period_us")


class DemandTraceError(ReproError):
    """A demand trace violates its schema contract."""


def _check_schema(version) -> None:
    if version != DEMAND_TRACE_SCHEMA_VERSION:
        raise DemandTraceError(
            f"demand trace schema {version} != supported "
            f"{DEMAND_TRACE_SCHEMA_VERSION}"
        )


def _match_table(payload: dict) -> list[tuple[int, ...]]:
    """A payload's match table; a trace without one is rejected."""
    table = payload.get("match_states")
    if table is None:
        raise DemandTraceError(
            "demand trace without a match table (match_states is missing "
            "or null)"
        )
    return [tuple(matched) for matched in table]


@dataclass(slots=True)
class DemandNode:
    """One recorded demand action.

    ``parent`` is the node id whose callback recorded this action, or
    ``None`` for a root action; root actions carry ``input_ordinal``
    (``None`` means the setup phase).  Payload fields are used per
    ``kind``: tasks have ``name``/``cycles``/``priority``, timers have
    ``delay_us``, invalidates have ``state_id``, chain starts have
    ``chain_key``/``name``/``period_us``/``cycles``/``priority``, chain
    stops have ``chain_key``, chunked chains have ``name``, total
    ``cycles``, ``chunk_cycles``, ``priority`` and the IO gap in
    ``delay_us``.
    """

    node_id: int
    kind: str
    parent: int | None = None
    input_ordinal: int | None = None
    name: str | None = None
    cycles: float | None = None
    priority: int | None = None
    delay_us: int | None = None
    state_id: int | None = None
    chain_key: int | None = None
    period_us: int | None = None
    chunk_cycles: float | None = None

    def as_dict(self) -> dict:
        row: dict = {"id": self.node_id, "kind": self.kind}
        if self.parent is not None:
            row["parent"] = self.parent
        if self.input_ordinal is not None:
            row["input"] = self.input_ordinal
        for key in ("name", "cycles", "priority", "delay_us", "state_id",
                    "chain_key", "period_us", "chunk_cycles"):
            value = getattr(self, key)
            if value is not None:
                row[key] = value
        return row

    @classmethod
    def from_dict(cls, row: dict) -> "DemandNode":
        return cls(
            node_id=row["id"],
            kind=row["kind"],
            parent=row.get("parent"),
            input_ordinal=row.get("input"),
            name=row.get("name"),
            cycles=row.get("cycles"),
            priority=row.get("priority"),
            delay_us=row.get("delay_us"),
            state_id=row.get("state_id"),
            chain_key=row.get("chain_key"),
            period_us=row.get("period_us"),
            chunk_cycles=row.get("chunk_cycles"),
        )


@dataclass(slots=True)
class DemandTrace:
    """One workload's captured demand forest (see module docstring)."""

    workload: str
    capture_config: str
    duration_us: int
    input_events: int
    #: How many distinct framebuffer states the capture interned; every
    #: ``state_id`` is below it.
    state_count: int
    #: Per annotation (database order), the state ids whose pixels match
    #: that annotation's ending image.  Every trace carries it: the
    #: evaluation pass never compares pixels.
    match_states: list[tuple[int, ...]]
    nodes: list[DemandNode] = field(default_factory=list)
    #: input ordinal -> sorted tuple of fg task node ids in flight.
    guards: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: Annotation indices matched by the blank (power-on) framebuffer.
    blank_matches: tuple[int, ...] = ()
    schema_version: int = DEMAND_TRACE_SCHEMA_VERSION

    # --- structure -------------------------------------------------------------

    def children_by_parent(
        self,
    ) -> tuple[list[DemandNode], dict[int, list[DemandNode]],
               dict[int, list[DemandNode]]]:
        """(setup roots, input-ordinal roots, per-node children).

        Within each list the capture's callback order is preserved —
        node ids are assigned in recording order and nodes are stored
        sorted, so plain append reconstructs it.
        """
        setup: list[DemandNode] = []
        by_input: dict[int, list[DemandNode]] = {}
        by_node: dict[int, list[DemandNode]] = {}
        for node in self.nodes:
            if node.parent is not None:
                by_node.setdefault(node.parent, []).append(node)
            elif node.input_ordinal is not None:
                by_input.setdefault(node.input_ordinal, []).append(node)
            else:
                setup.append(node)
        return setup, by_input, by_node

    def stats(self) -> dict:
        """Summary counters for reports and the inspection CLI."""
        kinds = {kind: 0 for kind in _KINDS}
        work_units = 0.0
        for node in self.nodes:
            kinds[node.kind] += 1
            if node.kind in (KIND_TASK, KIND_CHUNKED):
                work_units += node.cycles or 0.0
        _setup, by_input, _by_node = self.children_by_parent()
        return {
            "workload": self.workload,
            "capture_config": self.capture_config,
            "duration_us": self.duration_us,
            "input_events": self.input_events,
            "input_windows": len(by_input),
            "guarded_windows": len(self.guards),
            "task_arrivals": kinds[KIND_TASK],
            "timers": kinds[KIND_TIMER],
            "frame_deadlines": kinds[KIND_INVALIDATE],
            "chain_starts": kinds[KIND_CHAIN_START],
            "chain_stops": kinds[KIND_CHAIN_STOP],
            "chunk_chains": kinds[KIND_CHUNKED],
            "work_units_cycles": work_units,
            "states": self.state_count,
            "nodes": len(self.nodes),
            "match_annotations": len(self.match_states),
        }

    # --- contract --------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`DemandTraceError` on any contract violation."""
        _check_schema(self.schema_version)
        if self.duration_us <= 0:
            raise DemandTraceError("demand trace needs a positive duration")
        states = self.state_count
        if type(states) is not int or states < 0:
            raise DemandTraceError(
                f"state_count must be a non-negative integer, got {states!r}"
            )
        seen_chains: set[int] = set()
        task_ids: dict[int, DemandNode] = {}
        for index, node in enumerate(self.nodes):
            where = f"node {node.node_id}"
            if node.node_id != index:
                raise DemandTraceError(
                    f"{where}: ids must be dense and ordered (at index {index})"
                )
            if node.kind not in _KINDS:
                raise DemandTraceError(f"{where}: unknown kind {node.kind!r}")
            for key in _INT_FIELDS:
                value = getattr(node, key)
                # bool is an int subclass; a stored true/false is corrupt.
                if value is not None and type(value) is not int:
                    raise DemandTraceError(
                        f"{where}: {key} must be an integer, got {value!r}"
                    )
            if node.parent is not None:
                if node.input_ordinal is not None:
                    raise DemandTraceError(
                        f"{where}: has both a parent and an input ordinal"
                    )
                if not 0 <= node.parent < index:
                    raise DemandTraceError(
                        f"{where}: parent {node.parent} is not an earlier node"
                    )
                if self.nodes[node.parent].kind not in _PARENT_KINDS:
                    raise DemandTraceError(
                        f"{where}: parent {node.parent} is a "
                        f"{self.nodes[node.parent].kind} node and cannot "
                        "have children"
                    )
            elif node.input_ordinal is not None and not (
                0 <= node.input_ordinal < self.input_events
            ):
                raise DemandTraceError(
                    f"{where}: input ordinal {node.input_ordinal} outside "
                    f"the {self.input_events} recorded events"
                )
            if node.kind == KIND_TASK:
                if not node.name or not node.cycles or node.cycles <= 0:
                    raise DemandTraceError(
                        f"{where}: task needs a name and positive cycles"
                    )
                if node.priority not in (0, 1):
                    raise DemandTraceError(
                        f"{where}: unknown task priority {node.priority}"
                    )
                task_ids[node.node_id] = node
            elif node.kind == KIND_TIMER:
                if node.delay_us is None or node.delay_us < 0:
                    raise DemandTraceError(
                        f"{where}: timer needs a non-negative delay"
                    )
            elif node.kind == KIND_INVALIDATE:
                if node.state_id is None or not 0 <= node.state_id < states:
                    raise DemandTraceError(
                        f"{where}: invalidate references state "
                        f"{node.state_id} of {states}"
                    )
            elif node.kind == KIND_CHAIN_START:
                if (
                    node.chain_key is None
                    or not node.name
                    or not node.period_us
                    or node.period_us <= 0
                    or not node.cycles
                    or node.cycles <= 0
                    or node.priority not in (0, 1)
                ):
                    raise DemandTraceError(
                        f"{where}: chain start needs key, name, positive "
                        "period and cycles, and a valid priority"
                    )
                seen_chains.add(node.chain_key)
            elif node.kind == KIND_CHUNKED:
                if (
                    not node.name
                    or not node.cycles
                    or node.cycles <= 0
                    or not node.chunk_cycles
                    or node.chunk_cycles <= 0
                    or node.delay_us is None
                    or node.delay_us < 0
                    or node.priority not in (0, 1)
                ):
                    raise DemandTraceError(
                        f"{where}: chunked chain needs a name, positive "
                        "cycles and chunk cycles, a non-negative gap and a "
                        "valid priority"
                    )
            elif node.kind == KIND_CHAIN_STOP:
                if node.chain_key not in seen_chains:
                    raise DemandTraceError(
                        f"{where}: chain stop for key {node.chain_key} "
                        "before any start"
                    )
        if self.match_states is None:
            raise DemandTraceError("demand trace without a match table")
        for lag_index, matched in enumerate(self.match_states):
            for state_id in matched:
                if not 0 <= state_id < states:
                    raise DemandTraceError(
                        f"match table for annotation {lag_index} "
                        f"references state {state_id} of {states}"
                    )
        for lag_index in self.blank_matches:
            if not 0 <= lag_index < len(self.match_states):
                raise DemandTraceError(
                    f"blank-frame match references annotation "
                    f"{lag_index} of {len(self.match_states)}"
                )
        for ordinal, guard in self.guards.items():
            if not 0 <= ordinal < self.input_events:
                raise DemandTraceError(
                    f"guard ordinal {ordinal} outside the "
                    f"{self.input_events} recorded events"
                )
            for node_id in guard:
                node = task_ids.get(node_id)
                if node is None:
                    raise DemandTraceError(
                        f"guard at ordinal {ordinal} references node "
                        f"{node_id}, which is not a task"
                    )
                if node.priority != 0:
                    raise DemandTraceError(
                        f"guard at ordinal {ordinal} references background "
                        f"task node {node_id}"
                    )

    # --- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema_version,
            "workload": self.workload,
            "capture_config": self.capture_config,
            "duration_us": self.duration_us,
            "input_events": self.input_events,
            "state_count": self.state_count,
            "nodes": [node.as_dict() for node in self.nodes],
            "guards": {
                str(ordinal): list(guard)
                for ordinal, guard in sorted(self.guards.items())
            },
            "match_states": [list(matched) for matched in self.match_states],
            "blank_matches": list(self.blank_matches),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DemandTrace":
        try:
            # Checked first: another schema's fields are not this one's.
            _check_schema(payload["schema"])
            trace = cls(
                workload=payload["workload"],
                capture_config=payload["capture_config"],
                duration_us=payload["duration_us"],
                input_events=payload["input_events"],
                state_count=payload["state_count"],
                match_states=_match_table(payload),
                nodes=[DemandNode.from_dict(row) for row in payload["nodes"]],
                guards={
                    int(ordinal): tuple(guard)
                    for ordinal, guard in payload.get("guards", {}).items()
                },
                blank_matches=tuple(payload.get("blank_matches", ())),
                schema_version=payload["schema"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DemandTraceError(
                f"malformed demand trace payload: {exc}"
            ) from None
        return trace

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def loads(cls, text: str) -> "DemandTrace":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DemandTraceError(
                f"demand trace is not valid JSON: {exc}"
            ) from None
        return cls.from_json_dict(payload)

    def content_hash(self) -> str:
        """Content address of the trace (stable across dump/load)."""
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()
