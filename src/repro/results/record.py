"""The schema-versioned run artifact.

A :class:`RunRecord` is the one typed result of a replay: everything a
consumer downstream of the run loop needs (sweep aggregation, oracle
composition, figure regeneration, design-space scoring, perf accounting)
in a compact, JSON-safe row.  It is the *only* shape a run result takes
when it crosses a process or storage boundary — never a pickled object
graph.

Two rows
--------

* The **canonical row** (:meth:`RunRecord.to_json_dict`,
  :meth:`RunRecord.dumps`) is the record's identity: sorted-key JSON with
  the traces as ``[[a, b], ...]`` lists.  Record digests and the golden
  tests hash it, so it never changes without a schema bump.
* The **wire row** (:meth:`RunRecord.to_wire`, :meth:`RunRecord.from_wire`)
  is what every boundary carries: the result cache's files, the local
  pool's IPC, and the distributed backend's store publish and queue ack.
  It is the canonical row with each trace packed into one ASCII string
  (:meth:`~repro.results.pairs.IntPairs.pack`), about a fifth of the
  size.  It decodes eagerly and validates as it goes: any malformed row
  raises :class:`RunRecordWireError`.

Schema rules
------------

* ``RUN_RECORD_SCHEMA_VERSION`` names the canonical row layout.  Any
  change to the field set, field meaning, or canonical encoding MUST
  bump it.  Both rows embed it, and the fleet cache folds it into every
  key, so old entries become misses (and re-execute) instead of
  deserializing wrongly.
* The wire row's packing is guarded by the fleet cache's
  ``CACHE_VERSION``, not by this version: changing it moves every cache
  key but leaves the canonical row, and so every digest, untouched.
* Rows are pure JSON: ints, floats, strings, lists.  Floats round-trip
  exactly (``json`` emits ``repr``-precision), which the bit-identical
  A/B guarantees rely on.
* The ``obs`` section (``REPRO_TRACE=1`` observability harvest) is
  self-versioned by ``repro.obs.metrics.OBS_SCHEMA_VERSION`` and
  omitted entirely when ``None``; its internal layout is opaque to this
  module.  Adding the field was itself a row-layout change, hence
  version 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import ReproError
from repro.analysis.lagprofile import LagMeasurement, LagProfile
from repro.results.pairs import IntPairs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.hci import HciModel
    from repro.oracle.builder import BusyTimeline

#: Version of the canonical row layout.  Bump on ANY change to the
#: fields below or their canonical encoding; the fleet cache folds this
#: into its content address, so a bump invalidates every cached row.
RUN_RECORD_SCHEMA_VERSION = 2


class RunRecordSchemaError(ReproError):
    """A serialized row does not carry the supported schema version."""


class RunRecordWireError(ReproError):
    """A wire row is malformed: not JSON, a missing key, or a packed trace
    column that does not decode."""


def _check_version(row: dict) -> None:
    version = row.get("schema_version")
    if version != RUN_RECORD_SCHEMA_VERSION:
        raise RunRecordSchemaError(
            f"RunRecord schema version {version!r} is not the "
            f"supported version {RUN_RECORD_SCHEMA_VERSION}"
        )


@dataclass(slots=True)
class RunRecord:
    """One workload execution under one configuration.

    ``transitions`` is the raw ``(timestamp_us, freq_khz)`` trace of the
    cpufreq policy; ``busy_intervals`` the core's closed ``(start_us,
    end_us)`` busy spans — both accumulated online on the device side
    during the run and held as compact :class:`~repro.results.pairs.
    IntPairs` (16 bytes/pair) rather than lists of tuples, because a
    day-long run logs hundreds of thousands of each.  Any iterable of
    pairs is accepted at construction and coerced.  ``lags`` is the
    matcher's output.

    ``obs`` is the observability harvest (counters, gauges, histograms)
    of a ``REPRO_TRACE=1`` run, or ``None`` — the default — when the run
    was not observed.  It is excluded from equality so an observed run
    still compares equal to its unobserved twin: observability must
    never perturb result semantics.
    """

    workload: str
    config: str
    rep: int
    duration_us: int
    energy_j: float
    dynamic_energy_j: float
    busy_us: int
    transitions: IntPairs
    busy_intervals: IntPairs
    lags: tuple[LagMeasurement, ...]
    schema_version: int = RUN_RECORD_SCHEMA_VERSION
    obs: dict | None = field(default=None, compare=False)
    _timeline: "BusyTimeline | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.transitions, IntPairs):
            self.transitions = IntPairs(self.transitions)
        if not isinstance(self.busy_intervals, IntPairs):
            self.busy_intervals = IntPairs(self.busy_intervals)

    # --- derived views ----------------------------------------------------------

    @property
    def lag_profile(self) -> LagProfile:
        """The run's lag profile (cheap view over ``lags``)."""
        return LagProfile(self.workload, self.lags)

    @property
    def busy_timeline(self) -> "BusyTimeline":
        """Busy intervals with O(log n) window queries, built lazily."""
        if self._timeline is None:
            from repro.oracle.builder import BusyTimeline

            self._timeline = BusyTimeline(self.busy_intervals)
        return self._timeline

    def irritation_seconds(self, model: "HciModel | None" = None) -> float:
        return self.lag_profile.irritation(model).total_seconds

    # --- serialization ----------------------------------------------------------

    def _row(self, transitions, busy_intervals) -> dict:
        """The row around the two trace columns, in their given form.

        ``obs`` is emitted only when present, so unobserved rows (the
        default, and everything the A/B digest tests compare) serialize
        to byte-identical text whether or not the field exists.
        """
        row = {
            "schema_version": self.schema_version,
            "workload": self.workload,
            "config": self.config,
            "rep": self.rep,
            "duration_us": self.duration_us,
            "energy_j": self.energy_j,
            "dynamic_energy_j": self.dynamic_energy_j,
            "busy_us": self.busy_us,
            "transitions": transitions,
            "busy_intervals": busy_intervals,
            "lags": [
                {
                    "lag_index": lag.lag_index,
                    "gesture_index": lag.gesture_index,
                    "label": lag.label,
                    "category": lag.category,
                    "begin_time_us": lag.begin_time_us,
                    "end_frame": lag.end_frame,
                    "duration_us": lag.duration_us,
                    "threshold_us": lag.threshold_us,
                }
                for lag in self.lags
            ],
        }
        if self.obs is not None:
            row["obs"] = self.obs
        return row

    @classmethod
    def _from_row(cls, row: dict, transitions, busy_intervals) -> "RunRecord":
        """Rebuild a record from a row whose traces are already decoded."""
        return cls(
            workload=row["workload"],
            config=row["config"],
            rep=row["rep"],
            duration_us=row["duration_us"],
            energy_j=row["energy_j"],
            dynamic_energy_j=row["dynamic_energy_j"],
            busy_us=row["busy_us"],
            transitions=transitions,
            busy_intervals=busy_intervals,
            lags=tuple(
                LagMeasurement(
                    lag_index=lag["lag_index"],
                    gesture_index=lag["gesture_index"],
                    label=lag["label"],
                    category=lag["category"],
                    begin_time_us=lag["begin_time_us"],
                    end_frame=lag["end_frame"],
                    duration_us=lag["duration_us"],
                    threshold_us=lag["threshold_us"],
                )
                for lag in row["lags"]
            ),
            obs=row.get("obs"),
        )

    # --- canonical row ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The canonical row as a pure-JSON dict (what :meth:`dumps` hashes)."""
        return self._row(
            self.transitions.to_lists(), self.busy_intervals.to_lists()
        )

    @classmethod
    def from_json_dict(cls, row: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_json_dict` output.

        Raises :class:`RunRecordSchemaError` on a version mismatch.
        """
        _check_version(row)
        return cls._from_row(
            row, IntPairs(row["transitions"]), IntPairs(row["busy_intervals"])
        )

    def dumps(self) -> str:
        """Canonical JSON text of the row (stable key order, no spaces)."""
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def loads(cls, text: str) -> "RunRecord":
        return cls.from_json_dict(json.loads(text))

    # --- wire row ---------------------------------------------------------------

    def to_wire(self) -> dict:
        """The compact wire row: the canonical row with each trace packed
        into one ASCII string (:meth:`IntPairs.pack`)."""
        return self._row(self.transitions.pack(), self.busy_intervals.pack())

    @classmethod
    def from_wire(cls, row: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_wire` output, decoding eagerly.

        Raises :class:`RunRecordSchemaError` when the row carries another
        schema version, and :class:`RunRecordWireError` when it is
        malformed in any other way.
        """
        if not isinstance(row, dict):
            raise RunRecordWireError(
                f"wire row is a {type(row).__name__}, not a JSON object"
            )
        if "schema_version" not in row:
            raise RunRecordWireError("wire row has no 'schema_version'")
        _check_version(row)
        columns = []
        for name in ("transitions", "busy_intervals"):
            packed = row.get(name)
            if not isinstance(packed, str):
                raise RunRecordWireError(
                    f"wire column {name!r} is a {type(packed).__name__}, "
                    "not a packed string"
                )
            try:
                columns.append(IntPairs.unpack(packed))
            except ValueError as exc:
                raise RunRecordWireError(f"wire column {name!r}: {exc}") from None
        try:
            return cls._from_row(row, *columns)
        except (KeyError, TypeError) as exc:
            raise RunRecordWireError(
                f"malformed wire row: {type(exc).__name__}: {exc}"
            ) from None

    @classmethod
    def wire_loads(cls, data: str | bytes) -> "RunRecord":
        """:meth:`from_wire` over JSON text; text that is not JSON raises
        :class:`RunRecordWireError`."""
        try:
            row = json.loads(data)
        except ValueError as exc:
            raise RunRecordWireError(f"wire row is not JSON: {exc}") from None
        return cls.from_wire(row)
