"""Aggregated progress, ETA and machine-readable telemetry for fleet runs.

A :class:`ProgressReporter` is the fleet engine's only progress hook.
``run_sweep`` binds it to a spec list before the fleet starts; the
explorer leaves it unbound, so its totals grow as runs complete.  It
observes completions (from any worker, in any order), printing
``config c/C, rep r/R`` positions, an aggregate ``done/total`` count, an
ETA extrapolated from completed runs, and a ``[cached]`` marker for cells
served from the result cache.  Every line is flushed so progress is
visible through pipes and log files.

The reporter keeps presentation state only: label, streams, clock,
``seq``, grid shape, the done/cached position, heartbeat pacing and the
ETA's capture allowance.  Every aggregate it prints comes from the
engine's :class:`~repro.fleet.engine.FleetStats`.

Fleet telemetry (``--progress-jsonl PATH``)
-------------------------------------------

Alongside the human lines the reporter can stream JSON-lines events to a
second file: one ``grid_bound`` event when the spec list is learned, a
``run_completed`` event per observation (with the worker's pid, wall and
CPU seconds when the run executed), rate-limited ``heartbeat`` events
with the done/total/cached position, and one ``fleet_summary`` per
engine run, rendered from its ``FleetStats``: per-worker totals, cache
hit/miss counts, straggler statistics, and the demand-pass accounting
(kernel-only vs full-replay cell counts, fallback reasons, and where the
demand trace came from).  Events carry a monotonically
increasing ``seq`` so a consumer can detect truncation; everything is
plain JSON, one object per line, append-only.  README's Observability
section lists every field.

All human output goes to ``stream`` (stderr by default) and all telemetry
to ``jsonl_stream`` — never stdout, which belongs to study results and is
pinned byte-identical by the integration tests.  ``clock`` is injectable
so the ETA and heartbeat logic is testable without sleeping.
"""

from __future__ import annotations

import json
import sys
import time
from typing import TextIO

from repro.fleet.spec import RunSpec

#: Seconds between heartbeat events on the JSONL stream.
DEFAULT_HEARTBEAT_S = 30.0


class ProgressReporter:
    """Streamed ``done/total`` + ETA lines over an enumerated spec list."""

    def __init__(
        self,
        label: str,
        stream: TextIO | None = None,
        jsonl_stream: TextIO | None = None,
        human: bool = True,
        clock=time.monotonic,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        self.label = label
        self._stream = stream
        self._jsonl = jsonl_stream
        self._human = human
        self._clock = clock
        self._heartbeat_s = heartbeat_s
        self._config_index: dict[str, int] = {}
        self._reps = 0
        self._total = 0
        self._done = 0
        self._cached = 0
        self._started_at: float | None = None
        self._seq = 0
        self._last_heartbeat: float | None = None
        self._capture_s = 0.0

    def bind(self, specs: list[RunSpec]) -> "ProgressReporter":
        """Learn the grid shape; called by the sweep before dispatch.

        Rebinding (a study's next workload) resets the grid position,
        heartbeat pacing and the demand-capture allowance.  Only ``seq``
        survives: the JSONL stream is one ordered sequence.
        """
        self._config_index = {}
        self._reps = 0
        for spec in specs:
            self._config_index.setdefault(spec.config, len(self._config_index))
            self._reps = max(self._reps, spec.rep + 1)
        self._total = len(specs)
        self._done = 0
        self._cached = 0
        self._last_heartbeat = None
        self._capture_s = 0.0
        self._started_at = self._clock()
        self._emit_jsonl(
            {
                "event": "grid_bound",
                "label": self.label,
                "total": self._total,
                "configs": len(self._config_index),
                "reps": self._reps,
            }
        )
        return self

    def observe(
        self,
        spec: RunSpec,
        cached: bool = False,
        telemetry: dict | None = None,
    ) -> None:
        """Observe one completed run.

        An unbound reporter (the explorer's, fed many small batches)
        grows its totals as observations arrive instead of claiming a
        grid shape it doesn't know.  ``telemetry`` is the worker-side
        measurement of an executed run (``pid``, ``wall_s``, ``cpu_s``);
        cached cells have none.
        """
        if self._started_at is None:
            self._started_at = self._clock()
        self._done += 1
        if cached:
            self._cached += 1
        self._reps = max(self._reps, spec.rep + 1)
        self._total = max(self._total, self._done)
        config_pos = (
            self._config_index.setdefault(spec.config, len(self._config_index))
            + 1
        )
        if self._human:
            eta = self.eta_seconds()
            line = (
                f"  {self.label}: {spec.config} "
                f"(config {config_pos}/{max(1, len(self._config_index))}, "
                f"rep {spec.rep + 1}/{max(1, self._reps)}) — "
                f"{self._done}/{self._total} runs"
                + (f", ETA {eta:.0f}s" if eta is not None else "")
            )
            if cached:
                line += " [cached]"
            stream = self._stream if self._stream is not None else sys.stderr
            print(line, file=stream, flush=True)
        event = {
            "event": "run_completed",
            "label": self.label,
            "spec": spec.label(),
            "config": spec.config,
            "rep": spec.rep,
            "cached": cached,
            "done": self._done,
            "total": self._total,
        }
        if telemetry is not None:
            event["worker_pid"] = telemetry["pid"]
            event["wall_s"] = telemetry["wall_s"]
            event["cpu_s"] = telemetry["cpu_s"]
            if "mode" in telemetry:
                event["mode"] = telemetry["mode"]
            if "fallback_reason" in telemetry:
                event["fallback_reason"] = telemetry["fallback_reason"]
        self._emit_jsonl(event)
        self._maybe_heartbeat()

    def fleet_summary(self, stats, cache=None) -> None:
        """Emit one engine run's telemetry summary (JSONL only).

        Every count comes from ``stats``, the run's
        :class:`~repro.fleet.engine.FleetStats`; ``cache``, when given,
        contributes its session hit/miss counters and the misses by
        reason (absent, stale, corrupt).
        """
        if self._jsonl is None:
            return
        event = {
            "event": "fleet_summary",
            "label": self.label,
            "total": stats.total,
            "cache_hits": stats.cache_hits,
            "executed": stats.executed,
            "stored": stats.stored,
            "failures": stats.failures,
            "backend": stats.backend,
            "redispatched": stats.redispatched,
            "workers": stats.worker_totals(),
            "stragglers": stats.straggler_summary(),
            "demand": {
                "demand_cells": stats.demand_cells,
                "full_cells": stats.full_cells,
                "fallback_cells": stats.fallback_cells,
                "fallback_reasons": stats.fallback_reasons,
                "trace_source": stats.demand_trace_source,
                "capture_s": stats.demand_capture_s,
                "capture_error": stats.demand_capture_error,
            },
        }
        if self._started_at is not None:
            event["elapsed_s"] = self._clock() - self._started_at
        if cache is not None:
            event["cache"] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "miss_reasons": dict(cache.miss_reasons),
            }
        self._emit_jsonl(event)

    def note_capture_seconds(self, seconds: float | None) -> None:
        """Record one-time setup wall time (the demand-trace capture).

        The capture happens after :meth:`bind` starts the clock but is
        paid once per grid, not per cell; folding it into the per-cell
        extrapolation would overestimate the ETA (badly so on small
        grids).  The engine reports it here so :meth:`eta_seconds` can
        exclude it.
        """
        if seconds:
            self._capture_s += seconds

    def eta_seconds(self) -> float | None:
        """Remaining-time estimate from executed runs, or None.

        One-time costs reported via :meth:`note_capture_seconds` are
        excluded: only per-cell time extrapolates to the remaining cells.
        """
        executed = self._done - self._cached
        remaining = self._total - self._done
        if executed <= 0 or remaining <= 0 or self._started_at is None:
            return None
        elapsed = self._clock() - self._started_at - self._capture_s
        if elapsed < 0:
            elapsed = 0.0
        return elapsed / executed * remaining

    # --- internals ------------------------------------------------------------

    def _maybe_heartbeat(self) -> None:
        if self._jsonl is None:
            return
        now = self._clock()
        last = self._last_heartbeat
        if last is not None and now - last < self._heartbeat_s:
            return
        self._last_heartbeat = now
        event = {
            "event": "heartbeat",
            "label": self.label,
            "done": self._done,
            "total": self._total,
            "cached": self._cached,
        }
        if self._started_at is not None:
            event["elapsed_s"] = now - self._started_at
        self._emit_jsonl(event)

    def _emit_jsonl(self, event: dict) -> None:
        if self._jsonl is None:
            return
        event = {"seq": self._seq, **event}
        self._seq += 1
        self._jsonl.write(json.dumps(event, sort_keys=True) + "\n")
        self._jsonl.flush()
