"""Outside-in instruments for the benchmark.

Everything here observes the program through its public surface: a
progress reporter subclass (the hook ``run_sweep`` and ``FleetEngine``
already call), a delegating backend that times ``execute`` from the
engine's side, a ``ResultCache`` subclass that times the coordinator's
store reads, benchmark-level spans, and folding of cProfile self time by
``src/repro/<package>/``.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import json
import pstats
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.fleet.cache import ResultCache
from repro.fleet.progress import ProgressReporter


class Spans:
    """Benchmark-level spans: name, start, end, parent.

    Each span is timed whether or not tracing is on (the end-to-end
    numbers come from these durations); the span list itself is kept
    only when ``enabled``, in memory, and written once by :meth:`write`.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        timing = Timing()
        record = None
        if self.enabled:
            record = {
                "id": len(self.records),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                **attrs,
            }
            self.records.append(record)
            self._stack.append(record["id"])
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            timing.s = end - start
            timing.start, timing.end = start, end
            if record is not None:
                record["start"] = start
                record["end"] = end
                self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records, indent=1) + "\n")


class Timing:
    """Duration of one finished span, in seconds, and when it ran."""

    __slots__ = ("s", "start", "end")

    def __init__(self) -> None:
        self.s = self.start = self.end = 0.0


# --- host speed -----------------------------------------------------------------

#: Host CPU seconds of one reference loop at nominal host speed.  A round
#: figure: the loop took 2.8-5.7 ms on a 2-vCPU x86-64 VM (Xeon at 2.0 GHz,
#: Python 3.11), with the host's state.  It sets the unit, not the spread.
NOMINAL_REF_S = 0.005
#: Samples up to this many seconds either side of an interval count
#: towards its host speed.
SPEED_WINDOW_S = 1.0
#: Seconds between the samples :meth:`HostClock.sampling` takes.
SAMPLING_PERIOD_S = 0.1


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


REFERENCE_N = 3000


def reference_loop(n: int = REFERENCE_N) -> float:
    """Fixed work that calls none of ``repro``: small objects, a heap of
    tuples, a dict and float arithmetic, like an event loop's."""
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(n):
        item = _Item(i, i * 0.5)
        heapq.heappush(heap, ((i * 7919) % 1000, i, item))
        table[i % 257] = item
        if len(heap) > 64:
            when, _i, popped = heapq.heappop(heap)
            total += popped.value * 1.0001 + when
    return total


class HostClock:
    """Scales measured host times to a nominal host speed.

    The host is shared, and its speed wanders: a fixed loop takes up to
    1.9x longer at one moment than at another, in CPU time as much as in
    wall time, flipping between a fast and a slow state within a second.
    So a fixed reference loop (:func:`reference_loop`) is timed, in CPU
    time, between the measured intervals in the thread that does the
    measured work, or from a thread of its own while other processes do
    it (:meth:`sampling`); an interval is reported as
    ``measured * NOMINAL_REF_S / reference``, the reference being the
    median of the samples taken within ``SPEED_WINDOW_S`` of the interval
    (or else the nearest one on either side).  A change to the program
    moves the measured time and not the reference.  A disabled clock
    takes no samples and scales by 1.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self, pause_gc: bool = True) -> float:
        """Time one reference loop; returns the host seconds the sample
        took, warm-up included.  ``pause_gc`` keeps a collection out of
        the timing; the sampling thread leaves the collector alone, as a
        worker forked meanwhile would inherit it switched off."""
        if not self.enabled:
            return 0.0
        began = time.perf_counter()
        collecting = pause_gc and gc.isenabled()
        if collecting:
            gc.disable()
        try:
            # Untimed warm-up, so the sample reads the host's speed rather
            # than the caches the workload left behind.
            reference_loop(REFERENCE_N // 4)
            cpu = time.thread_time()
            reference_loop()
            cpu = time.thread_time() - cpu
        finally:
            if collecting:
                gc.enable()
        self.times.append(time.perf_counter())
        self.refs.append(cpu)
        return self.times[-1] - began

    @contextmanager
    def sampling(self):
        """Sample every ``SAMPLING_PERIOD_S`` from a thread while the body
        runs, for work done by other processes (a sample takes them a few
        ms of one core per period)."""
        if not self.enabled:
            yield
            return
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(SAMPLING_PERIOD_S):
                self.sample(pause_gc=False)

        sampler = threading.Thread(target=loop, name="host-clock", daemon=True)
        sampler.start()
        try:
            yield
        finally:
            stop.set()
            sampler.join()

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured host speed around ``[start, end]``."""
        if not self.refs:
            return 1.0
        low = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        high = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        window = self.refs[low:high] or self.refs[max(low - 1, 0): high + 1]
        return NOMINAL_REF_S / statistics.median(window)

    def scale(self, timing: Timing) -> float:
        return timing.s * self.factor(timing.start, timing.end)

    def speed(self) -> float:
        """Median host speed over all samples, nominal = 1."""
        return NOMINAL_REF_S / statistics.median(self.refs) if self.refs else 1.0


class SweepProbe(ProgressReporter):
    """A silent progress reporter that keeps what the engine tells it.

    ``run_sweep`` binds a :class:`ProgressReporter` to its grid and the
    engine feeds it the one-time demand capture time
    (``note_capture_seconds``), every completion with the worker's
    telemetry (``observe``) and, at the end, its ``FleetStats``
    (``fleet_summary`` receives the engine's ``last_stats``).
    """

    def __init__(self) -> None:
        super().__init__("perfbench", human=False)
        self.capture_s: list[float] = []
        self.executed: list[tuple[str, int, dict]] = []
        self.stats = None

    def note_capture_seconds(self, seconds: float | None) -> None:
        super().note_capture_seconds(seconds)
        if seconds:
            self.capture_s.append(seconds)

    def observe(self, spec, cached=False, telemetry=None) -> None:
        super().observe(spec, cached=cached, telemetry=telemetry)
        if telemetry is not None:
            self.executed.append((spec.config, spec.rep, telemetry))

    def fleet_summary(self, stats, cache=None) -> None:
        self.stats = stats


class TimedBackend:
    """Delegates to a fleet backend and times ``execute`` from outside.

    ``wall_s`` is the backend's wall time as the engine sees it (first
    call to exhaustion).  ``cells`` holds, per yielded cell, the span
    from the engine asking for the next result to receiving it: for the
    inline backend that is exactly one cell's execution.  ``on_start``
    runs just before the backend starts (the traced run snapshots the
    metrics registry there, which is what forked workers inherit).
    Given a ``clock``, the backend samples it before the first cell and
    after each one; ``paused_s`` is the time those samples took, which
    ``wall_s`` leaves out.
    """

    def __init__(self, inner, on_start=None, clock: HostClock | None = None) -> None:
        self.inner = inner
        self.on_start = on_start
        self.clock = clock
        self.wall_s = 0.0
        self.paused_s = 0.0
        self.cells: list[Timing] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _sample(self) -> None:
        if self.clock is not None:
            self.paused_s += self.clock.sample()

    def execute(self, artifacts, pending, **kwargs):
        if self.on_start is not None:
            self.on_start()
        self._sample()
        paused = self.paused_s
        start = mark = time.perf_counter()
        try:
            for item in self.inner.execute(artifacts, pending, **kwargs):
                cell = Timing()
                cell.start, cell.end = mark, time.perf_counter()
                cell.s = cell.end - cell.start
                self.cells.append(cell)
                self._sample()
                yield item
                mark = time.perf_counter()
        finally:
            self.wall_s += time.perf_counter() - start - (self.paused_s - paused)


class TimedStore(ResultCache):
    """A ``ResultCache`` that times the coordinator's ``load`` calls."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.load_s = 0.0
        self.loads = 0

    def load(self, key):
        start = time.perf_counter()
        try:
            return super().load(key)
        finally:
            self.load_s += time.perf_counter() - start
            self.loads += 1


# --- obs counters ---------------------------------------------------------------


def counter_totals(executed: list[tuple[int, dict]], base: dict) -> dict[str, int]:
    """Sum the obs counters of executed cells across processes.

    Every process runs its cells against one installed session, so each
    record's ``obs`` snapshot is cumulative for its process and started
    from ``base`` (the registry at the moment the process began running
    cells — forked workers inherit it).  ``executed`` pairs a process id
    with each executed record's snapshot.
    """
    last: dict[int, dict[str, int]] = {}
    for pid, snapshot in executed:
        current = (snapshot or {}).get("counters", {})
        previous = last.get(pid)
        if previous is None or current.get(
            "engine.events_dispatched", 0
        ) >= previous.get("engine.events_dispatched", 0):
            last[pid] = current
    totals: dict[str, int] = {}
    for current in last.values():
        for name, value in current.items():
            totals[name] = totals.get(name, 0) + value - base.get(name, 0)
    return totals


# --- cProfile folding -----------------------------------------------------------

#: Layer name -> packages under ``src/repro/`` folded into it.
LAYERS: dict[str, tuple[str, ...]] = {
    "core": ("core",),
    "kernel": ("kernel",),
    "device": ("device",),
    "governors": ("governors",),
    "demand": ("demand",),
    "driver": ("replay", "uifw", "apps"),
    "capture": ("capture", "analysis"),
    "results": ("results",),
    "fleet": ("fleet",),
}


def self_fractions(profile, package_root: Path) -> dict[str, float]:
    """cProfile self time folded by layer, as fractions of all self time.

    The denominator is every profiled function's self time — built-ins
    and the standard library included — so the fractions say how much
    of the workload's profiled time each layer's own code took.
    """
    stats = pstats.Stats(profile).stats
    root = str(package_root.resolve()) + "/"
    by_package: dict[str, float] = {}
    total = 0.0
    for (filename, _line, _name), (_cc, _nc, self_s, _ct, _callers) in stats.items():
        total += self_s
        if filename.startswith(root):
            package = filename[len(root):].split("/", 1)[0]
            by_package[package] = by_package.get(package, 0.0) + self_s
    return {
        layer: (sum(by_package.get(p, 0.0) for p in packages) / total)
        if total
        else 0.0
        for layer, packages in LAYERS.items()
    }
