"""Chunked and periodic background work.

Real background services interleave CPU bursts with IO (reading mail,
flash writes, socket waits), so the load a governor samples from them sits
well below 100%.  ``submit_chunked`` models this: a total cycle demand is
split into fixed-size chunks separated by IO gaps.  Foreground interaction
work stays unchunked — user-triggered bursts are what race governors to
high frequencies.  When a chunk completes, the chain first offers its
following chunks to the scheduler's run-ahead
(:meth:`~repro.kernel.scheduler.Scheduler.run_chunks_inline`), which
plays them in place while nothing else can be due — in practice at a
pinned frequency — and only the first chunk it declines costs an engine
event and a ``Task``.  A demand recorder records the call as one
``chunked`` node and the demand walk makes the same call, so both passes
run a chain through this one code path.

:class:`PeriodicWorkChain` is the second background shape: a gated timer
loop submitting one fixed work unit per period (music decode, widget
refresh).  Apps used to hand-roll this with ``schedule_after`` +
``post_work``; the shared class keeps the exact same event order and adds
the seam the demand recorder needs — a chain is *one* node in a demand
trace instead of an unbounded unrolling of timer firings, so the kernel
evaluation pass can re-run the loop live instead of replaying a recording
of it.
"""

from __future__ import annotations

from typing import Callable

from repro.core.engine import Engine
from repro.core.errors import SimulationError
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import PRIORITY_BACKGROUND, Task

# Sized so that at high frequencies a chunk is short relative to governor
# sampling windows: sustained background work then presents mid-range load
# instead of pegging at 100%.
DEFAULT_CHUNK_CYCLES = 15e6
DEFAULT_GAP_US = 60_000


def submit_chunked(
    engine: Engine,
    scheduler: Scheduler,
    name: str,
    total_cycles: float,
    chunk_cycles: float = DEFAULT_CHUNK_CYCLES,
    gap_us: int = DEFAULT_GAP_US,
    priority: int = PRIORITY_BACKGROUND,
) -> int:
    """Submit ``total_cycles`` of work as an IO-interleaved chunk chain.

    Returns the number of chunks the chain will run.  Under a demand
    recorder the call is recorded as one ``chunked`` node carrying these
    arguments, and the chain's own chunks and gaps are not recorded.
    """
    if total_cycles <= 0:
        raise SimulationError(f"chunked task {name!r} needs positive cycles")
    if chunk_cycles <= 0 or gap_us < 0:
        raise SimulationError("invalid chunking parameters")
    chain = _ChunkChain(
        engine, scheduler, name, total_cycles, chunk_cycles, gap_us, priority
    )
    observer = _chain_observer
    if observer is not None:
        observer.chunked_submitted(
            name, total_cycles, chunk_cycles, gap_us, priority
        )
        with observer.chain_firing(chain):
            chain.submit_next()
    else:
        chain.submit_next()
    return chain.count


class _ChunkChain:
    """One :func:`submit_chunked` chain: submit a chunk, wait for its
    completion, wait the IO gap, repeat.

    A completed chunk first offers the following chunks to
    :meth:`~repro.kernel.scheduler.Scheduler.run_chunks_inline`; only the
    first chunk it declines goes through the engine and the run queue.
    """

    __slots__ = ("_engine", "_scheduler", "_name", "count", "_cycles",
                 "_gap_us", "_priority", "_index")

    def __init__(
        self,
        engine: Engine,
        scheduler: Scheduler,
        name: str,
        total_cycles: float,
        chunk_cycles: float,
        gap_us: int,
        priority: int,
    ) -> None:
        self._engine = engine
        self._scheduler = scheduler
        self._name = name
        self.count = max(1, round(total_cycles / chunk_cycles))
        self._cycles = total_cycles / self.count
        self._gap_us = gap_us
        self._priority = priority
        self._index = 0

    def submit_next(self) -> None:
        self._scheduler.submit(
            Task(
                f"{self._name}[{self._index}/{self.count}]",
                self._cycles,
                priority=self._priority,
                on_complete=self._completed,
            )
        )

    def _completed(self, _task: Task) -> None:
        index = self._index + 1
        count = self.count
        if index < count:
            index += self._scheduler.run_chunks_inline(
                self._cycles, self._gap_us, count - index
            )
            if index < count:
                self._index = index
                self._engine.schedule_after(self._gap_us, self.submit_next)


# The demand recorder (repro.demand.capture) installs itself here for the
# duration of one instrumented replay; ``None`` costs one global read per
# chain transition, nothing on any per-event path.
_chain_observer = None


def set_chain_observer(observer):
    """Install (or clear, with ``None``) the chain observer; returns the
    previous one so callers can restore it."""
    global _chain_observer
    previous = _chain_observer
    _chain_observer = observer
    return previous


class PeriodicWorkChain:
    """A gated timer loop: one work unit per period while active.

    Semantics are an exact transliteration of the self-rescheduling
    pattern the apps used to hand-roll:

    * :meth:`start` arms a fresh timer one period out *unconditionally* —
      re-starting while an earlier firing is still pending historically
      doubled the loop (pause/play faster than the period), and replays
      must keep doing so bit-identically;
    * each firing checks the gate at expiry time, submits the work unit,
      then re-arms (submit before re-arm: engine sequence numbers are
      part of deterministic tie-breaking);
    * :meth:`stop` only drops the gate — pending firings die quietly at
      expiry without re-arming.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: Scheduler,
        name: str,
        period_us: int,
        cycles: float,
        priority: int = PRIORITY_BACKGROUND,
        on_fire: Callable[[], None] | None = None,
    ) -> None:
        if period_us <= 0:
            raise SimulationError(f"chain {name!r} needs a positive period")
        if cycles <= 0:
            raise SimulationError(f"chain {name!r} needs positive cycles")
        self._engine = engine
        self._scheduler = scheduler
        self.name = name
        self.period_us = period_us
        self.cycles = float(cycles)
        self.priority = priority
        self._on_fire = on_fire
        self.active = False
        self.fires = 0

    def start(self) -> None:
        self.active = True
        observer = _chain_observer
        if observer is not None:
            observer.chain_started(self)
            with observer.chain_firing(self):
                self._arm()
        else:
            self._arm()

    def stop(self) -> None:
        self.active = False
        observer = _chain_observer
        if observer is not None:
            observer.chain_stopped(self)

    def _arm(self) -> None:
        self._engine.schedule_after(self.period_us, self._fire)

    def _fire(self) -> None:
        if not self.active:
            return
        observer = _chain_observer
        if observer is not None:
            with observer.chain_firing(self):
                self._run_once()
        else:
            self._run_once()

    def _run_once(self) -> None:
        on_fire = self._on_fire
        self._scheduler.submit(
            Task(
                self.name,
                self.cycles,
                priority=self.priority,
                on_complete=(lambda _t: on_fire()) if on_fire else None,
            )
        )
        self.fires += 1
        self._arm()
