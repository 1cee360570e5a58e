"""The distributed backend: a shared work queue + shared record store.

Workers *pull* :class:`~repro.fleet.spec.RunSpec` cells, one at a time,
from a shared sqlite work queue and *publish* schema-versioned
:class:`~repro.results.RunRecord` wire rows to the shared
content-addressed record store (the same
:class:`~repro.fleet.cache.ResultCache` format, on a filesystem every
worker can reach) — the work-pulling worker topology, sized for sweeps
that outgrow one machine's pool.  A worker encodes each record it
executed once (:meth:`~repro.results.RunRecord.to_wire`) and both
publishes and acks that same row; the coordinator decodes the acked row
before yielding it to the engine.

Lease/ack semantics make the queue crash-safe:

* leasing a cell marks it ``leased`` with an expiry ``lease`` seconds
  out and bumps its attempt counter; acking marks it ``done`` and
  attaches the result row (or the captured failure) plus telemetry.
  A worker holds one cell at a time: lease it, execute it, publish,
  ack,
* a worker that dies holding a lease never acks — the lease expires
  and any live worker re-leases the cell (straggler re-dispatch).  A
  *slow* worker that outlives its lease causes at worst a duplicate
  execution, never a wrong result: replays are deterministic, acks
  idempotent, and the coordinator consumes each cell exactly once,
* if the whole worker fleet dies, the coordinator releases every lease
  and drains the remaining cells inline, so a run always terminates.

Durable truth lives in the record store, not the queue: rows are
published (content-addressed, atomically) *before* the ack.  A sweep
killed at any point — coordinator included — is therefore resumable:
the restarted engine's cache scan finds every published row and
re-dispatches only the unfinished cells, executing **zero** duplicate
replays.  The queue itself is coordination-only state, scoped per
``run_id``; stale rows from a killed run are ignored and swept on the
next enqueue.

Each process keeps one queue connection, opened on first use and reused
by every lease, ack and poll after it: a write transaction on a fresh
connection costs about 70 times one on a kept connection, because
closing the last connection to a WAL database checkpoints it.
A connection never crosses a fork: the coordinator closes its own before
it starts the workers, and a queue object used in a process other than
the one that opened its connection opens one of its own.

The ``chaos_exit_after=N`` option is a test/CI knob: the first worker
acks N cells, leases its next one and hard-exits (``os._exit``) while
holding it, simulating a worker death mid-cell so lease expiry and
re-dispatch stay continuously proven.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import time
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.core.errors import ReproError
from repro.fleet.backends.registry import (
    CellResult,
    FleetBackend,
    opt_float,
    opt_int,
    reject_unknown_opts,
)
from repro.fleet.spec import RunSpec
from repro.results import RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import WorkloadArtifacts

#: Seconds between coordinator polls of the queue.
POLL_S = 0.02
#: Seconds a worker naps when every remaining cell is leased elsewhere.
WORKER_IDLE_S = 0.05

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    run_id        TEXT NOT NULL,
    idx           INTEGER NOT NULL,
    spec          TEXT NOT NULL,
    key           TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    lease_expires REAL,
    worker        TEXT,
    row           TEXT,
    failure       TEXT,
    telemetry     TEXT,
    PRIMARY KEY (run_id, idx)
);
-- A lease is two ordered range scans of this index (pending cells,
-- expired leases).  Queue files made before it keep the older
-- (run_id, state) index, which the planner could still pick.
DROP INDEX IF EXISTS cells_state;
CREATE INDEX IF NOT EXISTS cells_by_state ON cells (run_id, state, idx);
"""

#: Connections a forked child inherited with its queue objects.  They
#: stay referenced for the life of the process, so garbage collection
#: never closes them: closing an inherited sqlite handle drops this
#: process's POSIX locks on the file, its own connection's included.
_INHERITED: list[sqlite3.Connection] = []


class SqliteWorkQueue:
    """Leased work-cell queue shared by coordinator and workers.

    Every mutation is one short ``BEGIN IMMEDIATE`` transaction, so any
    number of processes can lease and ack concurrently; sqlite's file
    lock is the arbiter.  ``clock`` is injectable so lease expiry is
    testable without sleeping.

    The object holds one connection per process: opened on first use,
    bound to ``os.getpid()``, reused by every call, released by
    :meth:`close`.  Close it before forking, so the child starts without
    an open sqlite handle.
    """

    def __init__(self, path: str | Path, clock=time.time) -> None:
        self.path = Path(path)
        self._clock = clock
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None

    def _connect(self) -> sqlite3.Connection:
        # An autocommit connection: transactions are explicit BEGIN
        # IMMEDIATE blocks, so every mutation holds the write lock for
        # exactly one short critical section and no read is left open
        # between calls.
        conn = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
        conn.execute("PRAGMA busy_timeout=30000")
        # The queue is coordination-only state: durable truth lives in
        # the record store, and rows are published there *before* the
        # ack.  synchronous=NORMAL (safe with WAL — a power loss can
        # roll back the last transactions but never corrupt the file)
        # therefore risks at worst a duplicate execution, never a lost
        # result, and drops an fsync from every lease/ack.
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _connection(self) -> sqlite3.Connection:
        """This process's connection, opened on first use."""
        if self._pid != os.getpid():
            self.close()
            self._conn = self._connect()
            self._pid = os.getpid()
        return self._conn

    def close(self) -> None:
        """Release this process's connection; the next call reopens one.

        A connection inherited over fork is parked in ``_INHERITED``,
        never closed.
        """
        conn, self._conn = self._conn, None
        if conn is not None:
            if self._pid == os.getpid():
                conn.close()
            else:
                _INHERITED.append(conn)
        self._pid = None

    def _mutate(self, operate) -> object:
        """Run ``operate(conn)`` inside one immediate transaction."""
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            result = operate(conn)
            conn.execute("COMMIT")
        except BaseException:
            # The connection outlives this call: never leave it inside
            # a transaction.
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
        return result

    def _read(self, operate) -> object:
        return operate(self._connection())

    def ensure(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)

        def operate(conn):
            # WAL journal mode is persistent (recorded in the database
            # file), so setting it once here covers every later worker
            # connection: readers stop blocking the writer, and short
            # lease/ack transactions append to the log instead of
            # rewriting pages under a rollback journal.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(_SCHEMA)

        self._read(operate)

    def enqueue(
        self, run_id: str, cells: list[tuple[int, dict, str]]
    ) -> None:
        """Add ``(index, spec wire dict, store key)`` cells for ``run_id``.

        Rows from other (dead) runs are swept first: the queue carries no
        durable state — completed work lives in the record store.
        """

        def operate(conn):
            conn.execute("DELETE FROM cells WHERE run_id != ?", (run_id,))
            conn.executemany(
                "INSERT OR REPLACE INTO cells (run_id, idx, spec, key) "
                "VALUES (?, ?, ?, ?)",
                [
                    (run_id, index, json.dumps(wire, sort_keys=True), key)
                    for index, wire, key in cells
                ],
            )

        self._mutate(operate)

    def lease(
        self, run_id: str, worker: str, lease_s: float
    ) -> tuple[int, dict, str] | None:
        """Claim the lowest-index runnable cell: pending, or an expired
        lease; None when there is none.

        Re-leasing an expired cell is the straggler re-dispatch path; the
        attempt counter records every dispatch so ``redispatched()`` can
        report how many cells needed more than one.  Each kind is one
        ordered range scan of ``cells_by_state`` that stops at its first
        row, so a lease never walks the done cells.
        """
        now = self._clock()

        def operate(conn):
            pending = conn.execute(
                "SELECT idx, spec, key FROM cells WHERE run_id = ? "
                "AND state = 'pending' ORDER BY idx LIMIT 1",
                (run_id,),
            ).fetchone()
            expired = conn.execute(
                "SELECT idx, spec, key FROM cells WHERE run_id = ? "
                "AND state = 'leased' AND lease_expires < ? "
                "ORDER BY idx LIMIT 1",
                (run_id, now),
            ).fetchone()
            cell = min(filter(None, (pending, expired)), default=None)
            if cell is not None:
                conn.execute(
                    "UPDATE cells SET state = 'leased', "
                    "attempts = attempts + 1, lease_expires = ?, worker = ? "
                    "WHERE run_id = ? AND idx = ?",
                    (now + lease_s, worker, run_id, cell[0]),
                )
            return cell

        cell = self._mutate(operate)
        if cell is None:
            return None
        idx, spec, key = cell
        return idx, json.loads(spec), key

    def ack(
        self,
        run_id: str,
        index: int,
        row: dict | None,
        failure: dict | None,
        telemetry: dict,
    ) -> None:
        """Mark one cell done with its result (idempotent: last ack wins).

        One ``UPDATE`` in one ``BEGIN IMMEDIATE``; under
        ``synchronous=NORMAL`` the commit appends to the WAL without an
        fsync (the WAL syncs at checkpoints).
        """
        self._mutate(
            lambda conn: conn.execute(
                "UPDATE cells SET state = 'done', lease_expires = NULL, "
                "row = ?, failure = ?, telemetry = ? "
                "WHERE run_id = ? AND idx = ?",
                (
                    None if row is None else json.dumps(row, sort_keys=True),
                    None
                    if failure is None
                    else json.dumps(failure, sort_keys=True),
                    json.dumps(telemetry, sort_keys=True),
                    run_id,
                    index,
                ),
            )
        )

    def done_cells(
        self, run_id: str, skip: set[int]
    ) -> list[tuple[int, dict | None, dict | None, dict]]:
        """Completed cells not in ``skip``, in index order.

        Each poll scans only the done cells' indices; the payload of a
        cell outside ``skip`` is fetched and decoded, so a coordinator
        that adds every returned index to ``skip`` reads each row once.
        """

        def operate(conn):
            fresh = [
                idx
                for (idx,) in conn.execute(
                    "SELECT idx FROM cells WHERE run_id = ? "
                    "AND state = 'done' ORDER BY idx",
                    (run_id,),
                )
                if idx not in skip
            ]
            return [
                (idx, *conn.execute(
                    "SELECT row, failure, telemetry FROM cells "
                    "WHERE run_id = ? AND idx = ?",
                    (run_id, idx),
                ).fetchone())
                for idx in fresh
            ]

        return [
            (
                idx,
                None if row is None else json.loads(row),
                None if failure is None else json.loads(failure),
                json.loads(telemetry) if telemetry else {},
            )
            for idx, row, failure, telemetry in self._read(operate)
        ]

    def counts(self, run_id: str) -> dict[str, int]:
        return dict(
            self._read(
                lambda conn: conn.execute(
                    "SELECT state, COUNT(*) FROM cells WHERE run_id = ? "
                    "GROUP BY state",
                    (run_id,),
                ).fetchall()
            )
        )

    def release_leases(self, run_id: str) -> int:
        """Return every leased cell to pending (the fleet-died path)."""
        return self._mutate(
            lambda conn: conn.execute(
                "UPDATE cells SET state = 'pending', lease_expires = NULL "
                "WHERE run_id = ? AND state = 'leased'",
                (run_id,),
            ).rowcount
        )

    def redispatched(self, run_id: str) -> int:
        """Cells that needed more than one dispatch (expired leases)."""
        return self._read(
            lambda conn: conn.execute(
                "SELECT COUNT(*) FROM cells WHERE run_id = ? "
                "AND attempts > 1",
                (run_id,),
            ).fetchone()[0]
        )


def _failure_to_wire(failure) -> dict:
    return {
        "spec": failure.spec.to_wire(),
        "exc_type": failure.exc_type,
        "message": failure.message,
        "traceback_text": failure.traceback_text,
    }


def _failure_from_wire(wire: dict):
    from repro.fleet.engine import WorkerFailure

    return WorkerFailure(
        spec=RunSpec.from_wire(wire["spec"]),
        exc_type=wire["exc_type"],
        message=wire["message"],
        traceback_text=wire["traceback_text"],
    )


def _work_cells(
    queue: SqliteWorkQueue,
    run_id: str,
    store,
    worker: str,
    lease_s: float,
    wait_for_stragglers: bool,
    chaos_exit_after: int | None = None,
) -> None:
    """The pull loop: lease one cell, execute it, publish, ack — until
    the queue drains.

    Assumes :func:`~repro.fleet.backends.local.init_worker` already
    installed this process's artifacts (and demand program).  Every row
    is published to the shared store *before* its ack, so a cell the
    queue says is done is always resumable from the store.  A worker
    that dies between publish and ack leaves its cell leased, and its
    re-execution after lease expiry is harmless — replays are
    deterministic and the store publish is an idempotent identical-bytes
    write.
    """
    from repro.fleet.backends.local import run_spec_cell

    acked = 0
    while True:
        cell = queue.lease(run_id, worker, lease_s)
        if cell is None:
            counts = queue.counts(run_id)
            if counts.get("pending", 0) == 0 and (
                not wait_for_stragglers or counts.get("leased", 0) == 0
            ):
                return
            time.sleep(WORKER_IDLE_S)
            continue
        if acked == chaos_exit_after:
            # Test/CI knob: die holding a lease, without cleanup.  The
            # cell is dispatched again once its lease expires (or once
            # the coordinator reclaims the leases of a dead fleet).
            os._exit(17)
        index, wire, key = cell
        _, record, failure, telemetry = run_spec_cell(
            (index, RunSpec.from_wire(wire))
        )
        row = None if record is None else record.to_wire()
        if row is not None and store is not None:
            store.store_wire(key, row)
        queue.ack(
            run_id,
            index,
            row,
            None if failure is None else _failure_to_wire(failure),
            telemetry,
        )
        acked += 1


def _distributed_worker(
    queue_path: str,
    run_id: str,
    store,
    artifacts,
    demand_trace,
    worker: str,
    lease_s: float,
    chaos_exit_after: int | None,
) -> None:
    """Entry point of one spawned worker process."""
    from repro.fleet.backends.local import init_worker

    init_worker(artifacts, demand_trace)
    _work_cells(
        queue=SqliteWorkQueue(queue_path),
        run_id=run_id,
        store=store,
        worker=worker,
        lease_s=lease_s,
        wait_for_stragglers=True,
        chaos_exit_after=chaos_exit_after,
    )


class DistributedBackend(FleetBackend):
    """Work-pulling workers over a shared sqlite queue + record store."""

    name = "distributed"
    publishes_results = True

    #: Subdirectory names under the shared directory.
    QUEUE_FILENAME = "queue.sqlite3"
    STORE_SUBDIR = "store"

    def __init__(
        self,
        root: str | Path,
        workers: int = 2,
        lease_s: float = 30.0,
        chaos_exit_after: int | None = None,
    ) -> None:
        if workers < 1:
            raise ReproError(
                f"distributed backend needs at least one worker, got {workers}"
            )
        if not lease_s > 0:
            # A zero lease expires as soon as it is taken: every live
            # worker would re-execute every in-flight cell.
            raise ReproError(
                f"distributed backend needs a lease longer than 0 s, "
                f"got {lease_s:g}"
            )
        self.root = Path(root).expanduser()
        self.queue_path = self.root / self.QUEUE_FILENAME
        self.workers = workers
        self.lease_s = lease_s
        self.chaos_exit_after = chaos_exit_after
        #: Worker processes that died (without a clean exit) last execute().
        self.last_workers_lost = 0

    @classmethod
    def from_opts(cls, opts: dict[str, str], jobs: int = 1) -> "DistributedBackend":
        reject_unknown_opts(
            cls.name,
            opts,
            ("dir", "workers", "lease", "chaos_exit_after"),
        )
        root = opts.get("dir")
        if not root:
            raise ReproError(
                "distributed backend needs a shared directory: "
                "--backend distributed:dir=PATH[,workers=N,lease=S]"
            )
        chaos = opts.get("chaos_exit_after")
        return cls(
            root=root,
            workers=opt_int(opts, "workers", jobs),
            lease_s=opt_float(opts, "lease", 30.0),
            chaos_exit_after=None if chaos is None else opt_int(
                opts, "chaos_exit_after", 1
            ),
        )

    def result_store(self):
        """The shared record store under this backend's directory.

        The CLI uses it as the engine's result cache, so the cache scan,
        the workers' publishes and the demand-trace store all share one
        content-addressed root — which is what makes a killed sweep
        resumable with zero duplicate replays.
        """
        from repro.fleet.cache import ResultCache

        return ResultCache(self.root / self.STORE_SUBDIR)

    def execute(
        self,
        artifacts: "WorkloadArtifacts",
        pending: list[tuple[int, RunSpec]],
        demand_trace=None,
        keys: dict[int, str] | None = None,
        store=None,
    ) -> Iterable[CellResult]:
        if not pending:
            return
        if keys is None or store is None:
            raise ReproError(
                "distributed backend needs the content-addressed store "
                "and per-cell keys; run with a result cache"
            )
        run_id = uuid.uuid4().hex
        self.last_redispatched = 0
        self.last_workers_lost = 0
        queue = SqliteWorkQueue(self.queue_path)
        queue.ensure()
        queue.enqueue(
            run_id,
            [(index, spec.to_wire(), keys[index]) for index, spec in pending],
        )
        # No open sqlite handle may cross the fork into the workers; the
        # first poll reopens the coordinator's connection.
        queue.close()
        workers = [
            multiprocessing.Process(
                target=_distributed_worker,
                args=(
                    str(self.queue_path),
                    run_id,
                    store,
                    artifacts,
                    demand_trace,
                    f"worker-{seq}",
                    self.lease_s,
                    self.chaos_exit_after if seq == 0 else None,
                ),
                daemon=True,
            )
            for seq in range(min(self.workers, len(pending)))
        ]
        for process in workers:
            process.start()
        consumed: set[int] = set()
        try:
            while len(consumed) < len(pending):
                for index, row, failure_wire, telemetry in queue.done_cells(
                    run_id, consumed
                ):
                    consumed.add(index)
                    failure = (
                        None
                        if failure_wire is None
                        else _failure_from_wire(failure_wire)
                    )
                    record = None if row is None else RunRecord.from_wire(row)
                    yield index, record, failure, telemetry
                if len(consumed) >= len(pending):
                    break
                if not any(process.is_alive() for process in workers):
                    # The whole fleet died (or drained and exited) with
                    # cells outstanding: reclaim their leases and drain
                    # inline so the run always terminates.
                    queue.release_leases(run_id)
                    self._drain_inline(queue, run_id, store, artifacts,
                                       demand_trace)
                    continue
                time.sleep(POLL_S)
        finally:
            for process in workers:
                process.join(timeout=self.lease_s + 5.0)
                if process.is_alive():  # pragma: no cover - wedged worker
                    process.terminate()
                    process.join(timeout=5.0)
            self.last_workers_lost = sum(
                1 for process in workers if process.exitcode not in (0, None)
            )
            try:
                self.last_redispatched = queue.redispatched(run_id)
            finally:
                queue.close()

    def _drain_inline(
        self, queue: SqliteWorkQueue, run_id: str, store, artifacts,
        demand_trace,
    ) -> None:
        """Run the remaining cells in the coordinator process."""
        from repro.fleet.backends.local import init_worker

        init_worker(artifacts, demand_trace)
        try:
            _work_cells(
                queue=queue,
                run_id=run_id,
                store=store,
                worker="coordinator",
                lease_s=self.lease_s,
                wait_for_stragglers=False,
            )
        finally:
            init_worker(None)
