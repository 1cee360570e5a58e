"""Tests for the backend registry, the sqlite work queue and the
distributed backend's crash/resume semantics."""

import json
import multiprocessing
import os
import sqlite3

import pytest

from repro.core.errors import ReproError
from repro.fleet.backends import (
    DistributedBackend,
    LocalBackend,
    SqliteWorkQueue,
    backend_names,
    create_backend,
    parse_backend_spec,
)
from repro.fleet.backends import distributed
from repro.fleet.cache import ResultCache, workload_fingerprint
from repro.fleet.engine import FleetEngine
from repro.fleet.spec import RunSpec, enumerate_sweep_specs
from repro.results import RunRecord

SMALL_CONFIGS = ["fixed:300000", "fixed:2150400", "ondemand"]


@pytest.fixture(scope="module")
def small_specs(artifacts_ds03):
    return enumerate_sweep_specs(
        artifacts_ds03.name, SMALL_CONFIGS, 1, artifacts_ds03.recording_master_seed
    )


@pytest.fixture(scope="module")
def serial_results(artifacts_ds03, small_specs):
    return FleetEngine(jobs=1).run(artifacts_ds03, small_specs)


# --- registry and spec grammar ------------------------------------------------------


def test_backend_spec_grammar():
    assert parse_backend_spec("local") == ("local", {})
    assert parse_backend_spec(" local ") == ("local", {})
    assert parse_backend_spec("local:jobs=8") == ("local", {"jobs": "8"})
    assert parse_backend_spec("distributed:dir=/shared,workers=4") == (
        "distributed", {"dir": "/shared", "workers": "4"}
    )


@pytest.mark.parametrize(
    "bad",
    ["", "  ", ":", "local:", "local:jobs", "local:jobs=", "local:=8",
     "local:jobs=8,jobs=9"],
)
def test_malformed_backend_specs_raise_one_liners(bad):
    with pytest.raises(ReproError):
        parse_backend_spec(bad)


def test_registry_lists_builtins_and_rejects_unknowns():
    assert backend_names() == ["distributed", "local"]
    with pytest.raises(ReproError, match="unknown fleet backend 'bogus'"):
        create_backend("bogus")
    with pytest.raises(ReproError, match="does not take option"):
        create_backend("local:workers=4")


def test_create_backend_defaults_to_local_with_cli_jobs():
    backend = create_backend(None, jobs=3)
    assert isinstance(backend, LocalBackend)
    assert backend.jobs == 3


def test_distributed_spec_needs_a_shared_dir(tmp_path):
    with pytest.raises(ReproError, match="shared directory"):
        create_backend("distributed")
    backend = create_backend(
        f"distributed:dir={tmp_path},workers=4,lease=5", jobs=2
    )
    assert isinstance(backend, DistributedBackend)
    assert (backend.workers, backend.lease_s) == (4, 5.0)
    # workers defaults to the CLI --jobs value
    assert create_backend(f"distributed:dir={tmp_path}", jobs=5).workers == 5


@pytest.mark.parametrize(
    "spec", ["distributed:dir={tmp},batch=4", "local:jobs=8"]
)
def test_removed_options_are_rejected(tmp_path, spec):
    """Each worker count has one setting (``--jobs`` or ``workers=``)
    and a lease holds one cell, so neither option exists."""
    with pytest.raises(ReproError, match="does not take option"):
        create_backend(spec.format(tmp=tmp_path), jobs=2)


def test_a_zero_lease_is_rejected(tmp_path):
    """A zero lease expires as soon as it is taken, so every live worker
    would re-execute every in-flight cell."""
    with pytest.raises(ReproError, match="lease longer than 0"):
        create_backend(f"distributed:dir={tmp_path},lease=0")
    with pytest.raises(ReproError, match="lease longer than 0"):
        DistributedBackend(tmp_path, lease_s=0.0)


# --- the sqlite work queue ----------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _queue(tmp_path, clock=None):
    queue = SqliteWorkQueue(tmp_path / "queue.sqlite3", clock=clock or FakeClock())
    queue.ensure()
    return queue


def _cells(specs):
    return [(i, spec.to_wire(), f"key-{i}") for i, spec in enumerate(specs)]


def test_lease_claims_each_cell_exactly_once(tmp_path):
    specs = enumerate_sweep_specs("02", ["a"], 3, 2014)
    queue = _queue(tmp_path)
    queue.enqueue("run", _cells(specs))
    first = [queue.lease("run", "w0", lease_s=30.0) for _ in range(2)]
    assert [idx for idx, _, _ in first] == [0, 1]
    second = queue.lease("run", "w1", lease_s=30.0)
    assert second[0] == 2
    # everything leased and unexpired: nothing left to claim
    assert queue.lease("run", "w1", lease_s=30.0) is None
    assert queue.counts("run") == {"leased": 3}
    # the leased spec round-trips through the wire format
    assert RunSpec.from_wire(first[0][1]) == specs[0]


def test_expired_lease_is_redispatched_with_attempt_count(tmp_path):
    """The crash-recovery path: a dead worker's cells come back once its
    lease expires, and the attempt counter records the re-dispatch."""
    clock = FakeClock()
    specs = enumerate_sweep_specs("02", ["a"], 2, 2014)
    queue = _queue(tmp_path, clock)
    queue.enqueue("run", _cells(specs))
    taken = [queue.lease("run", "dead-worker", lease_s=30.0) for _ in range(2)]
    assert [idx for idx, _, _ in taken] == [0, 1]
    # lease still live: no re-dispatch
    clock.advance(29.0)
    assert queue.lease("run", "w1", lease_s=30.0) is None
    assert queue.redispatched("run") == 0
    # lease expired: both cells re-lease to the live worker
    clock.advance(2.0)
    retaken = [queue.lease("run", "w1", lease_s=30.0) for _ in range(2)]
    assert [idx for idx, _, _ in retaken] == [0, 1]
    assert queue.redispatched("run") == 2


def test_ack_completes_a_cell_and_done_cells_skips_consumed(tmp_path):
    specs = enumerate_sweep_specs("02", ["a"], 2, 2014)
    queue = _queue(tmp_path)
    queue.enqueue("run", _cells(specs))
    for _ in range(2):
        queue.lease("run", "w0", lease_s=30.0)
    queue.ack("run", 0, row={"x": 1}, failure=None, telemetry={"pid": 9})
    done = queue.done_cells("run", skip=set())
    assert done == [(0, {"x": 1}, None, {"pid": 9})]
    # a consumed cell is never surfaced again
    assert queue.done_cells("run", skip={0}) == []
    # a done cell is never re-leased, even after every lease expires
    queue._clock.advance(1000.0)
    assert queue.lease("run", "w1", 30.0)[0] == 1
    assert queue.lease("run", "w1", 30.0) is None
    assert queue.counts("run") == {"done": 1, "leased": 1}


def test_release_leases_returns_cells_to_pending(tmp_path):
    specs = enumerate_sweep_specs("02", ["a"], 3, 2014)
    queue = _queue(tmp_path)
    queue.enqueue("run", _cells(specs))
    for _ in range(3):
        queue.lease("run", "w0", lease_s=30.0)
    queue.ack("run", 0, row={"x": 1}, failure=None, telemetry={})
    assert queue.release_leases("run") == 2
    assert queue.counts("run") == {"done": 1, "pending": 2}


def test_enqueue_sweeps_stale_runs(tmp_path):
    """The queue is coordination-only state: rows from a killed run are
    swept on the next enqueue, never resurrected."""
    specs = enumerate_sweep_specs("02", ["a"], 2, 2014)
    queue = _queue(tmp_path)
    queue.enqueue("dead-run", _cells(specs))
    queue.enqueue("live-run", _cells(specs[:1]))
    assert queue.counts("dead-run") == {}
    assert queue.counts("live-run") == {"pending": 1}


# --- concurrent and corrupt store rows ----------------------------------------------


def _race_store(root, key, record_json, start, iterations):
    cache = ResultCache(root)
    record = RunRecord.loads(record_json)
    start.wait()
    for _ in range(iterations):
        cache.store(key, record)


def test_concurrent_writers_racing_one_key_never_corrupt_it(
    tmp_path, serial_results
):
    """Two processes hammering store() on the same key (the distributed
    duplicate-execution case) must leave a loadable, identical row —
    atomic temp-file + rename, no torn writes, no leftover temp files."""
    record = serial_results[0]
    key = "ab" + "0" * 62
    start = multiprocessing.Event()
    writers = [
        multiprocessing.Process(
            target=_race_store,
            args=(tmp_path, key, record.dumps(), start, 50),
        )
        for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    start.set()
    for writer in writers:
        writer.join(timeout=60)
    assert all(writer.exitcode == 0 for writer in writers)
    cache = ResultCache(tmp_path)
    assert cache.load(key) == record
    assert not list(tmp_path.glob("*/.tmp-*")), "temp files leaked"
    assert cache.entry_count() == 1


def _flip_base64_char(text: str, column: str) -> str:
    """The wire row text with one character of a packed column changed."""
    row = json.loads(text)
    packed = row[column]
    middle = len(packed) // 2
    row[column] = (
        packed[:middle] + ("A" if packed[middle] != "A" else "B")
        + packed[middle + 1:]
    )
    return json.dumps(row)


def test_truncated_and_corrupt_rows_are_misses(tmp_path, serial_results):
    cache = ResultCache(tmp_path)
    record = serial_results[0]
    whole = json.dumps(record.to_wire())
    stale = record.to_wire()
    stale["schema_version"] -= 1
    planted = [
        (whole[: len(whole) // 2], "corrupt"),
        ("", "corrupt"),
        ("{}", "corrupt"),
        ("not json at all", "corrupt"),
        (record.dumps(), "corrupt"),  # a canonical row: unpacked columns
        (_flip_base64_char(whole, "busy_intervals"), "corrupt"),
        (json.dumps(stale), "stale"),
    ]
    for i, (payload, reason) in enumerate(planted):
        key = f"{i:02d}" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload, encoding="utf-8")
        before = dict(cache.miss_reasons)
        assert cache.load(key) is None
        assert cache.miss_reasons[reason] == before.get(reason, 0) + 1, payload
    assert cache.load("ff" + "0" * 62) is None
    assert cache.miss_reasons == {"corrupt": 6, "stale": 1, "absent": 1}
    assert cache.misses == 8
    assert cache.hits == 0


def test_a_decoding_bug_propagates_out_of_load(tmp_path, serial_results, monkeypatch):
    """Only absent, stale and corrupt rows are misses: any other exception
    while decoding is a bug and must fail the run, not read as a miss."""
    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    cache.store(key, serial_results[0])

    def broken(row):
        raise AttributeError("decoder bug")

    monkeypatch.setattr(RunRecord, "from_wire", broken)
    with pytest.raises(AttributeError, match="decoder bug"):
        cache.load(key)
    assert (cache.hits, cache.misses) == (0, 0)


# --- the distributed backend end to end ---------------------------------------------


def _distributed_engine(tmp_path, **kwargs):
    backend = DistributedBackend(tmp_path / "share", **kwargs)
    return FleetEngine(cache=backend.result_store(), backend=backend), backend


def test_distributed_results_bit_identical_to_serial(
    tmp_path, artifacts_ds03, small_specs, serial_results
):
    engine, backend = _distributed_engine(tmp_path, workers=2)
    results = engine.run(artifacts_ds03, small_specs)
    assert results == serial_results
    stats = engine.last_stats
    assert stats.backend == "distributed"
    assert stats.executed == len(small_specs)
    # workers published every row themselves; the engine counted them
    assert stats.stored == len(small_specs)
    assert backend.last_workers_lost == 0


def test_restarted_sweep_resumes_from_the_shared_store(
    tmp_path, artifacts_ds03, small_specs, serial_results
):
    """Kill-and-restart semantics: a second engine over the same shared
    directory finds every published row and replays nothing."""
    first, _ = _distributed_engine(tmp_path, workers=2)
    first.run(artifacts_ds03, small_specs)

    second, _ = _distributed_engine(tmp_path, workers=2)
    resumed = second.run(artifacts_ds03, small_specs)
    assert resumed == serial_results
    assert second.last_stats.cache_hits == len(small_specs)
    assert second.last_stats.executed == 0  # zero duplicate replays


def test_chaos_killed_worker_redispatches_and_completes(
    tmp_path, artifacts_ds03, small_specs, serial_results
):
    """A worker hard-exits holding a lease; its cell must be reclaimed
    and the run must still produce serial-identical output.

    One worker with ``chaos_exit_after=1`` makes the sequence
    deterministic: it acks one cell, leases the next, dies — the fleet
    is now empty, so the coordinator releases the orphaned lease and
    drains inline, dispatching that cell a second time."""
    engine, backend = _distributed_engine(
        tmp_path, workers=1, lease_s=30.0, chaos_exit_after=1
    )
    results = engine.run(artifacts_ds03, small_specs)
    assert results == serial_results
    assert backend.last_workers_lost == 1
    assert backend.last_redispatched >= 1
    assert engine.last_stats.redispatched == backend.last_redispatched
    assert engine.last_stats.executed == len(small_specs)


def test_published_rows_survive_for_resume_after_chaos(
    tmp_path, artifacts_ds03, small_specs, serial_results
):
    """After a chaos run, every row is in the shared store: a clean
    restart is a 100% cache-hit run."""
    chaos, _ = _distributed_engine(
        tmp_path, workers=1, lease_s=30.0, chaos_exit_after=1
    )
    chaos.run(artifacts_ds03, small_specs)

    clean, _ = _distributed_engine(tmp_path, workers=2)
    resumed = clean.run(artifacts_ds03, small_specs)
    assert resumed == serial_results
    assert clean.last_stats.executed == 0


def test_distributed_requires_a_store(tmp_path, artifacts_ds03, small_specs):
    backend = DistributedBackend(tmp_path / "share", workers=1)
    with pytest.raises(ReproError, match="shared store"):
        FleetEngine(cache=None, backend=backend).run(
            artifacts_ds03, small_specs
        )


def test_failures_cross_the_queue_with_their_tracebacks(
    tmp_path, artifacts_ds03, small_specs
):
    from repro.fleet.engine import FleetError

    bad = RunSpec(artifacts_ds03.name, "warp-drive", 0, 2014)
    engine, _ = _distributed_engine(tmp_path, workers=2)
    with pytest.raises(FleetError) as excinfo:
        engine.run(artifacts_ds03, list(small_specs[:1]) + [bad])
    failure = excinfo.value.failures[0]
    assert failure.spec == bad
    assert failure.exc_type == "GovernorError"
    assert "Traceback" in failure.traceback_text
    assert engine.last_stats.executed == 1


def test_ack_records_a_failure_and_a_re_ack_overwrites(tmp_path):
    specs = enumerate_sweep_specs("02", ["a"], 2, 2014)
    queue = _queue(tmp_path)
    queue.enqueue("run", _cells(specs))
    for _ in range(2):
        queue.lease("run", "w0", lease_s=30.0)
    queue.ack("run", 1, row=None, failure={"exc_type": "Boom"}, telemetry={"pid": 1})
    assert queue.counts("run") == {"done": 1, "leased": 1}
    assert queue.done_cells("run", skip=set()) == [
        (1, None, {"exc_type": "Boom"}, {"pid": 1})
    ]
    # a straggler's duplicate ack is harmless: the last ack wins and the
    # cell stays done
    queue.ack("run", 0, row={"x": 0}, failure=None, telemetry={"pid": 1})
    queue.ack("run", 0, row={"x": 0}, failure=None, telemetry={"pid": 2})
    assert queue.counts("run") == {"done": 2}
    assert queue.done_cells("run", skip={1}) == [(0, {"x": 0}, None, {"pid": 2})]
    assert queue.lease("run", "w1", lease_s=30.0) is None


def _lease_steps(path, done: int) -> int:
    """sqlite VM steps one lease takes with ``done`` done cells ahead of
    one leased and one pending cell."""
    queue = _queue(path)
    queue.enqueue("run", [(idx, {"idx": idx}, "") for idx in range(done + 2)])
    queue._mutate(
        lambda conn: conn.execute(
            "UPDATE cells SET state = 'done' WHERE run_id = ? AND idx < ?",
            ("run", done),
        )
    )
    assert queue.lease("run", "w0", lease_s=30.0)[0] == done
    steps = 0

    def count() -> int:
        nonlocal steps
        steps += 1
        return 0

    conn = queue._connection()
    conn.set_progress_handler(count, 1)
    try:
        cell = queue.lease("run", "w1", lease_s=30.0)
    finally:
        conn.set_progress_handler(None, 1)
        queue.close()
    assert cell[0] == done + 1
    return steps


def test_lease_cost_does_not_grow_with_done_cells(tmp_path):
    """Both lease scans stop at their first row, so a lease never walks
    the done cells: dispatching a run stays linear in its cells."""
    assert _lease_steps(tmp_path / "few", 10) == _lease_steps(
        tmp_path / "many", 2000
    )


def test_ensure_replaces_the_older_state_index(tmp_path):
    path = tmp_path / "queue.sqlite3"
    conn = sqlite3.connect(path)
    # a queue file as the (run_id, state) index left it
    conn.executescript(
        distributed._SCHEMA
        + "DROP INDEX cells_by_state;"
        + "CREATE INDEX cells_state ON cells (run_id, state);"
    )
    conn.close()
    queue = SqliteWorkQueue(path)
    queue.ensure()
    indexes = queue._read(
        lambda conn: [
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND sql IS NOT NULL"
            )
        ]
    )
    queue.close()
    assert indexes == ["cells_by_state"]


def test_queue_runs_in_wal_mode_with_normal_sync(tmp_path):
    """Durability posture: WAL journal (persisted in the db), NORMAL sync.

    The queue is coordination-only — rows are published to the record
    store *before* the ack — so losing the last ack transaction in a
    power cut only re-dispatches work, never loses results.
    """
    queue = _queue(tmp_path)

    def pragmas(conn):
        return (
            conn.execute("PRAGMA journal_mode").fetchone()[0],
            conn.execute("PRAGMA synchronous").fetchone()[0],
        )

    journal, sync = queue._read(pragmas)
    assert journal == "wal"
    assert sync == 1  # NORMAL


# --- one queue connection per process -----------------------------------------------


def _record_connects(monkeypatch):
    """Record ``(pid, connection)`` for every connection the queue opens."""
    opened = []
    connect = SqliteWorkQueue._connect

    def recording(self):
        conn = connect(self)
        opened.append((os.getpid(), conn))
        return conn

    monkeypatch.setattr(SqliteWorkQueue, "_connect", recording)
    return opened


def _is_open(conn) -> bool:
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return False
    return True


def test_a_queue_connects_once_per_process(tmp_path, monkeypatch):
    opened = _record_connects(monkeypatch)
    specs = enumerate_sweep_specs("02", ["a"], 20, 2014)
    queue = _queue(tmp_path)
    queue.enqueue("run", _cells(specs))
    for _ in range(20):
        idx, _wire, _key = queue.lease("run", "w0", lease_s=30.0)
        queue.ack("run", idx, row={"x": idx}, failure=None, telemetry={})
    assert len(queue.done_cells("run", skip=set())) == 20
    assert queue.counts("run") == {"done": 20}
    assert queue.redispatched("run") == 0
    assert len(opened) == 1
    # close() releases the connection; the next call opens a new one
    queue.close()
    assert not _is_open(opened[0][1])
    assert queue.counts("run") == {"done": 20}
    assert len(opened) == 2


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_a_forked_child_opens_its_own_connection(tmp_path, monkeypatch):
    """The child must not use, or close, the connection it inherited:
    closing an inherited sqlite handle drops that process's file locks."""
    opened = _record_connects(monkeypatch)
    specs = enumerate_sweep_specs("02", ["a"], 2, 2014)
    queue = _queue(tmp_path)
    queue.enqueue("run", _cells(specs))
    inherited = queue._conn

    def child():
        idx, _wire, _key = queue.lease("run", "child", lease_s=30.0)
        queue.ack(
            "run",
            idx,
            row=None,
            failure=None,
            telemetry={
                "connects": [pid for pid, _conn in opened],
                "parked": distributed._INHERITED[-1] is inherited,
            },
        )
        queue.close()

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    assert process.exitcode == 0
    # the parent's connection, opened before the fork, still commits
    idx, _wire, _key = queue.lease("run", "parent", lease_s=30.0)
    queue.ack("run", idx, row=None, failure=None, telemetry={})
    assert queue._conn is inherited
    assert [pid for pid, _conn in opened] == [os.getpid()]
    done = queue.done_cells("run", skip=set())
    assert [cell[0] for cell in done] == [0, 1]
    assert done[0][3] == {
        "connects": [os.getpid(), process.pid],
        "parked": True,
    }


def test_no_queue_connection_is_open_across_a_worker_fork(
    tmp_path, monkeypatch, artifacts_ds03, small_specs, serial_results
):
    opened = _record_connects(monkeypatch)
    open_at_start = []
    start = multiprocessing.Process.start

    def checked_start(process):
        open_at_start.append(sum(_is_open(conn) for _pid, conn in opened))
        start(process)

    monkeypatch.setattr(multiprocessing.Process, "start", checked_start)
    engine, _ = _distributed_engine(tmp_path, workers=2)
    assert engine.run(artifacts_ds03, small_specs) == serial_results
    assert open_at_start == [0, 0]
    # enqueue, then the polls: one connection each side of the forks
    assert len(opened) == 2
    assert not any(_is_open(conn) for _pid, conn in opened)


def test_done_cells_fetches_and_decodes_each_row_once(tmp_path, monkeypatch):
    specs = enumerate_sweep_specs("02", ["a"], 6, 2014)
    queue = _queue(tmp_path)
    queue.enqueue("run", _cells(specs))
    for _ in range(6):
        queue.lease("run", "w0", lease_s=30.0)

    fetched = []
    read = queue._read

    def recording_read(operate):
        rows = read(operate)
        fetched.extend(rows)
        return rows

    decoded = []

    class RecordingJson:
        dumps = staticmethod(json.dumps)

        @staticmethod
        def loads(text):
            decoded.append(text)
            return json.loads(text)

    monkeypatch.setattr(queue, "_read", recording_read)
    monkeypatch.setattr(distributed, "json", RecordingJson)
    consumed: set[int] = set()
    seen = []
    for first in range(0, 6, 2):
        for idx in (first, first + 1):
            queue.ack("run", idx, {"x": idx}, None, {"pid": idx})
        for _poll in range(3):
            for idx, row, failure, telemetry in queue.done_cells("run", consumed):
                assert (row, failure, telemetry) == ({"x": idx}, None, {"pid": idx})
                consumed.add(idx)
                seen.append(idx)
    assert seen == list(range(6))
    assert [row[0] for row in fetched] == list(range(6))
    assert len(decoded) == 12  # each cell's row and telemetry, once
