"""Content-addressed on-disk cache of run records.

A cache entry is keyed by a SHA-256 over (cache format version, RunRecord
schema version, code fingerprint, workload fingerprint, spec identity).
The fingerprint hashes the recorded artifacts themselves — trace,
annotation database, duration, recording seed — so editing a dataset
plan, changing the recorder, or re-recording with a different master seed
all invalidate exactly the affected cells and nothing else.  The
artifacts are frozen, so the hash is taken once per recording and kept
on it.  Entries are immutable once written: a warm re-run of a study
loads every completed cell and executes only invalidated ones.

Values are stored as :class:`~repro.results.RunRecord` wire rows
(:meth:`~repro.results.RunRecord.to_wire`: the canonical row with each
trace packed into one base64 string and the lags as eight columns) under
``<root>/<aa>/<key>.json`` (two-level fan-out keeps directories small) —
the same format fleet workers ship over IPC, not pickles, so a cache
entry is a JSON document any JSON tool can inspect, and can never
execute code on load.  ``CACHE_VERSION`` guards that layout: changing it
bumps the version, which moves every key, so rows of an older layout are
absent misses that are never read, while the canonical row and its
digests stay put.
Rows are written atomically via a temp file and :func:`os.replace`, so a
crashed or concurrent writer can never leave a truncated entry a later
reader would trust.

A row that cannot be served is a miss, counted by reason in
``miss_reasons``: *absent* (no file), *stale* (another RunRecord schema
version) or *corrupt* (not a well-formed wire row).  Any other exception
while loading is a bug and propagates, so it can never quietly turn every
hit into a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro.fleet.spec import RunSpec
from repro.results import (
    RUN_RECORD_SCHEMA_VERSION,
    RunRecord,
    RunRecordSchemaError,
    RunRecordWireError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.experiment import WorkloadArtifacts

# v3: packed wire rows replaced canonical JSON rows; v4: lag columns.
CACHE_VERSION = 4
_PICKLE_PROTOCOL = 4  # fixed so fingerprints are stable across interpreters

_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Content hash of the simulator's own source tree.

    Folded into every cache key so that editing any ``repro`` module —
    a governor, the power model, the matcher — invalidates previously
    cached results instead of silently serving output of old code.
    Computed once per process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def workload_fingerprint(artifacts: "WorkloadArtifacts") -> str:
    """Content hash of a recorded workload's replay-relevant state.

    Hashing pickles the full trace and annotation database, so the hash
    is kept on the frozen artifacts and every later call over the same
    recording returns it.
    """
    if artifacts._fingerprint is None:
        blob = pickle.dumps(
            (
                CACHE_VERSION,
                artifacts.spec.name,
                artifacts.duration_us,
                artifacts.recording_master_seed,
                artifacts.trace,
                artifacts.database,
            ),
            protocol=_PICKLE_PROTOCOL,
        )
        object.__setattr__(
            artifacts, "_fingerprint", hashlib.sha256(blob).hexdigest()
        )
    return artifacts._fingerprint


def write_atomic(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` through a temp file and
    :func:`os.replace`, so a crashed or concurrent writer can never leave
    a truncated file a later reader would trust."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultCache:
    """Content-addressed :class:`RunRecord` rows under
    ``<root>/<aa>/<key>.json``.

    Concurrent writers may race the same key: rows are immutable values,
    so the last write wins with identical bytes.  Absent, corrupt or
    schema-stale rows are misses, counted by reason in ``miss_reasons``,
    never errors.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.miss_reasons: dict[str, int] = {}

    def key_for(self, spec: RunSpec, fingerprint: str) -> str:
        payload = (
            f"v{CACHE_VERSION}|rr{RUN_RECORD_SCHEMA_VERSION}|"
            f"{code_fingerprint()}|{fingerprint}|{spec.cache_token()}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> "RunRecord | None":
        """The cached record for ``key``, or None (counting a miss)."""
        try:
            data = self.path_for(key).read_bytes()
        except FileNotFoundError:
            self._miss("absent")
            return None
        try:
            record = RunRecord.wire_loads(data)
        except RunRecordSchemaError:
            self._miss("stale")
            return None
        except RunRecordWireError:
            self._miss("corrupt")
            return None
        self.hits += 1
        return record

    def _miss(self, reason: str) -> None:
        self.misses += 1
        self.miss_reasons[reason] = self.miss_reasons.get(reason, 0) + 1

    def store(self, key: str, record: "RunRecord") -> None:
        self.store_wire(key, record.to_wire())

    def store_wire(self, key: str, row: dict) -> None:
        """Publish an already-encoded :meth:`RunRecord.to_wire` row."""
        write_atomic(self.path_for(key), json.dumps(row, separators=(",", ":")))
