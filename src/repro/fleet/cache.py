"""Content-addressed on-disk cache of run records.

A cache entry is keyed by a SHA-256 over (cache format version, RunRecord
schema version, code fingerprint, workload fingerprint, spec identity).
The fingerprint hashes the recorded artifacts themselves — trace,
annotation database, duration, recording seed — so editing a dataset
plan, changing the recorder, or re-recording with a different master seed
all invalidate exactly the affected cells and nothing else.  Entries are
immutable once written: a warm re-run of a study loads every completed
cell and executes only invalidated ones.

Values are stored as :class:`~repro.results.RunRecord` wire rows
(:meth:`~repro.results.RunRecord.to_wire`: the canonical row with each
trace packed into one base64 string) under ``<root>/<aa>/<key>.json``
(two-level fan-out keeps directories small) — the same format fleet
workers ship over IPC, not pickles, so a cache entry is a JSON document
any JSON tool can inspect, and can never execute code on load.
``CACHE_VERSION`` guards that packing: changing the packing bumps it,
which moves every key, while the canonical row and its digests stay put.
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

CACHE_VERSION = 3  # v3: packed wire rows replaced canonical JSON rows
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
    """Content hash of a recorded workload's replay-relevant state."""
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
    return hashlib.sha256(blob).hexdigest()


class RecordStore:
    """Contract of a content-addressed :class:`RunRecord` row store.

    The key derivation (:meth:`key_for`) is storage-independent — it
    folds the cache format, the record schema, the code and workload
    fingerprints and the spec identity — so any store implementation
    (filesystem, a future network store) addresses the identical cells.
    Implementations supply :meth:`load` / :meth:`store_wire` /
    :meth:`contains`; both must tolerate concurrent writers racing the
    same key (rows are immutable values: last write wins with identical
    bytes) and count absent, corrupt or schema-stale rows as misses by
    reason in ``miss_reasons``, never as errors.
    """

    hits: int
    misses: int
    miss_reasons: dict[str, int]

    def key_for(self, spec: RunSpec, fingerprint: str) -> str:
        payload = (
            f"v{CACHE_VERSION}|rr{RUN_RECORD_SCHEMA_VERSION}|"
            f"{code_fingerprint()}|{fingerprint}|{spec.cache_token()}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def load(self, key: str) -> "RunRecord | None":
        raise NotImplementedError

    def store(self, key: str, record: "RunRecord") -> None:
        self.store_wire(key, record.to_wire())

    def store_wire(self, key: str, row: dict) -> None:
        """Publish an already-encoded :meth:`RunRecord.to_wire` row."""
        raise NotImplementedError

    def _miss(self, reason: str) -> None:
        self.misses += 1
        self.miss_reasons[reason] = self.miss_reasons.get(reason, 0) + 1

    def contains(self, key: str) -> bool:
        raise NotImplementedError


class ResultCache(RecordStore):
    """Filesystem implementation: rows under ``<root>/<aa>/<key>.json``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.miss_reasons = {}

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

    def store_wire(self, key: str, row: dict) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(row, separators=(",", ":")))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def entry_count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
