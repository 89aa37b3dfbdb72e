"""Per-shard durability: write-ahead log + snapshots + crash recovery.

Each :class:`~repro.service.shard.CrowdShard` owns one data directory::

    <data_dir>/
        wal.jsonl            append-only journal, one JSON op per line
        snapshot.json        latest full DocumentStore image (atomic)

Every mutation the shard's :class:`~repro.crowd.database.DocumentStore`
applies is journaled *before* the request is acknowledged (the observer
runs inside the collection lock, ahead of the response leaving the
shard), each line carrying a monotonically increasing sequence number.
A snapshot embeds the sequence number of the last op it contains;
recovery loads the snapshot and replays only the WAL tail with
``seq > snapshot.wal_seq`` — so a crash *anywhere* (mid-append, between
snapshot and WAL truncation, mid-truncation) recovers to exactly the
acknowledged state:

* a torn final WAL line (the classic power-cut artifact) is detected and
  discarded (``wal_torn_tail`` counter) — the op it belonged to was
  never acknowledged,
* replay is idempotent: ops already covered by the snapshot are skipped
  by sequence number even if truncation never ran,
The journal and snapshots cover the *whole* document store, not just
performance records: ops carry their collection name and snapshots are
full store images, so collections added later — the frozen-model
registry's ``registry_models`` / ``registry_problems`` — inherit crash
durability with no WAL changes.  (Snapshots and journals written before
the store dropped its hash indexes carry ``indexes`` lists and
``create_index`` ops; recovery ignores both.)

* snapshots are written to a temp file and ``os.replace``-d into place,
  so a crash mid-snapshot leaves the previous snapshot intact; the
  parent directory is fsynced after the rename (POSIX), so a crash
  right after :func:`write_snapshot` returns cannot roll the rename
  back and resurrect a pre-snapshot image older than the truncated WAL
  expects.

Perf counters: ``wal_appends``, ``wal_fsyncs``, ``wal_snapshots``,
``wal_replayed``, ``wal_torn_tail``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping

from ..core import perf
from ..crowd.database import DocumentStore

__all__ = ["WriteAheadLog", "load_shard_state", "read_wal", "write_json_atomic"]

_WAL_NAME = "wal.jsonl"
_SNAP_NAME = "snapshot.json"
_SNAP_FORMAT = "gptunecrowd-shard-snapshot-v1"


class WriteAheadLog:
    """Append-only JSONL journal with group-able fsync.

    ``fsync_every=1`` (the default) syncs every append — the durable
    choice.  Larger values amortize the sync over batches of appends at
    the cost of possibly losing the unsynced tail on an OS-level crash
    (a process crash alone loses nothing: appends always reach the OS).
    """

    def __init__(self, path: str | Path, *, fsync_every: int = 1) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = Path(path)
        self.fsync_every = int(fsync_every)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_tail()
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._since_sync = 0
        self._seq = 0  # last sequence number handed out

    def _repair_tail(self) -> None:
        """Truncate a torn final line before reopening for append.

        The fragment belongs to an op that was never acknowledged
        (recovery already discarded it); left in place, the next append
        would glue onto it and corrupt a *valid* entry.
        """
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        with open(self.path, "r+b") as fh:
            fh.truncate(data.rfind(b"\n") + 1)
            os.fsync(fh.fileno())

    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended op."""
        with self._lock:
            return self._seq

    def start_from(self, seq: int) -> None:
        """Continue numbering after ``seq`` (recovery sets this)."""
        with self._lock:
            self._seq = max(self._seq, int(seq))

    def append(self, op: Mapping[str, Any]) -> int:
        """Journal one op; returns its sequence number."""
        with self._lock:
            self._seq += 1
            entry = {"seq": self._seq, **op}
            self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
            self._fh.flush()
            self._since_sync += 1
            if self._since_sync >= self.fsync_every:
                os.fsync(self._fh.fileno())
                self._since_sync = 0
                perf.incr("wal_fsyncs")
            perf.incr("wal_appends")
            return self._seq

    def append_many(self, ops: list[Mapping[str, Any]]) -> int:
        """Journal a batch of ops under one lock acquisition, one buffer
        write and one fsync accounting pass; returns the last sequence
        number (or the current one for an empty batch)."""
        with self._lock:
            if not ops:
                return self._seq
            lines = []
            for op in ops:
                self._seq += 1
                lines.append(json.dumps({"seq": self._seq, **op}, sort_keys=True))
            self._fh.write("\n".join(lines) + "\n")
            self._fh.flush()
            self._since_sync += len(ops)
            if self._since_sync >= self.fsync_every:
                os.fsync(self._fh.fileno())
                self._since_sync = 0
                perf.incr("wal_fsyncs")
            perf.incr("wal_appends", len(ops))
            perf.incr("wal_batch_appends")
            return self._seq

    def sync(self) -> None:
        """Force any batched appends to stable storage."""
        with self._lock:
            self._fh.flush()
            if self._since_sync:
                os.fsync(self._fh.fileno())
                self._since_sync = 0
                perf.incr("wal_fsyncs")

    def truncate(self) -> None:
        """Discard all journaled ops (they are covered by a snapshot)."""
        with self._lock:
            self._fh.close()
            self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._since_sync = 0

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()


def read_wal(path: str | Path) -> list[dict[str, Any]]:
    """All intact ops in the journal, tolerating a torn final line."""
    path = Path(path)
    if not path.exists():
        return []
    ops: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            ops.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                # torn tail: the op was never acknowledged, drop it
                perf.incr("wal_torn_tail")
                break
            raise ValueError(f"{path}: corrupt WAL entry at line {i + 1}")
    return ops


def write_json_atomic(path: str | Path, blob: Mapping[str, Any]) -> Path:
    """Durably replace ``path`` with ``blob`` as sorted JSON.

    Write-to-temp + fsync + ``os.replace`` + parent-directory fsync: a
    crash at any point leaves either the old file or the new one, never
    a torn mix, and a power cut after return cannot roll the rename
    back.  Shared by shard snapshots and the fabric job-queue snapshots.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (path.name + ".tmp")
    tmp.write_text(json.dumps(blob, sort_keys=True))
    with open(tmp, "r+", encoding="utf-8") as fh:
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    return path


def write_snapshot(data_dir: str | Path, store: DocumentStore, wal_seq: int) -> Path:
    """Atomically write a full store image covering ops ``<= wal_seq``."""
    data_dir = Path(data_dir)
    blob = {
        "format": _SNAP_FORMAT,
        "wal_seq": int(wal_seq),
        "store": store.to_jsonable(),
    }
    final = write_json_atomic(data_dir / _SNAP_NAME, blob)
    perf.incr("wal_snapshots")
    return final


def _fsync_dir(path: Path) -> None:
    """Make a rename in ``path`` durable (no-op where unsupported).

    ``os.replace`` updates the directory entry, not the file — without
    syncing the directory a power cut can lose the rename and bring the
    old snapshot back, behind the already-truncated WAL.
    """
    flags = getattr(os, "O_DIRECTORY", None)
    if flags is None:  # pragma: no cover - non-POSIX platforms
        return
    fd = os.open(path, os.O_RDONLY | flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_shard_state(data_dir: str | Path) -> tuple[DocumentStore, int]:
    """Recover a shard's store: snapshot (if any) + WAL tail replay.

    Returns the recovered store and the sequence number the WAL should
    continue from.  A missing directory yields an empty store.
    """
    data_dir = Path(data_dir)
    snap_path = data_dir / _SNAP_NAME
    if snap_path.exists():
        blob = json.loads(snap_path.read_text())
        if blob.get("format") != _SNAP_FORMAT:
            raise ValueError(f"{snap_path}: not a shard snapshot")
        store = DocumentStore.from_jsonable(blob["store"])
        snap_seq = int(blob["wal_seq"])
    else:
        store = DocumentStore()
        snap_seq = 0
    last_seq = snap_seq
    for entry in read_wal(data_dir / _WAL_NAME):
        seq = int(entry.get("seq", 0))
        if seq <= snap_seq:
            continue  # already covered by the snapshot
        op = {k: v for k, v in entry.items() if k != "seq"}
        store.apply_op(op)
        last_seq = max(last_seq, seq)
        perf.incr("wal_replayed")
    return store, last_seq


def wal_path(data_dir: str | Path) -> Path:
    return Path(data_dir) / _WAL_NAME
