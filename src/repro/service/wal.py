"""The one durability primitive: journal + snapshot + crash recovery.

:class:`DurableLog` owns one data directory::

    <data_dir>/
        <wal_name>           append-only journal, one JSON op per line
        <snapshot_name>      latest full state image (atomic replace)

and has two callers: :class:`~repro.service.shard.CrowdShard`
(``wal.jsonl`` / ``snapshot.json``, a full ``DocumentStore`` image) and
:class:`~repro.fabric.jobqueue.DurableJobQueue` (``queue.wal.jsonl`` /
``queue.snapshot.json``, the job table).  The contract both inherit:
**an acknowledged op is in the snapshot or in the journal, whatever
thread wrote it** (``docs/architecture.md``, "Durability").

* Every op is appended — with a monotonically increasing sequence
  number — *before* the caller acknowledges it.
* A snapshot embeds the sequence number it covers (``wal_seq``);
  recovery loads the snapshot and replays only journal entries with
  ``seq > wal_seq``, so a crash between the snapshot write and the
  journal trim replays nothing twice.
* :meth:`DurableLog.snapshot` records the covered sequence *before* it
  asks the caller for the image and afterwards drops only entries
  ``<= covered``: a plain truncate when nothing was appended in between,
  otherwise an atomic keep-the-tail rewrite.  An op a second thread
  journals while the image is being taken or written therefore stays in
  the journal (the image may already contain it — see the caller's op
  vocabulary for why replaying it again is sound).
* **The checkpoint rule**: an image is due once ``snapshot_every`` ops
  were journaled since the last one (the floor) *and* the journal has
  outgrown that image in bytes.  Every image of size S is thereby paid
  for by at least S journaled bytes: an insert-only history writes
  O(log n) images and O(n) image bytes in total instead of
  O(n / ``snapshot_every``) images and O(n² / ``snapshot_every``) bytes,
  and recovery reads at most about twice the live data (an image plus a
  journal no larger than it, give or take ``snapshot_every`` ops).  The
  three quantities are counted on append and re-read from disk by
  :meth:`DurableLog.recover` and the trim, so a process that restarts
  often checkpoints as if it had never stopped.
* Images are written member by member (:func:`_json_chunks`), never as
  one string; recovery hands the snapshot payload to the caller's
  ``load`` and then every uncovered journal op to its ``apply`` *as it
  is parsed* — the tail can be as large as the image and is never a list.
* A torn final journal line (the classic power-cut artifact) is
  discarded on recovery (``wal_torn_tail`` counter) — the op it belonged
  to was never acknowledged — and cut off before the journal is reopened
  for append.
* Snapshots and journal rewrites go through a temp file, ``os.replace``
  and a parent-directory fsync (POSIX), so a crash leaves the old file
  or the new one, never a mix, and a power cut after return cannot roll
  the rename back behind an already-trimmed journal.

Perf counters: ``wal_appends``, ``wal_batch_appends``, ``wal_fsyncs``,
``wal_torn_tail``, ``wal_snapshot_bytes`` (image bytes written).  The
callers count their own replays and snapshots: ``wal_replayed`` /
``wal_snapshots``, ``fabric_queue_replayed`` / ``fabric_queue_snapshots``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..core import perf

__all__ = ["DurableLog", "read_wal", "write_json_atomic"]


class DurableLog:
    """Append-only JSONL journal + atomic snapshots over one directory.

    ``fsync_every=1`` (the default) syncs every append — the durable
    choice.  Larger values amortize the sync over batches of appends at
    the cost of possibly losing the unsynced tail on an OS-level crash
    (a process crash alone loses nothing: appends always reach the OS).

    :attr:`snapshot_due` turns true once at least ``snapshot_every`` ops
    were journaled since the last snapshot and the journal is at least
    as large as that snapshot (the module docstring's checkpoint rule);
    the caller then calls :meth:`snapshot` from wherever it can produce
    a consistent image.  Call :meth:`recover` once before the first
    append.
    """

    def __init__(
        self,
        data_dir: str | Path,
        wal_name: str,
        snapshot_name: str,
        snapshot_format: str,
        *,
        snapshot_every: int,
        fsync_every: int = 1,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        data_dir = Path(data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        self.wal_path = data_dir / wal_name
        self.snapshot_path = data_dir / snapshot_name
        self.snapshot_format = snapshot_format
        self.snapshot_every = int(snapshot_every)
        self.fsync_every = int(fsync_every)
        #: the checkpoint rule holds (:meth:`_check_due_locked`)
        self.snapshot_due = False
        self._lock = threading.Lock()
        #: one snapshot at a time; never taken with ``_lock`` held
        self._snapshot_lock = threading.Lock()
        self._fh: Any = None
        self._seq = 0  # last sequence number handed out
        self._since_sync = 0
        #: what the checkpoint rule weighs: ops journaled since the last
        #: image, the journal's size and that image's, in bytes
        self._since_snapshot = 0
        self._wal_bytes = 0
        self._image_bytes = 0

    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended op."""
        with self._lock:
            return self._seq

    # -- recovery ------------------------------------------------------------
    def recover(
        self,
        load: Callable[[dict[str, Any]], None] | None = None,
        apply: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        """Read the directory and open the journal for append.

        ``load`` receives the snapshot payload (not called without a
        snapshot); ``apply`` then receives each journal op the snapshot
        does not cover, in order, sequence number stripped, *as it is
        parsed* — the tail may be as large as the image, and is never
        held as a list.  Numbering continues after the last op seen, and
        the checkpoint rule resumes from what is on disk: the image's
        size, the journal's size, the ops in the tail.
        """
        if self.snapshot_path.exists():
            payload = json.loads(self.snapshot_path.read_text())
            if payload.get("format") != self.snapshot_format:
                raise ValueError(
                    f"{self.snapshot_path}: not a {self.snapshot_format} snapshot"
                )
            self._seq = int(payload["wal_seq"])
            self._image_bytes = self.snapshot_path.stat().st_size
            if load is not None:
                load(payload)
        covered = self._seq
        for entry in iter_wal(self.wal_path):
            seq = int(entry.pop("seq", 0))
            if seq <= covered:
                continue  # already in the snapshot (the trim never ran)
            if apply is not None:
                apply(entry)
            self._seq = max(self._seq, seq)
            self._since_snapshot += 1
        self._repair_tail()
        self._fh = open(self.wal_path, "a", encoding="utf-8")
        self._wal_bytes = self.wal_path.stat().st_size
        self._check_due_locked()

    def _repair_tail(self) -> None:
        """Truncate a torn final line before reopening for append.

        The fragment belongs to an op that was never acknowledged
        (recovery already discarded it); left in place, the next append
        would glue onto it and corrupt a *valid* entry.
        """
        if not self.wal_path.exists():
            return
        data = self.wal_path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        with open(self.wal_path, "r+b") as fh:
            fh.truncate(data.rfind(b"\n") + 1)
            os.fsync(fh.fileno())

    # -- journaling ----------------------------------------------------------
    def append(self, op: Mapping[str, Any]) -> int:
        """Journal one op; returns its sequence number."""
        with self._lock:
            self._seq += 1
            self._write_locked(json.dumps({"seq": self._seq, **op}, sort_keys=True), 1)
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
            self._write_locked("\n".join(lines), len(ops))
            perf.incr("wal_batch_appends")
            return self._seq

    def _write_locked(self, text: str, n: int) -> None:
        self._fh.write(text + "\n")
        self._fh.flush()
        self._since_sync += n
        if self._since_sync >= self.fsync_every:
            self._sync_locked()
        perf.incr("wal_appends", n)
        self._since_snapshot += n
        self._wal_bytes += len(text) + 1  # json.dumps escapes to ASCII
        self._check_due_locked()

    def _check_due_locked(self) -> None:
        """The checkpoint rule: the floor of ops, and a journal that has
        outgrown the image — each image is paid for by as many journaled
        bytes, so images cost O(journal) in total and recovery reads at
        most twice the live data."""
        if self._since_snapshot >= self.snapshot_every and self._wal_bytes >= self._image_bytes:
            self.snapshot_due = True

    def _sync_locked(self) -> None:
        """Force any batched appends to stable storage."""
        if self._since_sync:
            os.fsync(self._fh.fileno())
            self._since_sync = 0
            perf.incr("wal_fsyncs")

    # -- snapshots -----------------------------------------------------------
    def snapshot(self, payload_fn: Callable[[], Mapping[str, Any]]) -> None:
        """Write ``payload_fn()`` as the new snapshot and trim the journal.

        The covered sequence is fixed first; ``payload_fn`` then runs
        *without* the log lock (it may take whatever locks the caller's
        state needs, and concurrent appends proceed), so the image holds
        every op ``<= covered`` and possibly some later ones — which stay
        in the journal, because only entries ``<= covered`` are dropped.
        """
        with self._snapshot_lock:
            with self._lock:
                self._sync_locked()
                covered = self._seq
                self._since_snapshot = 0
                self.snapshot_due = False
            blob = {"format": self.snapshot_format, "wal_seq": covered, **payload_fn()}
            write_json_atomic(self.snapshot_path, blob)
            image_bytes = self.snapshot_path.stat().st_size
            perf.incr("wal_snapshot_bytes", image_bytes)
            with self._lock:
                self._image_bytes = image_bytes
                self._trim_locked(covered)

    def _trim_locked(self, covered: int) -> None:
        """Drop journal entries ``<= covered`` (they are in the snapshot)."""
        self._fh.close()
        if self._seq == covered:
            self._fh = open(self.wal_path, "w", encoding="utf-8")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        else:
            kept = [e for e in iter_wal(self.wal_path) if e["seq"] > covered]
            _replace_atomic(
                self.wal_path, (json.dumps(e, sort_keys=True) + "\n" for e in kept)
            )
            self._fh = open(self.wal_path, "a", encoding="utf-8")
        self._since_sync = 0
        self._wal_bytes = self.wal_path.stat().st_size

    def close(self) -> None:
        """Flush, sync and close the journal (idempotent)."""
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()


def iter_wal(path: str | Path) -> Iterator[dict[str, Any]]:
    """The intact ops of a journal, parsed one line at a time; a torn
    final line ends the iteration (``wal_torn_tail``)."""
    path = Path(path)
    if not path.exists():
        return
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                op = json.loads(line)
            except json.JSONDecodeError:
                if next(fh, None) is None:
                    # torn tail: the op was never acknowledged, drop it
                    perf.incr("wal_torn_tail")
                    return
                raise ValueError(f"{path}: corrupt WAL entry at line {i}") from None
            yield op


def read_wal(path: str | Path) -> list[dict[str, Any]]:
    """All intact ops in the journal, tolerating a torn final line."""
    return list(iter_wal(path))


#: an image's outermost containers are written member by member, this
#: many levels down (a shard's documents sit under five: payload, store,
#: collections, collection, ``docs``); below that it is one C-encoder call
_CHUNK_DEPTH = 5
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_chunks(value: Any, depth: int = _CHUNK_DEPTH) -> Iterator[str]:
    """``json.dumps(value, sort_keys=True)`` in pieces, so an image is
    written without first existing as one string (and a second time as
    bytes)."""
    if depth and value and type(value) is dict and all(type(k) is str for k in value):
        opener = "{"
        for key in sorted(value):
            yield f"{opener}{_encode(key)}: "
            yield from _json_chunks(value[key], depth - 1)
            opener = ", "
        yield "}"
    elif depth and value and type(value) is list:
        opener = "["
        for item in value:
            yield opener
            yield from _json_chunks(item, depth - 1)
            opener = ", "
        yield "]"
    else:
        yield _encode(value)


def write_json_atomic(path: str | Path, blob: Mapping[str, Any]) -> None:
    """Durably replace ``path`` with ``blob`` as sorted JSON."""
    _replace_atomic(Path(path), _json_chunks(blob))


def _replace_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write-to-temp + fsync + ``os.replace`` + parent-directory fsync:
    a crash at any point leaves either the old file or the new one,
    never a torn mix, and a power cut after return cannot roll the
    rename back."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


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
