"""The one durability primitive: one journal, compacted in place.

:class:`DurableLog` owns one JSONL file, one op per line, in a data
directory, and has two callers: :class:`~repro.service.shard.CrowdShard`
(``wal.jsonl``, a ``DocumentStore``) and
:class:`~repro.fabric.jobqueue.DurableJobQueue` (``queue.wal.jsonl``,
the job table).  The contract both inherit: **an acknowledged op is in
the journal, whatever thread wrote it** (``docs/architecture.md``,
"Durability").

* Every op is appended *before* the caller acknowledges it.
* A checkpoint (:meth:`DurableLog.snapshot`) compacts the journal in
  place: the caller's live state, written as the ops that rebuild it,
  goes to a temp file and ends at a ``{"op": "checkpoint"}`` line; then,
  under the log lock, the bytes appended since the checkpoint began
  follow it, and the temp file replaces the journal (fsync,
  ``os.replace``, parent-directory fsync).  A crash leaves the old
  journal or the new one, never a mix, and a power cut after return
  cannot roll the rename back.  An op another thread journals while the
  state is being written is in the copied tail and may be in the state
  too (see the caller's op vocabulary for why replaying it again is
  sound).
* **The checkpoint rule**: a checkpoint is due once ``snapshot_every``
  ops were journaled after the compacted part (the floor) *and* the
  dead bytes have reached the live ones.  Each append says how many
  bytes on disk it makes dead (the documents a delete or an upsert
  replaces, a superseded queue transition), and recovery recounts them
  as it replays, so a process that restarts often checkpoints as if it
  had never stopped.  An insert-only history never compacts (its
  journal already is the live data), and recovery reads at most about
  twice the live data.
* Recovery hands every op to ``apply`` *as its line is parsed* — the
  journal is never held whole — so it holds one line beside the state
  it rebuilds.  A torn final line (the classic power-cut artifact) is
  discarded (``wal_torn_tail`` counter) — the op it belonged to was
  never acknowledged — and cut off before the journal is reopened for
  append.
* A directory an earlier version wrote may still hold its image beside
  the journal (``snapshot.json`` beside ``wal.jsonl``,
  ``queue.snapshot.json`` beside ``queue.wal.jsonl``) and number its
  lines (``"seq"``).  Recovery reads that image whole, once, and hands
  it to ``apply`` as one ``{"op": "image", ...}`` op, skips the lines it
  covers (``seq <= wal_seq``) and ignores every other ``seq``; a
  checkpoint is then due at once, and it deletes the image.

Perf counters: ``wal_appends``, ``wal_batch_appends``, ``wal_fsyncs``,
``wal_torn_tail``, ``wal_snapshot_bytes`` (compacted bytes written).
The callers count their own replays and checkpoints: ``wal_replayed`` /
``wal_snapshots``, ``fabric_queue_replayed`` / ``fabric_queue_snapshots``.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..core import perf

__all__ = ["DurableLog"]

#: the line that ends a compacted journal's rebuilt state
_CHECKPOINT = {"op": "checkpoint"}
_encode = json.JSONEncoder(sort_keys=True).encode
#: how far back :meth:`DurableLog._repair_tail` reads at a time
_TAIL_BLOCK = 1 << 16


class DurableLog:
    """An append-only JSONL journal over one directory, compacted in place.

    ``fsync_every=1`` (the default) syncs every append — the durable
    choice.  Larger values amortize the sync over batches of appends at
    the cost of possibly losing the unsynced tail on an OS-level crash
    (a process crash alone loses nothing: appends always reach the OS).

    An op is a mapping or its sorted JSON text; its line goes straight to
    the file descriptor.  :attr:`snapshot_due` turns true under the
    module docstring's checkpoint rule; the caller then calls
    :meth:`snapshot` from wherever it can list its live state.  Call
    :meth:`recover` once before the first append.
    """

    def __init__(
        self,
        data_dir: str | Path,
        wal_name: str,
        *,
        snapshot_every: int,
        fsync_every: int = 1,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        data_dir = Path(data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        self.wal_path = data_dir / wal_name
        self._tmp = data_dir / (wal_name + ".tmp")
        #: the image an earlier version kept beside the journal
        self._old_image = data_dir / (wal_name.removesuffix("wal.jsonl") + "snapshot.json")
        self.snapshot_every = int(snapshot_every)
        self.fsync_every = int(fsync_every)
        #: the checkpoint rule holds (:meth:`_check_due_locked`)
        self.snapshot_due = False
        self._lock = threading.Lock()
        #: one checkpoint at a time; never taken with ``_lock`` held
        self._snapshot_lock = threading.Lock()
        self._fh: Any = None  # unbuffered: a write is one write(2)
        self._since_sync = 0
        #: the checkpoint rule's: ops after the compacted part, bytes on
        #: disk, dead ones
        self._since_snapshot = 0
        self._bytes = 0
        self._dead = 0

    # -- recovery ------------------------------------------------------------
    def recover(self, apply: Callable[[dict[str, Any]], int | None] | None = None) -> None:
        """Replay the journal and open it for append.

        ``apply`` receives each op, in order, *as its line is parsed* —
        the journal may be as large as the live data, and is never held
        as a list — and returns the bytes it makes dead, as the append
        did.  The checkpoint rule's counts resume from disk.
        """
        self._tmp.unlink(missing_ok=True)  # a compaction that never replaced the journal
        covered = self._migrate(apply)
        for op in iter_wal(self.wal_path):
            seq = op.pop("seq", None)  # only an earlier version numbered its lines
            if seq is not None and seq <= covered:
                continue  # in that version's image already
            if op == _CHECKPOINT:  # what came before is the compacted state
                self._since_snapshot = self._dead = 0
                continue
            if apply is not None:
                self._dead += apply(op) or 0
            self._since_snapshot += 1
        self._repair_tail()
        self._fh = open(self.wal_path, "ab", buffering=0)
        self._bytes = self._fh.seek(0, os.SEEK_END)
        self._check_due_locked()

    def _migrate(self, apply: Callable[[dict[str, Any]], int | None] | None) -> int:
        """Hand the image an earlier version kept beside the journal to
        ``apply`` as one ``image`` op and make a checkpoint due, which
        deletes it; the sequence number it covers (0 without one)."""
        if not self._old_image.exists():
            return 0
        lines = iter_wal(self.wal_path)
        first = next(lines, None)
        lines.close()
        if first is not None and "seq" not in first:
            # the journal was compacted, and the image outlived it
            self._old_image.unlink()
            return 0
        with open(self._old_image, encoding="utf-8") as fh:
            image = json.load(fh)
        covered = int(image.pop("wal_seq"))
        if apply is not None:
            apply({**image, "op": "image"})
        self.snapshot_due = True
        return covered

    def _repair_tail(self) -> None:
        """Truncate a torn final line before reopening for append.

        The fragment belongs to an op that was never acknowledged
        (recovery already discarded it); left in place, the next append
        would glue onto it and corrupt a *valid* entry.  Only the end of
        the journal is read: its last byte, and when that is not a
        newline, blocks backwards up to the last one.
        """
        if not self.wal_path.exists():
            return
        with open(self.wal_path, "r+b") as fh:
            cut = fh.seek(0, os.SEEK_END)
            if cut == 0:
                return
            fh.seek(cut - 1)
            if fh.read(1) == b"\n":
                return
            while cut > 0:
                start = max(0, cut - _TAIL_BLOCK)
                fh.seek(start)
                newline = fh.read(cut - start).rfind(b"\n")
                if newline >= 0:
                    cut = start + newline + 1
                    break
                cut = start
            fh.truncate(cut)
            os.fsync(fh.fileno())

    # -- journaling ----------------------------------------------------------
    def append(self, op: Mapping[str, Any] | str, dead: int = 0) -> None:
        """Journal one op that kills ``dead`` bytes on disk."""
        with self._lock:
            self._write_locked([op], dead)

    def append_many(self, ops: list[Mapping[str, Any] | str], dead: int = 0) -> None:
        """Journal a batch of ops under one lock acquisition, one write
        and one fsync accounting pass (an empty batch writes nothing)."""
        with self._lock:
            if ops:
                perf.incr("wal_batch_appends")
                self._write_locked(ops, dead)

    def _write_locked(self, ops: list[Mapping[str, Any] | str], dead: int) -> None:
        text = "".join([f"{_line(op)}\n" for op in ops])
        view = memoryview(text.encode())  # json escapes to ASCII
        while view:  # a regular file takes it whole unless the disk is full
            view = view[self._fh.write(view) :]
        self._since_sync += len(ops)
        if self._since_sync >= self.fsync_every:
            self._sync_locked()
        perf.incr("wal_appends", len(ops))
        self._since_snapshot += len(ops)
        self._bytes += len(text)
        self._dead += dead
        self._check_due_locked()

    def _check_due_locked(self) -> None:
        """The checkpoint rule: the floor of ops, and dead bytes that
        reached the live ones — a checkpoint drops at least as many bytes
        as it keeps, and recovery reads at most about twice the live data."""
        if self._since_snapshot >= self.snapshot_every and 2 * self._dead >= self._bytes:
            self.snapshot_due = True

    def _sync_locked(self) -> None:
        """Force any batched appends to stable storage."""
        if self._since_sync:
            os.fsync(self._fh.fileno())
            self._since_sync = 0
            perf.incr("wal_fsyncs")

    # -- checkpoints ---------------------------------------------------------
    def snapshot(self, ops: Callable[[], Iterable[Mapping[str, Any] | str]]) -> None:
        """Compact the journal to ``ops()``, the ops that rebuild the
        caller's live state, followed by whatever was appended meanwhile.

        The journal's length is taken first; ``ops`` then runs *without*
        the log lock (it may take whatever locks the caller's state
        needs, and concurrent appends proceed), so the state holds every
        op journaled before that point and possibly some later ones — and
        the later ones are copied after it, under the lock, just before
        the new file replaces the journal.
        """
        with self._snapshot_lock:
            with self._lock:
                start, dead = self._bytes, self._dead
                self._since_snapshot = 0
                self.snapshot_due = False
            with open(self._tmp, "wb") as out:
                out.writelines(f"{_line(op)}\n".encode() for op in ops())
                out.write(f"{_encode(_CHECKPOINT)}\n".encode())
                compacted = out.tell()
                _flush(out)
                with self._lock:
                    with open(self.wal_path, "rb") as old:
                        old.seek(start)
                        shutil.copyfileobj(old, out)
                    if out.tell() > compacted:
                        _flush(out)
                    out.close()
                    os.replace(self._tmp, self.wal_path)
                    _fsync_dir(self.wal_path.parent)
                    self._fh.close()
                    self._fh = open(self.wal_path, "ab", buffering=0)
                    self._since_sync = 0
                    self._bytes = self._fh.seek(0, os.SEEK_END)
                    self._dead -= dead
            perf.incr("wal_snapshot_bytes", compacted)
            if self._old_image.exists():  # migrated: the journal holds it now
                self._old_image.unlink()
                _fsync_dir(self.wal_path.parent)

    def close(self) -> None:
        """Sync and close the journal (idempotent)."""
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                os.fsync(self._fh.fileno())
                self._fh.close()


def _line(op: Mapping[str, Any] | str) -> str:
    """One journal line: the op's sorted JSON."""
    return op if type(op) is str else _encode(op)


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


def _flush(fh: Any) -> None:
    """Push a buffered file's writes to stable storage."""
    fh.flush()
    os.fsync(fh.fileno())


def _fsync_dir(path: Path) -> None:
    """Make a rename in ``path`` durable (no-op where unsupported).

    ``os.replace`` updates the directory entry, not the file — without
    syncing the directory a power cut can lose the rename and bring the
    uncompacted journal back (or, after a migration, lose the journal
    that replaced an image whose deletion did reach the disk).
    """
    flags = getattr(os, "O_DIRECTORY", None)
    if flags is None:  # pragma: no cover - non-POSIX platforms
        return
    fd = os.open(path, os.O_RDONLY | flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
