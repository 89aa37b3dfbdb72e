"""The one durability primitive: one journal, compacted in place.

:class:`DurableLog` owns one JSONL file, one op per line, in a data
directory, and has two callers: :class:`~repro.service.shard.CrowdShard`
(``wal.jsonl``, a ``DocumentStore``) and
:class:`~repro.fabric.jobqueue.DurableJobQueue` (``queue.wal.jsonl``,
the job table).  The contract both inherit: **an acknowledged op is in
the journal, whatever thread wrote it** (``docs/architecture.md``,
"Durability").

* Every op is appended *before* the caller acknowledges it, at the
  logical end, into zeros a full ``fsync`` made durable, then synced with
  ``fdatasync``: no metadata to commit.  An append past the zeros writes
  more (real ones: an unwritten extent is a metadata commit), 64 KiB and
  doubling, at most 1 MiB at a time, and syncs in full (``wal_grows``).
* A checkpoint (:meth:`DurableLog.snapshot`) compacts the journal in
  place: the caller's live state, written as the ops that rebuild it,
  goes to a temp file and ends at a ``{"op": "checkpoint"}`` line; then,
  under the log lock, the bytes appended since the checkpoint began
  (up to the logical end) follow it, and the temp file replaces the
  journal (fsync, ``os.replace``, parent-directory fsync).  A crash
  leaves the old journal or the new one, never a mix, and a power cut
  after return cannot roll the rename back.  An op another thread
  journals while the state is being written is in the copied tail and
  may be in the state too (see the caller's op vocabulary for why
  replaying it again is sound).
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
  it rebuilds.  The logical end is the end of the last complete line
  before the first NUL byte (JSON never holds one).  Past it, what is not
  zeros is a torn append, never acknowledged (a power cut: a prefix, and
  maybe pages that reached the disk out of order); it is cut off
  (``wal_torn_tail``) before the journal is reopened for append.
* One format is read.  A directory a version before the one-journal
  format wrote — an image beside the journal (``snapshot.json`` beside
  ``wal.jsonl``, ``queue.snapshot.json`` beside ``queue.wal.jsonl``), or
  journal lines numbered ``"seq"`` — makes :meth:`DurableLog.recover`
  raise ``ValueError`` naming the file, before it changes anything in
  the directory: replaying it as this format would drop the image's
  state or replay what the image already holds.  That version numbered
  every line, so the first one refuses it before ``apply`` sees an op.

Perf counters: ``wal_appends``, ``wal_batch_appends``, ``wal_fsyncs``,
``wal_grows``, ``wal_torn_tail``, ``wal_snapshot_bytes`` (compacted bytes).
The callers count their own replays and checkpoints: ``wal_replayed`` /
``wal_snapshots``, ``fabric_queue_replayed`` / ``fabric_queue_snapshots``.
"""

from __future__ import annotations

import json
import os
import threading
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..core import perf

__all__ = ["DurableLog"]

#: the line that ends a compacted journal's rebuilt state
_CHECKPOINT = {"op": "checkpoint"}
_encode = json.JSONEncoder(sort_keys=True).encode
#: the zeros the first allocation adds past the logical end, and the most one adds
_GROW_MIN, _GROW_MAX = 1 << 16, 1 << 20
#: the most a journal read takes at a time (a longer line is read in parts)
_BLOCK = 1 << 16
_datasync = getattr(os, "fdatasync", os.fsync)
_OLD_FORMAT = "written before the one-journal format, which no longer opens"


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
        #: the image a version before the one-journal format kept beside it
        self._old_image = data_dir / (wal_name.removesuffix("wal.jsonl") + "snapshot.json")
        self.snapshot_every = int(snapshot_every)
        self.fsync_every = int(fsync_every)
        #: the checkpoint rule holds (:meth:`_check_due_locked`)
        self.snapshot_due = False
        self._lock = threading.Lock()
        #: one checkpoint at a time; never taken with ``_lock`` held
        self._snapshot_lock = threading.Lock()
        self._fh: Any = None  # unbuffered, written with pwrite(2) at the logical end
        self._since_sync = 0
        #: the checkpoint rule's: ops after the compacted part, bytes up to
        #: the logical end, dead ones; and the file's size (zeros after the end)
        self._since_snapshot = self._bytes = self._dead = self._alloc = 0

    # -- recovery ------------------------------------------------------------
    def recover(self, apply: Callable[[dict[str, Any]], int | None] | None = None) -> None:
        """Replay the journal and open it for append.

        ``apply`` receives each op, in order, *as its line is parsed* —
        the journal may be as large as the live data, and is never held
        as a list — and returns the bytes it makes dead, as the append
        did.  The checkpoint rule's counts resume from disk.  A directory
        an older format wrote raises ``ValueError``, unchanged.
        """
        if self._old_image.exists():
            raise ValueError(f"{self._old_image}: {_OLD_FORMAT}")
        end = 0
        for op, end in _intact(self.wal_path):
            if "seq" in op:
                raise ValueError(f"{self.wal_path}: numbered lines: {_OLD_FORMAT}")
            if op == _CHECKPOINT:  # what came before is the compacted state
                self._since_snapshot = self._dead = 0
                continue
            if apply is not None:
                self._dead += apply(op) or 0
            self._since_snapshot += 1
        self._tmp.unlink(missing_ok=True)  # a compaction that never replaced the journal
        self._fh = _open(self.wal_path)
        self._bytes, self._alloc = end, self._fh.seek(0, os.SEEK_END)
        if not _zeros_from(self._fh.fileno(), end):  # a torn append: never acknowledged
            perf.incr("wal_torn_tail")
            self._alloc = self._fh.truncate(end)
            os.fsync(self._fh.fileno())
        self._check_due_locked()

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
        data = "".join([f"{_line(op)}\n" for op in ops]).encode()  # json escapes to ASCII
        end, fd = self._bytes + len(data), self._fh.fileno()
        _pwrite(fd, data, self._bytes)
        self._since_sync += len(ops)
        if end > self._alloc:  # past the zeros: allocate more, and sync the size too
            self._alloc = end + min(max(self._alloc, _GROW_MIN), _GROW_MAX)
            _pwrite(fd, bytes(self._alloc - end), end)
            perf.incr("wal_grows")
            self._sync_locked(os.fsync)
        elif self._since_sync >= self.fsync_every:
            self._sync_locked()
        perf.incr("wal_appends", len(ops))
        self._since_snapshot += len(ops)
        self._bytes = end
        self._dead += dead
        self._check_due_locked()

    def _check_due_locked(self) -> None:
        """The checkpoint rule: the floor of ops, and dead bytes that
        reached the live ones — a checkpoint drops at least as many bytes
        as it keeps, and recovery reads at most about twice the live data."""
        if self._since_snapshot >= self.snapshot_every and 2 * self._dead >= self._bytes:
            self.snapshot_due = True

    def _sync_locked(self, sync: Callable[[int], None] = _datasync) -> None:
        """Force any batched appends to stable storage."""
        if self._since_sync:
            sync(self._fh.fileno())
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
                    out.write(os.pread(self._fh.fileno(), self._bytes - start, start))
                    if out.tell() > compacted:
                        _flush(out)
                    out.close()
                    os.replace(self._tmp, self.wal_path)
                    _fsync_dir(self.wal_path.parent)
                    self._fh.close()
                    self._fh = _open(self.wal_path)
                    self._since_sync = 0
                    self._bytes = self._alloc = self._fh.seek(0, os.SEEK_END)
                    self._dead -= dead
            perf.incr("wal_snapshot_bytes", compacted)

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
    """The intact ops of a journal, parsed one line at a time."""
    return (op for op, _ in _intact(Path(path)))


def _intact(path: Path) -> Iterator[tuple[dict[str, Any], int]]:
    """Each op of the journal at ``path`` and the offset its line ends at:
    the complete lines before the first NUL byte, read ``_BLOCK`` bytes at
    most at a time, so the zeros past the logical end are never one line."""
    if not path.exists():
        return
    with open(path, "rb") as fh:
        line, end, number = b"", 0, 0
        for part in iter(partial(fh.readline, _BLOCK), b""):
            part, nul, _ = part.partition(b"\0")
            line += part
            if nul:
                return
            if line.endswith(b"\n"):
                number, end = number + 1, end + len(line)
                if line.strip():
                    try:
                        op = json.loads(line)
                    except json.JSONDecodeError:
                        raise ValueError(f"{path}: corrupt WAL entry at line {number}") from None
                    yield op, end
                line = b""


def _open(path: Path) -> Any:
    """The journal, read-write: an append goes to the logical end, not to EOF."""
    return open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b", buffering=0)


def _zeros_from(fd: int, offset: int) -> bool:
    """Whether every byte of the open file ``fd`` from ``offset`` on is zero."""
    while block := os.pread(fd, _BLOCK, offset):
        if block.strip(b"\0"):
            return False
        offset += len(block)
    return True


def _pwrite(fd: int, data: bytes, offset: int) -> None:
    view = memoryview(data)
    while view:  # a regular file takes it whole unless the disk is full
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _flush(fh: Any) -> None:
    """Push a buffered file's writes to stable storage."""
    fh.flush()
    os.fsync(fh.fileno())


def _fsync_dir(path: Path) -> None:
    """Make a rename in ``path`` durable (no-op where unsupported).

    ``os.replace`` updates the directory entry, not the file — without
    syncing the directory a power cut can lose the rename and bring the
    uncompacted journal back.
    """
    flags = getattr(os, "O_DIRECTORY", None)
    if flags is None:  # pragma: no cover - non-POSIX platforms
        return
    fd = os.open(path, os.O_RDONLY | flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
