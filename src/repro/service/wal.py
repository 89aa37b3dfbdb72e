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
  were journaled since the last one (the floor) *and* the dead bytes
  have reached the live ones.  Each append says how many bytes on disk
  it makes dead (the documents a delete or an upsert replaces, a
  superseded queue transition), and recovery recounts them as it
  replays, so a process that restarts often checkpoints as if it had
  never stopped.  An insert-only history writes no image (replaying a
  journaled insert decodes the same document an image would), and
  recovery reads at most about twice the live data.
* Images are written member by member (:func:`_json_chunks`), never as
  one string, and read back the same way: recovery hands the caller's
  ``load`` a lazy image whose outer containers are walked member by
  member down to the depth they were written at, each document below
  that decoded by one ``raw_decode`` call as it is reached, from a
  window of the file 64 KiB long (longer only while one document is) —
  the scratch is that window and one document, never the image's text
  or the parsed image.  So a ``load`` reads members in file order (keys
  are sorted).  Then every
  uncovered journal op goes to ``apply`` *as it is parsed* — the tail
  can be as large as the image and is never a list.
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

import codecs
import json
import os
import re
import threading
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping

from ..core import perf

__all__ = ["DurableLog"]


class DurableLog:
    """Append-only JSONL journal + atomic snapshots over one directory.

    ``fsync_every=1`` (the default) syncs every append — the durable
    choice.  Larger values amortize the sync over batches of appends at
    the cost of possibly losing the unsynced tail on an OS-level crash
    (a process crash alone loses nothing: appends always reach the OS).

    An op is a mapping or its sorted JSON text (every key before
    ``"seq"``); its line goes straight to the file descriptor.
    :attr:`snapshot_due` turns true under the module docstring's
    checkpoint rule; the caller then calls :meth:`snapshot` from wherever
    it can produce a consistent image.  Call :meth:`recover` once before
    the first append.
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
        self._fh: Any = None  # unbuffered: a write is one write(2)
        self._seq = 0  # last sequence number handed out
        self._since_sync = 0
        #: the checkpoint rule's: ops since the image, bytes on disk, dead ones
        self._since_snapshot = 0
        self._bytes = 0
        self._dead = 0

    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended op."""
        with self._lock:
            return self._seq

    # -- recovery ------------------------------------------------------------
    def recover(
        self,
        load: Callable[[Mapping[str, Any]], None] | None = None,
        apply: Callable[[dict[str, Any]], int | None] | None = None,
    ) -> None:
        """Read the directory and open the journal for append.

        ``load`` receives the snapshot payload (not called without a
        snapshot) as a lazy, read-once mapping: its members must be read
        in file order, which is sorted-key order.  Asking for a member
        decodes the ones it passes whole; a container asked for above the
        documents is handed out lazily in turn, and asking past an array
        that was handed out but not read to its end raises ``ValueError``
        — its items are never skipped.
        ``apply`` then receives each journal op the snapshot does not
        cover, in order, sequence number stripped, *as it is parsed* —
        the tail may be as large as the image, and is never held as a
        list — and returns the bytes it makes dead, as the append did.
        Numbering and the checkpoint rule's counts resume from disk.
        """
        if self.snapshot_path.exists():
            self._load_image(load)
            self._bytes = self.snapshot_path.stat().st_size
        covered = self._seq
        for entry in iter_wal(self.wal_path):
            seq = int(entry.pop("seq", 0))
            if seq <= covered:
                continue  # already in the snapshot (the trim never ran)
            if apply is not None:
                self._dead += apply(entry) or 0
            self._seq = max(self._seq, seq)
            self._since_snapshot += 1
        self._repair_tail()
        self._fh = open(self.wal_path, "ab", buffering=0)
        self._bytes += self._fh.seek(0, os.SEEK_END)
        self._check_due_locked()

    def _load_image(self, load: Callable[[Mapping[str, Any]], None] | None) -> None:
        """Hand the snapshot to ``load`` and resume numbering after it;
        the file is read through the cursor's window and closed on return,
        before the journal tail is replayed."""
        with open(self.snapshot_path, "rb") as fh:
            cursor = _Cursor(fh)
            image = _LazyObject(cursor, _CHUNK_DEPTH)
            if image.get("format") != self.snapshot_format:
                raise ValueError(
                    f"{self.snapshot_path}: not a {self.snapshot_format} snapshot"
                )
            if load is not None:
                load(image)
            self._seq = int(image["wal_seq"])
            _finish(image)
            if cursor.peek():
                raise ValueError(
                    f"{self.snapshot_path}: data after the image at {cursor.offset()}"
                )

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
    def append(self, op: Mapping[str, Any] | str, dead: int = 0) -> int:
        """Journal one op that kills ``dead`` bytes on disk; its sequence number."""
        with self._lock:
            return self._write_locked([op], dead)

    def append_many(self, ops: list[Mapping[str, Any] | str], dead: int = 0) -> int:
        """Journal a batch of ops under one lock acquisition, one write
        and one fsync accounting pass; returns the last sequence number
        (or the current one for an empty batch)."""
        with self._lock:
            if not ops:
                return self._seq
            perf.incr("wal_batch_appends")
            return self._write_locked(ops, dead)

    def _write_locked(self, ops: list[Mapping[str, Any] | str], dead: int) -> int:
        text = ""
        for op in ops:
            self._seq += 1
            text += _line(op, self._seq) + "\n"
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
        return self._seq

    def _check_due_locked(self) -> None:
        """The checkpoint rule: the floor of ops, and dead bytes that
        reached the live ones — an image drops at least as many bytes as
        it keeps, and recovery reads at most about twice the live data."""
        if self._since_snapshot >= self.snapshot_every and 2 * self._dead >= self._bytes:
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
                self._trim_locked(covered)
                self._bytes += image_bytes
                self._dead = 0

    def _trim_locked(self, covered: int) -> None:
        """Drop journal entries ``<= covered`` (they are in the snapshot)."""
        self._fh.close()
        if self._seq == covered:
            self._fh = open(self.wal_path, "wb", buffering=0)
            os.fsync(self._fh.fileno())
        else:
            kept = [e for e in iter_wal(self.wal_path) if e["seq"] > covered]
            _replace_atomic(
                self.wal_path, (json.dumps(e, sort_keys=True) + "\n" for e in kept)
            )
            self._fh = open(self.wal_path, "ab", buffering=0)
        self._since_sync = 0
        self._bytes = self._fh.seek(0, os.SEEK_END)

    def close(self) -> None:
        """Sync and close the journal (idempotent)."""
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                os.fsync(self._fh.fileno())
                self._fh.close()


def _line(op: Mapping[str, Any] | str, seq: int) -> str:
    """One journal line: the op's sorted JSON with its sequence number."""
    return f'{op[:-1]}, "seq": {seq}}}' if type(op) is str else _encode({"seq": seq, **op})


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
_decode = json.JSONDecoder().raw_decode
_BLANK = re.compile(r"[ \t\n\r]*")
#: how far back :meth:`DurableLog._repair_tail` reads at a time
_TAIL_BLOCK = 1 << 16
#: how much of an image :class:`_Cursor` reads at a time, in bytes
_WINDOW = 1 << 16


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


class _Cursor:
    """One forward position in an image file, shared by all of its lazy
    containers.

    Only a window of the text is held: what is unread of the last read,
    plus the next ``_WINDOW`` bytes once that runs out.  A document that
    does not fit is read again over a window twice the size, so the
    window outgrows ``_WINDOW`` only while one document is larger.
    """

    __slots__ = ("_fh", "_utf8", "text", "pos", "_base", "_eof")

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh  # binary: a text file's reads hold several copies
        self._utf8 = codecs.getincrementaldecoder("utf-8")()
        self.text = ""
        self.pos = 0
        #: characters of the file before ``text``
        self._base = 0
        self._eof = False

    def offset(self) -> int:
        """The cursor's position in the file, in characters."""
        return self._base + self.pos

    def _more(self) -> bool:
        """Drop the text read so far and append the next stretch of the
        file to what is left (``_WINDOW`` bytes, or as many as are left if
        that is more); ``False`` at the end of the file."""
        if self._eof:
            return False
        # the read text goes before the next stretch comes in
        rest, self.text = self.text[self.pos :], ""
        self._base += self.pos
        self.pos = 0
        data = self._fh.read(max(_WINDOW, len(rest)))
        self._eof = not data
        chunk = self._utf8.decode(data, self._eof)
        del data
        self.text = rest + chunk
        return not self._eof

    def peek(self) -> str:
        """The next non-blank character (``""`` at the end), not consumed."""
        while True:
            self.pos = _BLANK.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos : self.pos + 1]

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise ValueError(f"image: expected {char!r} at character {self.offset()}")
        self.pos += 1

    def decode(self) -> Any:
        """The JSON value at the cursor (which :meth:`peek` moved past
        blank space), decoded whole.  A value that ends the window may go
        on past it (a number) and one that fails may be cut by it, so
        either is decoded again over more of the file."""
        while True:
            try:
                value, end = _decode(self.text, self.pos)
            except json.JSONDecodeError:
                if self._more():
                    continue
                raise
            if end < len(self.text) or not self._more():
                self.pos = end
                return value

    def value(self, depth: int) -> Any:
        """The value at the cursor: a lazy container while ``depth``
        lasts, below that one document decoded whole."""
        char = self.peek()
        if depth and char == "{":
            return _LazyObject(self, depth)
        if depth and char == "[":
            return _LazyArray(self, depth)
        return self.decode()


class _LazyObject(Mapping[str, Any]):
    """An image object, read member by member in file order.

    Asking for a key reads up to it: members passed on the way are
    decoded whole and kept, the one asked for is handed out lazily if it
    is a container above the documents (:meth:`DurableLog.recover`).
    """

    def __init__(self, cursor: _Cursor, depth: int) -> None:
        cursor.expect("{")
        self._cursor = cursor
        self._depth = depth
        self._members: dict[str, Any] = {}
        #: the container last handed out, which the cursor may be inside
        self._open: Any = None
        self._done = cursor.peek() == "}"
        if self._done:
            cursor.pos += 1

    def _advance(self, wanted: str | None) -> bool:
        """Read the next member (lazily only if it is ``wanted``);
        ``False`` once the object is over."""
        if self._done:
            return False
        cursor = self._cursor
        _finish(self._open)
        self._open = None
        if cursor.peek() == "}":
            cursor.pos += 1
            self._done = True
            return False
        if self._members:
            cursor.expect(",")
        cursor.peek()
        key = cursor.decode()
        if type(key) is not str:
            raise ValueError(f"image: expected a key at character {cursor.offset()}")
        cursor.expect(":")
        value = cursor.value(self._depth - 1 if key == wanted else 0)
        self._members[key] = value
        if type(value) in (_LazyObject, _LazyArray):
            self._open = value
        return True

    def __getitem__(self, key: str) -> Any:
        while key not in self._members:
            if not self._advance(key):
                raise KeyError(key)
        return self._members[key]

    def __iter__(self) -> Iterator[str]:
        while self._advance(None):
            pass
        return iter(self._members)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _LazyArray:
    """An image array, iterated once, one item at a time."""

    def __init__(self, cursor: _Cursor, depth: int) -> None:
        cursor.expect("[")
        self._cursor = cursor
        self._depth = depth
        self._started = False
        self._done = cursor.peek() == "]"
        if self._done:
            cursor.pos += 1

    def __iter__(self) -> Iterator[Any]:
        if self._started:
            raise ValueError("image: an array is read once")
        self._started = True
        return self._items()

    def _items(self) -> Iterator[Any]:
        cursor = self._cursor
        first = True
        while not self._done:
            if cursor.peek() == "]":
                cursor.pos += 1
                self._done = True
                return
            if not first:
                cursor.expect(",")
            first = False
            item = cursor.value(self._depth - 1)
            yield item
            _finish(item)


def _finish(value: Any) -> None:
    """Move the cursor past a container handed out of an image: an
    object's unread members are decoded and kept, but an array left
    before its end is an error — its remaining items would be skipped."""
    if type(value) is _LazyObject:
        while value._advance(None):
            pass
    elif type(value) is _LazyArray and not value._done:
        raise ValueError(
            "image: an array was left before its end; read an image's "
            "members in file order"
        )


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
