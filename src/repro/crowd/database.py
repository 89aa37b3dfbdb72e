"""JSON document store (system S8; MongoDB substitute).

The paper's shared database "manages collected performance samples in a
JSON form using MongoDB".  No database server exists in this environment,
so :class:`DocumentStore` implements the subset of MongoDB semantics the
crowd-tuning workflows need, over plain Python dicts (a node persists
its store through :class:`~repro.service.wal.DurableLog`):

* collections with auto-assigned ``_id``,
* ``find`` with filter documents supporting ``$eq``, ``$ne``, ``$gt``,
  ``$gte``, ``$lt``, ``$lte``, ``$in``, ``$nin``, ``$exists``,
  ``$regex``, logical ``$and`` / ``$or`` / ``$not``, and dotted paths
  into nested documents,
* sorting, limiting, update/delete with the same filters.

One query engine answers all of it: every :class:`Collection` owns a
:class:`~repro.crowd.columnar.ColumnarView` (built lazily on the first
read), and ``find`` / ``find_one`` / ``count`` / ``update`` / ``delete``
compile their filter to a boolean row mask there and materialize the
selection (perf counter ``store_columnar_queries``).  Unsorted results
come in ascending ``_id`` order.  A malformed filter raises
:class:`QuerySyntaxError` whatever the collection holds.

Documents are stored deep-frozen (:mod:`repro.crowd.columnar`) and
copied on the way in and out, so callers can never mutate stored state
by aliasing — important because the repository layer enforces access
control on these documents.  Every way in (``insert`` / ``insert_many``
/ ``update`` / journal replay through ``apply_op``) goes through the
collection's :class:`~repro.crowd.columnar.Interner`, so equal small
sub-documents and short strings — the machine, software, task and
accessibility blocks, problem name and owner every crowd record repeats
— are one shared immutable object per collection (counters
``store_interned_values``, ``store_intern_overflows``).  Replay takes a
journal's documents, built of exactly the JSON types, and shares one
equal to a stored value without walking it.
``find(..., frozen=True)`` hands read-only callers the stored immutable
views directly (zero copies, mutation raises; counter
``store_zero_copy_reads``); the default remains a mutable deep copy.

Thread-safety: every :class:`Collection` guards its mutation/read
boundary with an :class:`~threading.RLock` — uploads (e.g. a
:class:`~repro.fabric.tuner.FabricTuner` streaming its evaluations) may
land while queries run concurrently, and the sharded service
(:mod:`repro.service`) serves each shard from router worker threads.

Durability hook: a store-level *mutation observer* receives one
JSON-serializable op dict per mutation (insert / insert_many / update /
delete / drop), in application order (a :class:`Mutation`).  The
service layer's write-ahead log (:mod:`repro.service.wal`) attaches
here, and compacts itself to :meth:`DocumentStore.journal_lines` — the
stored documents themselves, encoded as their inserts journaled them,
never a copy.  Replay goes through :meth:`DocumentStore.apply_op`, which
takes those ops and what the observer hands out, nothing older: a
journal of the store image's era is refused before it is replayed
(:mod:`repro.service.wal`).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from collections.abc import Iterable, Iterator, Mapping
from typing import Any, Callable

from ..core import perf
from .columnar import ColumnarView, FrozenDict, Interner, QuerySyntaxError, thaw

__all__ = ["DocumentStore", "Collection", "QuerySyntaxError"]

_encode = json.JSONEncoder(sort_keys=True).encode
_decode = json.JSONDecoder().decode


def _insert_line(name: str, doc: str) -> str:
    """An ``insert`` op's journal line from the encoded collection name
    and document."""
    return f'{{"c": {name}, "doc": {doc}, "op": "insert"}}'


class Mutation(dict):
    """A store mutation as its observer gets it: the op a journal writes,
    the stored documents it ``replaced`` and its JSON ``text``, if known."""

    __slots__ = ("replaced", "text")

    def __init__(self, op: dict, replaced: Iterable = (), text: str | None = None) -> None:
        super().__init__(op)
        self.replaced, self.text = replaced, text


class Collection:
    """One named collection of JSON documents."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._docs: dict[int, dict[str, Any]] = {}
        self._next_id = 1
        #: guards every mutation and read (reentrant: observers and the
        #: persistence path run under the same lock)
        self._lock = threading.RLock()
        #: mutation observer installed by :meth:`DocumentStore.set_observer`
        self._observer: Callable[[dict[str, Any]], None] | None = None
        #: the query engine over ``self._docs`` (rows/columns built on
        #: the first read)
        self._columnar = ColumnarView(self._docs)
        #: shares equal sub-documents between this collection's documents
        #: (per collection: a shard shares nothing with its peers)
        self._interner = Interner()

    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)

    def _notify(self, op: dict[str, Any]) -> None:
        if self._observer is not None:
            self._observer(op)

    @contextmanager
    def columnar_snapshot(self) -> Iterator[ColumnarView]:
        """The columnar view, consistent under the collection lock.

        Callers compose extra vectorized predicates (e.g. the
        repository's per-record visibility mask) with
        :meth:`ColumnarView.filter_mask` and materialize with
        :meth:`ColumnarView.select` — all inside the lock, so the
        snapshot can never be stale or torn.
        """
        perf.incr("store_columnar_queries")
        with self._lock:
            self._columnar.ensure_clean()
            yield self._columnar

    # -- CRUD ------------------------------------------------------------------
    def insert(self, doc: Mapping[str, Any]) -> int:
        """Insert a document; returns its assigned ``_id``."""
        with self._lock:
            stored = self._store_new(doc)
            self._notify(Mutation({"op": "insert", "c": self.name, "doc": stored}))
        return stored["_id"]

    def insert_canonical(self, doc: Mapping[str, Any]) -> FrozenDict:
        """Insert ``doc`` (every key after ``"_id"``) as JSON has it: encoded
        once, before the store changes (``TypeError`` for what JSON cannot
        hold), stored decoded (as a restart reads it), journaled as encoded."""
        text = _encode(doc)
        if text[2:5] <= "_id":
            raise ValueError("insert_canonical needs every key to sort after '_id'")
        with self._lock:
            text = f'{{"_id": {self._next_id}, {text[1:]}'
            decoded = _decode(text)
            for key, value in decoded.items():  # one object per number, not two
                if type(value) in (int, float) and type(doc.get(key)) is type(value):
                    decoded[key] = doc[key]
            stored = self._store_new(decoded, decoded=True)
            op = {"op": "insert", "c": self.name, "doc": stored}
            self._notify(Mutation(op, text=_insert_line(_encode(self.name), text)))
        return stored

    def insert_many(self, docs: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert a batch under one lock acquisition, journaled as one
        batched ``insert_many`` op (one WAL line / fsync for the lot)."""
        docs = list(docs)
        if not all(isinstance(doc, Mapping) for doc in docs):
            raise TypeError("documents must be mappings")
        if not docs:
            return []
        with self._lock:
            stored = [self._store_new(doc) for doc in docs]
            self._notify(Mutation({"op": "insert_many", "c": self.name, "docs": stored}))
        return [doc["_id"] for doc in stored]

    def _frozen(
        self, doc: Mapping[str, Any], _id: int | None = None, *, decoded: bool = False
    ) -> FrozenDict:
        """The stored form of ``doc`` (lock held): deep-frozen, its small
        sub-documents and short strings shared with every equal one
        already stored (``decoded``: ``doc`` comes from a journal or a
        request body, :meth:`Interner.freeze_decoded`); with ``_id``, stamped
        (in place if the document carries the key)."""
        if not isinstance(doc, Mapping):
            raise TypeError("documents must be mappings")
        interner = self._interner
        fields = (interner.freeze_decoded if decoded else interner.freeze_fields)(doc)
        if _id is not None:
            fields["_id"] = _id
        return FrozenDict(fields)

    def _store_new(self, doc: Mapping[str, Any], decoded: bool = False) -> FrozenDict:
        """Freeze under the next id and column-append (lock held)."""
        _id = self._next_id
        frozen = self._frozen(doc, _id, decoded=decoded)
        self._next_id += 1
        self._docs[_id] = frozen
        self._columnar.on_insert(_id, frozen)
        return frozen

    def _restore(self, doc: Mapping[str, Any]) -> None:
        """Store a journaled document under its own ``_id`` (replay: the
        observer is not notified, and replaying an ``_id`` again
        overwrites it with the same content)."""
        with self._lock:
            stored = self._frozen(doc, decoded=True)
            _id = int(stored["_id"])
            known = _id in self._docs
            self._docs[_id] = stored
            self._next_id = max(self._next_id, _id + 1)
            if known:
                self._columnar.mark_dirty()
            else:
                self._columnar.on_insert(_id, stored)

    def find(
        self,
        flt: Mapping[str, Any] | None = None,
        *,
        sort: str | None = None,
        descending: bool = False,
        limit: int | None = None,
        frozen: bool = False,
    ) -> list[dict[str, Any]]:
        """All matching documents, ascending ``_id`` unless sorted.

        Default: mutable deep copies.  ``frozen=True``: the stored
        immutable views, zero copies (counter ``store_zero_copy_reads``)
        — strictly read-only callers only.
        """
        with self.columnar_snapshot() as view:
            out = view.select(
                view.filter_mask(flt or {}),
                sort=sort,
                descending=descending,
                limit=limit,
                frozen=frozen,
            )
        if frozen:
            perf.incr("store_zero_copy_reads")
        return out

    def find_one(
        self, flt: Mapping[str, Any] | None = None, *, frozen: bool = False
    ) -> dict[str, Any] | None:
        found = self.find(flt, limit=1, frozen=frozen)
        return found[0] if found else None

    def contains(self, path: str, value: Any) -> bool:
        """Whether a document's ``path`` equals the scalar ``value`` — what
        ``find_one({path: value}) is not None`` answers, by one dictionary
        hit in the path's column (:meth:`ColumnarView.holds`) instead of a
        row mask and a select."""
        with self._lock:
            self._columnar.ensure_clean()
            return self._columnar.holds(path, value)

    def count(self, flt: Mapping[str, Any] | None = None) -> int:
        """Matching-document count — same compiler as :meth:`find`."""
        with self.columnar_snapshot() as view:
            return view.count(flt or {})

    def _matching(self, flt: Mapping[str, Any]) -> list[dict[str, Any]]:
        """The stored documents a mutation targets (lock held).  Unlike
        :meth:`find`, no filter is not "everything": ``None`` raises."""
        self._columnar.ensure_clean()
        return self._columnar.select(self._columnar.filter_mask(flt), frozen=True)

    def update(self, flt: Mapping[str, Any], changes: Mapping[str, Any]) -> int:
        """Shallow-merge ``changes`` into matching docs; returns count."""
        with self._lock:
            matched = self._matching(flt)
            frozen_changes = self._interner.freeze_fields(changes) if matched else {}
            for doc in matched:
                merged = dict(doc)
                merged.update(frozen_changes)
                merged["_id"] = doc["_id"]  # _id is immutable
                self._docs[doc["_id"]] = FrozenDict(merged)
            if matched:
                self._columnar.mark_dirty()
                op = {"op": "update", "c": self.name, "flt": thaw(dict(flt))}
                self._notify(Mutation({**op, "changes": thaw(dict(changes))}, matched))
        return len(matched)

    def delete(self, flt: Mapping[str, Any]) -> int:
        """Delete matching docs; returns count."""
        with self._lock:
            matched = self._matching(flt)
            for doc in matched:
                del self._docs[doc["_id"]]
            if matched:
                self._columnar.mark_dirty()
                op = {"op": "delete", "c": self.name, "flt": thaw(dict(flt))}
                self._notify(Mutation(op, matched))
        return len(matched)


class DocumentStore:
    """A set of named collections."""

    def __init__(self) -> None:
        self._collections: dict[str, Collection] = {}
        self._lock = threading.RLock()
        self._observer: Callable[[dict[str, Any]], None] | None = None

    def collection(self, name: str) -> Collection:
        """Get or create a collection."""
        if not name or "." in name:
            raise ValueError(f"invalid collection name {name!r}")
        with self._lock:
            if name not in self._collections:
                coll = Collection(name)
                coll._observer = self._observer
                self._collections[name] = coll
            return self._collections[name]

    # -- mutation journal hook ---------------------------------------------------
    def set_observer(self, fn: Callable[[dict[str, Any]], None] | None) -> None:
        """Install (or clear) the store-wide mutation observer.

        The observer receives one JSON-serializable op dict per mutation,
        in application order, *while the owning collection's lock is
        held* — it must be fast and must not call back into the store.
        """
        with self._lock:
            self._observer = fn
            for coll in self._collections.values():
                coll._observer = fn

    def apply_op(self, op: Mapping[str, Any]) -> None:
        """Re-apply one journaled op (WAL replay / journal shipping).

        Besides what the observer hands out, it takes a compacted
        journal's ``collection`` op (a collection and its ``next_id``).
        """
        kind = op.get("op")
        if kind == "drop":
            self.drop(op["c"])
            return
        coll = self.collection(op["c"])
        if kind == "insert":
            coll._restore(op["doc"])
        elif kind == "insert_many":
            for doc in op["docs"]:
                coll._restore(doc)
        elif kind == "collection":
            coll._next_id = max(coll._next_id, int(op["next_id"]))
        elif kind == "update":
            coll.update(op["flt"], op["changes"])
        elif kind == "delete":
            coll.delete(op["flt"])
        else:
            raise ValueError(f"unknown journal op {kind!r}")

    def journal_lines(self) -> Iterator[str]:
        """The journal that rebuilds the store through :meth:`apply_op`:
        per collection, a ``collection`` op carrying its ``next_id``, then
        one ``insert`` line per stored document, the bytes its insert
        journaled.  Each collection is listed under its lock and encoded
        outside it, from the stored frozen documents themselves."""
        with self._lock:
            collections = list(self._collections.values())
        for coll in collections:
            with coll._lock:
                next_id, docs = coll._next_id, list(coll._docs.values())
            name = _encode(coll.name)
            yield f'{{"c": {name}, "next_id": {next_id}, "op": "collection"}}'
            for doc in docs:
                yield _insert_line(name, _encode(doc))

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._collections

    def drop(self, name: str) -> None:
        with self._lock:
            dropped = self._collections.pop(name, None)
            if dropped is not None and self._observer is not None:
                replaced = list(dropped._docs.values())
                self._observer(Mutation({"op": "drop", "c": name}, replaced))
