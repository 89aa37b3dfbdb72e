"""JSON document store (system S8; MongoDB substitute).

The paper's shared database "manages collected performance samples in a
JSON form using MongoDB".  No database server exists in this environment,
so :class:`DocumentStore` implements the subset of MongoDB semantics the
crowd-tuning workflows need, over plain Python dicts with JSON-file
persistence:

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
/ ``restore`` / ``update`` / ``from_jsonable``) goes through the
collection's :class:`~repro.crowd.columnar.Interner`, so equal small
sub-documents — the machine, software, task and accessibility blocks
every crowd record repeats — are one shared immutable object per
collection (counters ``store_interned_values``,
``store_intern_overflows``); ``to_jsonable`` hands out the stored frozen
documents themselves, so an image is serialized without a copy.
``find(..., frozen=True)`` hands read-only callers the stored immutable
views directly (zero copies, mutation raises; counter
``store_zero_copy_reads``); the default remains a mutable deep copy.

Thread-safety: every :class:`Collection` guards its mutation/read
boundary with an :class:`~threading.RLock` — uploads (e.g. from
:class:`~repro.engine.stream.CrowdStreamer`) may land while queries run
concurrently, and the sharded service
(:mod:`repro.service`) serves each shard from router worker threads.

Durability hook: a store-level *mutation observer* receives one
JSON-serializable op dict per mutation (insert / insert_many / update /
delete / drop), in application order.  The service layer's write-ahead
log (:mod:`repro.service.wal`) attaches here; replay goes through
:meth:`Collection.restore` / :meth:`DocumentStore.apply_op`, which also
accepts what earlier store versions wrote: one ``insert`` op per
document, ``create_index`` ops and per-collection ``indexes`` lists in
snapshots (both ignored — there are no indexes to rebuild).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from collections.abc import Iterable, Iterator, Mapping
from typing import Any, Callable

from ..core import perf
from .columnar import ColumnarView, FrozenDict, Interner, QuerySyntaxError, thaw

__all__ = ["DocumentStore", "Collection", "QuerySyntaxError"]


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
            _id = self._store_new(doc)
            self._notify({"op": "insert", "c": self.name, "doc": self._docs[_id]})
        return _id

    def insert_many(self, docs: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert a batch under one lock acquisition, journaled as one
        batched ``insert_many`` op (one WAL line / fsync for the lot)."""
        docs = list(docs)
        if not all(isinstance(doc, Mapping) for doc in docs):
            raise TypeError("documents must be mappings")
        if not docs:
            return []
        with self._lock:
            ids = [self._store_new(doc) for doc in docs]
            self._notify(
                {
                    "op": "insert_many",
                    "c": self.name,
                    "docs": [self._docs[i] for i in ids],
                }
            )
        return ids

    def _frozen(self, doc: Mapping[str, Any], _id: int | None = None) -> FrozenDict:
        """The stored form of ``doc`` (lock held): deep-frozen, its small
        sub-documents shared with every equal one already stored; with
        ``_id``, stamped (in place if the document carries the key)."""
        if not isinstance(doc, Mapping):
            raise TypeError("documents must be mappings")
        fields = self._interner.freeze_fields(doc)
        if _id is not None:
            fields["_id"] = _id
        return FrozenDict(fields)

    def _store_new(self, doc: Mapping[str, Any]) -> int:
        """Freeze under the next id and column-append (lock held)."""
        _id = self._next_id
        frozen = self._frozen(doc, _id)
        self._next_id += 1
        self._docs[_id] = frozen
        self._columnar.on_insert(_id, frozen)
        return _id

    def restore(self, doc: Mapping[str, Any]) -> int:
        """Re-insert a document preserving its ``_id`` (WAL replay/import).

        Idempotent for identical replays: re-restoring an ``_id`` simply
        overwrites it with the same content.  The observer is *not*
        notified — replay must never re-journal itself.
        """
        with self._lock:
            stored = self._frozen(doc)
            _id = int(stored["_id"])
            known = _id in self._docs
            self._docs[_id] = stored
            self._next_id = max(self._next_id, _id + 1)
            if known:
                self._columnar.mark_dirty()
            else:
                self._columnar.on_insert(_id, stored)
        return _id

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
                self._notify(
                    {
                        "op": "update",
                        "c": self.name,
                        "flt": thaw(dict(flt)),
                        "changes": thaw(dict(changes)),
                    }
                )
        return len(matched)

    def delete(self, flt: Mapping[str, Any]) -> int:
        """Delete matching docs; returns count."""
        with self._lock:
            matched = self._matching(flt)
            for doc in matched:
                del self._docs[doc["_id"]]
            if matched:
                self._columnar.mark_dirty()
                self._notify(
                    {"op": "delete", "c": self.name, "flt": thaw(dict(flt))}
                )
        return len(matched)

    # -- persistence ------------------------------------------------------------
    def to_jsonable(self) -> dict[str, Any]:
        """The collection's image.  ``docs`` are the stored frozen
        documents themselves — they cannot change, so serializing them
        needs no copy; ``thaw`` one before editing it."""
        with self._lock:
            return {
                "name": self.name,
                "next_id": self._next_id,
                "docs": list(self._docs.values()),
            }

    @staticmethod
    def from_jsonable(blob: Mapping[str, Any]) -> "Collection":
        """Inverse of :meth:`to_jsonable`; ``docs`` may be any iterable
        and is consumed one document at a time.  Members are read in
        sorted-key order — ``docs``, ``name``, ``next_id`` — the order an
        image streamed off disk hands them out in."""
        coll = Collection("")
        for doc in blob["docs"]:
            coll._docs[int(doc["_id"])] = coll._frozen(doc)
        coll.name = blob["name"]
        coll._next_id = int(blob["next_id"])
        return coll


class DocumentStore:
    """A set of named collections, persistable to one JSON file."""

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
        """Re-apply one observed op (WAL replay / journal shipping).

        Accepts both the historical one-document ``insert`` form and
        the batched ``insert_many`` form, and skips the ``create_index``
        ops older journals carry, so journals written by any store
        version replay on this one.
        """
        kind = op.get("op")
        if kind == "drop":
            self.drop(op["c"])
            return
        coll = self.collection(op["c"])
        if kind == "insert":
            coll.restore(op["doc"])
        elif kind == "insert_many":
            for doc in op["docs"]:
                coll.restore(doc)
        elif kind == "update":
            coll.update(op["flt"], op["changes"])
        elif kind == "delete":
            coll.delete(op["flt"])
        elif kind == "create_index":
            pass  # an older store's journal: there is no index to rebuild
        else:
            raise ValueError(f"unknown journal op {kind!r}")

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._collections

    def collection_names(self) -> list[str]:
        with self._lock:
            return sorted(self._collections)

    def drop(self, name: str) -> None:
        with self._lock:
            dropped = self._collections.pop(name, None)
            if dropped is not None and self._observer is not None:
                self._observer({"op": "drop", "c": name})

    # -- persistence -------------------------------------------------------------
    def to_jsonable(self) -> dict[str, Any]:
        with self._lock:
            collections = list(self._collections.values())
        return {
            "format": "gptunecrowd-store-v1",
            "collections": [c.to_jsonable() for c in collections],
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_jsonable(), indent=1, sort_keys=True))

    @staticmethod
    def from_jsonable(blob: Mapping[str, Any]) -> "DocumentStore":
        """Inverse of :meth:`to_jsonable`, reading ``collections`` before
        ``format`` (sorted-key order, see :meth:`Collection.from_jsonable`)."""
        store = DocumentStore()
        for cblob in blob.get("collections", ()):
            coll = Collection.from_jsonable(cblob)
            store._collections[coll.name] = coll
        if blob.get("format") != "gptunecrowd-store-v1":
            raise ValueError("not a GPTuneCrowd store blob")
        return store

    @staticmethod
    def load(path: str | Path) -> "DocumentStore":
        blob = json.loads(Path(path).read_text())
        if blob.get("format") != "gptunecrowd-store-v1":
            raise ValueError(f"{path}: not a GPTuneCrowd store file")
        return DocumentStore.from_jsonable(blob)
