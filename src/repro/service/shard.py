"""Consistent-hash sharding of the crowd repository.

:class:`ShardRing` places shard names on a 64-bit hash ring with virtual
nodes (classic consistent hashing: adding or removing one shard only
remaps ~1/N of the keys).  Records are keyed by ``(problem_name, task
parameters)`` — one task's samples always live together, so the router
serves a task-pinned query from a single shard while problem-wide
queries fan out.

:class:`CrowdShard` is one crowd node: it maps JSON-shaped request dicts
to JSON-shaped response dicts over a
:class:`~repro.crowd.repository.CrowdRepository`, with the transport
factored out (a deployment wraps :meth:`CrowdShard.handle` in any HTTP
framework).  The node and :class:`~repro.service.router.CrowdRouter`
share the protocol's conventions:

* every request: ``{"route": <name>, "api_key": <key>, ...params}``
  (``register`` alone requires no key),
* success: ``{"ok": true, ...payload}``,
* failure: ``{"ok": false, "error": <kind>, "message": <detail>}`` with
  ``error`` in {"auth", "bad_request", "not_found", "conflict"} —
  internal details never leak into responses.

A :class:`~repro.service.wal.DurableLog` makes the node's document store
durable (journal-then-ack, a compaction in place once dead data reaches
live data, crash recovery: the contract is stated there, once).  The
shard never copies its store to persist or recover it: a compaction
writes the stored frozen documents straight to the journal
(:meth:`~repro.crowd.database.DocumentStore.journal_lines`), and a
restart applies the journal one op at a time as it is read into the
store (which shares equal sub-documents and strings,
:class:`~repro.crowd.columnar.Interner`) — beside the store it holds one
line, never the journal's text.  A closed node keeps
nothing alive: its store stops referring to it, and nothing in it refers
to itself, so it is freed by refcount the moment its last holder lets
go.  Shards share one :class:`~repro.crowd.users.UserRegistry` (accounts
are not sharded, mirroring the usual service split of an auth tier in
front of storage tiers); credentials never touch the journal,
matching the repository's existing never-persist-credentials rule.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import threading
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any

from ..core import perf
from ..crowd.columnar import INTERN_MAX_DISTINCT, KeyMemo, sort_key, thaw
from ..crowd.database import DocumentStore, Mutation
from ..crowd.records import Accessibility
from ..crowd.repository import CrowdRepository
from ..crowd.users import AuthError, UserRegistry
from ..crowd.views import contributor_stats, leaderboard
from ..registry import (
    REGISTRY_MODELS,
    REGISTRY_PROBLEMS,
    ModelRegistry,
    RegistryOptions,
    space_fingerprint,
    upsert_newest,
)
from .wal import DurableLog

__all__ = [
    "ShardRing",
    "CrowdShard",
    "shard_key",
    "record_ident",
    "oldest_wins",
    "split_bucket_key",
    "bad_request",
    "token_uid",
]

#: the public routes: what :meth:`CrowdShard.routes` lists, and exactly
#: what :class:`~repro.service.router.CrowdRouter` serves
_PUBLIC_ROUTES = (
    "register", "issue_key", "whoami", "client_id",
    "upload", "query", "query_sql", "problems", "leaderboard", "contributors",
    "register_problem", "predict", "model_meta", "sensitivity",
)
#: intra-cluster routes, never listed by :meth:`CrowdShard.routes` and
#: never forwarded by the router's public dispatch — only the router's
#: healing machinery (read-repair, anti-entropy, shard handoff) and its
#: aggregate reads (``summary``, the one of them that authenticates a
#: user) call them
_INTERNAL_ROUTES = frozenset({"replicate", "digest", "fetch", "drop_bucket", "summary"})

#: the largest ``n_base`` / ``n_bootstrap`` a ``sensitivity`` request may
#: ask for: the first sizes the Saltelli design (``n_base * (d + 2)``
#: predictions), both scale the CPU time of a shard that serves one
#: request at a time
_SENSITIVITY_MAX_BASE = 1 << 14
_SENSITIVITY_MAX_BOOTSTRAP = 10_000

_RECORDS = "performance_records"
#: one document per client id journaled here
_CLIENTS = "service_clients"
#: a token ``[client_id, n]`` names uid ``client_id * TOKEN_N + n``: exact
#: as a float64 (how the columnar view reads uids) for ids below 2**21
TOKEN_N, CLIENT_IDS = 1 << 32, 1 << 21
_WAL_NAME = "wal.jsonl"


_encode = json.JSONEncoder(sort_keys=True).encode
_encode_task = json.JSONEncoder(sort_keys=True, default=str).encode
#: the bytes stored documents take in a journal
_weight = lambda docs: sum(len(_encode(doc)) for doc in docs)


def shard_key(problem_name: str, task_parameters: Mapping[str, Any] | None) -> str:
    """Canonical routing key for a record or a task-pinned query."""
    return f"{problem_name}\x00{_encode_task(dict(task_parameters or {}))}"


#: collections the healing protocol moves besides performance records
_HEALED_COLLECTIONS = (REGISTRY_MODELS, REGISTRY_PROBLEMS)


def bucket_key(collection: str, ring_key: str) -> str:
    """Anti-entropy bucket name for one collection's ring key: the bare
    shard key for performance records, a ``\\x01``-prefixed composite
    (no shard key starts with ``\\x01``) for the other collections."""
    if collection == _RECORDS:
        return ring_key
    return f"\x01{collection}\x01{ring_key}"


def split_bucket_key(key: str) -> tuple[str, str]:
    """Inverse of :func:`bucket_key`: ``(collection, ring_key)``."""
    if key.startswith("\x01"):
        collection, _, ring_key = key[1:].partition("\x01")
        return collection, ring_key
    return _RECORDS, key


def record_ident(doc: Mapping[str, Any]) -> str:
    """Replica-stable identity of one stored record.

    Router-stamped records are identified by their global ``uid``;
    unstamped records (uid 0, uploaded outside the router) fall back to
    a content hash so replicas still compare equal field-for-field.
    """
    uid = int(doc.get("uid", 0) or 0)
    if uid:
        return str(uid)
    blob = json.dumps(
        {k: v for k, v in doc.items() if k != "_id"}, sort_keys=True, default=str
    )
    return "#" + hashlib.sha256(blob.encode()).hexdigest()[:16]


def token_uid(token: Any) -> int:
    """The uid an upload's idempotency token ``[client_id, n]`` names (0: none)."""
    if token is None:
        return 0
    if not (isinstance(token, (list, tuple)) and [type(v) for v in token] == [int, int]):
        raise TypeError("idempotency_key must be [client_id, n]")
    if not (0 < token[0] < CLIENT_IDS and 0 < token[1] < TOKEN_N):
        raise ValueError(f"idempotency_key {list(token)} is out of range")
    return token[0] * TOKEN_N + token[1]


def oldest_wins(docs: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge replica copies of records: ``record_ident -> document``.

    The replication rule, spelled once: a record is immutable per uid
    (only its first write can have been acknowledged), so an incoming
    copy replaces the held one iff its timestamp is smaller (first seen
    wins a tie).  Keys keep first-seen order, so a caller's shard-name
    iteration order is the order of the merged values.
    """
    merged: dict[str, Any] = {}
    for doc in docs:
        ident = record_ident(doc)
        held = merged.get(ident)
        if held is None or sort_key(doc.get("timestamp")) < sort_key(
            held.get("timestamp")
        ):
            merged[ident] = doc
    return merged


def _bucket_key(name: tuple[str, Any], task: Any) -> str:
    """The bucket of a ``(collection, problem)`` document, per its task."""
    collection, problem = name
    ring_key = str(problem) if collection == REGISTRY_PROBLEMS else shard_key(problem, task)
    return bucket_key(collection, ring_key)


class _BucketDigests:
    """One shard's anti-entropy digests, kept as documents are stored.

    A bucket's digest is the sum, mod 2**128, of one hash per stored
    ``(record_ident, timestamp)``: order-independent, so a stored
    document costs one hash and one addition (the store's mutation
    observer calls :meth:`observe`).  A delete or update (a newer
    version replacing a record, a handoff drop, a registry upsert)
    drops its collection's sums, and the next read rescans it.
    """

    def __init__(self) -> None:
        #: collection -> bucket -> digest, for the collections kept current
        self._sums: dict[str, dict[str, int]] = {}
        self.keys = KeyMemo(_bucket_key)  # a stored document's, per task block

    def load(self, collection: str, docs: list) -> None:
        """Rebuild one collection's sums from all its stored documents."""
        self._sums[collection] = {}
        self._add(collection, docs)

    def _add(self, collection: str, docs: list) -> None:
        sums = self._sums[collection]
        for doc in docs:
            key = self.keys((collection, doc.get("problem_name", "")), doc.get("task_parameters"))
            blob = f"{record_ident(doc)}@{doc.get('timestamp', 0.0)!r}".encode()
            digest = hashlib.blake2s(blob, digest_size=16).digest()
            sums[key] = (sums.get(key, 0) + int.from_bytes(digest, "little")) % (1 << 128)

    def observe(self, op: Mapping[str, Any]) -> None:
        """Fold one store mutation in (called under its collection lock)."""
        collection = op["c"]
        if collection not in self._sums:
            return  # not healed, or rescanned on its next read anyway
        if op["op"] == "insert":
            self._add(collection, [op["doc"]])
        elif op["op"] == "insert_many":
            self._add(collection, op["docs"])
        else:
            del self._sums[collection]

    def read(self, store: DocumentStore) -> dict[str, str]:
        """``bucket -> digest`` (hex) over the healed collections."""
        out: dict[str, str] = {}
        for collection in (_RECORDS, *_HEALED_COLLECTIONS):
            coll = store[collection]
            with coll.columnar_snapshot():  # the lock: no write lands mid-scan
                if collection not in self._sums:
                    self.load(collection, coll.find({}, frozen=True))
                out.update((key, f"{s:032x}") for key, s in self._sums[collection].items())
        return out


def bad_request(message: str) -> dict[str, Any]:
    """The protocol's ``bad_request`` failure response."""
    return {"ok": False, "error": "bad_request", "message": message}


def _answered(docs: list[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Stored record documents as a read answers them: mutable copies,
    without the node-local ``_id``."""
    return [{k: thaw(v) for k, v in doc.items() if k != "_id"} for doc in docs]


def _refuse_after_close(op: Mapping[str, Any]) -> None:
    """The store observer of a closed durable shard: nothing may be
    acknowledged that the journal did not take."""
    raise ValueError("shard is closed: the mutation was not journaled")


def _ring_hash(value: str) -> int:
    return int.from_bytes(hashlib.sha256(value.encode()).digest()[:8], "little")


class ShardRing:
    """Consistent hashing of keys onto named shards with replication."""

    def __init__(self, names: list[str], *, vnodes: int = 64) -> None:
        if not names:
            raise ValueError("ring needs at least one shard")
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.names = list(names)
        self.vnodes = int(vnodes)
        points: list[tuple[int, str]] = []
        for name in names:
            for v in range(vnodes):
                points.append((_ring_hash(f"{name}#{v}"), name))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [n for _, n in points]
        self._walk = functools.lru_cache(INTERN_MAX_DISTINCT)(  # holds no ring: no cycle
            functools.partial(self._ring_walk, self._hashes, self._owners))

    def preference(self, key: str, k: int = 1) -> list[str]:
        """The first ``k`` distinct shards clockwise of ``key``'s hash.

        Index 0 is the primary; the rest are the replicas, in fallback
        order.  ``k`` is capped at the number of shards.
        """
        return list(self._walk(key, min(max(int(k), 1), len(self.names))))

    @staticmethod
    def _ring_walk(hashes: list[int], owners: list[str], key: str, k: int) -> list[str]:
        start = bisect_right(hashes, _ring_hash(key))
        out: list[str] = []
        for i in range(len(owners)):
            name = owners[(start + i) % len(owners)]
            if name not in out:
                out.append(name)
                if len(out) == k:
                    break
        return out

    def primary(self, key: str) -> str:
        return self.preference(key, 1)[0]


class CrowdShard:
    """One durable crowd-serving node.

    Without ``data_dir`` the shard is memory-only (tests, throwaway
    demos).  With it, every store mutation is journaled before the
    response leaves :meth:`handle`, the journal is compacted once at
    least ``snapshot_every`` ops were journaled since the last compaction
    and the documents deleted or replaced since weigh as much as the live
    ones (``wal_snapshots``), and constructing a shard over an existing
    directory replays the journal to the last acknowledged state.
    """

    #: route -> handler method name, public and internal routes alike,
    #: resolved per request (a table of bound methods would make every
    #: node a reference cycle, alive after its last holder until the
    #: next collector pass)
    _ROUTES = {route: f"_route_{route}" for route in (*_PUBLIC_ROUTES, *_INTERNAL_ROUTES)}

    def __init__(
        self,
        name: str,
        data_dir: str | Path | None = None,
        *,
        users: UserRegistry | None = None,
        snapshot_every: int = 256,
        fsync_every: int = 1,
        registry: RegistryOptions | None = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.name = name
        # the per-request perf names, built once
        self._timer = f"shard.{name}"
        self._requests = f"shard_requests.{name}"
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.snapshot_every = int(snapshot_every)
        self.fsync_every = int(fsync_every)
        self._log: DurableLog | None = None
        # per-thread journal batching for internal routes (see handle())
        self._buffers = threading.local()

        store = None
        if self.data_dir is not None:
            self._log = DurableLog(
                self.data_dir,
                _WAL_NAME,
                snapshot_every=self.snapshot_every,
                fsync_every=self.fsync_every,
            )
            store = self._recover_store()
        self.repository = CrowdRepository(store=store, users=users)
        # resume the logical clock past every recovered record and
        # problem registration, and the client-id count past every
        # journaled id (a router resumes both from the nodes'); the same
        # scan builds the records' anti-entropy digests
        store = self.repository.store
        records = store[_RECORDS].find({}, frozen=True)
        problems = []
        if REGISTRY_PROBLEMS in store:
            problems = store[REGISTRY_PROBLEMS].find({}, frozen=True)
        for doc in itertools.chain(records, problems):
            self.repository.advance_clock(float(doc.get("timestamp", 0.0)))
        clients = store[_CLIENTS].find({}, frozen=True) if _CLIENTS in store else []
        #: the greatest client id journaled here (written under the lock)
        self.client_ids = max((int(doc["client_id"]) for doc in clients), default=0)
        self._clients_lock = threading.Lock()
        self._digests = _BucketDigests()
        self._digests.load(_RECORDS, records)
        # registry entries recover from the journal like records, and
        # the version tracker's construction scan sees the recovered
        # store, so staleness accounting survives a crash too
        self.registry: ModelRegistry | None = (
            ModelRegistry(self.repository, registry) if registry is not None else None
        )

        # from here on every mutation updates the digests and, on disk,
        # is journaled (recovery replay above ran before the observer
        # existed, so it never re-journals)
        self.repository.store.set_observer(
            self._digests.observe if self._log is None else self._journal
        )
        if self._log is not None and self._log.snapshot_due:
            self.snapshot()  # recovery found a compaction due

    # -- durability ---------------------------------------------------------
    def _recover_store(self) -> DocumentStore:
        """The store as of the last acknowledged op: the journal, each op
        applied as it is read (:meth:`DurableLog.recover`)."""
        assert self._log is not None
        store = DocumentStore()
        replaced: list[Mapping[str, Any]] = []  # what the replayed op deleted
        store.set_observer(lambda op: replaced.extend(op.replaced))

        def apply(op: dict[str, Any]) -> int:
            store.apply_op(op)
            perf.incr("wal_replayed")
            dead, replaced[:] = _weight(replaced), []
            return dead

        self._log.recover(apply)
        return store

    def _journal(self, op: Mutation) -> None:
        assert self._log is not None
        self._digests.observe(op)
        buffered = getattr(self._buffers, "ops", None)
        if buffered is not None:
            # an internal route is batching on this thread: hold the op,
            # handle() writes the whole request's ops as one WAL batch
            buffered.append(op)
            return
        # runs under the collection lock, so a due snapshot is deferred:
        # handle() takes it after the request instead
        self._log.append(op.text or op, _weight(op.replaced))

    def snapshot(self) -> None:
        """Compact the journal to the store's documents.

        The store is listed collection by collection while other threads
        keep writing; whatever they journal meanwhile follows it in the
        compacted journal (:meth:`DurableLog.snapshot`), and replaying it
        over a listing that already holds some of it is sound because the
        ops a shard journals — ``insert``/``insert_many`` (restore by
        ``_id``), ``delete``, ``drop`` — are idempotent over such a state.
        """
        if self._log is None:
            return
        self._log.snapshot(self.repository.store.journal_lines)
        perf.incr("wal_snapshots")

    # -- serving ------------------------------------------------------------
    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one request; never raises, and durability holds before
        the response."""
        with perf.timer(self._timer):
            if not isinstance(request, Mapping):
                response = bad_request("request must be an object")
            elif isinstance(route := request.get("route"), str) and route in _INTERNAL_ROUTES:
                # internal routes stream many documents per request
                # (replication, read-repair, rebalance): batch this
                # thread's journal ops into one WAL write + fsync pass.
                # Safe because their ops commute — replicate/drop replay
                # keys by ``_id``/content, never by arrival order against
                # concurrent public writes.
                self._buffers.ops = []
                try:
                    response = self._answer(route, request)
                finally:
                    ops = self._buffers.ops
                    self._buffers.ops = None
                    if ops:
                        assert self._log is not None
                        dead = sum(_weight(op.replaced) for op in ops)
                        self._log.append_many([op.text or op for op in ops], dead)
            else:
                response = self._answer(route, request)
        perf.incr(self._requests)
        if self._log is not None and self._log.snapshot_due:
            self.snapshot()
        return response

    def _answer(self, route: Any, request: Mapping[str, Any]) -> dict[str, Any]:
        """Run ``route``'s handler, mapping what it raises to the
        protocol's failure responses."""
        try:
            handler = self._ROUTES.get(route)  # an unhashable route: TypeError
            if handler is None:
                raise LookupError(f"unknown route {route!r}")
            return getattr(self, handler)(request)
        except AuthError as exc:
            return {"ok": False, "error": "auth", "message": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return bad_request(str(exc))
        # KeyError (missing request field -> bad_request) is a LookupError
        # subclass, so this clause must stay below the tuple above; what
        # reaches it is an unknown route or the registry's "no such model"
        except LookupError as exc:
            return {"ok": False, "error": "not_found", "message": str(exc)}

    def routes(self) -> list[str]:
        """The public routes (the internal ones are not listed)."""
        return sorted(_PUBLIC_ROUTES)

    # -- account routes -------------------------------------------------------
    def _route_register(self, req: Mapping[str, Any]) -> dict[str, Any]:
        user = self.repository.users.register(req["username"], req["email"])
        key = self.repository.users.issue_api_key(user.username)
        return {"ok": True, "username": user.username, "api_key": key}

    def _route_issue_key(self, req: Mapping[str, Any]) -> dict[str, Any]:
        user = self.repository.users.authenticate(req["api_key"])
        new_key = self.repository.users.issue_api_key(user.username)
        return {"ok": True, "api_key": new_key}

    def _route_whoami(self, req: Mapping[str, Any]) -> dict[str, Any]:
        user = self.repository.users.authenticate(req["api_key"])
        return {
            "ok": True,
            "username": user.username,
            "email": user.email,
            "groups": sorted(user.groups),
        }

    def _route_client_id(self, req: Mapping[str, Any]) -> dict[str, Any]:
        """Journal a client id: the one the router issued (it sends each
        to every node), or, asked directly, this node's next."""
        user = self.repository.users.authenticate(req["api_key"])
        with self._clients_lock:
            client_id = int(req.get("client_id") or self.client_ids + 1)
            self.repository.store[_CLIENTS].insert(
                {"client_id": client_id, "owner": user.username}
            )
            self.client_ids = max(self.client_ids, client_id)
        return {"ok": True, "client_id": client_id}

    # -- record routes -----------------------------------------------------------
    def _route_upload(self, req: Mapping[str, Any]) -> dict[str, Any]:
        # "uid"/"timestamp" are trusted-front-end fields: the sharded
        # router stamps every replica of one logical write identically so
        # cross-shard reads deduplicate.  End users talk to the router,
        # which never forwards client-supplied values for them.
        uid = int(req.get("uid", 0)) or token_uid(req.get("idempotency_key"))
        user = self.repository.users.authenticate(req["api_key"])
        if not req["problem_name"]:
            raise ValueError("record needs a problem name")
        doc = {  # the stored document, checked as PerformanceRecord checks it
            "problem_name": req["problem_name"],
            "task_parameters": dict(req["task_parameters"]),
            "tuning_parameters": dict(req["tuning_parameters"]),
            "output": req.get("output"),
            "machine_configuration": dict(req.get("machine_configuration", {})),
            "software_configuration": dict(req.get("software_configuration", {})),
            "accessibility": Accessibility.from_dict(req.get("accessibility")).to_dict(),
            "uid": uid,
        }
        self.repository.owned(doc, user)
        if uid:
            # idempotent replay: a retry names the uid of its first
            # attempt, and a stored record is not duplicated; under a new
            # stamp the answer names the one kept (the new one is unused)
            coll = self.repository.store[_RECORDS]
            if coll.contains("uid", uid):
                held = coll.find_one({"uid": uid}, frozen=True)
                kept, unstamped = held.get("timestamp"), {"_id": 0, "timestamp": 0}
                if _encode({**held, **unstamped}) != _encode({**doc, **unstamped}):
                    message = f"uid {uid} names a stored record with other content"
                    return {"ok": False, "error": "conflict", "message": message}
                answer = {"ok": True, "uid": uid, "duplicate": True}
                if req.get("timestamp") not in (None, kept):
                    answer["timestamp"] = kept
                return answer
        ts = req.get("timestamp")
        if not uid:
            # an unnamed write (no uid, no token) is named as the router
            # names one, by its stamp: a front end's, else this node's
            # next clock tick — unique across restarts, because recovery
            # resumes the clock past every stored stamp
            ts = self.repository._now() if ts is None else ts
            uid = int(ts)
        doc["uid"] = uid
        stored = self.repository.insert_record(doc, None if ts is None else float(ts))
        if self.registry is not None:
            self.registry.notify([stored])
        return {"ok": True, "uid": uid}

    def _route_query(self, req: Mapping[str, Any]) -> dict[str, Any]:
        task = req.get("task_parameters")
        docs = self.repository.query_docs(
            req["api_key"],
            problem_name=req.get("problem_name"),
            problem_space=req.get("problem_space"),
            configuration_space=req.get("configuration_space"),
            task_parameters=None if task is None else dict(task),
            require_success=bool(req.get("require_success", True)),
            limit=req.get("limit"),
        )
        return {"ok": True, "records": _answered(docs)}

    def _route_query_sql(self, req: Mapping[str, Any]) -> dict[str, Any]:
        docs = self.repository.query_sql(req["api_key"], req["sql"])
        return {"ok": True, "records": _answered(docs)}

    def _route_problems(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {"ok": True, "problems": self.repository.problems(req["api_key"])}

    # -- registry routes ---------------------------------------------------------------
    def _registry(self) -> ModelRegistry:
        if self.registry is None:
            raise LookupError("no model registry attached to this node")
        return self.registry

    def _route_register_problem(self, req: Mapping[str, Any]) -> dict[str, Any]:
        registry = self._registry()
        self.repository.users.authenticate(req["api_key"])
        ts = req.get("timestamp")
        changed = registry.register_problem(
            req["problem_name"],
            dict(req["problem_space"]),
            uid=str(req.get("uid", "")),
            timestamp=None if ts is None else float(ts),
        )
        if ts is not None:
            self.repository.advance_clock(float(ts))
        return {
            "ok": True,
            "changed": changed,
            "space_fingerprint": space_fingerprint(req["problem_space"]),
        }

    def _route_predict(self, req: Mapping[str, Any]) -> dict[str, Any]:
        registry = self._registry()
        self.repository.users.authenticate(req["api_key"])
        out = registry.predict(
            req["problem_name"],
            dict(req["task_parameters"]),
            list(req["configurations"]),
        )
        out["ok"] = True
        return out

    def _route_model_meta(self, req: Mapping[str, Any]) -> dict[str, Any]:
        registry = self._registry()
        self.repository.users.authenticate(req["api_key"])
        out = registry.model_meta(
            req["problem_name"],
            dict(req["task_parameters"]),
            include_model=bool(req.get("include_model", False)),
        )
        out["ok"] = True
        return out

    def _route_sensitivity(self, req: Mapping[str, Any]) -> dict[str, Any]:
        registry = self._registry()
        self.repository.users.authenticate(req["api_key"])
        n_base = int(req.get("n_base", 1024))
        n_bootstrap = int(req.get("n_bootstrap", 100))
        if n_base > _SENSITIVITY_MAX_BASE:
            raise ValueError(f"n_base must be <= {_SENSITIVITY_MAX_BASE}")
        if n_bootstrap > _SENSITIVITY_MAX_BOOTSTRAP:
            raise ValueError(f"n_bootstrap must be <= {_SENSITIVITY_MAX_BOOTSTRAP}")
        seed = req.get("seed")
        out = registry.sensitivity(
            req["problem_name"],
            dict(req["task_parameters"]),
            n_base=n_base,
            n_bootstrap=n_bootstrap,
            seed=None if seed is None else int(seed),
            include_model=bool(req.get("include_model", False)),
        )
        out["ok"] = True
        return out

    # -- browse routes ------------------------------------------------------------------
    # a missing ``problem_name`` reaches ``CrowdRepository.task_summary``
    # as None and is refused there with every other non-name
    def _route_leaderboard(self, req: Mapping[str, Any]) -> dict[str, Any]:
        rows = leaderboard(self.repository, req["api_key"], req.get("problem_name"))
        return {"ok": True, "rows": [r.to_response() for r in rows]}

    def _route_contributors(self, req: Mapping[str, Any]) -> dict[str, Any]:
        stats = contributor_stats(
            self.repository, req["api_key"], req.get("problem_name")
        )
        return {"ok": True, "contributors": stats}

    # -- intra-cluster healing protocol --------------------------------------
    # These routes are the trust boundary of the replication machinery:
    # they move full record documents (owner, uid, timestamp included)
    # between replicas, so they are reachable only over the router's own
    # shard connections — the router's public dispatch does not know the
    # route names.

    def _apply_registry_doc(self, collection: str, doc: dict[str, Any]) -> bool:
        """Newest-wins upsert of a replicated registry document."""
        if self.registry is not None:
            if collection == REGISTRY_PROBLEMS:
                return self.registry.apply_problem(doc)
            return self.registry.apply_entry(doc)
        # registry-less shard: still hold the healed data so a later
        # restart with a registry (or a fetch by a peer) serves it
        match = {"problem_name": doc["problem_name"]}
        version: tuple[str, ...] = ("timestamp",)
        if collection == REGISTRY_MODELS:
            match["task_key"] = doc["task_key"]
            version = ("data_version", "timestamp")
        return upsert_newest(self.repository.store[collection], match, version, doc)

    def _route_replicate(self, req: Mapping[str, Any]) -> dict[str, Any]:
        """Store full docs verbatim: the oldest copy of a record, the
        newest version of a registry document.

        ``collection`` (default: performance records, the pre-registry
        wire format) selects what the docs are: records deduplicate by
        uid/content and keep the oldest timestamp (:func:`oldest_wins`);
        registry entries and problem docs upsert newest-wins per key.
        """
        collection = str(req.get("collection", _RECORDS))
        docs = ({k: v for k, v in dict(doc).items() if k != "_id"} for doc in req["records"])
        if collection != _RECORDS:
            if collection not in _HEALED_COLLECTIONS:
                raise ValueError(f"cannot replicate collection {collection!r}")
            applied = 0
            for doc in docs:
                applied += self._apply_registry_doc(collection, doc)
                self.repository.advance_clock(float(doc.get("timestamp", 0.0) or 0.0))
            return {"ok": True, "applied": applied}
        coll = self.repository.store[_RECORDS]
        # the batch's own copies merge first; its inserts then go in as
        # one batch (one lock acquisition, one journaled op)
        pending: list[dict[str, Any]] = []
        for doc in oldest_wins(docs).values():
            uid = int(doc.get("uid", 0) or 0)
            ts = float(doc.get("timestamp", 0.0) or 0.0)
            held = coll.find_one({"uid": uid} if uid else doc, frozen=True)
            if held is not None:
                if not uid or float(held.get("timestamp", 0.0) or 0.0) <= ts:
                    continue  # this copy or an older one is stored already
                coll.delete({"_id": held["_id"]})
            pending.append(doc)
            self.repository.advance_clock(ts)
        if pending:
            coll.insert_many(pending)
            if self.registry is not None:
                # replicated records advance data versions and (policy
                # permitting) trigger a rebuild, same as direct uploads
                self.registry.notify(pending)
        return {"ok": True, "applied": len(pending)}

    def _bucket_docs(self, keys: Iterable[str]) -> dict[str, list[Mapping[str, Any]]]:
        """The stored documents of each named bucket (one scan per
        collection the keys name)."""
        out: dict[str, list[Mapping[str, Any]]] = {str(key): [] for key in keys}
        for collection in sorted({split_bucket_key(key)[0] for key in out}):
            if collection != _RECORDS and collection not in _HEALED_COLLECTIONS:
                raise ValueError(f"collection {collection!r} is not healed")
            docs = self.repository.store[collection].find({}, frozen=True)
            for doc in docs:
                name = (collection, doc.get("problem_name", ""))
                key = self._digests.keys(name, doc.get("task_parameters"))
                if key in out:
                    out[key].append(doc)
        return out

    def _route_digest(self, req: Mapping[str, Any]) -> dict[str, Any]:
        """Per-bucket digests of this shard's healed state (anti-entropy),
        kept current as documents are stored; with ``keys``, each named
        bucket's ``[record_ident, timestamp]`` entries instead.

        Registry collections digest alongside records under composite
        bucket keys; registry entries are content-determined (same record
        set -> same bytes), so replicas that independently built the same
        entry digest equal and cost the healer nothing.
        """
        if req.get("keys") is not None:
            entries = {
                key: [[record_ident(doc), doc.get("timestamp", 0.0)] for doc in docs]
                for key, docs in self._bucket_docs(req["keys"]).items()
            }
            return {"ok": True, "entries": entries}
        return {"ok": True, "digests": self._digests.read(self.repository.store)}

    def _route_fetch(self, req: Mapping[str, Any]) -> dict[str, Any]:
        """The named documents (``idents``: bucket -> record idents) in
        full, the healing stream."""
        wanted = {
            str(key): {str(i) for i in idents} for key, idents in dict(req["idents"]).items()
        }
        buckets = {
            key: [
                {k: v for k, v in doc.items() if k != "_id"}
                for doc in docs
                if record_ident(doc) in wanted[key]
            ]
            for key, docs in self._bucket_docs(wanted).items()
        }
        return {"ok": True, "buckets": buckets}

    def _route_summary(self, req: Mapping[str, Any]) -> dict[str, Any]:
        """Per-task partial aggregates of one problem for one api key:
        what a problem-wide ``leaderboard`` / ``contributors`` needs of
        this shard, in place of the records."""
        tasks = self.repository.task_summary(req["api_key"], req.get("problem_name"))
        return {"ok": True, "tasks": tasks}

    def _route_drop_bucket(self, req: Mapping[str, Any]) -> dict[str, Any]:
        """Drop one bucket this shard no longer owns (post-handoff)."""
        key = str(req["key"])
        doomed = sorted(doc["_id"] for doc in self._bucket_docs([key])[key])
        coll = self.repository.store[split_bucket_key(key)[0]]
        dropped = coll.delete({"_id": {"$in": doomed}}) if doomed else 0
        return {"ok": True, "dropped": dropped}

    def count(self) -> int:
        return self.repository.count()

    def federate(self, records: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
        """Merge the records another deployment answered (its ``query``
        route's); the ``replicate`` response, ``applied`` the number stored.

        A uid names a write only inside the deployment that issued it:
        each issues client ids from 1, so two sites' first uploads share
        one.  A foreign record therefore merges by content — its uid is
        dropped, and a copy already held is not stored again.
        """
        docs = [{**doc, "uid": 0} for doc in records]
        return self.handle({"route": "replicate", "records": docs})

    def close(self) -> None:
        """Close the journal (idempotent).

        The store stops journaling through this node — a mutation after
        close is refused, as a write to the closed journal was — which
        also breaks the store → observer → shard reference cycle: a
        closed node nobody else holds is freed at once, not by the next
        collector pass.
        """
        if self._log is not None:
            self._log.close()
            self.repository.store.set_observer(_refuse_after_close)

    def __enter__(self) -> "CrowdShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        where = self.data_dir if self.data_dir is not None else "memory"
        return f"<CrowdShard {self.name} @ {where}, {self.count()} records>"
