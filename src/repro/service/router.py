"""The crowd service front-end: routing, fan-out, backpressure.

:class:`CrowdRouter` serves the public routes of one
:class:`~repro.service.shard.CrowdShard`, under the same protocol, so
every client (a :class:`~repro.fabric.tuner.FabricTuner`'s uploads,
:class:`~repro.service.client.RemoteRepository`, plain dict calls) works
the same against one node or the sharded deployment.
:meth:`CrowdRouter.handle` dispatches reads and writes through one
route table, every route answering with one response, inside the node's
``(KeyError, TypeError, ValueError) -> bad_request`` clause, so a
missing or mistyped field never escapes as an exception, whichever
route trips on it.  The router keeps no read cache: every read goes to
its shards, so it sees every write acknowledged before it without any
invalidation.  Each replica policy is written once and named; behind
the protocol the router:

* **routes writes** to the ``(problem_name, task)`` key's preference
  list on the consistent-hash ring — K-way replication, every replica
  stamped with the same ``uid`` and logical timestamp so cross-shard
  reads deduplicate exactly (``_stamped_write``: ``upload`` to the key's
  replicas, ``register_problem`` to every shard).  An upload's uid is
  the one its client's token names, so a retry lands on the record it
  retries whatever came between; an untokened write's is a tick of the
  write clock, the router's only write state.  The router acknowledges
  only after ``write_quorum`` replicas confirm and
  reports ``replicas_acked``/``replicas_total`` (plus a ``degraded``
  status) in every upload response; a replica that missed the write is
  healed by anti-entropy, at the latest when its transport comes back
  up;
* **serves task-pinned reads** — ``query`` with a task, ``predict``,
  ``model_meta``, ``sensitivity`` — from the primary with fallback
  through the replicas when shards are unreachable
  (``_first_reachable``); with ``read_quorum`` > 1 a pinned ``query``
  reads R replicas, merges them with
  :func:`~repro.service.shard.newest_wins` (the one newest-wins rule:
  per ``record_ident``, the greater timestamp), and **read-repairs**
  stale replicas by streaming them the records they miss;
* **heals by delta anti-entropy**, the one repair path —
  :meth:`CrowdRouter.anti_entropy_round` compares per-bucket digests
  and ships each replica only the documents it lacks; a revived shard
  runs it over its own buckets, an optional interval thread runs full
  rounds continuously;
* **resizes the cluster** — :meth:`CrowdRouter.add_shard` /
  :meth:`CrowdRouter.remove_shard` rebuild the consistent-hash ring and
  stream each rekeyed bucket to its new owners before dropping the old
  copies (graceful handoff; a crashed shard is simply removed and
  anti-entropy restores the replication factor from the survivors);
* **fans out** problem-wide reads across all shards in parallel and
  merges (``_collect``: unreachable shards skipped, a refusal is every
  shard's verdict, nobody reachable is ``unavailable``):

  ================================ ======================= ==========================
  public read                      each shard is asked     the router merges
  ================================ ======================= ==========================
  ``query`` (no task),             the same request        records, deduplicated by
  ``query_sql``                                            ``uid`` newest-wins;
                                                           order and limit re-applied
  ``problems``                     the same request        union
  ``leaderboard``,                 ``summary`` (shard-     one partial row per task,
  ``contributors``                 level): one partial     taken when the holders'
                                   aggregate row per task  witnesses agree; a task
                                                           that diverges is re-read
                                                           as documents
                                                           (``_problem_summary``)
  ================================ ======================= ==========================

  A problem-wide read ships what it answers, not what it scanned;
* **backpressures** per API key with a token bucket: over-rate requests
  get ``{"ok": false, "error": "throttled", "retry_after": ...}``
  instead of service time (clients retry after the hint).

With the default ``(write_quorum=1, read_quorum=1, anti-entropy off)``
an upload is acknowledged once one replica stores it (the others are
written in the same call), a pinned read answers from the first
reachable replica in preference order, and only a revived shard heals
(its own buckets).  Upload responses carry ``replicas_acked`` /
``replicas_total`` / ``status`` whatever the quorum.

Perf wiring: counters ``service_requests``, ``service_throttled``,
``service_fanouts``, ``service_replica_fallbacks``,
``service_underreplicated_writes``, ``service_quorum_failures``,
``service_read_repairs``, ``service_antientropy_rounds`` /
``_records_shipped`` / ``_records_healed`` / ``_errors``,
``service_summary_divergent_tasks`` (tasks an aggregate re-read as
documents).  State is read where it lives, not mirrored into gauges:
each node's :meth:`~repro.service.shard.CrowdShard.count`, and the
router's ``last_antientropy_error``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any, Callable

from ..core import perf
from ..core.problem import task_key
from ..crowd.columnar import ColumnarView, get_path, sort_key
from ..crowd.query import SqlQuery
from ..crowd.views import summary_contributors, summary_leaderboard
from ..registry import REGISTRY_PROBLEMS
from .client import RetryPolicy, ServiceClient
from .shard import (
    CLIENT_IDS, ShardRing, bad_request, newest_wins, record_ident, shard_key,
    split_bucket_key, token_uid,
)

__all__ = ["CrowdRouter", "RouterOptions"]

#: a request sent once: a shard that does not answer a digest request
#: waits for the next round, one that misses a client id does without
_ONCE = RetryPolicy(max_retries=0)
#: what a client may not set on a write the router stamps
_STAMP_FIELDS = ("uid", "timestamp", "idempotency_key")


def _unavailable(message: str, **extra: Any) -> dict[str, Any]:
    """The one shape of "no replica could be reached"."""
    return {"ok": False, "error": "unavailable", "message": message, **extra}


def _limited(docs: list[dict], limit: Any) -> list[dict]:
    return docs if limit is None else docs[: max(int(limit), 0)]


@dataclass
class RouterOptions:
    """Front-end knobs (defaults match a small trusted deployment)."""

    #: copies of every record, including the primary (1 = no replication)
    replication: int = 2
    #: sustained requests/second allowed per API key (None = unlimited)
    rate_limit: float | None = None
    #: burst capacity of each key's token bucket
    burst: int = 20
    #: replicas that must ack before an upload is acknowledged (W);
    #: 1 = acknowledged once any one replica stores it
    write_quorum: int = 1
    #: replicas consulted by a task-pinned read (R); 1 = the primary,
    #: falling back through the replicas, >1 adds newest-wins merge +
    #: read-repair
    read_quorum: int = 1
    #: seconds between background anti-entropy rounds (None = no thread;
    #: rounds can always be driven manually via ``anti_entropy_round``)
    anti_entropy_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive (None = unlimited)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if not 1 <= self.write_quorum <= self.replication:
            raise ValueError("write_quorum must be in [1, replication]")
        if not 1 <= self.read_quorum <= self.replication:
            raise ValueError("read_quorum must be in [1, replication]")
        if self.anti_entropy_interval_s is not None and (
            self.anti_entropy_interval_s <= 0
        ):
            raise ValueError("anti_entropy_interval_s must be positive")


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity,
    starting full at ``now``."""

    def __init__(self, rate: float, burst: int, now: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = self.burst
        self._last = now

    def full(self, now: float) -> bool:
        """Whether the bucket has refilled to ``burst`` by ``now`` — it
        then behaves exactly like a new one."""
        return self._tokens + (now - self._last) * self.rate >= self.burst

    def acquire(self, now: float) -> float:
        """Take one token; returns 0.0, or seconds until one is available."""
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


class CrowdRouter:
    """Protocol-compatible front-end over N crowd shards."""

    def __init__(
        self,
        shards: Mapping[str, Any],
        options: RouterOptions | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        write_clock: float = 0.0,
        client_ids: int = 0,
    ) -> None:
        """``shards`` maps shard name to its channel: a
        :class:`SimTransport`, a :class:`ServiceClient`, or anything with
        ``handle()`` (e.g. a bare :class:`CrowdShard`).

        ``write_clock`` is the last timestamp issued and ``client_ids``
        the last client id: a router fronting recovered shards starts at
        the greatest of the shards' clocks and journaled ids, or new
        writes would be older than, and untokened ones share uids with,
        what the shards hold, and new clients would name old clients'
        records.
        """
        if not shards:
            raise ValueError("router needs at least one shard")
        self.options = options if options is not None else RouterOptions()
        self._clock = clock
        self._shards: dict[str, ServiceClient] = {
            name: self._connect(channel) for name, channel in shards.items()
        }
        self.ring = ShardRing(list(self._shards))
        self._admin = next(iter(self._shards))
        self._buckets: dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        #: when the last bucket sweep may run again, and what it kept
        self._sweep_due = float("-inf")
        self._swept_kept = 0
        self._clock_lock = threading.Lock()
        self._write_clock = float(write_clock)
        self._client_ids = int(client_ids)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._membership_lock = threading.Lock()
        self._ae_stop: threading.Event | None = None
        self._ae_thread: threading.Thread | None = None
        #: ``repr`` of what the last failed background round raised
        self.last_antientropy_error: str | None = None
        #: the route table: account routes are the admin shard's, the
        #: registry reads are pinned to the task's preference list like a
        #: pinned query
        self._routes: dict[str, Callable[..., dict[str, Any]]] = {
            "register": self._route_account,
            "issue_key": self._route_account,
            "whoami": self._route_account,
            "client_id": self._route_client_id,
            "upload": self._route_upload,
            "register_problem": self._route_register_problem,
            "query": self._route_query,
            "query_sql": self._route_query_sql,
            "problems": self._merge_problems,
            "leaderboard": self._route_leaderboard,
            "contributors": self._route_contributors,
            "predict": self._route_pinned_registry,
            "model_meta": self._route_pinned_registry,
            "sensitivity": self._route_pinned_registry,
        }
        if self.options.anti_entropy_interval_s is not None:
            self.start_anti_entropy(self.options.anti_entropy_interval_s)

    # -- plumbing ------------------------------------------------------------
    def _connect(self, channel: Any) -> ServiceClient:
        if isinstance(channel, ServiceClient):
            return channel
        return ServiceClient(channel)

    def _fanout(
        self, request: Mapping[str, Any], retry: RetryPolicy | None = None
    ) -> dict[str, dict[str, Any]]:
        """Send ``request`` to every shard in parallel (under ``retry``,
        else each connection's policy); name -> response."""
        perf.incr("service_fanouts")
        names = list(self._shards)
        if len(names) == 1:
            return {names[0]: self._shards[names[0]].handle(request, retry=retry)}
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=len(names), thread_name_prefix="crowd-fanout"
                )
            pool = self._pool
        futures = {
            n: pool.submit(self._shards[n].handle, request, retry=retry) for n in names
        }
        return {n: f.result() for n, f in futures.items()}

    def _throttle(self, api_key: str) -> dict[str, Any] | None:
        if self.options.rate_limit is None:
            return None
        with self._buckets_lock:
            now = self._clock()
            bucket = self._buckets.get(api_key)
            if bucket is None:
                self._sweep_buckets(now)
                bucket = self._buckets[api_key] = TokenBucket(
                    self.options.rate_limit, self.options.burst, now
                )
            wait = bucket.acquire(now)
        if wait <= 0.0:
            return None
        perf.incr("service_throttled")
        return {
            "ok": False,
            "error": "throttled",
            "message": "rate limit exceeded",
            "retry_after": round(wait, 6),
        }

    def _sweep_buckets(self, now: float) -> None:
        """Drop the buckets that have refilled (caller holds the lock).

        Keys are not authenticated before they are throttled, so made-up
        keys would otherwise grow the dict forever.  Every bucket idle
        for ``burst / rate`` seconds is full, so a sweep runs at most
        once per that time, and only once the dict has doubled since
        the last one: the buckets added since pay for it.
        """
        if now < self._sweep_due or len(self._buckets) < 2 * self._swept_kept:
            return
        self._buckets = {k: b for k, b in self._buckets.items() if not b.full(now)}
        self._swept_kept = len(self._buckets)
        self._sweep_due = now + self.options.burst / self.options.rate_limit

    def close(self) -> None:
        """Stop background healing and the fan-out pool (idempotent)."""
        self.stop_anti_entropy()
        self._shutdown_pool()

    def __enter__(self) -> "CrowdRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _shutdown_pool(self) -> None:
        """Drop the fan-out pool (closing, or membership changed its sizing)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # -- dispatch ------------------------------------------------------------
    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Process one request dict; never raises (protocol contract)."""
        if not isinstance(request, Mapping):
            return bad_request("request must be an object")
        perf.incr("service_requests")
        try:
            route = request.get("route")
            throttled = self._throttle(str(request.get("api_key", "")))
            if throttled is not None:
                return throttled
            handler = self._routes.get(route)
            if handler is None:
                return {
                    "ok": False,
                    "error": "not_found",
                    "message": f"unknown route {route!r}",
                }
            return handler(request)
        # a missing or mistyped request field, wherever a route trips on it
        except (KeyError, TypeError, ValueError) as exc:
            return bad_request(str(exc))

    # -- replica policies ------------------------------------------------------
    def _task_prefs(self, request: Mapping[str, Any]) -> list[str]:
        """The preference list of the request's ``(problem, task)`` key."""
        key = shard_key(request["problem_name"], dict(request["task_parameters"]))
        return self.ring.preference(key, self.options.replication)

    def _first_reachable(self, prefs: list[str], request: Mapping[str, Any]) -> dict[str, Any]:
        """The answer of the first reachable replica, in preference order."""
        for i, name in enumerate(prefs):
            response = self._shards[name].handle(request)
            if response.get("error") == "unavailable":
                continue
            if i > 0:
                perf.incr("service_replica_fallbacks")
            return response
        return _unavailable(f"all replicas of {prefs} are unreachable")

    def _collect(
        self, request: Mapping[str, Any], field: str
    ) -> tuple[list, dict[str, Any] | None]:
        """Fan out and concatenate the reachable shards' ``field`` lists
        (in shard-name order); returns ``(items, error)``.

        Unreachable shards are skipped; a shard that answers but refuses
        (auth / bad_request) gives the uniform verdict every shard would,
        so its response is the error; no shard reachable is an error too.
        """
        responses = self._fanout(request)
        items: list = []
        reachable = 0
        for _, response in sorted(responses.items()):
            if response.get("error") == "unavailable":
                continue
            if not response.get("ok"):
                return [], response
            reachable += 1
            items.extend(response.get(field, []))
        if reachable == 0:
            return [], _unavailable("no shard reachable")
        return items, None

    def _stamped_write(
        self, request: Mapping[str, Any], targets: list[str]
    ) -> tuple[int, list[dict[str, Any]], dict[str, Any] | None]:
        """One logical write under one stamp, to every target.

        Returns ``(uid, oks, rejected)``: the ok responses in target
        order and a refusal (auth / bad_request — the same on every
        shard, so the loop stops at the first).  A target that could not
        be reached takes the write from a peer by anti-entropy.

        The stamp is the write clock's next tick, and the uid the one the
        request's token names (:func:`token_uid`) or else that tick.
        """
        uid = token_uid(request.get("idempotency_key"))
        with self._clock_lock:
            self._write_clock += 1.0
            ts = self._write_clock
        uid = uid or int(ts)
        stamped = {k: v for k, v in request.items() if k not in _STAMP_FIELDS}
        stamped["uid"] = uid
        stamped["timestamp"] = ts
        oks: list[dict[str, Any]] = []
        for name in targets:
            response = self._shards[name].handle(stamped)
            if response.get("ok"):
                oks.append(response)
            elif response.get("error") != "unavailable":
                return uid, oks, response
        if len(oks) == len(targets) and all("timestamp" in r for r in oks):
            # a retry every replica kept under its first stamp stored its
            # tick nowhere: take it back unless a later one was issued
            with self._clock_lock:
                if self._write_clock == ts:
                    self._write_clock -= 1.0
        return uid, oks, None

    # -- writes --------------------------------------------------------------
    def _route_account(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Accounts are not sharded: the admin shard serves them."""
        return self._shards[self._admin].handle(request)

    def _route_client_id(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Issue the next client id and journal it on every shard, each
        asked once: any shard's outage or removal leaves the count with
        the others, and a router starts from the greatest.  Once the ids
        a token can name run out, the answer is a refusal, and the
        client's uploads go untokened."""
        with self._clock_lock:
            if self._client_ids + 1 >= CLIENT_IDS:
                return _unavailable(f"all {CLIENT_IDS - 1} client ids are issued")
            self._client_ids += 1
            client_id = self._client_ids
        responses = self._fanout({**request, "client_id": client_id}, retry=_ONCE)
        if any(r.get("ok") for r in responses.values()):
            return {"ok": True, "client_id": client_id}
        # journaled nowhere: take the id back unless a later one was issued
        with self._clock_lock:
            if self._client_ids == client_id:
                self._client_ids -= 1
        refused = [r for r in responses.values() if r.get("error") != "unavailable"]
        return refused[0] if refused else _unavailable("no shard journaled the client id")

    def _route_upload(self, request: Mapping[str, Any]) -> dict[str, Any]:
        prefs = self._task_prefs(request)
        quorum = min(self.options.write_quorum, len(prefs))
        uid, oks, rejected = self._stamped_write(request, prefs)
        if rejected is not None:
            return rejected
        acked = len(oks)
        counts = {"replicas_acked": acked, "replicas_total": len(prefs)}
        if acked == 0:
            return _unavailable(f"no replica of {prefs} accepted the write", **counts)
        if acked < len(prefs):
            perf.incr("service_underreplicated_writes")
        if acked < quorum:
            # quorum missed: never report a half-lost write as success —
            # the client may safely retry (its token names the same uid,
            # and the shards dedup by uid) or treat it as failed
            perf.incr("service_quorum_failures")
            return {
                "ok": False,
                "error": "quorum",
                "message": (
                    f"write {uid} acknowledged by {acked}/{len(prefs)} replicas "
                    f"(quorum {quorum})"
                ),
                "uid": uid,
                "status": "degraded",
                **counts,
            }
        status = "degraded" if acked < len(prefs) else "ok"
        return {"ok": True, "uid": uid, "status": status, **counts}

    def _route_register_problem(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Broadcast a problem-space registration to every shard.

        Each shard needs the space document to build and serve its own
        keys, so the write is stamped (uid + timestamp, newest-wins on
        the shards) and sent everywhere; unreachable shards converge by
        anti-entropy when they rejoin.
        """
        if not request.get("problem_name"):
            return bad_request("register_problem needs a problem_name")
        uid, oks, rejected = self._stamped_write(
            request, sorted(self._shards)
        )
        if rejected is not None:
            return rejected
        if not oks:
            return _unavailable("no shard accepted the problem registration")
        return {
            **oks[0],
            "ok": True,
            "uid": uid,
            "replicas_acked": len(oks),
            "replicas_total": len(self._shards),
            "status": "degraded" if len(oks) < len(self._shards) else "ok",
        }

    # -- reads ---------------------------------------------------------------
    def _route_pinned_registry(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Serve a registry read from the task key's preference list.

        Same placement as a task-pinned query: the primary owns the
        records the entry was fit on, replicas hold healed copies.
        """
        if request.get("task_parameters") is None or not request.get("problem_name"):
            return bad_request("registry reads need problem_name and task_parameters")
        return self._first_reachable(self._task_prefs(request), request)

    def _route_query(self, request: Mapping[str, Any]) -> dict[str, Any]:
        if request.get("task_parameters") is not None and request.get("problem_name"):
            # task-pinned: the single owning shard has every record of
            # the key; fall back through the replicas when shards die
            prefs = self._task_prefs(request)
            if min(self.options.read_quorum, len(prefs)) > 1:
                return self._quorum_pinned_read(request, prefs)
            return self._first_reachable(prefs, request)
        docs, error = self._gather_records(request)
        if error is not None:
            return error
        docs.sort(key=lambda d: sort_key(d.get("timestamp")))
        return {"ok": True, "records": _limited(docs, request.get("limit"))}

    def _quorum_pinned_read(
        self, request: Mapping[str, Any], prefs: list[str]
    ) -> dict[str, Any]:
        """Read R replicas, merge newest-wins, write repairs back.

        Visibility and ``require_success`` filtering are identical on
        every replica (record-level data travels with the doc), so a
        record returned by one replica but not another really is missing
        or stale there — except under ``limit``, where truncation makes
        the comparison unsound, so repairs are skipped.
        """
        quorum = min(self.options.read_quorum, len(prefs))
        #: replica name -> the records it returned
        consulted: dict[str, list[dict[str, Any]]] = {}
        skipped = 0
        for name in prefs:
            if len(consulted) == quorum:
                break
            response = self._shards[name].handle(request)
            if response.get("error") == "unavailable":
                skipped += 1
                continue
            if not response.get("ok"):
                return response
            consulted[name] = response.get("records", [])
        if not consulted:
            return _unavailable(f"all replicas of {prefs} are unreachable")
        if skipped:
            perf.incr("service_replica_fallbacks")
        merged = newest_wins(doc for docs in consulted.values() for doc in docs)
        limit = request.get("limit")
        if limit is None and len(consulted) > 1:
            for name, docs in consulted.items():
                # the merged copy carries the newest timestamp, so a
                # replica is stale exactly where it holds another one
                held = {(record_ident(d), d.get("timestamp")) for d in docs}
                stale = [
                    doc
                    for ident, doc in merged.items()
                    if (ident, doc.get("timestamp")) not in held
                ]
                if not stale:
                    continue
                fix = self._shards[name].handle(
                    {"route": "replicate", "records": stale}
                )
                if fix.get("ok") and fix.get("applied", 0):
                    perf.incr("service_read_repairs", int(fix["applied"]))
        docs = sorted(merged.values(), key=lambda d: sort_key(d.get("timestamp")))
        return {"ok": True, "records": _limited(docs, limit)}

    def _route_query_sql(self, request: Mapping[str, Any]) -> dict[str, Any]:
        q = SqlQuery.parse(request.get("sql", ""))
        docs, error = self._gather_records(request)
        if error is not None:
            return error
        if q.order_by is not None:
            docs.sort(
                key=lambda d: sort_key(get_path(d, q.order_by)),
                reverse=q.descending,
            )
        return {"ok": True, "records": _limited(docs, q.limit)}

    def _gather_records(
        self, request: Mapping[str, Any]
    ) -> tuple[list[dict], dict[str, Any] | None]:
        """Fan out a record-returning request; dedup replicas by uid.

        Divergent replicas (a stale node that rejoined before healing)
        may return different versions under one uid — the merge keeps
        the newest timestamp, matching read-repair's newest-wins rule.
        """
        docs, error = self._collect(request, "records")
        return list(newest_wins(docs).values()), error

    def _merge_problems(self, request: Mapping[str, Any]) -> dict[str, Any]:
        names, error = self._collect(request, "problems")
        return error or {"ok": True, "problems": sorted(set(names))}

    def _problem_summary(
        self, request: Mapping[str, Any]
    ) -> tuple[list[dict[str, Any]], dict[str, Any] | None]:
        """One partial aggregate row per task of a problem, merged from
        the shards' ``summary`` answers; ``(rows, error)``.

        Replicas are byte-identical per ``(uid, timestamp)``, so holders
        that report one witness for a task hold one record set and the
        first partial (shard-name order) is the task's.  A task whose
        holders disagree — a stale replica before healing, a copy left
        behind by a handoff — or that holds unstamped records (no
        witness) is re-read as documents, deduplicated newest-wins like
        any fanned-out query, and reduced by the same
        :meth:`ColumnarView.task_summary`: the union, at the cost of the
        tasks that diverge.
        """
        base = {
            "api_key": request.get("api_key"),
            "problem_name": request.get("problem_name"),
        }
        partials, error = self._collect({"route": "summary", **base}, "tasks")
        if error is not None:
            return [], error
        held: dict[tuple, list[dict[str, Any]]] = {}
        for partial in partials:
            held.setdefault(task_key(partial["task_parameters"] or {}), []).append(partial)
        merged: list[dict[str, Any]] = []
        for key, copies in held.items():
            witness = copies[0]["witness"]
            if witness is not None and all(c["witness"] == witness for c in copies):
                merged.append(copies[0])
                continue
            perf.incr("service_summary_divergent_tasks")
            # the pinned filter matches per parameter under ``==``, which
            # is wider than the task (1 == 1.0, extra parameters)
            docs, error = self._gather_records(
                {
                    "route": "query",
                    **base,
                    "task_parameters": dict(copies[0]["task_parameters"] or {}),
                    "require_success": False,
                }
            )
            if error is not None:
                return [], error
            view = ColumnarView(
                {
                    i: doc
                    for i, doc in enumerate(docs)
                    if task_key(doc.get("task_parameters") or {}) == key
                }
            )
            view.ensure_clean()
            merged.extend(view.task_summary(view.filter_mask({})))
        return merged, None

    def _route_leaderboard(self, request: Mapping[str, Any]) -> dict[str, Any]:
        summary, error = self._problem_summary(request)
        if error is not None:
            return error
        rows = summary_leaderboard(summary)
        return {"ok": True, "rows": [r.to_response() for r in rows]}

    def _route_contributors(self, request: Mapping[str, Any]) -> dict[str, Any]:
        summary, error = self._problem_summary(request)
        if error is not None:
            return error
        return {"ok": True, "contributors": summary_contributors(summary)}

    # -- anti-entropy --------------------------------------------------------
    def anti_entropy_round(
        self, shard: str | None = None, *, cleanup: bool = False
    ) -> dict[str, Any]:
        """One digest-exchange round across the cluster.

        Each reachable shard reports the digest it keeps per bucket, so
        a consistent cluster costs digests only, and a bucket whose
        reachable copies agree ships nothing, even while a replica of it
        is down; the others are repaired document by document
        (:meth:`_repair`).  ``shard`` limits the round to that shard's
        buckets, problem buckets included: what a revived shard runs
        (:meth:`SimTransport.on_up`).  With ``cleanup`` (shard handoff),
        a copy outside a bucket's preference list is repaired too while
        every listed replica is reachable, then dropped once it agrees
        with them, so no copy goes before the ring's owners have it.
        """
        digests: dict[str, dict[str, str]] = {}
        for name in sorted(self._shards):
            response = self._shards[name].handle({"route": "digest"}, retry=_ONCE)
            if response.get("ok"):
                digests[name] = response["digests"]
        #: bucket -> (the shards to repair, the shards holding it)
        diverged: dict[str, tuple[list[str], list[str]]] = {}
        dropped = 0
        all_keys = sorted({key for d in digests.values() for key in d})
        for key in all_keys:
            collection, ring_key = split_bucket_key(key)
            if collection == REGISTRY_PROBLEMS:
                # problem-space docs are broadcast state: every shard is
                # a replica, so healing converges them cluster-wide
                prefs = sorted(self._shards)
            else:
                prefs = self.ring.preference(ring_key, self.options.replication)
            if shard is not None and shard not in prefs:
                continue
            holders = [n for n in digests if key in digests[n]]
            reachable = [n for n in prefs if n in digests]
            extras = [n for n in holders if n not in prefs]
            if not (cleanup and len(reachable) == len(prefs)):
                extras = []  # kept: no copy leaves before every owner has it
            if len({digests[n].get(key) for n in reachable + holders}) == 1:
                dropped += self._drop_bucket(key, extras)
            elif reachable:
                diverged[key] = (reachable + extras, holders)
        healed = self._repair(diverged)
        perf.incr("service_antientropy_rounds")
        if healed:
            perf.incr("service_antientropy_records_healed", healed)
        return {
            "healed": healed,
            "dropped": dropped,
            "buckets": len(all_keys),
            "reachable": sorted(digests),
        }

    def _repair(self, diverged: Mapping[str, tuple[list[str], list[str]]]) -> int:
        """Send each target of a diverged bucket exactly the documents it
        lacks or holds older; returns how many the targets applied.

        The holders list their ``[record_ident, timestamp]`` entries;
        per entry the newest wins (:func:`newest_wins`), one ``fetch``
        per holder pulls what the targets need from it and one
        ``replicate`` per target and collection ships it (counter
        ``service_antientropy_records_shipped``).  Registry entries and
        problem docs have one identity per version, so a target may get
        a version older than its own: its newest-wins upsert skips it.
        """
        held: dict[str, dict[str, dict[str, Any]]] = {}  # holder -> bucket -> ident -> ts
        for name in sorted({n for _, holders in diverged.values() for n in holders}):
            keys = [key for key, (_, holders) in diverged.items() if name in holders]
            response = self._shards[name].handle(
                {"route": "digest", "keys": keys}, retry=_ONCE
            )
            if response.get("ok"):
                held[name] = {k: dict(entries) for k, entries in response["entries"].items()}
        pull: dict[str, dict[str, list[str]]] = {}  # holder -> bucket -> idents
        owed: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
        for key, (targets, holders) in diverged.items():
            newest: dict[str, tuple[Any, str]] = {}
            for name in holders:
                for ident, ts in held.get(name, {}).get(key, {}).items():
                    if ident not in newest or sort_key(ts) > sort_key(newest[ident][0]):
                        newest[ident] = (ts, name)
            for name in targets:
                if name in holders and name not in held:
                    continue  # its entries did not arrive: the next round
                mine = held.get(name, {}).get(key, {})
                for ident, (ts, source) in newest.items():
                    if ident not in mine or sort_key(mine[ident]) < sort_key(ts):
                        pull.setdefault(source, {}).setdefault(key, []).append(ident)
                        owed.setdefault((name, split_bucket_key(key)[0]), []).append(
                            (source, key, ident)
                        )
        fetched: dict[tuple[str, str, str], dict[str, Any]] = {}
        for source, idents in sorted(pull.items()):
            response = self._shards[source].handle({"route": "fetch", "idents": idents})
            for key, docs in response.get("buckets", {}).items():
                fetched.update(((source, key, record_ident(d)), d) for d in docs)
        healed = 0
        for (name, collection), items in sorted(owed.items()):
            docs = sorted(
                (fetched[item] for item in items if item in fetched),
                key=lambda d: (sort_key(d.get("timestamp")), record_ident(d)),
            )
            if docs:
                perf.incr("service_antientropy_records_shipped", len(docs))
                response = self._shards[name].handle(
                    {"route": "replicate", "records": docs, "collection": collection}
                )
                healed += int(response.get("applied", 0))
        return healed

    def _drop_bucket(self, key: str, names: list[str]) -> int:
        """Drop bucket ``key`` on each named shard (handoff cleanup);
        returns the documents dropped."""
        dropped = 0
        for name in names:
            response = self._shards[name].handle({"route": "drop_bucket", "key": key})
            if response.get("ok") and response.get("dropped", 0):
                dropped += int(response["dropped"])
        return dropped

    def start_anti_entropy(self, interval_s: float) -> None:
        """Run :meth:`anti_entropy_round` every ``interval_s`` seconds."""
        if self._ae_thread is not None:
            return
        stop = threading.Event()

        def _loop() -> None:
            while not stop.wait(interval_s):
                try:
                    self.anti_entropy_round()
                except Exception as exc:  # never kill the daemon on one bad round
                    self.last_antientropy_error = repr(exc)
                    perf.incr("service_antientropy_errors")

        self._ae_stop = stop
        self._ae_thread = threading.Thread(
            target=_loop, name="crowd-antientropy", daemon=True
        )
        self._ae_thread.start()

    def stop_anti_entropy(self) -> None:
        if self._ae_thread is None:
            return
        assert self._ae_stop is not None
        self._ae_stop.set()
        self._ae_thread.join()
        self._ae_thread = None
        self._ae_stop = None

    # -- membership ----------------------------------------------------------
    def add_shard(self, name: str, channel: Any, *, rebalance: bool = True) -> dict:
        """Join a shard: rebuild the ring and stream its buckets to it.

        With ``rebalance`` (the default) the join blocks until handoff
        converges: every bucket the new shard now owns has been streamed
        in and copies on shards that lost ownership are dropped.
        """
        with self._membership_lock:
            if name in self._shards:
                raise ValueError(f"shard {name!r} already in the cluster")
            self._shards[name] = self._connect(channel)
            self.ring = ShardRing(list(self._shards))
            self._shutdown_pool()
            return self.rebalance() if rebalance else {}

    def remove_shard(self, name: str, *, graceful: bool = True) -> dict:
        """Leave: stream the shard's buckets out first when graceful.

        Graceful removal recomputes the ring without the shard while it
        is still connected, then runs handoff rounds — its buckets are
        fetched from it and replicated to the new owners before it is
        disconnected.  Non-graceful removal (a crashed node) skips the
        streaming; the surviving replicas restore the replication factor
        on the next anti-entropy round.
        """
        with self._membership_lock:
            if name not in self._shards:
                raise KeyError(f"unknown shard {name!r}")
            if len(self._shards) == 1:
                raise ValueError("cannot remove the last shard")
            survivors = [n for n in self._shards if n != name]
            self.ring = ShardRing(survivors)
            stats = self.rebalance() if graceful else {}
            del self._shards[name]
            if self._admin == name:
                self._admin = next(iter(self._shards))
            self._shutdown_pool()
            return stats

    def rebalance(self, max_rounds: int = 5) -> dict:
        """Anti-entropy with cleanup until the placement is quiescent."""
        totals = {"healed": 0, "dropped": 0, "rounds": 0}
        for _ in range(max_rounds):
            stats = self.anti_entropy_round(cleanup=True)
            totals["healed"] += stats["healed"]
            totals["dropped"] += stats["dropped"]
            totals["rounds"] += 1
            if stats["healed"] == 0 and stats["dropped"] == 0:
                break
        return totals

    def routes(self) -> list[str]:
        return sorted(self._routes)
