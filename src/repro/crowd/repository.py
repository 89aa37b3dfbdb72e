"""The crowd node's storage layer (system S12, paper Fig. 2).

:class:`CrowdRepository` glues the document store, user registry and tag
matcher into what one :class:`~repro.service.shard.CrowdShard` stores
and reads: authenticated writes of performance-record documents and
visible reads of them, with

* tag normalization of machine/software configurations on upload,
* per-record accessibility enforcement on every read (public / private /
  group, Sec. III; :func:`_visible_mask`),
* meta-description and SQL-like query front-ends, answering stored
  documents.

Users never call it: every caller reaches the crowd through the node's
routes (:class:`~repro.crowd.api.CrowdClient` over
:class:`~repro.service.client.RemoteRepository`), and persistence is the
durable node's journal (:class:`~repro.service.wal.DurableLog`).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Mapping

import numpy as np

from ..core import perf
from .columnar import ColumnarView
from .configmatch import default_matcher
from .database import DocumentStore
from .query import SqlQuery, build_filter
from .records import Accessibility, PerformanceRecord
from .users import User, UserRegistry

__all__ = ["CrowdRepository"]

_RECORDS = "performance_records"

#: sentinel owner that matches no username, so the accessibility mask
#: evaluates pure level/group visibility and the owner==viewer grant is
#: a separate equality mask
_NOT_OWNER = object()


def _check_output(output: Any) -> None:
    """``output`` is ``None`` (a failed run) or a finite ``int`` /
    ``float``.  Anything else would be journaled and replicated like a
    result and then met by every comparison over the problem's results;
    ``NaN`` / ``inf`` are not JSON either."""
    if output is None:
        return
    ok = isinstance(output, (int, float)) and not isinstance(output, bool)
    try:
        ok = ok and math.isfinite(output)
    except OverflowError:  # an int no float holds
        ok = False
    if not ok:
        raise ValueError(f"output must be null or a finite number, got {output!r}")


def _visible_mask(
    view: ColumnarView, flt: Mapping[str, Any], user: User
) -> np.ndarray:
    """Rows that match ``flt`` and that ``user`` may read: filter AND
    (owner grant OR level/group policy).

    The policy is read only off records the filter matched and the
    owner grant does not already admit, so a malformed stored
    ``accessibility`` block fails exactly the reads that reach it
    (``ValueError`` from :class:`Accessibility`).
    """
    groups = sorted(user.groups)
    mask = view.filter_mask(flt)
    owner = view.path_eq_mask("owner", user.username)
    policy = view.path_value_mask(
        "accessibility",
        lambda v: Accessibility.from_dict(v).visible_to(
            user.username, _NOT_OWNER, groups
        ),
        within=mask & ~owner,
    )
    return mask & (owner | policy)


class CrowdRepository:
    """Authenticated store of crowd performance data."""

    def __init__(
        self, store: DocumentStore | None = None, users: UserRegistry | None = None
    ) -> None:
        self.store = store if store is not None else DocumentStore()
        self.users = users if users is not None else UserRegistry()
        self.matcher = default_matcher()
        self.store.collection(_RECORDS)
        #: the last timestamp issued or advanced to (written under the lock)
        self.clock = 0.0
        self._clock_lock = threading.Lock()

    # -- time (deterministic, monotonic) ------------------------------------
    def _now(self) -> float:
        with self._clock_lock:
            self.clock += 1.0
            return self.clock

    def advance_clock(self, to: float) -> None:
        """Fast-forward the logical clock (never backwards).

        Recovery calls this after replaying journaled records so
        post-recovery uploads keep strictly increasing timestamps.
        """
        with self._clock_lock:
            self.clock = max(self.clock, float(to))

    # -- upload ---------------------------------------------------------------
    def owned(self, doc: dict[str, Any], user: User) -> dict[str, Any]:
        """``doc`` as ``user`` stores it, in place: the result checked, the
        owner forced (uploads cannot impersonate), tags normalized."""
        _check_output(doc["output"])
        doc["owner"] = user.username
        machine = doc["machine_configuration"]
        if machine.get("machine_name"):
            canonical = self.matcher.match_machine(machine["machine_name"])
            if canonical:
                machine["machine_name"] = canonical
        normalized_sw = {}
        for package, payload in doc["software_configuration"].items():
            canonical = self.matcher.match_software(package)
            normalized_sw[canonical if canonical else package] = payload
        doc["software_configuration"] = normalized_sw
        return doc

    def insert_record(self, doc: dict[str, Any], timestamp: float | None) -> Mapping[str, Any]:
        """Stamp an :meth:`owned` document (a trusted front-end's
        ``timestamp``, else the next clock tick) and store it as JSON has
        it (:meth:`Collection.insert_canonical`); returns the stored one."""
        doc["timestamp"] = self._now() if timestamp is None else float(timestamp)
        stored = self.store[_RECORDS].insert_canonical(doc)
        if timestamp is not None:
            self.advance_clock(timestamp)
        return stored

    def upload_many(self, records: list[PerformanceRecord], api_key: str) -> list[int]:
        """Store a batch: one authentication, one lock acquisition, one
        batched journal op (one WAL line / fsync downstream).  A record
        without a uid is named by its timestamp, as a node names one."""
        user = self.users.authenticate(api_key)
        docs = [self.owned(record.to_doc(), user) for record in records]
        for doc in docs:
            doc["timestamp"] = self._now()
            doc["uid"] = doc["uid"] or int(doc["timestamp"])
        return self.store[_RECORDS].insert_many(docs)

    # -- download ----------------------------------------------------------------
    def query_docs(
        self,
        api_key: str,
        *,
        problem_name: str | None = None,
        problem_space: Mapping[str, Any] | None = None,
        configuration_space: Mapping[str, Any] | None = None,
        task_parameters: Mapping[str, Any] | None = None,
        require_success: bool = True,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """The visible stored documents of a meta-description query,
        timestamp-sorted — what the node's ``query`` route answers.

        ``task_parameters`` pins the query to one exact task (the router
        serves such a query from the shards that own the task's key).
        The documents are the store's immutable views: zero copies,
        read-only.
        """
        user = self.users.authenticate(api_key)
        flt = build_filter(
            problem_name,
            problem_space,
            configuration_space,
            task_parameters=task_parameters,
            require_success=require_success,
        )
        return self._visible_docs(flt, user, sort="timestamp", limit=limit)

    def _visible_docs(
        self,
        flt: Mapping[str, Any],
        user: User,
        *,
        sort: str | None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Filter + visibility + sort + limit in one pass: one boolean
        mask (:func:`_visible_mask`) and one stable argsort; the stored
        frozen documents."""
        with self.store[_RECORDS].columnar_snapshot() as view:
            out = view.select(
                _visible_mask(view, flt, user),
                sort=sort,
                descending=descending,
                limit=limit,
                frozen=True,
            )
        perf.incr("store_zero_copy_reads")
        return out

    def task_summary(self, api_key: str, problem_name: str) -> list[dict[str, Any]]:
        """One partial aggregate row per task of ``problem_name`` over the
        records the user may see, failures included
        (:meth:`ColumnarView.task_summary`) — what the browse views
        project and what a shard ships in place of those records."""
        if not isinstance(problem_name, str) or not problem_name:
            # build_filter reads a missing name as "every problem"
            raise ValueError("problem_name must be a non-empty string")
        user = self.users.authenticate(api_key)
        flt = build_filter(problem_name, require_success=False)
        with self.store[_RECORDS].columnar_snapshot() as view:
            return view.task_summary(_visible_mask(view, flt, user))

    def query_sql(self, api_key: str, sql: str) -> list[dict[str, Any]]:
        """SQL-like query front-end (paper Sec. II-B): the visible stored
        documents, frozen, as :meth:`query_docs` answers."""
        user = self.users.authenticate(api_key)
        q = SqlQuery.parse(sql)
        return self._visible_docs(
            q.filter, user, sort=q.order_by, descending=q.descending, limit=q.limit
        )

    # -- introspection ---------------------------------------------------------------
    def problems(self, api_key: str) -> list[str]:
        """Distinct problem names visible to the user."""
        user = self.users.authenticate(api_key)
        docs = self._visible_docs({}, user, sort=None)
        return sorted({d["problem_name"] for d in docs})

    def count(self) -> int:
        return len(self.store[_RECORDS])
