"""Durable on-disk job queue for the tuning fabric.

One queue directory holds the full lifecycle of a tuning run's
evaluation jobs in one file, ``queue.wal.jsonl`` — an append-only
journal, one JSON op per line, compacted in place to one ``job`` line
per job.  It belongs to a :class:`~repro.service.wal.DurableLog` — the
same primitive, and the same journal-then-ack contract, as the crowd
shards.  What is the queue's own:

* ``enqueue`` and ``complete`` are journaled *before* they return — an
  acknowledged completion survives any coordinator crash;
* leases are **soft state**: they are never journaled, so recovery puts
  every un-completed job back to *pending* (the evaluation it may have
  been running was never acknowledged, re-running it is correct);
* ``redispatch`` ops are journaled so attempt counts survive recovery
  and a recovered queue keeps issuing fresh lease tokens;
* compactions follow the log's checkpoint rule (the dead bytes are the
  redispatches) and run under the queue lock, so the job lines hold
  exactly the ops journaled before them (a replayed ``redispatch`` would
  count twice over a job line that already held it).

Exactly-once completion reuses the idempotency-token pattern of the
replicated service (PR 6): every lease carries a token
``"<job_id>.<attempt>"``, a completion is applied only once per job, a
re-delivery of the *same* token is an acknowledged no-op, and a
completion under a superseded token (a straggler finishing after its
lease expired and the job was re-dispatched) is rejected and counted
(``fabric_duplicate_completions``) — the job is never *applied* twice.

Without ``data_dir`` the queue is memory-only (unit tests, throwaway
runs) with identical semantics minus persistence.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core import perf
from ..service.wal import DurableLog

__all__ = ["DurableJobQueue", "JobState"]

_WAL_NAME = "queue.wal.jsonl"


def _dead_bytes(op: Mapping[str, Any]) -> int:
    """A ``redispatch`` line is dead as it is written (the job's line
    counts attempts either way); its bytes, ``\\n`` included."""
    return len(json.dumps(op, sort_keys=True)) + 1 if op["op"] == "redispatch" else 0


class JobState:
    """Lifecycle states of a fabric job."""

    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"


@dataclass
class FabricJob:
    """One evaluation job and its (partly volatile) scheduling state."""

    job_id: int
    config: dict[str, Any]
    attempt: int = 0
    state: str = JobState.PENDING
    #: completion token of the applied completion (once DONE)
    token: str | None = None
    #: completion payload (evaluation dict + worker bookkeeping)
    result: dict[str, Any] | None = None
    #: times the job was re-dispatched after a lost or expired lease
    redispatches: int = 0
    # -- volatile lease state (never persisted) --
    worker: int | None = field(default=None, compare=False)
    lease_expires: float = field(default=0.0, compare=False)

    @property
    def lease_token(self) -> str:
        """The idempotency token of the *current* attempt's lease."""
        return f"{self.job_id}.{self.attempt}"

    def to_doc(self) -> dict[str, Any]:
        """Persistent form: volatile lease state collapses to pending."""
        return {
            "job_id": self.job_id,
            "config": dict(self.config),
            "attempt": self.attempt,
            "state": JobState.DONE if self.state == JobState.DONE else JobState.PENDING,
            "token": self.token,
            "result": self.result,
            "redispatches": self.redispatches,
        }

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "FabricJob":
        return FabricJob(
            job_id=int(doc["job_id"]),
            config=dict(doc["config"]),
            attempt=int(doc.get("attempt", 0)),
            state=str(doc.get("state", JobState.PENDING)),
            token=doc.get("token"),
            result=doc.get("result"),
            redispatches=int(doc.get("redispatches", 0)),
        )


class DurableJobQueue:
    """Crash-recoverable evaluation-job queue with exactly-once completion.

    Parameters
    ----------
    data_dir:
        Directory for the journal; ``None`` keeps the queue in memory
        only.
    snapshot_every:
        Fewest journaled ops between automatic compactions; past that
        floor one runs once dead journal bytes reach the live ones.
    fsync_every:
        Passed through to the WAL — 1 (default) syncs every op.
    """

    def __init__(
        self,
        data_dir: str | Path | None = None,
        *,
        snapshot_every: int = 512,
        fsync_every: int = 1,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.snapshot_every = int(snapshot_every)
        self._lock = threading.Lock()
        self._jobs: dict[int, FabricJob] = {}
        self._pending: deque[int] = deque()
        self._next_job_id = 0
        self._log: DurableLog | None = None
        if self.data_dir is not None:
            self._log = DurableLog(
                self.data_dir,
                _WAL_NAME,
                snapshot_every=self.snapshot_every,
                fsync_every=fsync_every,
            )
            self._recover()

    # -- recovery ------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the job table from the log's journal."""
        assert self._log is not None

        def apply(op: Mapping[str, Any]) -> int:
            self._apply_op(op)
            perf.incr("fabric_queue_replayed")
            return _dead_bytes(op)

        self._log.recover(apply)
        # un-completed jobs go back to pending in enqueue order: their
        # leases (if any) died with the coordinator
        for job_id in sorted(self._jobs):
            job = self._jobs[job_id]
            if job.state != JobState.DONE:
                job.state = JobState.PENDING
                job.worker = None
                self._pending.append(job_id)
        if self._log.snapshot_due:
            self._write_snapshot()

    def _apply_op(self, entry: Mapping[str, Any]) -> None:
        op = entry["op"]
        if op == "enqueue":
            job_id = int(entry["job_id"])
            self._jobs[job_id] = FabricJob(job_id, dict(entry["config"]))
            self._next_job_id = max(self._next_job_id, job_id + 1)
        elif op == "redispatch":
            job = self._jobs[int(entry["job_id"])]
            job.attempt = max(job.attempt, int(entry["attempt"]))
            job.redispatches += 1
        elif op == "complete":
            job = self._jobs[int(entry["job_id"])]
            job.state = JobState.DONE
            job.token = entry["token"]
            job.result = entry.get("result")
        elif op == "job":  # a compacted journal's job as it stands
            job = FabricJob.from_doc(entry)
            self._jobs[job.job_id] = job
            self._next_job_id = max(self._next_job_id, job.job_id + 1)
        else:  # pragma: no cover - future-proofing
            raise ValueError(f"unknown fabric queue op {op!r}")

    # -- journaling ----------------------------------------------------------
    def _journal(self, op: dict[str, Any]) -> None:
        """Journal one op (queue lock held); compact when one is due."""
        if self._log is None:
            return
        self._log.append(op, _dead_bytes(op))
        if self._log.snapshot_due:
            self._write_snapshot()

    def _write_snapshot(self) -> None:
        assert self._log is not None
        self._log.snapshot(
            lambda: ({"op": "job", **self._jobs[i].to_doc()} for i in sorted(self._jobs))
        )
        perf.incr("fabric_queue_snapshots")

    def snapshot(self) -> None:
        """Compact the journal to one line per job."""
        with self._lock:
            if self._log is not None:
                self._write_snapshot()

    # -- producing -----------------------------------------------------------
    def enqueue(self, config: Mapping[str, Any]) -> int:
        """Durably add one evaluation job; returns its id."""
        with self._lock:
            job_id = self._next_job_id
            self._next_job_id += 1
            self._jobs[job_id] = FabricJob(job_id, dict(config))
            self._pending.append(job_id)
            self._journal({"op": "enqueue", "job_id": job_id, "config": dict(config)})
            perf.incr("fabric_jobs_enqueued")
            return job_id

    # -- scheduling ----------------------------------------------------------
    def lease(self, worker: int, now: float, lease_s: float) -> FabricJob | None:
        """Hand the oldest pending job to ``worker`` under a lease."""
        with self._lock:
            while self._pending:
                job_id = self._pending.popleft()
                job = self._jobs[job_id]
                if job.state != JobState.PENDING:
                    continue  # completed while queued (recovery replay)
                job.state = JobState.LEASED
                job.worker = int(worker)
                job.lease_expires = now + float(lease_s)
                return job
            return None

    def expired(self, now: float) -> list[FabricJob]:
        """Leased jobs whose lease has lapsed (straggler candidates)."""
        with self._lock:
            return [
                job
                for job in self._jobs.values()
                if job.state == JobState.LEASED and now > job.lease_expires
            ]

    def redispatch(self, job_id: int) -> FabricJob:
        """Put a lost/expired lease back to pending under a new attempt.

        The old attempt's token becomes stale: if the original worker
        still finishes, its completion is rejected by :meth:`complete`.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state != JobState.LEASED:
                return job
            job.state = JobState.PENDING
            job.worker = None
            job.attempt += 1
            job.redispatches += 1
            self._pending.append(job_id)
            self._journal(
                {"op": "redispatch", "job_id": job_id, "attempt": job.attempt}
            )
            perf.incr("fabric_redispatches")
            return job

    # -- completing ----------------------------------------------------------
    def complete(
        self, job_id: int, token: str, result: Mapping[str, Any] | None = None
    ) -> str:
        """Apply one completion exactly once; returns the disposition.

        ``"applied"``
            First completion of the job — journaled before returning;
            the acknowledgement is durable.
        ``"replayed"``
            Same token delivered again (a lost-ack retry): acknowledged
            without re-applying or re-journaling.
        ``"rejected"``
            The job is already done under a *different* token — a
            straggler's duplicate result.  Counted, never applied.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state == JobState.DONE:
                if token == job.token:
                    return "replayed"
                perf.incr("fabric_duplicate_completions")
                return "rejected"
            job.state = JobState.DONE
            job.token = token
            job.result = dict(result) if result is not None else None
            job.worker = None
            self._journal(
                {"op": "complete", "job_id": job_id, "token": token,
                 "result": job.result}
            )
            perf.incr("fabric_jobs_completed")
            return "applied"

    # -- introspection -------------------------------------------------------
    def job(self, job_id: int) -> FabricJob:
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> Iterator[FabricJob]:
        with self._lock:
            items = list(self._jobs.values())
        return iter(items)

    @property
    def n_jobs(self) -> int:
        with self._lock:
            return len(self._jobs)

    @property
    def n_pending(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == JobState.PENDING)

    @property
    def n_leased(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == JobState.LEASED)

    @property
    def n_done(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == JobState.DONE)

    @property
    def redispatches(self) -> int:
        with self._lock:
            return sum(j.redispatches for j in self._jobs.values())

    def completed_jobs(self) -> list[FabricJob]:
        """All DONE jobs (recovery: acknowledged results are replayable)."""
        with self._lock:
            return [j for j in self._jobs.values() if j.state == JobState.DONE]

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Flush and close the journal (idempotent)."""
        if self._log is not None:
            self._log.close()

    def __enter__(self) -> "DurableJobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
