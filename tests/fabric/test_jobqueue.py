"""Durability tests for the fabric's on-disk job queue.

The contract under test (ISSUE 9, satellite 3): kill the coordinator at
any point mid-stream, recover the queue from its directory, and

* no acknowledged completion is lost (WAL-then-ack),
* no job is ever *applied* twice (exactly-once via lease tokens),
* the journal past the last compaction replays.

The kill points of the journal/compaction protocol (torn final line,
compacted file written but not yet in place, ...) are in
``tests/service/test_durable_log.py``, run against this queue and the
crowd shard alike.
"""

from __future__ import annotations

import json

import pytest

from repro.fabric import DurableJobQueue, JobState
from repro.fabric.jobqueue import _WAL_NAME


def fill(queue: DurableJobQueue, n: int) -> list[int]:
    return [queue.enqueue({"x": i / 10}) for i in range(n)]


class TestLifecycle:
    def test_enqueue_lease_complete(self):
        q = DurableJobQueue()
        jid = q.enqueue({"x": 0.5})
        job = q.lease(worker=0, now=0.0, lease_s=10.0)
        assert job.job_id == jid and job.state == JobState.LEASED
        assert q.lease(worker=1, now=0.0, lease_s=10.0) is None
        assert q.complete(jid, job.lease_token, {"y": 1.0}) == "applied"
        assert q.job(jid).state == JobState.DONE
        assert q.n_done == 1 and q.n_pending == 0

    def test_fifo_order(self):
        q = DurableJobQueue()
        ids = fill(q, 5)
        leased = [q.lease(0, 0.0, 10.0).job_id for _ in ids]
        assert leased == ids

    def test_expired_and_redispatch(self):
        q = DurableJobQueue()
        jid = q.enqueue({"x": 0.1})
        job = q.lease(0, now=0.0, lease_s=1.0)
        first_token = job.lease_token  # captured at dispatch time
        assert q.expired(now=0.5) == []
        assert [j.job_id for j in q.expired(now=2.0)] == [jid]
        q.redispatch(jid)
        fresh = q.lease(1, now=2.0, lease_s=1.0)
        assert fresh.job_id == jid
        assert fresh.attempt == 1
        assert fresh.lease_token != first_token
        assert q.redispatches == 1


class TestExactlyOnce:
    def test_same_token_replayed_not_reapplied(self):
        """A lost-ack retry of the *same* completion is an acked no-op."""
        q = DurableJobQueue()
        jid = q.enqueue({"x": 0.2})
        job = q.lease(0, 0.0, 10.0)
        assert q.complete(jid, job.lease_token, {"y": 1.0}) == "applied"
        assert q.complete(jid, job.lease_token, {"y": 1.0}) == "replayed"
        assert q.job(jid).result == {"y": 1.0}

    def test_stale_straggler_token_rejected(self):
        """Regression: a straggler finishing after re-dispatch must never
        overwrite the applied completion (the duplicate-completion bug)."""
        q = DurableJobQueue()
        jid = q.enqueue({"x": 0.3})
        stale = q.lease(0, now=0.0, lease_s=0.5).lease_token  # worker 0 quiet
        q.redispatch(jid)
        fresh = q.lease(1, now=1.0, lease_s=10.0).lease_token
        assert q.complete(jid, fresh, {"y": 2.0}) == "applied"
        assert q.complete(jid, stale, {"y": 9.0}) == "rejected"
        assert q.job(jid).result == {"y": 2.0}
        assert q.job(jid).token == fresh

    def test_straggler_winning_the_race_disarms_the_retry(self):
        """Whichever attempt completes first wins; the other is rejected."""
        q = DurableJobQueue()
        jid = q.enqueue({"x": 0.4})
        stale = q.lease(0, now=0.0, lease_s=0.5).lease_token
        q.redispatch(jid)
        fresh = q.lease(1, now=1.0, lease_s=10.0).lease_token
        assert q.complete(jid, stale, {"y": 1.0}) == "applied"
        assert q.complete(jid, fresh, {"y": 2.0}) == "rejected"
        assert q.job(jid).result == {"y": 1.0}


class TestCrashRecovery:
    """Coordinator kill = drop the queue object without close(); the WAL
    file handle dies with the process, recovery reads whatever hit disk
    (fsync_every=1 -> everything journaled before the ack)."""

    def test_acknowledged_completions_survive_a_kill(self, tmp_path):
        q = DurableJobQueue(tmp_path)
        ids = fill(q, 8)
        acked = []
        for _ in range(5):
            job = q.lease(0, 0.0, 10.0)
            assert q.complete(job.job_id, job.lease_token, {"y": 1.0}) == "applied"
            acked.append(job.job_id)
        del q  # kill: no close(), no snapshot

        rec = DurableJobQueue(tmp_path)
        assert rec.n_jobs == len(ids)
        assert sorted(j.job_id for j in rec.completed_jobs()) == sorted(acked)
        for jid in acked:
            assert rec.job(jid).result == {"y": 1.0}

    def test_unfinished_leases_revert_to_pending(self, tmp_path):
        q = DurableJobQueue(tmp_path)
        fill(q, 4)
        q.lease(0, 0.0, 100.0)
        q.lease(1, 0.0, 100.0)
        del q

        rec = DurableJobQueue(tmp_path)
        assert rec.n_pending == 4  # leases were soft state
        assert rec.n_leased == 0

    def test_completed_job_is_not_rerun_after_recovery(self, tmp_path):
        """No job runs twice: a recovered queue never re-leases DONE jobs,
        and the applied token still rejects the pre-crash straggler."""
        q = DurableJobQueue(tmp_path)
        ids = fill(q, 3)
        job = q.lease(0, 0.0, 10.0)
        q.complete(job.job_id, job.lease_token, {"y": 1.0})
        del q

        rec = DurableJobQueue(tmp_path)
        leased = []
        while (j := rec.lease(0, 0.0, 10.0)) is not None:
            leased.append(j.job_id)
        assert job.job_id not in leased
        assert sorted(leased + [job.job_id]) == ids
        # the pre-crash attempt's token survives for dedup
        assert rec.complete(job.job_id, job.lease_token, {"y": 1.0}) == "replayed"
        assert rec.complete(job.job_id, f"{job.job_id}.99", {}) == "rejected"

    def test_redispatch_counts_survive(self, tmp_path):
        q = DurableJobQueue(tmp_path)
        jid = q.enqueue({"x": 0.1})
        q.lease(0, 0.0, 0.1)
        q.redispatch(jid)
        q.lease(1, 1.0, 0.1)
        q.redispatch(jid)
        del q

        rec = DurableJobQueue(tmp_path)
        job = rec.job(jid)
        assert job.redispatches == 2
        assert job.attempt == 2
        assert rec.lease(2, 2.0, 10.0).lease_token == f"{jid}.2"

    def test_snapshot_plus_wal_tail(self, tmp_path):
        """A compaction keeps one line per job, and the ops after its
        checkpoint replay from the journal tail."""
        q = DurableJobQueue(tmp_path, snapshot_every=5)
        fill(q, 3)
        for _ in range(4):  # dead lines: the fourth makes a compaction due
            q.redispatch(q.lease(0, 0.0, 10.0).job_id)
        fill(q, 2)  # tail ops
        job = q.lease(0, 0.0, 10.0)
        q.complete(job.job_id, job.lease_token, {"y": 0.5})  # tail op
        lines = (tmp_path / _WAL_NAME).read_text().splitlines()
        ops = [json.loads(line)["op"] for line in lines]
        assert ops == ["job"] * 3 + ["checkpoint", "enqueue", "enqueue", "complete"]
        del q

        rec = DurableJobQueue(tmp_path)
        assert rec.n_jobs == 5
        assert rec.n_done == 1
        assert rec.job(job.job_id).result == {"y": 0.5}
        assert [rec.job(i).attempt for i in range(5)] == [2, 1, 1, 0, 0]

    def test_explicit_snapshot_truncates_wal(self, tmp_path):
        q = DurableJobQueue(tmp_path)
        fill(q, 4)
        q.redispatch(q.lease(0, 0.0, 10.0).job_id)
        q.snapshot()
        assert [p.name for p in tmp_path.iterdir()] == [_WAL_NAME]
        ops = [json.loads(line) for line in (tmp_path / _WAL_NAME).read_text().splitlines()]
        # one line per job as it stands, then the end of the compacted part
        assert [op["op"] for op in ops] == ["job"] * 4 + ["checkpoint"]
        assert [op["attempt"] for op in ops[:4]] == [1, 0, 0, 0]
        del q
        assert DurableJobQueue(tmp_path).n_pending == 4


class TestMisc:
    def test_memory_only_queue_has_same_semantics(self):
        q = DurableJobQueue()
        jid = q.enqueue({"x": 0.1})
        job = q.lease(0, 0.0, 10.0)
        assert q.complete(jid, job.lease_token) == "applied"
        assert q.complete(jid, job.lease_token) == "replayed"
        q.close()
        q.close()  # idempotent

    def test_context_manager(self, tmp_path):
        with DurableJobQueue(tmp_path) as q:
            q.enqueue({"x": 0.1})
        assert DurableJobQueue(tmp_path).n_pending == 1

    def test_invalid_snapshot_every(self):
        with pytest.raises(ValueError):
            DurableJobQueue(snapshot_every=0)
