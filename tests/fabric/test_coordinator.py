"""Tests for the multi-process fabric coordinator.

These run real ``fork``-ed worker processes; latencies are kept small
and every scenario bounds its waits, so the suite stays fast even on
loaded CI machines.
"""

from __future__ import annotations

import queue as queue_mod
import time

import pytest

from repro.core import perf
from repro.core.problem import Evaluation
from repro.fabric import DurableJobQueue, FabricCoordinator, FabricOptions, JobState


def evaluate(cfg):
    return Evaluation({"t": 1}, dict(cfg), (cfg["x"] - 0.37) ** 2 + 0.1, {})


def slow_first(cfg):
    """Job 0 (x = 0) takes 1 s of real work, every other job 0.05 s."""
    time.sleep(1.0 if cfg["x"] == 0 else 0.05)
    return evaluate(cfg)


def collect(coordinator, n, timeout=30.0):
    return [coordinator.get(timeout=timeout) for _ in range(n)]


def wait_until_busy(coordinator, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not coordinator.busy_workers():
        coordinator._pump()
        time.sleep(0.01)
        assert time.monotonic() < deadline, "workers never got busy"


class TestBasicExecution:
    def test_all_jobs_complete_once(self):
        opts = FabricOptions(n_procs=2)
        with FabricCoordinator(evaluate, opts) as c:
            ids = [c.submit({"x": i / 8}) for i in range(8)]
            outcomes = collect(c, 8)
        assert sorted(o.job_id for o in outcomes) == ids
        assert all(o.ok and o.evaluation is not None for o in outcomes)
        for o in outcomes:
            assert o.evaluation.output == pytest.approx(
                (o.config["x"] - 0.37) ** 2 + 0.1
            )

    def test_single_process_fabric(self):
        with FabricCoordinator(evaluate, FabricOptions(n_procs=1)) as c:
            c.submit({"x": 0.5})
            [o] = collect(c, 1)
        assert o.worker_id == 0 and o.attempt == 0 and o.redispatches == 0

    def test_objective_exception_is_an_error_outcome(self):
        def boom(cfg):
            raise RuntimeError("bad configuration")

        with FabricCoordinator(boom, FabricOptions(n_procs=1)) as c:
            c.submit({"x": 0.5})
            [o] = collect(c, 1)
        assert not o.ok
        assert "bad configuration" in o.error
        assert o.evaluation is None

    def test_worker_perf_counters_fold_into_parent(self):
        with perf.collect() as stats:
            with FabricCoordinator(evaluate, FabricOptions(n_procs=2)) as c:
                for i in range(6):
                    c.submit({"x": i / 6})
                collect(c, 6)
        snap = stats.snapshot()
        assert snap["counters"]["fabric_evaluations"] == 6
        assert snap["timers"]["evaluate"]["count"] == 6

    def test_get_timeout_raises_empty(self):
        with FabricCoordinator(evaluate, FabricOptions(n_procs=1)) as c:
            with pytest.raises(queue_mod.Empty):
                c.get(timeout=0.05)

    def test_close_is_idempotent(self):
        c = FabricCoordinator(evaluate, FabricOptions(n_procs=1)).start()
        c.close()
        c.close()
        with pytest.raises(RuntimeError):
            c.add_worker()

    def test_close_does_not_wait_out_an_uncollected_evaluation(self, tmp_path):
        """A 10 s evaluation nobody will collect: close() terminates its
        worker at once, and since leases are soft state the job is
        pending — neither done nor lost — when the queue is reopened."""
        opts = FabricOptions(n_procs=1, base_latency_s=10.0, data_dir=tmp_path)
        c = FabricCoordinator(evaluate, opts).start()
        jid = c.submit({"x": 0.5})
        wait_until_busy(c)
        t0 = time.perf_counter()
        c.close()
        assert time.perf_counter() - t0 < 1.0
        reopened = DurableJobQueue(tmp_path)
        try:
            assert reopened.n_jobs == 1
            assert reopened.job(jid).state == JobState.PENDING
            assert reopened.n_done == 0
        finally:
            reopened.close()


class TestKillAndRedispatch:
    def test_killed_workers_job_is_redispatched(self):
        opts = FabricOptions(n_procs=2, base_latency_s=0.25, lease_s=30.0)
        with FabricCoordinator(evaluate, opts) as c:
            ids = [c.submit({"x": i / 4}) for i in range(4)]
            wait_until_busy(c)
            victim = c.busy_workers()[0]
            c.kill_worker(victim)
            outcomes = collect(c, 4)
            assert victim not in c.liveness()
            assert c.n_workers == 2  # a fresh process replaced the victim
        assert sorted(o.job_id for o in outcomes) == ids
        assert all(o.ok for o in outcomes)
        assert c.queue.redispatches >= 1
        assert any(o.attempt >= 1 for o in outcomes)

    def test_injected_fault_crashes_exactly_one_attempt(self):
        """fault() firing on attempt 0 of job 0 kills that worker; the
        re-dispatched attempt must succeed on a surviving process."""
        fault = lambda job_id, attempt: job_id == 0 and attempt == 0  # noqa: E731
        opts = FabricOptions(n_procs=2, lease_s=30.0)
        with FabricCoordinator(evaluate, opts, fault=fault) as c:
            ids = [c.submit({"x": i / 3}) for i in range(3)]
            outcomes = collect(c, 3)
        by_id = {o.job_id: o for o in outcomes}
        assert sorted(by_id) == ids
        assert by_id[0].ok and by_id[0].attempt == 1
        assert c.queue.redispatches == 1

    def test_job_abandoned_after_max_redispatch(self):
        """A job that crashes its worker every attempt is completed as a
        durable failure instead of looping forever."""
        fault = lambda job_id, attempt: True  # noqa: E731
        opts = FabricOptions(n_procs=1, max_redispatch=0)
        with FabricCoordinator(evaluate, opts, fault=fault) as c:
            jid = c.submit({"x": 0.5})
            [o] = collect(c, 1)
        assert o.job_id == jid
        assert not o.ok and o.error == "lease-exhausted"
        assert o.evaluation is None
        assert c.queue.job(jid).state == "done"


class TestStragglers:
    def test_expired_lease_redispatches_but_applies_once(self):
        """Every evaluation outlives its lease: jobs re-dispatch, the
        stale/fresh token race resolves to exactly one applied completion
        per job, and the run still delivers every outcome exactly once."""
        opts = FabricOptions(
            n_procs=2, base_latency_s=0.25, lease_s=0.08, max_redispatch=50
        )
        with perf.collect() as stats:
            with FabricCoordinator(evaluate, opts) as c:
                ids = [c.submit({"x": i / 4}) for i in range(4)]
                outcomes = collect(c, 4)
        assert sorted(o.job_id for o in outcomes) == ids
        assert all(o.ok for o in outcomes)
        assert c.queue.redispatches >= 1
        # every job applied exactly once, duplicates rejected not re-applied
        assert c.queue.n_done == 4
        counters = stats.snapshot()["counters"]
        assert counters["fabric_jobs_completed"] == 4

    def test_a_straggler_is_handed_no_other_job(self):
        """Job 0 outlives its lease while the rest are quick.  Its worker
        stays busy until it reports, so no quick job queues behind the
        straggler and runs out its own lease: only job 0 is ever
        re-dispatched, and every job is still applied exactly once."""
        opts = FabricOptions(n_procs=2, lease_s=0.3)
        with perf.collect() as stats:
            with FabricCoordinator(slow_first, opts) as c:
                ids = [c.submit({"x": i / 8}) for i in range(8)]
                outcomes = collect(c, 8)
        assert sorted(o.job_id for o in outcomes) == ids
        assert all(o.ok for o in outcomes)
        assert {j.job_id for j in c.queue.jobs() if j.redispatches} == {0}
        assert c.queue.n_done == 8
        assert stats.snapshot()["counters"]["fabric_jobs_completed"] == 8


class TestElasticity:
    def test_add_and_remove_workers_mid_run(self):
        opts = FabricOptions(n_procs=1, base_latency_s=0.05)
        with FabricCoordinator(evaluate, opts) as c:
            ids = [c.submit({"x": i / 8}) for i in range(8)]
            first = c.get(timeout=30.0)
            added = c.add_worker()
            assert c.n_workers == 2
            rest = collect(c, 7)
            outcomes = [first] + rest
            c.remove_worker(added)
            deadline = time.monotonic() + 5.0
            while added in c.liveness() and time.monotonic() < deadline:
                c._pump()
                time.sleep(0.01)
            assert added not in c.liveness()
        assert sorted(o.job_id for o in outcomes) == ids
        assert c.queue.redispatches == 0  # graceful drain, no lost work
        workers_used = {o.worker_id for o in outcomes}
        assert workers_used <= {0, added}

    def test_graceful_remove_finishes_current_job(self):
        opts = FabricOptions(n_procs=1, base_latency_s=0.2)
        with FabricCoordinator(evaluate, opts) as c:
            jid = c.submit({"x": 0.5})
            wait_until_busy(c)
            c.remove_worker(0)  # stop queues behind the running job
            c.add_worker()  # capacity to absorb any (unexpected) redispatch
            [o] = collect(c, 1)
        assert o.job_id == jid and o.ok
        assert o.worker_id == 0  # the draining worker finished it
        assert c.queue.redispatches == 0


class TestLivenessAndAccounting:
    def test_heartbeats_keep_workers_live(self):
        opts = FabricOptions(n_procs=2, heartbeat_s=0.05)
        with FabricCoordinator(evaluate, opts) as c:
            time.sleep(0.4)  # several heartbeat periods of pure idleness
            c._pump()
            ages = c.liveness()
            assert set(ages) == {0, 1}
            assert all(age < 0.3 for age in ages.values())

    def test_busy_seconds_and_utilization(self):
        opts = FabricOptions(n_procs=2, base_latency_s=0.1)
        with FabricCoordinator(evaluate, opts) as c:
            t0 = time.perf_counter()
            for i in range(4):
                c.submit({"x": i / 4})
            collect(c, 4)
            wall = time.perf_counter() - t0
        assert c.busy_s >= 4 * 0.1 * 0.9
        assert 0.0 < c.utilization(wall) <= 1.0

    def test_latency_recorded_in_metadata(self):
        opts = FabricOptions(n_procs=1, base_latency_s=0.03)
        with FabricCoordinator(evaluate, opts) as c:
            c.submit({"x": 1.0})
            [o] = collect(c, 1)
        assert o.latency_s == pytest.approx(0.03)
        assert o.metadata["latency_s"] == pytest.approx(0.03)

    def test_heterogeneous_speeds_are_seeded(self):
        def speeds():
            opts = FabricOptions(n_procs=4, heterogeneity=0.5)
            with FabricCoordinator(evaluate, opts, seed=7) as c:
                return [w.speed for w in c._workers.values()]

        first = speeds()
        assert len(set(first)) > 1
        assert first == speeds()  # seeded => reproducible

    def test_recovered_queue_jobs_run_without_resubmission(self, tmp_path):
        q = DurableJobQueue(tmp_path)
        for i in range(3):
            q.enqueue({"x": i / 3})
        q.close()  # "crashed" run left pending jobs behind

        recovered = DurableJobQueue(tmp_path)
        with FabricCoordinator(
            evaluate, FabricOptions(n_procs=2), queue=recovered
        ) as c:
            assert c.inflight == 3
            outcomes = collect(c, 3)
        assert sorted(o.job_id for o in outcomes) == [0, 1, 2]
        assert all(o.ok for o in outcomes)
