"""Fault hooks and recovery on the fabric (re-dispatch, failure records),
and the service client's retry policy."""

from __future__ import annotations

import pytest

from repro.fabric import FabricOptions, FabricTuner
from repro.service.client import RetryPolicy
from tests.fabric.faults import FaultInjector, ScriptedFaults

#: ``FaultInjector(0.3, seed=9)``'s crashes over jobs < 50 and attempts
#: < 3, as ``(job_id, attempt)`` pairs (recorded when the hook hashed its
#: own bytes, before it shared the transport's draw)
SEED9_CRASHES = [
    (0, 1), (1, 0), (2, 0), (2, 1), (3, 0), (4, 0), (4, 1), (4, 2), (9, 0),
    (9, 2), (10, 2), (12, 1), (13, 0), (13, 1), (13, 2), (14, 1), (15, 2),
    (16, 2), (17, 2), (18, 2), (19, 0), (19, 1), (20, 2), (21, 2), (24, 1),
    (24, 2), (25, 0), (27, 0), (27, 1), (32, 0), (32, 2), (34, 1), (35, 2),
    (36, 1), (39, 2), (40, 0), (40, 1), (40, 2), (42, 0), (42, 2), (43, 2),
    (46, 1), (47, 0), (47, 1), (48, 1), (49, 0), (49, 1),
]


class TestFaultInjector:
    def test_rate_zero_never_crashes(self):
        inj = FaultInjector(0.0)
        assert not any(inj(j, 0) for j in range(100))

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(1.0)
        with pytest.raises(ValueError):
            FaultInjector(-0.1)

    def test_deterministic_given_seed(self):
        a = FaultInjector(0.3, seed=9)
        b = FaultInjector(0.3, seed=9)
        decisions = [(j, k) for j in range(50) for k in range(3)]
        assert [a(j, k) for j, k in decisions] == [b(j, k) for j, k in decisions]

    def test_decisions_match_recorded_literal(self):
        inj = FaultInjector(0.3, seed=9)
        assert [(j, k) for j in range(50) for k in range(3) if inj(j, k)] == SEED9_CRASHES

    def test_rate_roughly_respected(self):
        inj = FaultInjector(0.25, seed=0)
        hits = sum(inj(j, 0) for j in range(2000))
        assert 0.18 < hits / 2000 < 0.32

    def test_different_seeds_differ(self):
        a = [FaultInjector(0.5, seed=1)(j, 0) for j in range(64)]
        b = [FaultInjector(0.5, seed=2)(j, 0) for j in range(64)]
        assert a != b


class TestRetryPolicy:
    def test_allows_bounded_attempts(self):
        p = RetryPolicy(max_retries=2)
        assert p.allows(0) and p.allows(1) and not p.allows(2)

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(base_s=0.01, factor=2.0, cap_s=0.03)
        assert p.backoff_s(0) == pytest.approx(0.01)
        assert p.backoff_s(1) == pytest.approx(0.02)
        assert p.backoff_s(5) == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=-1.0)


class TestRecovery:
    """Every injected fault kills the worker process running the attempt;
    the coordinator replaces it and re-dispatches the job."""

    def test_killed_worker_retried_then_recorded_as_failure(self, quadratic_problem):
        """A job that crashes on every attempt exhausts its re-dispatches
        and is recorded as a failure feeding the feasibility model."""
        faults = ScriptedFaults({(2, 0), (2, 1), (2, 2)})
        res = FabricTuner(
            quadratic_problem,
            None,
            FabricOptions(n_procs=2, max_redispatch=2),
            fault=faults,
        ).tune({"t": 1}, 8, seed=0)
        assert res.n_evaluations == 8
        assert res.history.n_failures == 1
        failed = [e for e in res.history if e.failed]
        assert failed[0].metadata["failure"] == "lease-exhausted"
        assert failed[0].metadata["attempts"] == 3
        # the failed configuration lands in the feasibility training set
        assert res.history.failed_array().shape == (1, 1)
        assert res.perf["counters"]["fabric_worker_deaths"] == 3
        assert res.perf["counters"]["fabric_redispatches"] == 2

    def test_transient_crash_retried_to_success(self, quadratic_problem):
        """One crash then success: the re-dispatch recovers, nothing is lost."""
        faults = ScriptedFaults({(1, 0)})
        res = FabricTuner(
            quadratic_problem,
            None,
            FabricOptions(n_procs=2, max_redispatch=2),
            fault=faults,
        ).tune({"t": 1}, 6, seed=0)
        assert res.n_evaluations == 6
        assert res.history.n_failures == 0
        assert res.perf["counters"]["fabric_worker_deaths"] == 1
        assert res.perf["counters"]["fabric_redispatches"] == 1
        recovered = [
            e for e in res.history if e.metadata.get("attempts", 1) == 2
        ]
        assert len(recovered) == 1

    def test_no_retries_policy(self, quadratic_problem):
        faults = ScriptedFaults({(0, 0)})
        res = FabricTuner(
            quadratic_problem,
            None,
            FabricOptions(n_procs=1, max_redispatch=0),
            fault=faults,
        ).tune({"t": 1}, 3, seed=0)
        assert res.history.n_failures == 1
        assert res.perf["counters"].get("fabric_redispatches", 0) == 0

    def test_random_faults_reproducible_end_to_end(self, quadratic_problem):
        """Same seed + same fault seed => identical histories, despite
        processes: fault decisions hash (seed, job, attempt), not timing."""

        def run():
            return FabricTuner(
                quadratic_problem,
                None,
                FabricOptions(n_procs=1, max_redispatch=0),
                fault=FaultInjector(0.3, seed=11),
            ).tune({"t": 1}, 10, seed=4)

        a, b = run(), run()
        assert [e.config for e in a.history] == [e.config for e in b.history]
        assert [e.failed for e in a.history] == [e.failed for e in b.history]
        assert a.history.n_failures > 0  # the rate actually fired
