"""An upload's replicas are written at once.

The router asks a write's first target on the calling thread and hands
the others to its sender pool (``crowd-fanout-<i>`` threads), so the
replicas' round trips overlap; problem-wide reads fan out the same way.
What a connection raises reaches the caller, and membership changes,
router restarts and ``close()`` leave no sender of an old pool behind.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.service import CrowdRouter, CrowdShard, build_service
from repro.service.shard import shard_key
from repro.service.transport import _draw

LATENCY_S = 0.05


def _upload(key: str, t: int = 0) -> dict:
    return {
        "route": "upload",
        "api_key": key,
        "problem_name": "demo",
        "task_parameters": {"t": t},
        "tuning_parameters": {"x": 0.5},
        "output": 1.0,
    }


def _senders() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("crowd-fanout")}


def _own(router: CrowdRouter) -> set[threading.Thread]:
    return set() if router._pool is None else set(router._pool.threads)


class TestReplicasOverlap:
    def test_a_replicated_upload_costs_one_round_trip(self):
        with build_service(2, replication=2, latency_s=LATENCY_S, seed=1) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            # each delivery sleeps LATENCY_S * (0.75 + 0.5 u), u drawn per
            # (seed, endpoint, sequence number): one after the other, this
            # upload's two replica writes would take at least 2 * LATENCY_S
            delays = [
                LATENCY_S * (0.75 + 0.5 * _draw(t.seed, t.name, t.n_requests + 1))
                for t in svc.transports.values()
            ]
            assert sum(delays) >= 2 * LATENCY_S
            t0 = time.perf_counter()
            response = svc.router.handle(_upload(key))
            elapsed = time.perf_counter() - t0
            assert response["ok"] and response["replicas_acked"] == 2
            assert elapsed < 1.5 * LATENCY_S, (elapsed, delays)

    def test_concurrent_callers_each_get_their_own_answers(self):
        """More callers than cores, switching threads every 10 µs: every
        upload is answered once, to its caller, and stored on every replica."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with build_service(3, replication=3) as svc:
                key = svc.register_user("alice", "a@lab.gov")[1]
                answers: dict[int, list[dict]] = {}

                def upload(caller: int) -> None:
                    answers[caller] = [
                        svc.router.handle(_upload(key, 100 * caller + i)) for i in range(30)
                    ]

                callers = [threading.Thread(target=upload, args=(c,)) for c in range(6)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
                assert not any(caller.is_alive() for caller in callers)
                assert all(
                    r["ok"] and r["replicas_acked"] == 3 for rs in answers.values() for r in rs
                )
                assert len({r["uid"] for rs in answers.values() for r in rs}) == 180
                assert [shard.count() for shard in svc.shards.values()] == [180] * 3
        finally:
            sys.setswitchinterval(switch)


class _Broken:
    """A connection whose every call raises."""

    def handle(self, request):
        raise RuntimeError("connection bug")


class TestExceptionsReachTheCaller:
    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_a_stamped_write_raises_what_a_replica_raised(self, order):
        with CrowdRouter({"a": CrowdShard("a"), "b": _Broken()}) as router:
            with pytest.raises(RuntimeError, match="connection bug"):
                router._stamped_write(_upload("k"), list(order))
            # the senders go on serving
            answers = router._send_all(["a", "a"], {"route": "problems", "api_key": "k"})
            assert answers[0] == answers[1] and answers[0]["error"] == "auth"

    def test_a_fanout_raises_what_a_shard_raised(self):
        with CrowdRouter({"a": CrowdShard("a"), "b": _Broken(), "c": CrowdShard("c")}) as router:
            with pytest.raises(RuntimeError, match="connection bug"):
                router._fanout({"route": "problems"})
            with pytest.raises(RuntimeError, match="connection bug"):
                router.handle({"route": "problems", "api_key": "k"})


class TestNoSenderOutlivesItsPool:
    def test_membership_restart_and_close_leave_only_the_current_senders(self):
        before = _senders()
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]

            def settled() -> bool:
                for t in range(4):
                    assert svc.client.handle(_upload(key, t))["ok"]
                return _senders() - before == _own(svc.router)

            assert settled() and _own(svc.router)
            svc.add_shard()
            assert settled()
            svc.remove_shard("shard-0")
            assert settled()
            old = svc.router
            svc.restart_router()
            assert old._pool is None and settled()
        assert _senders() == before

    def test_a_new_ring_forgets_the_memoized_preferences(self):
        with build_service(2, replication=1) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            requests = [_upload(key, t) for t in range(16)]

            def routed() -> list[list[str]]:
                prefs = [svc.router._task_prefs(r) for r in requests]
                assert prefs == [
                    svc.router.ring.preference(shard_key("demo", r["task_parameters"]), 1)
                    for r in requests
                ]
                return prefs

            first = routed()
            svc.add_shard()
            svc.add_shard()
            joined = routed()
            assert joined != first
            svc.remove_shard("shard-2")
            assert routed() != joined
