"""A router asks its shards in turn, on the calling thread.

A problem-wide read (and a client-id request) asks every shard one
after the other, and a replicated write asks its targets one after the
other: on every deployment the service runs, a thread handoff costs
more than the round trip it would hide, so the router starts no thread
of its own to serve a request.  Under simulated latency a fan-out costs
one round trip per shard.  What a connection raises reaches the caller.
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


class _Recorded:
    """A channel that records the thread each request arrives on."""

    def __init__(self, target) -> None:
        self.target, self.threads = target, []

    def __call__(self, request):
        self.threads.append(threading.current_thread())
        return self.target(request)


@pytest.fixture
def started_threads(monkeypatch) -> list[str]:
    """The names of the threads started while the test runs."""
    started: list[str] = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


class TestFanoutsAskInTurn:
    def test_a_fanout_asks_every_shard_on_the_calling_thread(self, started_threads):
        with build_service(2, replication=2, latency_s=LATENCY_S, seed=1) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            channels = {name: _Recorded(t.target) for name, t in svc.transports.items()}
            for name, channel in channels.items():
                svc.transports[name].retarget(channel)
            # each delivery sleeps LATENCY_S * (0.75 + 0.5 u), u drawn per
            # (seed, endpoint, sequence number): asked in turn, the read
            # takes one round trip per shard
            delays = [
                LATENCY_S * (0.75 + 0.5 * _draw(t.seed, t.name, t.n_requests + 1))
                for t in svc.transports.values()
            ]
            t0 = time.perf_counter()
            response = svc.router.handle({"route": "problems", "api_key": key})
            elapsed = time.perf_counter() - t0
            assert response["ok"]
            assert [c.threads for c in channels.values()] == [[threading.current_thread()]] * 2
            assert elapsed >= 0.99 * sum(delays), (elapsed, delays)
        assert started_threads == []


class TestReplicasInOrder:
    def test_a_replicated_upload_writes_its_replicas_on_the_calling_thread(
        self, started_threads
    ):
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            channels = {name: _Recorded(t.target) for name, t in svc.transports.items()}
            for name, channel in channels.items():
                svc.transports[name].retarget(channel)
            response = svc.router.handle(_upload(key))
            assert response["ok"] and response["replicas_acked"] == 2
            assert [c.threads for c in channels.values()] == [[threading.current_thread()]] * 2
        assert started_threads == []

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
            # the router goes on serving
            assert router._stamped_write(_upload("k"), ["a"])[2]["error"] == "auth"

    def test_a_fanout_raises_what_a_shard_raised(self):
        with CrowdRouter({"a": CrowdShard("a"), "b": _Broken(), "c": CrowdShard("c")}) as router:
            with pytest.raises(RuntimeError, match="connection bug"):
                router._fanout({"route": "problems"})
            # the router goes on serving
            with pytest.raises(RuntimeError, match="connection bug"):
                router.handle({"route": "problems", "api_key": "k"})


class TestRingMemo:
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
