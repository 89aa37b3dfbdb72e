"""CrowdStreamer over a flaky transport: faults become retries, not
lost records."""

from __future__ import annotations

from repro.core.problem import Evaluation
from repro.engine.faults import RetryPolicy
from repro.engine.stream import CrowdStreamer
from repro.service import CrowdShard, ServiceClient, SimTransport, build_service


def _make_server():
    server = CrowdShard("node")
    response = server.handle(
        {"route": "register", "username": "alice", "email": "a@lab.gov"}
    )
    return server, response["api_key"]


def _evaluations(n):
    return [
        Evaluation(task={"t": i % 3}, config={"x": float(i)}, output=float(i))
        for i in range(n)
    ]


class TestStreamerOverFlakyTransport:
    def test_every_upload_lands_despite_faults(self):
        server, key = _make_server()
        transport = SimTransport(server.handle, "s0", fault_rate=0.3, seed=11)
        client = ServiceClient(
            transport,
            retry=RetryPolicy(max_retries=8, base_s=0.0),
            sleep=lambda s: None,
        )
        streamer = CrowdStreamer(client, key, "demo")
        for ev in _evaluations(40):
            streamer(ev)
        assert streamer.errors == []
        assert streamer.n_uploaded == 40
        # faults really fired — the client had to retry to get here
        assert client.n_retries > 0
        # server-side count matches exactly: nothing lost, nothing doubled
        stored = server.repository.query(key, problem_name="demo")
        assert len(stored) == 40
        assert {int(r.tuning_parameters["x"]) for r in stored} == set(range(40))

    def test_unretried_faults_would_lose_records(self):
        """Control: the same fault schedule without retries drops data
        (this is the failure the ServiceClient exists to absorb)."""
        server, key = _make_server()
        transport = SimTransport(server.handle, "s0", fault_rate=0.3, seed=11)
        client = ServiceClient(
            transport, retry=RetryPolicy(max_retries=0), sleep=lambda s: None
        )
        streamer = CrowdStreamer(client, key, "demo")
        for ev in _evaluations(40):
            streamer(ev)
        assert streamer.n_uploaded < 40
        assert len(streamer.errors) == 40 - streamer.n_uploaded
        assert all(e["error"] == "unavailable" for e in streamer.errors)
        stored = server.repository.query(key, problem_name="demo")
        assert len(stored) == streamer.n_uploaded

    def test_streamer_over_whole_flaky_service(self):
        """End to end: streamer -> retrying client -> router -> flaky
        shard transports; the deduplicated service view is complete."""
        svc = build_service(3, replication=2, fault_rate=0.15, seed=5)
        try:
            _, key = svc.register_user("alice", "a@lab.gov")
            streamer = CrowdStreamer(svc.client, key, "demo")
            for ev in _evaluations(30):
                streamer(ev)
            assert streamer.n_uploaded == 30
            assert streamer.errors == []
            records = svc.client.handle(
                {"route": "query", "api_key": key, "problem_name": "demo"}
            )["records"]
            assert len(records) == 30
        finally:
            svc.close()
