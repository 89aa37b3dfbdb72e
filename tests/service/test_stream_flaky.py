"""Uploads through a ServiceClient over a flaky transport: faults become
retries, not lost records."""

from __future__ import annotations

from repro.service import CrowdShard, ServiceClient, SimTransport, build_service
from repro.service.client import RetryPolicy


def _make_server():
    server = CrowdShard("node")
    response = server.handle(
        {"route": "register", "username": "alice", "email": "a@lab.gov"}
    )
    return server, response["api_key"]


def _upload_all(client, key, n):
    """Upload ``n`` evaluations through ``client``; returns the accepted
    uids and the error responses."""
    uids, errors = [], []
    for i in range(n):
        response = client.handle(
            {
                "route": "upload",
                "api_key": key,
                "problem_name": "demo",
                "task_parameters": {"t": i % 3},
                "tuning_parameters": {"x": float(i)},
                "output": float(i),
                "machine_configuration": {},
                "software_configuration": {},
            }
        )
        if response.get("ok"):
            uids.append(response["uid"])
        else:
            errors.append(response)
    return uids, errors


class TestStreamerOverFlakyTransport:
    def test_every_upload_lands_despite_faults(self):
        server, key = _make_server()
        transport = SimTransport(server.handle, "s0", fault_rate=0.3, seed=11)
        client = ServiceClient(
            transport,
            retry=RetryPolicy(max_retries=8, base_s=0.0),
            sleep=lambda s: None,
        )
        uids, errors = _upload_all(client, key, 40)
        assert errors == []
        assert len(uids) == 40
        # faults really fired — the client had to retry to get here
        assert client.n_retries > 0
        # server-side count matches exactly: nothing lost, nothing doubled
        stored = server.repository.query_docs(key, problem_name="demo")
        assert len(stored) == 40
        assert {int(r["tuning_parameters"]["x"]) for r in stored} == set(range(40))

    def test_unretried_faults_would_lose_records(self):
        """Control: the same fault schedule without retries drops data
        (this is the failure the ServiceClient exists to absorb)."""
        server, key = _make_server()
        transport = SimTransport(server.handle, "s0", fault_rate=0.3, seed=11)
        client = ServiceClient(
            transport, retry=RetryPolicy(max_retries=0), sleep=lambda s: None
        )
        uids, errors = _upload_all(client, key, 40)
        assert len(uids) < 40
        assert len(errors) == 40 - len(uids)
        assert all(e["error"] == "unavailable" for e in errors)
        stored = server.repository.query_docs(key, problem_name="demo")
        assert len(stored) == len(uids)

    def test_streamer_over_whole_flaky_service(self):
        """End to end: retrying client -> router -> flaky shard
        transports; the deduplicated service view is complete."""
        svc = build_service(3, replication=2, fault_rate=0.15, seed=5)
        try:
            _, key = svc.register_user("alice", "a@lab.gov")
            uids, errors = _upload_all(svc.client, key, 30)
            assert len(uids) == 30
            assert errors == []
            records = svc.client.handle(
                {"route": "query", "api_key": key, "problem_name": "demo"}
            )["records"]
            assert len(records) == 30
        finally:
            svc.close()
