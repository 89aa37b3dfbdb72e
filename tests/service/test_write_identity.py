"""The writer names the write: a record's uid is its upload token's.

A client asks the deployment for its id once (the router issues it and
every shard journals it) and names every upload ``[client_id, n]``; the
router derives the uid from that token and keeps nothing per write.  So
a retry lands on the record it retries after a lost ack, across a router
restart and after any number of other writes; two clients never share a
uid, whichever shard is down or gone; and a router starts from the
shards' clocks and client-id counts without reading a document.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import tracemalloc

from repro.core import perf
from repro.crowd.database import Collection
from repro.crowd.users import UserRegistry
from repro.registry import RegistryOptions
from repro.service import CrowdShard, ServiceClient, TransportError, build_service
from repro.service import client as client_module
from repro.service.client import RetryPolicy
from repro.service.shard import CLIENT_IDS, TOKEN_N, shard_key

from .golden_transcript import SPACE
from .links import lossy

_RECORDS = "performance_records"
TASK = {"t": 1}


def _upload(endpoint, key, i, task=TASK):
    return endpoint.handle(
        {
            "route": "upload",
            "api_key": key,
            "problem_name": "demo",
            "task_parameters": task,
            "tuning_parameters": {"x": i},
            "output": float(i),
        }
    )


def _held(svc, uid: int) -> dict[str, list[str]]:
    """Per shard, the stored copies of ``uid`` (``_id`` dropped) as JSON."""
    return {
        name: [
            json.dumps({k: v for k, v in doc.items() if k != "_id"}, sort_keys=True)
            for doc in shard.repository.store[_RECORDS].find({"uid": uid})
        ]
        for name, shard in sorted(svc.shards.items())
    }


class _FirstUploadAckLost:
    """``front`` behind a link that applies the first upload but loses its ack."""

    def __init__(self, front) -> None:
        self.front = front
        self.uploads = 0

    def handle(self, request):
        response = self.front.handle(request)
        if request.get("route") == "upload":
            self.uploads += 1
            if self.uploads == 1:
                raise TransportError("ack lost")
        return response


def _flaky_client(front, between) -> tuple[ServiceClient, _FirstUploadAckLost]:
    """A client over such a link that runs ``between()`` before it retries."""
    link = _FirstUploadAckLost(front)
    retry = RetryPolicy(max_retries=1, base_s=0.0)
    return ServiceClient(link, retry=retry, sleep=lambda s: between()), link


class TestRetryNamesTheSameRecord:
    def test_a_lost_ack_retried_across_a_router_restart_is_stored_once(self, tmp_path):
        with build_service(2, replication=2, write_quorum=1, data_dir=tmp_path) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            old_router = svc.router
            # the first attempt reaches shard-0 only (which also issues
            # client ids), and its ack is lost; the router restarts before
            # the client retries
            link_lost = contextlib.ExitStack()
            link_lost.enter_context(lossy(svc.transports["shard-1"]))

            def restart() -> None:
                link_lost.close()
                svc.restart_router()

            client, link = _flaky_client(svc, restart)
            response = _upload(client, key, 0)
            assert response["ok"] and link.uploads == 2
            assert svc.router is not old_router
            uid = response["uid"]
            assert uid % TOKEN_N == 1  # the client's first upload
            held = _held(svc, uid)
            assert [len(copies) for copies in held.values()] == [1, 1]
            assert held["shard-0"] != held["shard-1"]  # two stamps
            assert svc.total_records() == 2
            # the retry stored its replica under a newer stamp: one round
            # makes the copies byte-identical
            svc.router.anti_entropy_round()
            held = _held(svc, uid)
            assert held["shard-0"] == held["shard-1"]
            assert svc.total_records() == 2

    def test_a_retry_after_5000_other_writes_is_stored_once(self):
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]

            def others() -> None:
                for i in range(5000):
                    assert _upload(svc.client, key, i + 1, task={"t": 2})["ok"]

            client, _ = _flaky_client(svc.router, others)
            response = _upload(client, key, 0)
            assert response["ok"]
            assert [len(copies) for copies in _held(svc, response["uid"]).values()] == [1, 1]
            assert svc.total_records() == 2 * 5001

    def test_two_clients_whose_local_counts_coincide_never_share_a_uid(
        self, tmp_path, monkeypatch
    ):
        with build_service(2, replication=2, data_dir=tmp_path) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            uids = []
            for i in range(2):
                # whatever a process counts locally starts over for each
                monkeypatch.setattr(
                    client_module, "_client_tags", itertools.count(1), raising=False
                )
                uids.append(_upload(ServiceClient(svc.router), key, i)["uid"])
            assert uids[0] != uids[1]
            assert svc.total_records() == 4
        # the ids are journaled: a deployment restarted from disk goes on
        with build_service(2, replication=2, data_dir=tmp_path, users=svc.users) as revived:
            uids.append(_upload(ServiceClient(revived), key, 2)["uid"])
        assert len({uid // TOKEN_N for uid in uids}) == 3

    def test_removing_the_first_shard_keeps_the_client_id_count(self, tmp_path):
        with build_service(3, replication=2, data_dir=tmp_path) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            first = _upload(ServiceClient(svc), key, 0)
            svc.remove_shard("shard-0")
            second = _upload(ServiceClient(svc), key, 1)
            svc.restart_router()  # the count resumes from the shards left
            third = _upload(ServiceClient(svc), key, 2)
            ids = [r["uid"] // TOKEN_N for r in (first, second, third)]
            assert ids == [1, 2, 3]
            for response in (first, second, third):
                held = _held(svc, response["uid"])
                assert sum(len(copies) for copies in held.values()) == 2
            assert svc.total_records() == 6

    def test_a_reissued_uid_with_other_content_is_refused_not_acked(self):
        """A rolling replacement of every shard, then a router restart:
        the new shards never journaled client id 1, so the next client is
        issued it again and names its first upload with client A's uid.
        That upload is refused as a ``conflict``, never acknowledged (it
        was acked and stored nowhere); a true retry is still a duplicate."""
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            first = _upload(ServiceClient(svc), key, 0)
            assert first["ok"]
            svc.add_shard()
            svc.add_shard()
            for name in ("shard-0", "shard-1"):
                svc.remove_shard(name)
            svc.restart_router()
            client_b = ServiceClient(svc)
            response = _upload(client_b, key, 7)
            assert not response["ok"] and response["error"] == "conflict"
            assert response.get("uid") is None and "replicas_acked" not in response
            held = _held(svc, first["uid"])
            assert [len(copies) for copies in held.values()] == [1, 1]
            assert all('"x": 0' in copies[0] for copies in held.values())
            # the same content under the same uid is a retry, not a conflict
            retry = svc.router.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "demo",
                    "task_parameters": TASK,
                    "tuning_parameters": {"x": 0},
                    "output": 0.0,
                    "idempotency_key": [first["uid"] // TOKEN_N, first["uid"] % TOKEN_N],
                }
            )
            assert retry["ok"] and retry["uid"] == first["uid"]
            assert svc.total_records() == 2

    def test_a_refused_rewrite_never_replaces_an_acked_record(self):
        """A write one replica holds (the other's link lost it), then the
        same token with other content: the holder refuses it as a
        ``conflict``, but every target is asked, so the replica that
        missed the first write stores it; anti-entropy keeps the oldest
        copy of a uid, so the acknowledged record replaces it there."""
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]

            def write(x: int) -> dict:
                return svc.router.handle(
                    {
                        "route": "upload",
                        "api_key": key,
                        "problem_name": "demo",
                        "task_parameters": TASK,
                        "tuning_parameters": {"x": x},
                        "output": float(x),
                        "idempotency_key": [1, 1],
                    }
                )

            with lossy(svc.transports["shard-1"]):
                acked = write(0)
            assert acked["ok"] and acked["replicas_acked"] == 1
            assert write(7)["error"] == "conflict"
            svc.router.anti_entropy_round()
            held = _held(svc, acked["uid"])
            assert all('"x": 0' in copies[0] for copies in held.values()), held

    def test_a_new_client_gets_a_tokened_upload_while_a_shard_is_down(self):
        with build_service(3, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            svc.kill_shard("shard-0")
            # a task the down shard holds no replica of: only the id
            # request reaches it
            task = next(
                {"t": t} for t in range(64)
                if "shard-0" not in svc.router.ring.preference(shard_key("demo", {"t": t}), 2)
            )
            with perf.collect() as stats:
                response = _upload(ServiceClient(svc), key, 0, task=task)
            assert response["ok"] and response["uid"] == TOKEN_N + 1
            # and it is sent once: no retry, so no backoff
            counters = stats.snapshot()["counters"]
            assert "service_client_retries" not in counters
            assert counters["service_client_gaveups"] == 1
            # the others journaled the id: a restarted router goes on
            svc.restart_router()
            svc.revive_shard("shard-0")
            assert _upload(ServiceClient(svc), key, 1)["uid"] == 2 * TOKEN_N + 1

    def test_once_the_client_ids_run_out_uploads_go_untokened(self):
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            svc.router._client_ids = CLIENT_IDS - 2
            last = _upload(ServiceClient(svc), key, 0)
            assert last["uid"] == (CLIENT_IDS - 1) * TOKEN_N + 1
            assert float(last["uid"]) == last["uid"]  # exact as a float64
            refused = svc.handle({"route": "client_id", "api_key": key})
            assert refused["error"] == "unavailable"
            untokened = _upload(ServiceClient(svc), key, 1)
            assert untokened["ok"] and untokened["uid"] < TOKEN_N
            assert svc.total_records() == 4

    def test_a_refused_client_id_is_taken_back(self):
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            assert svc.handle({"route": "client_id", "api_key": "no-such-key"})["error"] == "auth"
            for name in svc.transports:
                svc.kill_shard(name)
            assert svc.handle({"route": "client_id", "api_key": key})["error"] == "unavailable"
            for name in svc.transports:
                svc.revive_shard(name)
            assert svc.handle({"route": "client_id", "api_key": key})["client_id"] == 1

    def test_untokened_writes_take_their_uid_from_the_write_clock(self):
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            first = _upload(svc.router, key, 0)
            second = _upload(svc.client, key, 1)
            third = _upload(svc.router, key, 2)
            assert (first["uid"], second["uid"], third["uid"]) == (1, TOKEN_N + 1, 3)

    def test_a_node_names_a_tokened_write_by_its_token(self):
        node = CrowdShard("node")
        key = node.repository.users.issue_api_key(
            node.repository.users.register("alice", "a@lab.gov").username
        )
        request = {
            "route": "upload",
            "api_key": key,
            "problem_name": "demo",
            "task_parameters": TASK,
            "tuning_parameters": {"x": 0},
            "output": 0.0,
            "idempotency_key": [3, 7],
        }
        assert node.handle(request) == {"ok": True, "uid": 3 * TOKEN_N + 7}
        assert node.handle(request)["duplicate"]
        assert node.count() == 1

    def test_a_restarted_node_never_reuses_an_unnamed_writes_uid(self, tmp_path):
        """Two lifetimes of one durable node each take one raw request
        (no uid, no token): the second names its write past the first."""
        users = UserRegistry()
        users.register("alice", "a@lab.gov")
        key = users.issue_api_key("alice")
        for i in range(2):
            with CrowdShard("node", tmp_path, users=users) as node:
                assert _upload(node, key, i)["uid"] == i + 1
        with CrowdShard("node", tmp_path, users=users) as node:
            stored = node.repository.store[_RECORDS].find({})
        assert [(doc["uid"], doc["timestamp"]) for doc in stored] == [(1, 1.0), (2, 2.0)]


class TestRouterStartUp:
    def test_start_up_reads_no_document_and_resumes_the_clock(self, tmp_path, monkeypatch):
        svc = build_service(3, replication=2, data_dir=tmp_path, registry=RegistryOptions())
        key = svc.register_user("alice", "a@lab.gov")[1]
        for i in range(12):
            assert _upload(svc.client, key, i, task={"t": i % 4})["ok"]
        # the newest stamp is a problem registration's, held by no record
        assert svc.client.handle(
            {"route": "register_problem", "api_key": key, "problem_name": "demo",
             "problem_space": SPACE}
        )["ok"]
        svc.close()
        newest = 13.0

        reads: list[str] = []
        in_node = [0]  # a node's own recovery scan reads its store
        original_init = CrowdShard.__init__

        def node_init(self, *args, **kwargs):
            in_node[0] += 1
            try:
                original_init(self, *args, **kwargs)
            finally:
                in_node[0] -= 1

        def spy(name):
            original = getattr(Collection, name)

            def read(self, *args, **kwargs):
                if not in_node[0]:
                    reads.append(f"{self.name}.{name}")
                return original(self, *args, **kwargs)

            return read

        monkeypatch.setattr(CrowdShard, "__init__", node_init)
        for name in ("find", "find_one"):
            monkeypatch.setattr(Collection, name, spy(name))
        with build_service(
            3, replication=2, data_dir=tmp_path, users=svc.users, registry=RegistryOptions()
        ) as revived:
            assert reads == []
            assert revived.router._write_clock == newest
            revived.restart_router()
            assert reads == []
            assert revived.router._write_clock == newest
            monkeypatch.undo()
            _upload(revived.client, key, 99)
            stamps = [
                doc["timestamp"]
                for shard in revived.shards.values()
                for doc in shard.repository.store[_RECORDS].find({})
            ]
        assert max(stamps) == newest + 1.0
        assert sorted(stamps).count(newest + 1.0) == 2  # both replicas of the new write

    def test_restart_router_resumes_past_a_live_problem_registration(self):
        with build_service(2, replication=2, registry=RegistryOptions()) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            assert _upload(svc.client, key, 0)["ok"]
            register = {"route": "register_problem", "api_key": key, "problem_name": "demo",
                        "problem_space": SPACE}
            assert svc.client.handle(register)["ok"]
            svc.restart_router()
            assert svc.router._write_clock == 2.0
            # a re-registration is newer than the first, so it lands
            changed = {**register, "problem_space": {**SPACE, "output_space": []}}
            assert svc.client.handle(changed)["changed"]

    def test_restart_router_moves_the_heal_hooks_and_stops_the_old_thread(self):
        with build_service(2, replication=2, anti_entropy_interval_s=60.0) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            old = svc.router
            svc.kill_shard("shard-1")
            for i in range(4):
                assert _upload(svc.client, key, i, task={"t": i})["ok"]
            svc.restart_router()
            assert old._ae_thread is None
            assert svc.router._ae_thread is not None
            svc.revive_shard("shard-1")  # the new router's round heals it
            counts = {name: shard.count() for name, shard in svc.shards.items()}
            assert counts == {"shard-0": 4, "shard-1": 4}


class TestRouterHoldsNoPerWriteState:
    def test_router_memory_does_not_grow_with_the_write_count(self):
        # what the service package allocated and still holds once the
        # records (which keep their stamps) are gone: the router's own
        # state, and the client tokens it might keep alive
        service_code = [
            tracemalloc.Filter(True, "*service/router.py"),
            tracemalloc.Filter(True, "*service/client.py"),
        ]
        with build_service(1, replication=1) as svc:
            key = svc.register_user("alice", "a@lab.gov")[1]
            for i in range(100):  # warm: the first writes build what every write reuses
                _upload(svc.client, key, i, task={"t": i % 8})
            tracemalloc.start()
            try:
                before = tracemalloc.take_snapshot().filter_traces(service_code)
                for i in range(5000):
                    _upload(svc.client, key, i, task={"t": i % 8})
                svc.shards["shard-0"].repository.store.drop(_RECORDS)
                gc.collect()
                after = tracemalloc.take_snapshot().filter_traces(service_code)
            finally:
                tracemalloc.stop()
        grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert grown < 16_384, grown


def test_anti_entropy_sends_each_digest_request_once():
    with build_service(3, replication=2) as svc:
        key = svc.register_user("alice", "a@lab.gov")[1]
        for i in range(6):
            assert _upload(svc.client, key, i, task={"t": i})["ok"]
        svc.kill_shard("shard-1")
        sent = {name: t.n_requests for name, t in svc.transports.items()}
        with perf.collect() as stats:
            round_stats = svc.router.anti_entropy_round()
        # the reachable copies agree, so the digests are all the round sends
        sent = {name: t.n_requests - sent[name] for name, t in svc.transports.items()}
        assert sent == {"shard-0": 1, "shard-1": 1, "shard-2": 1}
        counters = stats.snapshot()["counters"]
        assert "service_client_retries" not in counters  # no backoff on the down shard
        assert counters["service_client_gaveups"] == 1
        assert round_stats["reachable"] == ["shard-0", "shard-2"]
