"""Self-healing replication: quorum writes/reads, read-repair, delta
anti-entropy (also the round a revived shard runs), idempotent retry,
and live membership."""

from __future__ import annotations

import shutil
import time

import pytest

from repro.core import perf
from repro.service.client import RetryPolicy
from repro.service import (
    CrowdShard,
    RouterOptions,
    ServiceClient,
    SimTransport,
    build_service,
)
from repro.service.shard import TOKEN_N, shard_key

_RECORDS = "performance_records"


def _upload(endpoint, key, i, problem="demo", task=None):
    return endpoint.handle(
        {
            "route": "upload",
            "api_key": key,
            "problem_name": problem,
            "task_parameters": task if task is not None else {"t": i % 5},
            "tuning_parameters": {"x": i},
            "output": float(i),
        }
    )


def _pinned_query(endpoint, key, task, problem="demo"):
    return endpoint.handle(
        {
            "route": "query",
            "api_key": key,
            "problem_name": problem,
            "task_parameters": task,
        }
    )


def _copies(svc, uid: int) -> int:
    """Stored replicas of one uid across the whole cluster."""
    return sum(
        len(shard.repository.store[_RECORDS].find({"uid": uid}))
        for shard in svc.shards.values()
    )


def _count_shipped(svc) -> list[int]:
    """Count the records the router sends shards by ``replicate`` from
    now on (in the returned one-element list); a restart unwraps."""
    shipped = [0]
    for transport in svc.transports.values():

        def counting(request, handle=transport.target):
            if request.get("route") == "replicate":
                shipped[0] += len(request["records"])
            return handle(request)

        transport.target = counting
    return shipped


@pytest.fixture()
def svc():
    service = build_service(4, replication=2)
    yield service
    service.close()


@pytest.fixture()
def key(svc):
    return svc.register_user("alice", "alice@lab.gov")[1]


class TestUploadStatus:
    def test_healthy_upload_response_is_pinned(self, svc, key):
        # the documented default-mode response: the legacy fields plus
        # exactly the three replication-visibility keys, nothing else
        assert _upload(svc.client, key, 0) == {
            "ok": True,
            "uid": TOKEN_N + 1,  # token [1, 1]: client 1's first upload
            "status": "ok",
            "replicas_acked": 2,
            "replicas_total": 2,
        }

    def test_degraded_status_when_a_replica_is_down(self, svc, key):
        task = {"t": 0}
        prefs = svc.router.ring.preference(shard_key("demo", task), 2)
        svc.kill_shard(prefs[1])
        response = _upload(svc.client, key, 0, task=task)
        assert response["ok"] is True  # legacy W=1: one ack suffices
        assert response["status"] == "degraded"
        assert response["replicas_acked"] == 1
        assert response["replicas_total"] == 2
        assert _copies(svc, response["uid"]) == 1
        svc.revive_shard(prefs[1])  # the revive round brings the copy
        assert _copies(svc, response["uid"]) == 2

    def test_degraded_status_when_primary_is_down(self, svc, key):
        task = {"t": 1}
        prefs = svc.router.ring.preference(shard_key("demo", task), 2)
        svc.kill_shard(prefs[0])
        response = _upload(svc.client, key, 0, task=task)
        assert response["ok"] is True
        assert response["status"] == "degraded"

    def test_unavailable_reports_zero_acks(self, svc, key):
        for name in svc.transports:
            svc.kill_shard(name)
        response = _upload(svc.router, key, 0)
        assert response["ok"] is False
        assert response["error"] == "unavailable"
        assert response["replicas_acked"] == 0
        assert response["replicas_total"] == 2
        # nothing landed anywhere: no repair may resurrect a nacked write
        for name in svc.transports:
            svc.revive_shard(name)
        assert svc.total_records() == 0


class TestQuorumWrites:
    def test_quorum_met_upload_acks(self):
        svc = build_service(4, replication=2, write_quorum=2)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            response = _upload(svc.client, key, 0)
            assert response["ok"] is True
            assert response["status"] == "ok"
            assert response["replicas_acked"] == 2
        finally:
            svc.close()

    def test_quorum_miss_is_an_error_not_a_silent_ok(self):
        svc = build_service(4, replication=2, write_quorum=2)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            task = {"t": 0}
            prefs = svc.router.ring.preference(shard_key("demo", task), 2)
            svc.kill_shard(prefs[1])
            stats = perf.PerfStats()
            with perf.collect(stats):
                response = _upload(svc.client, key, 0, task=task)
            assert response["ok"] is False
            assert response["error"] == "quorum"
            assert response["status"] == "degraded"
            assert response["replicas_acked"] == 1
            assert response["replicas_total"] == 2
            counters = stats.snapshot()["counters"]
            assert counters["service_quorum_failures"] == 1
            # the surviving replica holds the write; the dead one takes
            # it on revive, so the record reaches full replication
            assert _copies(svc, response["uid"]) == 1
            svc.revive_shard(prefs[1])
            assert _copies(svc, response["uid"]) == 2
        finally:
            svc.close()

    def test_quorum_options_validated(self):
        with pytest.raises(ValueError):
            RouterOptions(replication=2, write_quorum=3)
        with pytest.raises(ValueError):
            RouterOptions(replication=2, write_quorum=0)
        with pytest.raises(ValueError):
            RouterOptions(replication=2, read_quorum=3)
        with pytest.raises(ValueError):
            RouterOptions(anti_entropy_interval_s=0.0)


class TestReviveHeals:
    def test_kill_mid_stream_then_heal_on_revive(self, svc, key):
        victim = "shard-0"
        acked = []
        for i in range(10):
            acked.append(_upload(svc.client, key, i)["uid"])
        svc.kill_shard(victim)
        shipped = _count_shipped(svc)
        stats = perf.PerfStats()
        with perf.collect(stats):
            for i in range(10, 30):
                response = _upload(svc.client, key, i)
                assert response["ok"]
                acked.append(response["uid"])
            missed = [uid for uid in acked if _copies(svc, uid) == 1]
            # revive fires the transport's on_up hook -> the shard's round
            svc.revive_shard(victim)
        counters = stats.snapshot()["counters"]
        assert missed
        # what was missing is what moved: no bucket is re-sent whole
        assert shipped[0] == counters["service_antientropy_records_shipped"] == len(missed)
        assert counters["service_antientropy_records_healed"] == len(missed)
        # every acked write is fully replicated again
        for uid in acked:
            assert _copies(svc, uid) == 2

    def test_a_round_during_an_outage_ships_nothing(self, svc, key):
        """The reachable replica of a bucket whose other replica is down
        agrees with itself: the round has nothing to send it."""
        for i in range(20):
            assert _upload(svc.client, key, i)["ok"]
        svc.kill_shard("shard-0")
        for i in range(20, 30):
            assert _upload(svc.client, key, i)["ok"]
        shipped = _count_shipped(svc)
        for _ in range(2):
            assert svc.router.anti_entropy_round()["healed"] == 0
        assert shipped[0] == 0

    def test_a_restart_that_missed_nothing_ships_nothing(self, tmp_path):
        svc = build_service(4, replication=2, data_dir=tmp_path)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            for i in range(20):
                assert _upload(svc.client, key, i, task={"t": i % 7})["ok"]
            stats = perf.PerfStats()
            with perf.collect(stats):
                for name in sorted(svc.shards):
                    svc.restart_shard(name)
            counters = stats.snapshot()["counters"]
            assert counters["service_antientropy_rounds"] == 4
            assert "service_antientropy_records_shipped" not in counters
            assert svc.total_records() == 40
        finally:
            svc.close()

    def test_a_failed_background_round_keeps_its_reason(self, monkeypatch):
        svc = build_service(
            3,
            options=RouterOptions(replication=2, anti_entropy_interval_s=0.02),
        )
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            uid = _upload(svc.client, key, 0, task={"t": 0})["uid"]
            prefs = svc.router.ring.preference(shard_key("demo", {"t": 0}), 2)
            heal = svc.router.anti_entropy_round
            failures = []

            def fail_once(*args, **kwargs):
                if not failures:
                    failures.append(1)
                    raise RuntimeError("digest exchange broke")
                return heal(*args, **kwargs)

            stats = perf.PerfStats()
            with perf.collect(stats):
                monkeypatch.setattr(svc.router, "anti_entropy_round", fail_once)
                svc.shards[prefs[1]].repository.store[_RECORDS].delete({"uid": uid})
                deadline = time.monotonic() + 5.0
                while _copies(svc, uid) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
            assert _copies(svc, uid) == 2  # the next round healed
            assert stats.snapshot()["counters"]["service_antientropy_errors"] == 1
            assert svc.router.last_antientropy_error == (
                "RuntimeError('digest exchange broke')"
            )
        finally:
            svc.close()


class TestReadRepair:
    def _stale_replica(self, svc, key, task):
        """Upload, then wipe one replica's copy of the task's bucket."""
        uids = [_upload(svc.client, key, i, task=task)["uid"] for i in range(4)]
        prefs = svc.router.ring.preference(shard_key("demo", task), 2)
        stale = prefs[1]
        svc.shards[stale].repository.store[_RECORDS].delete(
            {"uid": {"$in": uids}}
        )
        return uids, prefs, stale

    def test_quorum_read_converges_a_stale_replica(self):
        svc = build_service(4, replication=2, read_quorum=2)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            task = {"t": 7}
            uids, prefs, stale = self._stale_replica(svc, key, task)
            assert svc.shards[stale].repository.store[_RECORDS].find({}) == []
            stats = perf.PerfStats()
            with perf.collect(stats):
                response = _pinned_query(svc.client, key, task)
            # the merged read is complete despite the stale replica...
            assert sorted(r["uid"] for r in response["records"]) == uids
            # ...and the stale replica was repaired in passing
            counters = stats.snapshot()["counters"]
            assert counters["service_read_repairs"] == len(uids)
            for uid in uids:
                assert _copies(svc, uid) == 2
            # second read: nothing left to repair
            stats2 = perf.PerfStats()
            with perf.collect(stats2):
                again = _pinned_query(svc.client, key, task)
            assert again["records"] == response["records"]
            assert "service_read_repairs" not in stats2.snapshot()["counters"]
        finally:
            svc.close()

    def test_legacy_read_quorum_1_does_not_repair(self, svc, key):
        task = {"t": 7}
        uids, prefs, stale = self._stale_replica(svc, key, task)
        stats = perf.PerfStats()
        with perf.collect(stats):
            response = _pinned_query(svc.client, key, task)
        assert response["ok"]
        assert "service_read_repairs" not in stats.snapshot()["counters"]
        assert svc.shards[stale].repository.store[_RECORDS].find({}) == []

    def test_fanout_merge_is_newest_wins(self, svc, key):
        task = {"t": 2}
        uid = _upload(svc.client, key, 0, task=task)["uid"]
        prefs = svc.router.ring.preference(shard_key("demo", task), 2)
        # plant an older divergent version of the same uid on one replica
        doc = svc.shards[prefs[0]].repository.store[_RECORDS].find(
            {"uid": uid}
        )[0]
        doc.pop("_id")
        doc["output"] = -99.0
        doc["timestamp"] = doc["timestamp"] - 0.5
        svc.shards[prefs[1]].repository.store[_RECORDS].delete({"uid": uid})
        svc.shards[prefs[1]].handle({"route": "replicate", "records": [doc]})
        response = svc.client.handle(
            {"route": "query", "api_key": key, "problem_name": "demo"}
        )
        (record,) = response["records"]
        assert record["output"] == 0.0  # newest version won the merge


class TestIdempotentRetry:
    def test_exactly_one_record_after_n_faulted_attempts(self):
        svc = build_service(2, replication=2)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            # request 1 asks for the client's id; the upload's acks 2
            # and 3 are lost *after* the router applied the write
            flaky = SimTransport(
                svc.router.handle, "router", scripted_response_faults=[2, 3]
            )
            client = ServiceClient(
                flaky,
                retry=RetryPolicy(max_retries=4, base_s=0.0),
                sleep=lambda s: None,
            )
            response = _upload(client, key, 0)
            assert response["ok"]
            assert response["uid"] == TOKEN_N + 1  # every retry names one uid
            assert flaky.n_requests == 4  # the id, two lost acks, the success
            assert svc.total_records() == 2  # replication, not duplication
            assert _copies(svc, TOKEN_N + 1) == 2
        finally:
            svc.close()

    def test_without_token_retries_would_duplicate(self):
        # the regression the token fixes: strip the idempotency key and
        # the same fault schedule stores two copies per replica
        svc = build_service(2, replication=2)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]

            class _Stripping(ServiceClient):
                def _stamp_idempotency(self, request):
                    return request

            flaky = SimTransport(
                svc.router.handle, "router", scripted_response_faults=[1]
            )
            client = _Stripping(
                flaky,
                retry=RetryPolicy(max_retries=4, base_s=0.0),
                sleep=lambda s: None,
            )
            assert _upload(client, key, 0)["ok"]
            assert svc.total_records() == 4  # 2 uids x 2 replicas
        finally:
            svc.close()

    def test_distinct_uploads_are_not_deduplicated(self, svc, key):
        first = _upload(svc.client, key, 0, task={"t": 0})
        second = _upload(svc.client, key, 1, task={"t": 0})
        assert first["uid"] != second["uid"]
        response = _pinned_query(svc.client, key, {"t": 0})
        assert len(response["records"]) == 2


class TestRestartShard:
    def _holders(self, svc, uid: int) -> list[str]:
        return sorted(
            name
            for name, shard in svc.shards.items()
            if shard.repository.store[_RECORDS].find({"uid": uid})
        )

    def test_a_write_racing_a_restart_is_healed_not_refused(self, tmp_path, monkeypatch):
        """An upload that arrives while a shard recovers finds the node
        down: the other replica takes it, and the revive round copies it
        over once the node is back.  (While the upload reached
        the closed node being replaced, its store refused the write as
        unjournaled, and the client got ``bad_request`` for a valid
        upload that no replica kept.)"""
        svc = build_service(2, replication=2, data_dir=tmp_path)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            assert _upload(svc.client, key, 0)["ok"]
            racing: list[dict] = []
            recover = CrowdShard._recover_store

            def recover_with_a_racing_upload(shard):
                racing.append(_upload(svc.client, key, 1))
                return recover(shard)

            monkeypatch.setattr(CrowdShard, "_recover_store", recover_with_a_racing_upload)
            svc.restart_shard("shard-0")
            assert len(racing) == 1
            assert racing[0]["ok"] and racing[0]["status"] == "degraded", racing[0]
            assert not svc.transports["shard-0"].down
            assert self._holders(svc, racing[0]["uid"]) == ["shard-0", "shard-1"]
        finally:
            svc.close()

    def test_a_down_shard_stays_down_across_a_restart(self, tmp_path):
        svc = build_service(2, replication=2, data_dir=tmp_path)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            svc.kill_shard("shard-0")
            uid = _upload(svc.client, key, 0)["uid"]
            svc.restart_shard("shard-0")
            assert svc.transports["shard-0"].down
            assert self._holders(svc, uid) == ["shard-1"]
            svc.revive_shard("shard-0")
            assert self._holders(svc, uid) == ["shard-0", "shard-1"]
        finally:
            svc.close()


class TestAntiEntropy:
    def test_heals_replica_restored_from_old_snapshot(self, tmp_path):
        svc = build_service(3, replication=2, data_dir=tmp_path, snapshot_every=4)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            for i in range(8):
                assert _upload(svc.client, key, i, task={"t": i})["ok"]
            svc.snapshot_all()
            victim = max(svc.shards, key=lambda n: svc.shards[n].count())
            stale_count = svc.shards[victim].count()
            backup = tmp_path / "backup"
            shutil.copytree(tmp_path / victim, backup)
            for i in range(8, 16):
                assert _upload(svc.client, key, i, task={"t": i})["ok"]
            full_count = svc.shards[victim].count()
            assert stale_count < full_count

            # crash the node and restore it from the stale image: the
            # restart's revive round heals exactly what the image lacks
            svc.shards[victim].close()
            shutil.rmtree(tmp_path / victim)
            shutil.copytree(backup, tmp_path / victim)
            stats = perf.PerfStats()
            with perf.collect(stats):
                svc.restart_shard(victim)
            assert svc.shards[victim].count() == full_count
            counters = stats.snapshot()["counters"]
            assert counters["service_antientropy_rounds"] == 1
            assert (
                counters["service_antientropy_records_healed"]
                == counters["service_antientropy_records_shipped"]
                == full_count - stale_count
            )
            # converged: a second round heals nothing
            assert svc.router.anti_entropy_round()["healed"] == 0
            for i in range(16):
                response = _pinned_query(svc.client, key, {"t": i})
                assert len(response["records"]) == 1
        finally:
            svc.close()

    def test_kept_digests_see_a_copy_lost_or_replaced_after_a_round(self, svc, key):
        """Shards keep their digests between rounds: a copy deleted from
        one replica, or replaced there by a newer version, must show in
        the next round."""
        uid = _upload(svc.client, key, 0, task={"t": 0})["uid"]
        prefs = svc.router.ring.preference(shard_key("demo", {"t": 0}), 2)
        assert svc.router.anti_entropy_round()["healed"] == 0
        svc.shards[prefs[1]].repository.store[_RECORDS].delete({"uid": uid})
        assert svc.router.anti_entropy_round()["healed"] == 1
        assert _copies(svc, uid) == 2

        doc = svc.shards[prefs[0]].repository.store[_RECORDS].find({"uid": uid})[0]
        doc.pop("_id")
        doc["output"] = 7.0
        doc["timestamp"] += 0.5
        svc.shards[prefs[0]].handle({"route": "replicate", "records": [doc]})
        assert svc.router.anti_entropy_round()["healed"] == 1
        for name in prefs:
            (held,) = svc.shards[name].repository.store[_RECORDS].find({"uid": uid})
            assert held["output"] == 7.0

    def test_background_thread_heals_without_manual_rounds(self):
        svc = build_service(
            3,
            options=RouterOptions(replication=2, anti_entropy_interval_s=0.02),
        )
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            uid = _upload(svc.client, key, 0, task={"t": 0})["uid"]
            prefs = svc.router.ring.preference(shard_key("demo", {"t": 0}), 2)
            svc.shards[prefs[1]].repository.store[_RECORDS].delete({"uid": uid})
            deadline = 200
            while _copies(svc, uid) < 2 and deadline:
                time.sleep(0.01)
                deadline -= 1
            assert _copies(svc, uid) == 2
        finally:
            svc.close()


class TestMembership:
    def _fill(self, svc, key, n=24):
        uids = []
        for i in range(n):
            response = _upload(svc.client, key, i, task={"t": i % 8})
            assert response["ok"]
            uids.append(response["uid"])
        return uids

    def test_join_streams_buckets_to_the_new_shard(self):
        svc = build_service(3, replication=2)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            uids = self._fill(svc, key)
            assert svc.total_records() == 2 * len(uids)
            name = svc.add_shard()
            assert name == "shard-3"
            # handoff converged: exactly K copies of everything, the new
            # shard took real ownership, and every read still works
            assert svc.total_records() == 2 * len(uids)
            assert svc.shards[name].count() > 0
            for uid in uids:
                assert _copies(svc, uid) == 2
            for t in range(8):
                response = _pinned_query(svc.client, key, {"t": t})
                assert len(response["records"]) == 3
        finally:
            svc.close()

    def test_graceful_leave_streams_data_out_first(self):
        svc = build_service(4, replication=2)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            uids = self._fill(svc, key)
            victim = max(svc.shards, key=lambda n: svc.shards[n].count())
            svc.remove_shard(victim)
            assert victim not in svc.shards
            assert svc.total_records() == 2 * len(uids)
            for uid in uids:
                assert _copies(svc, uid) == 2
            for t in range(8):
                response = _pinned_query(svc.client, key, {"t": t})
                assert len(response["records"]) == 3
        finally:
            svc.close()

    def test_crash_leave_then_anti_entropy_restores_replication(self):
        svc = build_service(4, replication=2)
        try:
            key = svc.register_user("alice", "a@lab.gov")[1]
            uids = self._fill(svc, key)
            victim = max(svc.shards, key=lambda n: svc.shards[n].count())
            svc.kill_shard(victim)
            svc.remove_shard(victim, graceful=False)
            # some uids are down to one copy until the next healing round
            assert min(_copies(svc, uid) for uid in uids) == 1
            svc.router.anti_entropy_round()
            for uid in uids:
                assert _copies(svc, uid) == 2
        finally:
            svc.close()

    def test_remove_last_shard_is_rejected(self):
        svc = build_service(1, replication=1)
        try:
            with pytest.raises(ValueError):
                svc.remove_shard("shard-0")
        finally:
            svc.close()
