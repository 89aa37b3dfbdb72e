"""Durability tests: the journal, its compaction, and shard crash recovery.

The pinned acceptance test is :func:`TestCrashRecovery.
test_shard_killed_mid_stream_recovers_bit_identical`: a shard is killed
(its in-memory state simply dropped, no close/snapshot) in the middle of
a write stream and must recover from its journal to *bit-identical*
``DocumentStore`` contents.  The kill points of the journal/compaction
protocol itself (torn tail, compacted file written but not yet in place,
...) are in ``test_durable_log.py``, run against the shard and the
fabric's job queue alike.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.crowd.database import DocumentStore
from repro.crowd.users import UserRegistry
from repro.service import CrowdShard, DurableLog
from repro.service import wal as wal_module
from repro.service.wal import iter_wal


def _upload(shard, key, i, problem="demo"):
    return shard.handle(
        {
            "route": "upload",
            "api_key": key,
            "problem_name": problem,
            "task_parameters": {"t": i % 3},
            "tuning_parameters": {"x": i},
            "output": float(i),
        }
    )


def _new_shard(tmp_path, name="s0", **kwargs):
    users = UserRegistry()
    users.register("alice", "a@lab.gov")
    key = users.issue_api_key("alice")
    shard = CrowdShard(name, tmp_path / name, users=users, **kwargs)
    return shard, key


def _store_bytes(shard) -> str:
    return "\n".join(shard.repository.store.journal_lines())


def _journal(data_dir, **kwargs) -> DurableLog:
    """A bare log over ``data_dir/wal.jsonl``, open for append."""
    log = DurableLog(data_dir, "wal.jsonl", snapshot_every=10_000, **kwargs)
    log.recover()
    return log


def _recovered(data_dir):
    """The store a shard recovers from disk."""
    with CrowdShard("s0", data_dir, users=UserRegistry()) as shard:
        store = shard.repository.store
    store.set_observer(None)  # the shard is closed: a plain store from here on
    return store


class TestWriteAheadLog:
    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = _journal(tmp_path)
        wal.append({"op": "insert", "c": "x", "doc": {"_id": 1}})
        wal.close()
        with open(path, "a") as fh:
            fh.write('{"op": "insert", "c": "x", "doc": {"_i')
        ops = list(iter_wal(path))
        assert len(ops) == 1

    def test_corrupt_middle_entry_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('not json\n{"op": "drop", "c": "x"}\n')
        with pytest.raises(ValueError, match="corrupt WAL entry"):
            list(iter_wal(path))

    def test_fsync_batching(self, tmp_path):
        wal = _journal(tmp_path, fsync_every=3)
        for i in range(4):
            wal.append({"op": "drop", "c": f"c{i}"})
        wal.close()
        assert len(list(iter_wal(tmp_path / "wal.jsonl"))) == 4

    def test_a_torn_tail_longer_than_a_read_block_is_cut(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "_TAIL_BLOCK", 4)
        log = _journal(tmp_path)
        log.append({"op": "drop", "c": "a"})
        log.close()
        journal = tmp_path / "wal.jsonl"
        intact = journal.read_bytes()
        journal.write_bytes(intact + b'{"op": "drop", "c": "torn')
        _journal(tmp_path).close()
        assert journal.read_bytes() == intact
        journal.write_bytes(b'{"op": "drop", "c"')  # no newline at all
        _journal(tmp_path).close()
        assert journal.read_bytes() == b""

    def test_rejects_bad_config(self, tmp_path):
        with pytest.raises(ValueError):
            _journal(tmp_path, fsync_every=0)

    def test_append_many_numbers_like_individual_appends(self, tmp_path):
        """A batch writes the lines its ops would one append at a time."""
        ops = [
            {"op": "drop", "c": "a"},
            {"op": "insert", "c": "x", "doc": {"_id": 1}},
            {"op": "insert", "c": "x", "doc": {"_id": 2}},
            {"op": "delete", "c": "x", "flt": {}},
            {"op": "drop", "c": "b"},
        ]
        batched, single = tmp_path / "batched", tmp_path / "single"
        wal = _journal(batched)
        wal.append(ops[0])
        wal.append_many(ops[1:4])
        wal.append(ops[4])
        wal.close()
        wal = _journal(single)
        for op in ops:
            wal.append(op)
        wal.close()
        text = (batched / "wal.jsonl").read_text()
        assert text == (single / "wal.jsonl").read_text()
        assert list(iter_wal(batched / "wal.jsonl")) == ops

    def test_append_many_empty_batch_is_a_noop(self, tmp_path):
        wal = _journal(tmp_path)
        wal.append({"op": "drop", "c": "a"})
        wal.append_many([])
        wal.close()
        assert len(list(iter_wal(tmp_path / "wal.jsonl"))) == 1

    def test_append_many_respects_fsync_batching(self, tmp_path):
        wal = _journal(tmp_path, fsync_every=100)
        wal.append_many([{"op": "drop", "c": f"c{i}"} for i in range(10)])
        wal.close()
        assert len(list(iter_wal(tmp_path / "wal.jsonl"))) == 10

    def test_mixed_op_form_journal_recovers(self, tmp_path):
        """A journal holding both historical per-insert ops and the
        batched ``insert_many`` form replays to the same store."""
        src = DocumentStore()
        wal = _journal(tmp_path)
        src.set_observer(lambda op: wal.append(json.loads(json.dumps(op))))
        src["c"].insert({"a": 1})  # historical one-doc op
        src["c"].insert_many([{"a": 2}, {"a": 3}])  # batched op
        src["c"].update({"a": 2}, {"a": 20})
        wal.close()
        ops = list(iter_wal(tmp_path / "wal.jsonl"))
        assert [o["op"] for o in ops] == ["insert", "insert_many", "update"]
        store = _recovered(tmp_path)
        assert store["c"].find({}) == src["c"].find({})


class TestCrashRecovery:
    def test_shard_killed_mid_stream_recovers_bit_identical(self, tmp_path):
        """PINNED: kill a shard mid-write-stream; snapshot + WAL tail
        must reproduce the exact DocumentStore contents."""
        shard, key = _new_shard(tmp_path, snapshot_every=7)
        for i in range(23):  # crosses several snapshot boundaries
            assert _upload(shard, key, i)["ok"]
        pre = _store_bytes(shard)
        # crash: drop the object without close()/snapshot()
        del shard
        recovered, _ = _new_shard(tmp_path, snapshot_every=7)
        assert _store_bytes(recovered) == pre
        recovered.close()

    def test_recovery_with_no_snapshot_yet(self, tmp_path):
        shard, key = _new_shard(tmp_path, snapshot_every=10_000)
        for i in range(5):
            _upload(shard, key, i)
        pre = _store_bytes(shard)
        del shard
        recovered, _ = _new_shard(tmp_path, snapshot_every=10_000)
        assert _store_bytes(recovered) == pre
        assert recovered.count() == 5
        recovered.close()

    def test_uploads_continue_after_recovery(self, tmp_path):
        users = UserRegistry()
        users.register("alice", "a@lab.gov")
        key = users.issue_api_key("alice")
        shard = CrowdShard("s0", tmp_path / "s0", users=users, snapshot_every=4)
        for i in range(6):
            _upload(shard, key, i)
        timestamps = {
            d["timestamp"]
            for d in shard.repository.store["performance_records"].find({})
        }
        del shard
        recovered = CrowdShard("s0", tmp_path / "s0", users=users, snapshot_every=4)
        _upload(recovered, key, 99)
        docs = recovered.repository.store["performance_records"].find({})
        assert len(docs) == 7
        # the post-recovery record's timestamp continues past the
        # recovered clock — never a duplicate of a replayed stamp
        new_ts = {d["timestamp"] for d in docs} - timestamps
        assert len(new_ts) == 1
        assert next(iter(new_ts)) > max(timestamps)
        recovered.close()

    def test_service_restart_resumes_router_uids(self, tmp_path):
        # rebuilding a persisted deployment must resume the router's
        # clock past every recovered timestamp, and a new client must
        # get a new id — reissuing client 1 would make the new record
        # dedup-collide with a pre-crash one
        from repro.service import build_service

        svc = build_service(3, replication=2, data_dir=tmp_path, snapshot_every=8)
        _, key = svc.register_user("alice", "a@lab.gov")
        for i in range(17):
            response = svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "demo",
                    "task_parameters": {"t": i % 3},
                    "tuning_parameters": {"x": i},
                    "output": float(i),
                }
            )
            assert response["ok"]
        svc.close()

        revived = build_service(
            3, replication=2, data_dir=tmp_path, users=svc.users
        )
        assert revived.router._write_clock == 17.0
        response = revived.client.handle(
            {
                "route": "upload",
                "api_key": key,
                "problem_name": "demo",
                "task_parameters": {"t": 99},
                "tuning_parameters": {"x": 99},
                "output": 99.0,
            }
        )
        assert response["ok"]
        records = revived.client.handle(
            {"route": "query", "api_key": key, "problem_name": "demo"}
        )["records"]
        uids = [r["uid"] for r in records]
        assert len(records) == 18
        assert len(set(uids)) == 18
        revived.close()

    def test_snapshot_truncates_wal(self, tmp_path):
        shard, key = _new_shard(tmp_path, snapshot_every=10_000)
        for i in range(5):
            _upload(shard, key, i)
        assert len(list(iter_wal(tmp_path / "s0" / "wal.jsonl"))) == 5
        shard.snapshot()
        # the journal is the store's documents now, one insert apiece
        ops = list(iter_wal(tmp_path / "s0" / "wal.jsonl"))
        assert [op["op"] for op in ops if op["op"] != "collection"] == ["insert"] * 5 + [
            "checkpoint"
        ]
        assert [p.name for p in (tmp_path / "s0").iterdir()] == ["wal.jsonl"]
        # state still fully recoverable from the compacted journal alone
        pre = _store_bytes(shard)
        del shard
        recovered, _ = _new_shard(tmp_path, snapshot_every=10_000)
        assert _store_bytes(recovered) == pre
        recovered.close()

    def test_memory_only_shard_has_no_files(self, tmp_path):
        users = UserRegistry()
        users.register("alice", "a@lab.gov")
        key = users.issue_api_key("alice")
        shard = CrowdShard("mem", None, users=users)
        _upload(shard, key, 0)
        assert shard.count() == 1
        assert list(Path(tmp_path).iterdir()) == []
        shard.close()


# ---------------------------------------------------------------------------
# on-disk compatibility with stores that still had hash indexes
# ---------------------------------------------------------------------------

#: a snapshot exactly as the indexed store wrote it (``indexes`` per
#: collection) ...
_OLD_SNAPSHOT = (
    '{"format": "gptunecrowd-shard-snapshot-v1", "store": {"collections": ['
    '{"docs": [{"_id": 1, "output": 1.5, "owner": "alice", "problem_name": "p",'
    ' "task_parameters": {"m": 1}, "uid": 7}], "indexes": ["owner", "problem_name",'
    ' "uid"], "name": "performance_records", "next_id": 2},'
    ' {"docs": [], "indexes": ["problem_name"], "name": "surrogate_models",'
    ' "next_id": 1}], "format": "gptunecrowd-store-v1"}, "wal_seq": 1}'
)
#: ... and a journal tail with a ``create_index`` op and both insert forms
_OLD_WAL = """\
{"c": "performance_records", "doc": {"_id": 1, "output": 1.5, "owner": "alice", "problem_name": "p", "task_parameters": {"m": 1}, "uid": 7}, "op": "insert", "seq": 1}
{"c": "registry_models", "field": "task_key", "op": "create_index", "seq": 2}
{"c": "performance_records", "doc": {"_id": 2, "output": null, "owner": "bob", "problem_name": "p", "task_parameters": {"m": 2}, "uid": 8}, "op": "insert", "seq": 3}
{"c": "performance_records", "docs": [{"_id": 3, "output": 0.25, "owner": "alice", "problem_name": "q", "task_parameters": {"m": 1}, "uid": 9}, {"_id": 4, "output": 4.0, "owner": "bob", "problem_name": "q", "task_parameters": {"m": 1}, "uid": 10}], "op": "insert_many", "seq": 4}
{"c": "performance_records", "changes": {"output": 2.5, "tags": ["x"]}, "flt": {"output": {"$gt": 1}, "owner": "alice"}, "op": "update", "seq": 5}
{"c": "performance_records", "flt": {"uid": {"$in": [8]}}, "op": "delete", "seq": 6}
"""

#: what a fixed call sequence journaled on the indexed store, byte for byte
_OLD_JOURNAL = [
    '{"c": "performance_records", "doc": {"_id": 1, "output": 1.5, "owner": "alice", "problem_name": "p", "task_parameters": {"m": 1}, "uid": 7}, "op": "insert"}',
    '{"c": "performance_records", "docs": [{"_id": 2, "output": null, "owner": "bob", "problem_name": "p", "task_parameters": {"m": 2}, "uid": 8}, {"_id": 3, "output": 0.25, "owner": "alice", "problem_name": "q", "task_parameters": {"m": 1}, "uid": 9}], "op": "insert_many"}',
    '{"c": "performance_records", "changes": {"output": 2.5, "tags": ["x"]}, "flt": {"output": {"$gt": 1}, "owner": "alice"}, "op": "update"}',
    '{"c": "performance_records", "flt": {"uid": {"$in": [8]}}, "op": "delete"}',
    '{"c": "scratch", "doc": {"_id": 1, "a": [1, {"b": null}]}, "op": "insert"}',
    '{"c": "scratch", "op": "drop"}',
]


class TestIndexedStoreCompatibility:
    def test_old_snapshot_and_wal_tail_recover(self, tmp_path):
        (tmp_path / "snapshot.json").write_text(_OLD_SNAPSHOT)
        (tmp_path / "wal.jsonl").write_text(_OLD_WAL)
        store = _recovered(tmp_path)
        # recovery compacted the directory: the image is in the journal now
        assert [p.name for p in tmp_path.iterdir()] == ["wal.jsonl"]
        assert store.collection_names() == [
            "performance_records",
            "registry_models",
            "surrogate_models",
        ]
        assert store["performance_records"].find({}) == [
            {"_id": 1, "output": 2.5, "owner": "alice", "problem_name": "p",
             "tags": ["x"], "task_parameters": {"m": 1}, "uid": 7},
            {"_id": 3, "output": 0.25, "owner": "alice", "problem_name": "q",
             "task_parameters": {"m": 1}, "uid": 9},
            {"_id": 4, "output": 4.0, "owner": "bob", "problem_name": "q",
             "task_parameters": {"m": 1}, "uid": 10},
        ]
        assert store["performance_records"].find_one({"uid": 10})["owner"] == "bob"
        assert store["performance_records"].insert({"uid": 11}) == 5
        # a shard opens the directory and compacts it without the key
        users = UserRegistry()
        shard = CrowdShard("s0", tmp_path, users=users)
        assert shard.count() == 3
        shard.snapshot()
        shard.close()
        ops = list(iter_wal(tmp_path / "wal.jsonl"))
        assert {op["op"] for op in ops} == {"collection", "insert", "checkpoint"}
        assert all("indexes" not in op for op in ops)
        assert len(_recovered(tmp_path)["performance_records"]) == 3

    def test_journaled_ops_are_byte_identical(self):
        store = DocumentStore()
        lines: list[str] = []
        store.set_observer(lambda op: lines.append(json.dumps(op, sort_keys=True)))
        recs = store["performance_records"]
        recs.insert({"uid": 7, "problem_name": "p", "task_parameters": {"m": 1},
                     "output": 1.5, "owner": "alice"})
        recs.insert_many(
            [
                {"uid": 8, "problem_name": "p", "task_parameters": {"m": 2},
                 "output": None, "owner": "bob"},
                {"uid": 9, "problem_name": "q", "task_parameters": {"m": 1},
                 "output": 0.25, "owner": "alice"},
            ]
        )
        recs.update({"owner": "alice", "output": {"$gt": 1}},
                    {"output": 2.5, "tags": ["x"]})
        recs.update({"owner": "nobody"}, {"output": 0})  # no match: no op
        recs.delete({"uid": {"$in": [8]}})
        recs.delete({"uid": 1234})  # no match: no op
        store["scratch"].insert({"a": [1, {"b": None}]})
        store.drop("scratch")
        assert lines == _OLD_JOURNAL
