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
import os
import re
from pathlib import Path

import pytest

from repro.core import perf
from repro.crowd.database import DocumentStore
from repro.crowd.users import UserRegistry
from repro.fabric import DurableJobQueue
from repro.service import CrowdShard, DurableLog
from repro.service import wal as wal_module
from repro.service.wal import iter_wal

from .journal import journal_bytes


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
        """Lines longer than a read are read in parts: whole when they
        end, and cut off when torn (here a journal that an earlier
        version wrote, no zeros after it)."""
        monkeypatch.setattr(wal_module, "_BLOCK", 4)
        log = _journal(tmp_path)
        log.append({"op": "drop", "c": "a"})
        log.close()
        journal = tmp_path / "wal.jsonl"
        intact = journal_bytes(journal)
        journal.write_bytes(intact + b'{"op": "drop", "c": "torn')
        assert list(iter_wal(journal)) == [{"op": "drop", "c": "a"}]
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
        text = journal_bytes(batched / "wal.jsonl")
        assert text == journal_bytes(single / "wal.jsonl")
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


#: the acked ops of :class:`TestPreallocatedJournal`'s journal, and the
#: line of an append a power cut tore
_ACKED = [{"op": "drop", "c": f"c{i}"} for i in range(3)]
_TORN = b'{"op": "drop", "c": "never acknowledged"}\n'


def _write_at(journal: Path, offset: int, data: bytes) -> None:
    with open(journal, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


def _grown_short(journal: Path, end: int) -> None:
    """Growing: part of the line reached the disk, the zeros after it did not."""
    os.truncate(journal, end)
    _write_at(journal, end, _TORN[:20])


def _grown_with_holes(journal: Path, end: int) -> None:
    """Growing: the new size reached the disk, the blocks under it did not."""
    os.truncate(journal, end)
    os.truncate(journal, end + (1 << 20))
    _write_at(journal, end, _TORN[:20])


#: what a power cut can leave past the logical end ``end`` of a journal
CRASHES = {
    "prefix-then-zeros": lambda journal, end: _write_at(journal, end, _TORN[:20]),
    # pages that reached the disk out of order: a gap of zeros inside the line
    "prefix-gap-junk": lambda journal, end: (
        _write_at(journal, end, _TORN[:5]), _write_at(journal, end + 4096, _TORN[9:])
    ),
    "junk-after-the-zeros": lambda journal, end: _write_at(
        journal, journal.stat().st_size, _TORN
    ),
    "grown-short": _grown_short,
    "grown-with-holes": _grown_with_holes,
}


class TestPreallocatedJournal:
    """The journal keeps zeros past its logical end; a torn append there
    is cut off, and the next append follows the last intact line."""

    def test_appends_go_into_zeros_synced_by_data_only(self, tmp_path, monkeypatch):
        full: list[int] = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (full.append(fd), real(fd)))
        log = _journal(tmp_path)
        with perf.collect() as stats:
            for op in _ACKED:
                log.append(op)
        log.close()
        journal = tmp_path / "wal.jsonl"
        assert journal.stat().st_size > len(journal_bytes(journal))
        # one allocation, synced in full; the other appends sync their data
        assert stats.counters["wal_grows"] == 1 and stats.counters["wal_fsyncs"] == 3
        assert len(full) == 1 + 1  # the growth, and the close

    def test_allocations_double_up_to_a_cap(self, tmp_path):
        """Each allocation adds as many zeros as the file held (64 KiB at
        least, 1 MiB at most), so growing to 7.2 MB allocates eleven times."""
        log = _journal(tmp_path)
        journal = tmp_path / "wal.jsonl"
        size, zeros = 0, []
        with perf.collect() as stats:
            for _ in range(900):
                log.append({"op": "drop", "c": "x" * 8000})
                if journal.stat().st_size != size:
                    zeros.append(journal.stat().st_size - log._bytes)
                    assert zeros[-1] == min(max(size, 1 << 16), 1 << 20)
                    size = journal.stat().st_size
        log.close()
        assert zeros[0] == 1 << 16 and zeros[-1] == 1 << 20
        assert stats.counters["wal_grows"] == len(zeros) == 11

    @pytest.mark.parametrize("crash", sorted(CRASHES))
    def test_recovery_keeps_the_acked_ops_and_appends_after_them(self, tmp_path, crash):
        log = _journal(tmp_path)
        for op in _ACKED:
            log.append(op)
        log.close()
        journal = tmp_path / "wal.jsonl"
        intact = journal_bytes(journal)
        CRASHES[crash](journal, len(intact))
        replayed: list[dict] = []
        log = DurableLog(tmp_path, "wal.jsonl", snapshot_every=10_000)
        log.recover(replayed.append)
        assert replayed == _ACKED
        assert journal_bytes(journal) == intact  # every byte past the end is zero
        log.append({"op": "drop", "c": "next"})
        log.close()
        assert list(iter_wal(journal)) == [*_ACKED, {"op": "drop", "c": "next"}]
        assert journal_bytes(journal).startswith(intact)

    def test_a_compaction_copies_only_the_logical_tail(self, tmp_path):
        """An op appended while the state is listed follows the checkpoint
        line, and the zeros after it in the old journal are not copied:
        the next append follows it."""
        log = _journal(tmp_path)
        for op in _ACKED:
            log.append(op)

        def state():
            yield {"op": "collection", "c": "kept"}
            log.append({"op": "drop", "c": "meanwhile"})  # the log lock is not held

        log.snapshot(state)
        log.append({"op": "drop", "c": "after"})
        log.close()
        assert list(iter_wal(tmp_path / "wal.jsonl")) == [
            {"op": "collection", "c": "kept"},
            {"op": "checkpoint"},
            {"op": "drop", "c": "meanwhile"},
            {"op": "drop", "c": "after"},
        ]
        journal_bytes(tmp_path / "wal.jsonl")


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
#: ... and a numbered journal tail with a ``create_index`` op and both insert forms
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


#: each user of the journal, and its journal and image file names
_OWNERS = {
    "shard": (
        lambda data_dir: CrowdShard("s0", data_dir, users=UserRegistry()),
        "wal.jsonl",
        "snapshot.json",
    ),
    "queue": (DurableJobQueue, "queue.wal.jsonl", "queue.snapshot.json"),
}


class TestIndexedStoreCompatibility:
    @pytest.mark.parametrize("owner", sorted(_OWNERS))
    @pytest.mark.parametrize("image", [True, False], ids=["with-image", "tail-only"])
    def test_old_snapshot_and_wal_tail_are_refused(self, tmp_path, owner, image):
        """The image, else the first numbered line, refuses the directory
        before anything in it is read as this format or changed (the
        refusal looks at the format, not at what the image holds)."""
        open_, wal_name, image_name = _OWNERS[owner]
        (tmp_path / wal_name).write_text(_OLD_WAL)
        if image:
            (tmp_path / image_name).write_text(_OLD_SNAPSHOT)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        offending = tmp_path / (image_name if image else wal_name)
        with pytest.raises(ValueError, match=re.escape(str(offending))):
            open_(tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
