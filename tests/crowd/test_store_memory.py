"""What a stored record costs, measured deterministically (tracemalloc
counts the interpreter's allocations; no RSS, no timing).

Records are shaped like the end-to-end benchmark's uploads — 3 machine
blocks x 2 software blocks x 16 tasks, every tuning configuration its
own — and the yardstick is the same ``Collection`` with sharing off
(:mod:`tests.crowd.intern_oracle`)."""

from __future__ import annotations

import gc
import json
import tracemalloc

from repro.crowd.database import DocumentStore
from repro.crowd.users import UserRegistry
from repro.service import CrowdShard

from ..service.journal import journal_bytes
from .intern_oracle import PrivateStore, replay

N = 2000
MACHINES = [
    {"machine_name": "cori", "haswell": {"nodes": 8, "cores": 32}},
    {"machine_name": "Cori-Haswell", "haswell": {"nodes": 8, "cores": 32}},
    {"machine_name": "cori", "haswell": {"nodes": 4, "cores": 32}},
]
SOFTWARE = [
    {"scalapack": {"version_split": [2, 1, 0]}, "gcc": {"version_split": [8, 3, 0]}},
    {"scalapack": {"version_split": [2, 2, 0]}, "gcc": {"version_split": [9, 1, 0]}},
]


def record(i: int) -> dict:
    """One upload as it arrives off the wire: nothing shared with the last."""
    return json.loads(
        json.dumps(
            {
                "uid": i + 1,
                "problem_name": "PDGEQRF-ingest",
                "task_parameters": {"m": 2000 + 500 * (i % 4), "n": 2000 + 500 * (i // 4 % 4)},
                "tuning_parameters": {"mb": i % 16 + 1, "nb": i * 7 % 16 + 1, "p": i + 1},
                "output": 1.0 + i / 7.0,
                "owner": "user_a",
                "machine_configuration": MACHINES[i % 3],
                "software_configuration": SOFTWARE[i % 2],
                "accessibility": {"level": "public", "groups": []},
                "timestamp": float(i + 1),
            }
        )
    )


def traced(build):
    """``(build(), bytes still allocated by it)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def scratch(build):
    """``(build(), traced peak while it ran above what it kept)``."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
        return built, peak - kept
    finally:
        tracemalloc.stop()


def filled(store: DocumentStore) -> DocumentStore:
    for i in range(N):
        store["performance_records"].insert(record(i))
    return store


def test_a_stored_record_costs_under_half_of_a_private_copy():
    _, private = traced(lambda: filled(PrivateStore()))
    store, shared = traced(lambda: filled(DocumentStore()))
    assert shared <= 0.45 * private

    # the same after a compaction and a restart from it ...
    compacted = list(store.journal_lines())
    reloaded, from_compacted = traced(lambda: replay(DocumentStore(), compacted))
    assert from_compacted <= 0.45 * private

    # ... and after replaying the journal, one separately parsed line per op
    lines: list[str] = []
    journaling = DocumentStore()
    journaling.set_observer(lambda op: lines.append(json.dumps(op, sort_keys=True)))
    filled(journaling)

    replayed, from_journal = traced(lambda: replay(DocumentStore(), lines))
    assert from_journal <= 0.45 * private
    assert list(replayed.journal_lines()) == compacted
    assert list(reloaded.journal_lines()) == compacted


def _shard(data_dir, users) -> CrowdShard:
    return CrowdShard("s0", data_dir, users=users, snapshot_every=10**9)


def _upload(shard: CrowdShard, key: str, i: int) -> None:
    assert shard.handle({"route": "upload", "api_key": key, **record(i)})["ok"]


def _alice() -> tuple[UserRegistry, str]:
    users = UserRegistry()
    users.register("alice", "a@lab.gov")
    return users, users.issue_api_key("alice")


def _filled_shard(data_dir, users, key, *, image: bool, n: int = N) -> None:
    """``n`` uploads, all in a compacted journal (``image``) or all as
    they were journaled."""
    with _shard(data_dir, users) as shard:
        for i in range(n):
            _upload(shard, key, i)
        if image:
            shard.snapshot()


def test_a_snapshot_builds_no_second_document_tree(tmp_path):
    users, key = _alice()
    with _shard(tmp_path, users) as shard:
        for i in range(N):
            _upload(shard, key, i)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            shard.snapshot()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        image_bytes = len(journal_bytes(tmp_path / "wal.jsonl"))
        assert image_bytes > 400 * N
        # a thawed copy of the store alone is several times the journal
        assert peak <= 1.1 * image_bytes


def test_an_image_only_restart_holds_a_window_of_the_image(tmp_path):
    """A compacted journal is read a line at a time and each line's
    document is applied as the store takes it, so the scratch does not
    grow with the journal."""
    users, key = _alice()
    for n in (N, 2 * N):
        data_dir = tmp_path / str(n)
        _filled_shard(data_dir, users, key, image=True, n=n)
        journal = journal_bytes(data_dir / "wal.jsonl")
        assert journal.endswith(b'{"op": "checkpoint"}\n') and len(journal) > 400 * n
        del journal
        restarted, extra = scratch(lambda: _shard(data_dir, users))
        with restarted:
            assert restarted.count() == n
        assert extra <= 0.3e6


def test_a_restarted_shard_holds_one_copy_of_each_repeated_string(tmp_path):
    """Every record names its problem and owner; after a restart (image
    and journal tail) a shard holds one object per distinct value."""
    users, key = _alice()
    users.register("bob", "b@lab.gov")
    keys = [key, users.issue_api_key("bob")]
    with _shard(tmp_path, users) as shard:
        for i in range(N):
            request = {"route": "upload", "api_key": keys[i % 2], **record(i)}
            request["problem_name"] = f"PDGEQRF-{i % 3}"
            assert shard.handle(request)["ok"]
            if i == N // 2:
                shard.snapshot()
    with _shard(tmp_path, users) as restarted:
        docs = restarted.repository.store["performance_records"].find({}, frozen=True)
        assert len(docs) == N
        for field, distinct in (("problem_name", 3), ("owner", 2)):
            assert len({doc[field] for doc in docs}) == distinct
            assert len({id(doc[field]) for doc in docs}) == distinct


def test_a_tail_only_restart_never_holds_the_journal(tmp_path):
    """Never compacted: every op is replayed as its line is read, and the
    check that the journal ends in zeros reads a block at a time."""
    users, key = _alice()
    _filled_shard(tmp_path, users, key, image=False)
    journal = journal_bytes(tmp_path / "wal.jsonl")
    assert b'"checkpoint"' not in journal and len(journal) > 400 * N
    logical_size = len(journal)
    del journal
    restarted, extra = scratch(lambda: _shard(tmp_path, users))
    with restarted:
        assert restarted.count() == N
    assert extra < 0.5 * logical_size


def test_a_restart_from_image_plus_a_long_tail_costs_what_the_live_shard_did(tmp_path):
    users, key = _alice()

    def live() -> CrowdShard:
        shard = _shard(tmp_path, users)
        for i in range(N):
            _upload(shard, key, i)
            if i == N // 2 - 1:
                shard.snapshot()  # the other half is journaled after it
        return shard

    shard, before = traced(live)
    image = list(shard.repository.store.journal_lines())
    shard.close()
    del shard
    restarted, after = traced(lambda: _shard(tmp_path, users))
    with restarted:
        assert restarted.count() == N
        assert list(restarted.repository.store.journal_lines()) == image
    assert abs(after - before) <= 0.15 * before
