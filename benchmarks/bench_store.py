"""Record-store benchmark: the columnar read plane and batched journaling.

The crowd's read-heavy endpoints — filtered queries, leaderboards, and
registry-build record extraction — are answered from numpy masks over
incrementally-maintained columns and return zero-copy frozen views.
``test_columnar_read_paths`` records the absolute wall time of each read
leg at each store size (``results/store_columnar.json``; what the legs
return is pinned by the row-oracle tests, not here):

* ``find`` — selective filter + timestamp sort at the collection level,
* ``query`` — repository query with accessibility enforcement,
* ``leaderboard`` — the grouped reduction behind every browse
  aggregate (visibility mask + per-task summary + leaderboard rows),
* ``registry`` — the registry build's eligible-record extraction
  (public + successful + exact task key, timestamp-sorted).

``test_batched_insert_and_journal`` compares N single-op journaled
inserts with one batched op through :meth:`DurableLog.append_many`
(>= 2x required; ``REPRO_BENCH_SMOKE=1`` shrinks sizes and drops the
threshold to a sanity check — shared CI runners are noisy).

``test_store_memory_and_checkpoints`` records absolute rows
(``results/store_memory.json``) for one durable shard fed uploads shaped
like the end-to-end benchmark's (3 machine x 2 software x 64 task
blocks): traced bytes per stored record, compactions ("images") written
and their bytes for the run (none: the uploads are insert-only, and the
checkpoint rule compacts only once dead bytes reach live ones), the
compacted and the journaled-after bytes left on disk, and the seconds a
restart takes with none and with half of the records journaled after
the compacted part — plus its traced peak above the store it rebuilds,
which must stay under 0.3 MB when everything is compacted, whatever the
journal's size (it is read and applied a line at a time).
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
import time
import tracemalloc

from repro.core import perf
from repro.crowd.database import DocumentStore
from repro.crowd.records import Accessibility, PerformanceRecord
from repro.crowd.repository import CrowdRepository
from repro.crowd.views import leaderboard
from repro.crowd.users import UserRegistry
from repro.registry import ModelRegistry
from repro.service import CrowdShard
from repro.service.wal import DurableLog

from harness import FULL, SMOKE, save_results
from tests.service.journal import journal_bytes

SIZES = [500, 2_000] if SMOKE else [5_000, 50_000]
N_TASKS = 8
#: repeated requests per timing leg (read endpoints are hit constantly)
REPEATS = 3 if SMOKE else 5
MIN_BATCH_SPEEDUP = 1.0 if SMOKE else 2.0

_SPACE = {
    "input_space": [{"name": "t", "type": "int", "lb": 0, "ub": N_TASKS}],
    "parameter_space": [{"name": "x", "type": "real", "lb": 0.0, "ub": 1e9}],
}


def _fill(repo: CrowdRepository, key: str, n: int) -> None:
    batch = []
    for i in range(n):
        batch.append(
            PerformanceRecord(
                problem_name="bench",
                task_parameters={"t": i % N_TASKS},
                tuning_parameters={"x": float(i)},
                output=None if i % 17 == 0 else float(i % 1000),
                machine_configuration={"machine_name": "cori", "nodes": 1},
                accessibility=(
                    Accessibility(level="private")
                    if i % 23 == 0
                    else Accessibility()
                ),
            )
        )
        if len(batch) == 1000:
            repo.upload_many(batch, key)
            batch = []
    if batch:
        repo.upload_many(batch, key)


def _build(n: int):
    repo = CrowdRepository()
    repo.users.register("alice", "a@lab.gov")
    key = repo.users.issue_api_key("alice")
    _fill(repo, key, n)
    return repo, key


def _wall(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_columnar_read_paths():
    rows = []
    for n in SIZES:
        repo, key = _build(n)
        coll = repo.store["performance_records"]
        flt = {"output": {"$ne": None}, "task_parameters.t": 3}
        registry = ModelRegistry(repo)
        legs = {
            "find": lambda: coll.find(flt, sort="timestamp", frozen=True),
            "query": lambda: repo.query_docs(key, problem_name="bench"),
            "leaderboard": lambda: leaderboard(repo, key, "bench"),
            "registry": lambda: registry._eligible_docs("bench", _SPACE, {"t": 3}),
        }
        for leg, fn in legs.items():
            assert fn()  # every leg selects something at every size
            rows.append({"leg": leg, "n": n, "ms": 1e3 * _wall(fn)})

    print()
    print("columnar read plane (best of %d)" % REPEATS)
    print(f"{'leg':<12} {'rows':>7} {'ms':>9}")
    for r in rows:
        print(f"{r['leg']:<12} {r['n']:>7} {r['ms']:>9.2f}")
    save_results("store_columnar", {"rows": rows, "smoke": SMOKE, "full": FULL})


def _journal(tmp: str) -> DurableLog:
    log = DurableLog(tmp, "wal.jsonl", snapshot_every=10**9)
    log.recover()
    return log


def _compacted_bytes(journal: str) -> int:
    """The bytes of a journal's compacted part, through its checkpoint
    line (0: never compacted)."""
    marker = b'{"op": "checkpoint"}\n'
    end = journal_bytes(journal).find(marker)
    return 0 if end < 0 else end + len(marker)


def test_batched_insert_and_journal():
    n = SIZES[0]
    docs = [{"problem_name": "bench", "x": float(i)} for i in range(n)]

    def one_by_one(tmp: str) -> DocumentStore:
        store = DocumentStore()
        wal = _journal(tmp)
        store.set_observer(lambda op: wal.append(op))
        for d in docs:
            store["c"].insert(d)
        wal.close()
        return store

    def batched(tmp: str) -> DocumentStore:
        store = DocumentStore()
        wal = _journal(tmp)
        ops: list = []
        store.set_observer(ops.append)
        store["c"].insert_many(docs)
        wal.append_many(ops)
        wal.close()
        return store

    stats = perf.PerfStats()
    with perf.collect(stats):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            slow_store = one_by_one(tmp)
            t_row = time.perf_counter() - t0
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            fast_store = batched(tmp)
            t_col = time.perf_counter() - t0
    assert fast_store["c"].find({}) == slow_store["c"].find({})
    counters = stats.snapshot()["counters"]
    assert counters.get("wal_batch_appends", 0) >= 1

    speedup = t_row / t_col if t_col > 0 else float("inf")
    print()
    print(
        f"insert_many + append_many: {n} docs  "
        f"row {1e3 * t_row:.1f} ms  batched {1e3 * t_col:.1f} ms  "
        f"{speedup:.1f}x  parity ok"
    )
    print("  counters: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counters.items())
        if k.startswith(("wal_", "store_"))
    ))
    save_results(
        "store_batch_journal",
        {
            "n": n,
            "row_ms": 1e3 * t_row,
            "batched_ms": 1e3 * t_col,
            "speedup": speedup,
            "counters": {k: v for k, v in counters.items()},
            "smoke": SMOKE,
        },
    )
    assert speedup >= MIN_BATCH_SPEEDUP, speedup


_MACHINES = [
    {"machine_name": "cori", "haswell": {"nodes": 8, "cores": 32}},
    {"machine_name": "Cori-Haswell", "haswell": {"nodes": 8, "cores": 32}},
    {"machine_name": "cori", "haswell": {"nodes": 4, "cores": 32}},
]
_SOFTWARE = [
    {"scalapack": {"version_split": [2, 1, 0]}, "gcc": {"version_split": [8, 3, 0]}},
    {"scalapack": {"version_split": [2, 2, 0]}, "gcc": {"version_split": [9, 1, 0]}},
]


def _upload(key: str, i: int) -> dict:
    """One upload request as it comes off a wire (nothing shared)."""
    return json.loads(
        json.dumps(
            {
                "route": "upload",
                "api_key": key,
                "problem_name": "PDGEQRF-ingest",
                "task_parameters": {"m": 2000 + 500 * (i % 8), "n": 2000 + 500 * (i // 8 % 8)},
                "tuning_parameters": {"mb": i % 16 + 1, "nb": i * 7 % 16 + 1, "p": i + 1},
                "output": None if i % 20 == 0 else 1.0 + i / 7.0,
                "machine_configuration": _MACHINES[i % 3],
                "software_configuration": _SOFTWARE[i % 2],
            }
        )
    )


def test_store_memory_and_checkpoints():
    n = 1_000 if SMOKE else 10_000
    users = UserRegistry()
    users.register("alice", "a@lab.gov")
    key = users.issue_api_key("alice")

    # the library's defaults: what a record costs, what compactions cost
    stats = perf.PerfStats()
    with tempfile.TemporaryDirectory() as tmp:
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        with perf.collect(stats), CrowdShard("s0", tmp, users=users) as shard:
            for i in range(n):
                assert shard.handle(_upload(key, i))["ok"]
            gc.collect()
            bytes_per_record = (tracemalloc.get_traced_memory()[0] - before) / n
        tracemalloc.stop()
        journal = os.path.join(tmp, "wal.jsonl")
        compacted_on_disk = _compacted_bytes(journal)
        journal_on_disk = len(journal_bytes(journal)) - compacted_on_disk
    counters = stats.snapshot()["counters"]

    # a restart, with half of the store journaled after the compacted part
    # and with none:
    # its wall time, and its traced peak above the store it rebuilds
    with tempfile.TemporaryDirectory() as tmp:

        def restart_s() -> float:
            t0 = time.perf_counter()
            with CrowdShard("s0", tmp, users=users, snapshot_every=10**9) as shard:
                assert shard.count() == n
            return time.perf_counter() - t0

        def restart_peak_bytes() -> int:
            gc.collect()
            tracemalloc.start()
            try:
                with CrowdShard("s0", tmp, users=users, snapshot_every=10**9) as shard:
                    gc.collect()
                    kept, peak = tracemalloc.get_traced_memory()
                    assert shard.count() == n
            finally:
                tracemalloc.stop()
            return peak - kept

        with CrowdShard("s0", tmp, users=users, snapshot_every=10**9) as shard:
            for i in range(n):
                assert shard.handle(_upload(key, i))["ok"]
                if i == n // 2 - 1:
                    shard.snapshot()
        recover_half_tail_s = _wall(restart_s)
        recover_half_tail_peak = restart_peak_bytes()
        with CrowdShard("s0", tmp, users=users, snapshot_every=10**9) as shard:
            shard.snapshot()
        recover_no_tail_s = _wall(restart_s)
        recover_no_tail_peak = restart_peak_bytes()
        recover_image_bytes = len(journal_bytes(os.path.join(tmp, "wal.jsonl")))

    row = {
        "records": n,
        "traced_bytes_per_record": bytes_per_record,
        "images_written": counters.get("wal_snapshots", 0),
        "image_bytes_written": counters.get("wal_snapshot_bytes", 0),
        "interned_values": counters.get("store_interned_values", 0),
        "intern_overflows": counters.get("store_intern_overflows", 0),
        "image_bytes_on_disk": compacted_on_disk,
        "journal_bytes_on_disk": journal_on_disk,
        "recover_s_tail_0pct": recover_no_tail_s,
        "recover_s_tail_50pct": recover_half_tail_s,
        "recover_image_bytes": recover_image_bytes,
        "recover_peak_bytes_tail_0pct": recover_no_tail_peak,
        "recover_peak_bytes_tail_50pct": recover_half_tail_peak,
        "smoke": SMOKE,
    }
    print()
    print(f"durable shard, {n} uploads")
    for name, value in row.items():
        print(f"  {name:<30} {value:.4g}" if isinstance(value, float) else f"  {name:<30} {value}")
    save_results("store_memory", row)
    assert row["images_written"] == 0 and row["interned_values"] > n
    # recovery reads the compacted journal a line at a time: its scratch
    # does not grow with the journal
    assert recover_no_tail_peak <= 0.3e6


def test_read_counters_flow_to_perf():
    repo, key = _build(SIZES[0])
    stats = perf.PerfStats()
    with perf.collect(stats):
        repo.query_docs(key, problem_name="bench")
        repo.store["performance_records"].find({"output": None}, frozen=True)
    counters = stats.snapshot()["counters"]
    assert counters.get("store_columnar_queries", 0) >= 2
    assert counters.get("store_zero_copy_reads", 0) >= 2
    print()
    print("  read counters: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counters.items())
        if k.startswith("store_")
    ))


if __name__ == "__main__":
    test_columnar_read_paths()
    test_batched_insert_and_journal()
    test_store_memory_and_checkpoints()
    test_read_counters_flow_to_perf()
