"""Record-store benchmark: the columnar read plane and batched journaling.

The crowd's read-heavy endpoints — filtered queries, leaderboards, and
registry-build record extraction — are answered from numpy masks over
incrementally-maintained columns and return zero-copy frozen views.
``test_columnar_read_paths`` records the absolute wall time of each read
leg at each store size (``results/store_columnar.json``; what the legs
return is pinned by the row-oracle tests, not here):

* ``find`` — selective filter + timestamp sort at the collection level,
* ``query`` — repository query with accessibility enforcement,
* ``leaderboard`` — per-task best aggregation over all records,
* ``registry`` — the registry build's eligible-record extraction
  (public + successful + exact task key, timestamp-sorted).

``test_batched_insert_and_journal`` compares N single-op journaled
inserts with one batched op through :meth:`DurableLog.append_many`
(>= 2x required; ``REPRO_BENCH_SMOKE=1`` shrinks sizes and drops the
threshold to a sanity check — shared CI runners are noisy).
"""

from __future__ import annotations

import tempfile
import time

from repro.core import perf
from repro.crowd.database import DocumentStore
from repro.crowd.records import Accessibility, PerformanceRecord
from repro.crowd.repository import CrowdRepository
from repro.crowd.views import leaderboard_from_docs
from repro.registry import ModelRegistry
from repro.service.wal import DurableLog

from harness import FULL, SMOKE, save_results

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
        docs = repo.query_docs(key, problem_name="bench", require_success=False)
        registry = ModelRegistry(repo)
        legs = {
            "find": lambda: coll.find(flt, sort="timestamp", frozen=True),
            "query": lambda: repo.query_docs(key, problem_name="bench"),
            "leaderboard": lambda: leaderboard_from_docs(docs),
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
    log = DurableLog(tmp, "wal.jsonl", "snapshot.json", "bench-v1", snapshot_every=10**9)
    log.recover()
    return log


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
    test_read_counters_flow_to_perf()
