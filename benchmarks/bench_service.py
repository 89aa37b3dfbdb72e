"""Crowd-service benchmark: sharded read scaling, write durability under
a shard kill, and one problem-wide leaderboard.

The service layer's performance promises:

* **shard scaling** — task-pinned reads land on single shards, so with
  N shards behind the router an open pool of clients sustains ~N times
  the read throughput of a single node.  Each shard serializes its
  requests behind a simulated 2 ms service time (the transport models a
  single-threaded node), so the scaling measured here is real routing
  concurrency, not Python thread noise.
* **no silent write loss** — with K-way replication, a shard killed
  under sustained mixed read/write load and re-added later costs zero
  acknowledged writes: survivors absorb the traffic, and the revived
  shard's own anti-entropy round ships it exactly the writes it missed,
  so every acked uid is at full replication when ``revive_shard``
  returns (a trailing manual round then heals nothing).

``test_problem_wide_leaderboard`` records one absolute row
(``results/service_leaderboard.json``): the wall time and the peak traced
bytes of one router ``leaderboard`` over 3 200 records / 64 tasks on 4
shards at replication 2 — each shard reduces its own columns and ships
one partial row per task.

``test_write_path`` records what one upload costs
(``results/service_write_path.json``): N uploads through a durable
deployment (4 shards, replication 2, write quorum 2), each upload's wall
and CPU (``process_time``) time, and the journal's fsyncs, allocations
of zeros and images per upload — once insert-only, once with upsert
churn (the problem space re-registered on every shard after each upload,
so the replaced documents turn dead).

Checks: >= 3x read throughput at 4 shards vs 1, and every acked write
readable at full replication after the kill-and-rejoin cycle; exactly
2 fsyncs per acked upload and no image on the insert-only run, at
least one image under churn, and at most a few allocations per journal
on both (counts, exact at every scale).  Smoke
mode (``REPRO_BENCH_SMOKE=1``) shrinks budgets and drops the thresholds
to sanity checks — shared CI runners have noisy clocks.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import numpy as np

from repro.core import perf
from repro.registry import RegistryOptions
from repro.service import RouterOptions, build_service

from harness import FULL, SMOKE, save_results

SHARD_COUNTS = [1, 2, 4, 8]
#: simulated per-request service time of one shard node — large enough
#: that shard service time, not interpreter overhead, is the bottleneck
LATENCY_S = 0.002 if SMOKE else 0.010
N_TASKS = 32
RECORDS_PER_TASK = 4 if SMOKE else 8
N_CLIENT_THREADS = 8
QUERIES_PER_THREAD = 25 if SMOKE else (80 if FULL else 40)

MIN_SCALING_AT_4 = 1.5 if SMOKE else 3.0


def _build(n_shards: int):
    svc = build_service(n_shards, replication=1, latency_s=LATENCY_S)
    _, key = svc.register_user("bench", "bench@lab.gov")
    for t in range(N_TASKS):
        for i in range(RECORDS_PER_TASK):
            response = svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "bench",
                    "task_parameters": {"t": t},
                    "tuning_parameters": {"x": float(i)},
                    "output": float(i),
                }
            )
            assert response["ok"], response
    return svc, key


def _pinned_read_wall(svc, key) -> float:
    """Wall time for an 8-thread pool of task-pinned readers.

    Each thread rotates over the shards (with its own phase) and picks a
    task owned by the current one — a balanced open workload, so the
    measured scaling is the service's, not an artifact of all clients
    convoying on one unlucky shard.
    """
    from repro.service import shard_key

    tasks_by_shard: dict[str, list[int]] = {}
    for t in range(N_TASKS):
        owner = svc.router.ring.primary(shard_key("bench", {"t": t}))
        tasks_by_shard.setdefault(owner, []).append(t)
    rotation = sorted(tasks_by_shard)

    def reader(tid: int):
        for q in range(QUERIES_PER_THREAD):
            owned = tasks_by_shard[rotation[(tid + q) % len(rotation)]]
            task = owned[(tid * QUERIES_PER_THREAD + q) % len(owned)]
            response = svc.client.handle(
                {
                    "route": "query",
                    "api_key": key,
                    "problem_name": "bench",
                    "task_parameters": {"t": task},
                }
            )
            assert response["ok"], response
            assert len(response["records"]) == RECORDS_PER_TASK

    threads = [
        threading.Thread(target=reader, args=(tid,))
        for tid in range(N_CLIENT_THREADS)
    ]
    # snappy GIL handoffs: a thread waking from its simulated shard
    # latency should not wait a full default 5 ms switch interval
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(2e-4)
    t0 = time.perf_counter()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0
    finally:
        sys.setswitchinterval(old_interval)


def test_read_throughput_scales_with_shards():
    n_queries = N_CLIENT_THREADS * QUERIES_PER_THREAD
    rows = []
    throughput: dict[int, float] = {}
    for n_shards in SHARD_COUNTS:
        svc, key = _build(n_shards)
        try:
            wall = _pinned_read_wall(svc, key)
        finally:
            svc.close()
        throughput[n_shards] = n_queries / wall
        rows.append(
            {
                "shards": n_shards,
                "wall_s": wall,
                "queries_per_s": throughput[n_shards],
                "scaling": throughput[n_shards] / throughput[SHARD_COUNTS[0]],
            }
        )

    print(
        f"\ncrowd service: {n_queries} task-pinned reads, "
        f"{N_CLIENT_THREADS} client threads, {LATENCY_S * 1e3:.0f} ms/shard-op"
    )
    print(f"{'shards':>7}  {'wall':>8}  {'reads/s':>8}  {'scaling':>8}")
    for r in rows:
        print(
            f"{r['shards']:>7}  {r['wall_s']:>7.2f}s  {r['queries_per_s']:>8.0f}"
            f"  {r['scaling']:>7.2f}x"
        )
    save_results(
        "service_scaling",
        {
            "rows": rows,
            "latency_s": LATENCY_S,
            "n_threads": N_CLIENT_THREADS,
            "n_queries": n_queries,
        },
    )

    scaling_at_4 = throughput[4] / throughput[1]
    assert scaling_at_4 >= MIN_SCALING_AT_4, (
        f"only {scaling_at_4:.2f}x read throughput at 4 shards vs 1 "
        f"(need >= {MIN_SCALING_AT_4}x)"
    )


LB_RECORDS = 320 if SMOKE else 3200
LB_TASKS = 64
LB_REPEATS = 5 if SMOKE else 20


def test_problem_wide_leaderboard():
    with build_service(4, replication=2) as svc:
        key = svc.register_user("bench", "bench@hpc.org")[1]
        rng = np.random.default_rng(0)
        for i in range(LB_RECORDS):
            response = svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "bench",
                    "task_parameters": {"t": int(rng.integers(LB_TASKS))},
                    "tuning_parameters": {"x": float(rng.uniform(-5, 5))},
                    "output": None if i % 20 == 0 else float(rng.uniform(0, 9)),
                    "machine_configuration": {"machine_name": "cori", "nodes": 1 + i % 3},
                }
            )
            assert response["ok"]
        request = {"route": "leaderboard", "api_key": key, "problem_name": "bench"}
        first = svc.client.handle(request)  # builds the columns
        assert first["ok"] and sum(r["n_samples"] for r in first["rows"]) == LB_RECORDS
        walls = []
        for _ in range(LB_REPEATS):
            t0 = time.perf_counter()
            svc.client.handle(request)
            walls.append(time.perf_counter() - t0)
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        svc.client.handle(request)
        peak_kb = (tracemalloc.get_traced_memory()[1] - before) / 1024
        tracemalloc.stop()
    ms = 1e3 * float(np.median(walls))
    print(
        f"\nleaderboard: {LB_RECORDS} records / {len(first['rows'])} tasks / 4 shards / "
        f"replication 2: median {ms:.2f} ms, peak traced {peak_kb:.0f} KB"
    )
    save_results(
        "service_leaderboard",
        {
            "records": LB_RECORDS,
            "tasks": len(first["rows"]),
            "shards": 4,
            "replication": 2,
            "median_ms": ms,
            "peak_traced_kb": peak_kb,
            "repeats": LB_REPEATS,
            "smoke": SMOKE,
        },
    )


WP_UPLOADS = 200 if SMOKE else 2000
WP_SHARDS = 4
#: the allocations a journal may make over the run: 64 KiB, doubling
WP_GROWS_PER_JOURNAL = 6
WP_TASKS = 64
#: a problem space large next to one record, re-registered for churn
WP_SPACE = {
    "parameter_space": [
        {"name": f"p{i}", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
        for i in range(32)
    ]
}


def _write_path(data_dir, churn: bool) -> dict:
    """Time ``WP_UPLOADS`` uploads one by one; with ``churn``, re-register
    a problem space (on every shard) after each, outside the timed call."""
    # builds never come due: only the problem-space upserts are registry work
    registry = RegistryOptions(min_new_samples=10**9)
    with build_service(
        WP_SHARDS, replication=2, write_quorum=2, data_dir=data_dir, registry=registry
    ) as svc:
        key = svc.register_user("bench", "bench@hpc.org")[1]
        rng = np.random.default_rng(0)
        requests = [
            {
                "route": "upload",
                "api_key": key,
                "problem_name": "bench",
                "task_parameters": {"t": i % WP_TASKS},
                "tuning_parameters": {"x": float(rng.uniform(-5, 5)), "n": i % 7},
                "output": float(rng.uniform(0, 9)),
                "machine_configuration": {"machine_name": "cori", "nodes": 1 + i % 3},
            }
            for i in range(WP_UPLOADS)
        ]
        churn_request = {
            "route": "register_problem",
            "api_key": key,
            "problem_name": "churn",
            "problem_space": WP_SPACE,
        }
        # the client asks for its id (journaled on every shard) first
        assert svc.client.handle({**requests[0], "task_parameters": {"t": -1}})["ok"]
        walls, cpus = [], []
        with perf.collect() as stats:
            for request in requests:
                w0, c0 = time.perf_counter(), time.process_time()
                response = svc.client.handle(request)
                cpus.append(time.process_time() - c0)
                walls.append(time.perf_counter() - w0)
                assert response["ok"] and response["replicas_acked"] == 2, response
                if churn:
                    assert svc.client.handle(churn_request)["ok"]
    counters = stats.counters
    fsyncs = counters.get("wal_fsyncs", 0)
    images = counters.get("wal_snapshots", 0)
    grows = counters.get("wal_grows", 0)
    return {
        "uploads": WP_UPLOADS,
        "churn": churn,
        "wall_us_p50": 1e6 * float(np.median(walls)),
        "wall_us_mean": 1e6 * float(np.mean(walls)),
        "cpu_us_mean": 1e6 * float(np.mean(cpus)),
        "wal_fsyncs": fsyncs,
        "wal_fsyncs_per_upload": fsyncs / WP_UPLOADS,
        "wal_snapshots": images,
        "wal_snapshots_per_upload": images / WP_UPLOADS,
        "wal_grows": grows,
    }


def test_write_path(tmp_path):
    insert_only = _write_path(tmp_path / "insert-only", churn=False)
    churned = _write_path(tmp_path / "churn", churn=True)
    for run in (insert_only, churned):
        print(
            f"\nwrite path ({'churn' if run['churn'] else 'insert-only'}): "
            f"{run['uploads']} uploads, wall p50 {run['wall_us_p50']:.0f} us, "
            f"CPU mean {run['cpu_us_mean']:.0f} us, "
            f"{run['wal_fsyncs_per_upload']:.2f} fsyncs, "
            f"{run['wal_grows']} allocations and {run['wal_snapshots']} images"
        )
    save_results(
        "service_write_path",
        {"shards": WP_SHARDS, "replication": 2, "write_quorum": 2, "smoke": SMOKE,
         "insert_only": insert_only, "churn": churned},
    )
    # the insert-only run: one journal line and one fsync per replica
    # write, and no image (every byte journaled is live)
    assert insert_only["wal_fsyncs"] == 2 * WP_UPLOADS
    assert insert_only["wal_snapshots"] == 0
    # a journal allocates zeros ahead of its appends, doubling: a few times
    # per journal, whatever the number of uploads (once per append would
    # put the size's metadata commit back into every sync); a compaction
    # leaves the journal at its live size, and the next one comes once the
    # dead bytes reach the live ones: a few allocations in between
    for run in (insert_only, churned):
        allowed = WP_GROWS_PER_JOURNAL * WP_SHARDS + 3 * run["wal_snapshots"]
        assert run["wal_grows"] <= allowed, run
    # replaced documents are dead bytes: churn is checkpointed
    assert churned["wal_snapshots"] >= 1


KR_SHARDS = 4
KR_WRITER_THREADS = 4
KR_READER_THREADS = 2
KR_WRITES_PER_THREAD = 25 if SMOKE else 60
KR_TASKS = 16


def test_kill_and_rejoin_loses_no_acked_writes():
    """Mixed read/write load; one shard dies mid-run and rejoins later.

    The controller is count-driven, not clock-driven: the victim is
    killed after a third of the writes have been acked and revived after
    two thirds, so the outage window is deterministic regardless of
    runner speed.  The revive waits for the uploads in flight and holds
    new ones meanwhile, so "acked before the revive" is well defined.
    Every acknowledged uid must be at full replication before the
    trailing manual round and readable after it — the bug this layer
    exists to prevent is an acked write silently vanishing with the
    shard that briefly held it.
    """
    from repro.service import shard_key

    options = RouterOptions(replication=2)
    svc = build_service(KR_SHARDS, latency_s=LATENCY_S / 2, options=options)
    _, key = svc.register_user("bench", "bench@lab.gov")

    total_writes = KR_WRITER_THREADS * KR_WRITES_PER_THREAD
    acked: list[int] = []
    outcomes = {"ok": 0, "degraded": 0, "failed": 0, "reads": 0}
    lock = threading.Condition()
    in_flight = [0]
    killed = threading.Event()
    reviving = threading.Event()
    revived = threading.Event()
    #: acked uids short of full replication when the revive returned
    at_revive: list[tuple[int, int]] = []
    # the victim owns real buckets, so the outage actually bites
    victim = svc.router.ring.primary(shard_key("bench", {"t": 0}))

    def writer(tid: int):
        for i in range(KR_WRITES_PER_THREAD):
            n = tid * KR_WRITES_PER_THREAD + i
            with lock:
                while reviving.is_set() and not revived.is_set():
                    lock.wait()
                in_flight[0] += 1
            response = svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "bench",
                    "task_parameters": {"t": n % KR_TASKS},
                    "tuning_parameters": {"x": float(n)},
                    "output": float(n),
                }
            )
            with lock:
                in_flight[0] -= 1
                lock.notify_all()
                if response.get("ok"):
                    acked.append(response["uid"])
                    outcomes[response.get("status", "ok")] += 1
                else:
                    outcomes["failed"] += 1
                done = len(acked)
                revive = done >= 2 * total_writes // 3 and not reviving.is_set()
                if revive:
                    reviving.set()
                    while in_flight[0]:
                        lock.wait()
            if done >= total_writes // 3 and not killed.is_set():
                killed.set()
                svc.kill_shard(victim)
            elif revive:
                svc.revive_shard(victim)  # runs the victim's anti-entropy round
                with lock:
                    at_revive.extend(under_replicated(acked))
                    revived.set()
                    lock.notify_all()

    def reader(tid: int):
        while not revived.is_set():
            response = svc.client.handle(
                {
                    "route": "query",
                    "api_key": key,
                    "problem_name": "bench",
                    "task_parameters": {"t": tid % KR_TASKS},
                }
            )
            assert response["ok"], response
            with lock:
                outcomes["reads"] += 1

    def under_replicated(uids: list[int]) -> list[tuple[int, int]]:
        short = []
        for uid in uids:
            copies = sum(
                len(shard.repository.store["performance_records"].find({"uid": uid}))
                for shard in svc.shards.values()
            )
            if copies != options.replication:
                short.append((uid, copies))
        return short

    stats = perf.PerfStats()
    threads = [
        threading.Thread(target=writer, args=(tid,))
        for tid in range(KR_WRITER_THREADS)
    ] + [
        threading.Thread(target=reader, args=(tid,))
        for tid in range(KR_READER_THREADS)
    ]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(2e-4)
    t0 = time.perf_counter()
    try:
        with perf.collect(stats):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            revived.set()  # release readers even if writers raced past
            if svc.transports[victim].down:
                svc.revive_shard(victim)
            # every acked uid is on both of its preference replicas
            # before any manual round runs
            lost = under_replicated(acked)
            counters = stats.snapshot()["counters"]
            heal = svc.router.anti_entropy_round()
        wall = time.perf_counter() - t0
    finally:
        sys.setswitchinterval(old_interval)

    try:
        # and readable through the public query path
        seen: set[int] = set()
        for t in range(KR_TASKS):
            response = svc.client.handle(
                {
                    "route": "query",
                    "api_key": key,
                    "problem_name": "bench",
                    "task_parameters": {"t": t},
                }
            )
            assert response["ok"], response
            seen.update(r["uid"] for r in response["records"])
    finally:
        svc.close()

    healed = counters.get("service_antientropy_records_healed", 0)
    print(
        f"\nkill-and-rejoin: {len(acked)}/{total_writes} writes acked in "
        f"{wall:.2f}s ({outcomes['degraded']} degraded, "
        f"{outcomes['failed']} rejected, {outcomes['reads']} reads), victim "
        f"{victim}: {healed} records healed on revive "
        f"({counters.get('service_antientropy_records_shipped', 0)} shipped), "
        f"{heal['healed']} by the trailing round"
    )
    save_results(
        "service_kill_rejoin",
        {
            "writes_acked": len(acked),
            "writes_total": total_writes,
            "degraded": outcomes["degraded"],
            "rejected": outcomes["failed"],
            "reads": outcomes["reads"],
            "antientropy_healed": healed,
            "records_shipped": counters.get("service_antientropy_records_shipped", 0),
            "trailing_round_healed": heal["healed"],
            "wall_s": wall,
        },
    )

    assert killed.is_set() and revived.is_set(), "outage window never opened"
    assert outcomes["degraded"] > 0, (
        "the killed shard took no write traffic; the scenario proved nothing"
    )
    assert not at_revive, f"acked writes under-replicated at revive: {at_revive[:5]}"
    assert not lost, f"acked writes under-replicated before the round: {lost[:5]}"
    missing = set(acked) - seen
    assert not missing, f"acked writes unreadable after rejoin: {sorted(missing)[:5]}"
