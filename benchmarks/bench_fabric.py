"""Fabric benchmark: multi-process scaling, kill-resilience, durability.

The fabric is the one parallel executor, and its promise is that
overlapping evaluations on worker processes buys wall-clock time without
costing optimization quality, with crash safety: worker processes can
die mid-evaluation and the run still delivers every acknowledged result
exactly once.  This benchmark measures both halves:

* **scaling** — the same tuning workload (demo objective, fixed
  simulated per-evaluation latency) at 1/2/4/8 processes; the 1-process
  fabric run is the sequential baseline (same code path, no overlap).
  The **regret gap** — mean final best at 4 processes minus at 1 — must
  stay within run-to-run noise: batch proposal with constant-liar
  fantasies should not cost quality.  Full-mode check: >= 3x wall-clock
  speedup at 4 processes.
* **kill-one-worker** — a 4-process run whose busiest worker is
  hard-terminated mid-run (the coordinator replaces it); reports
  utilization and re-dispatch counts and checks the durable queue
  afterwards: every job completed exactly once, zero acknowledged
  completions lost.

In smoke mode (``REPRO_BENCH_SMOKE=1``) budgets shrink and the speedup
threshold drops to a sanity check — shared CI runners have noisy clocks
and fork startup is a bigger fraction of tiny runs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.synthetic import DemoFunction
from repro.core import TunerOptions
from repro.core.optimizer import SearchOptions
from repro.fabric import DurableJobQueue, FabricOptions, FabricTuner

from harness import FULL, SMOKE, save_results

PROC_COUNTS = [1, 2, 4, 8]
N_EVALS = 32 if FULL else (12 if SMOKE else 20)
SEEDS = list(range(3)) if FULL else [0]
#: simulated seconds each evaluation occupies its worker process
LATENCY_S = 0.03 if SMOKE else 0.08

MIN_SPEEDUP_AT_4 = 1.2 if SMOKE else 3.0
#: demo objective spans roughly [-1, 3]; run-to-run noise between seeds
#: is larger than this, so the gap bound is "within noise" not "equal"
MAX_REGRET_GAP = 0.25


def _tuner_options() -> TunerOptions:
    # keep serial proposal cheap relative to the simulated latency so
    # the measured scaling is evaluation overlap, not proposal time
    return TunerOptions(
        n_initial=3,
        refit_every=4,
        gp_max_fun=40,
        search=SearchOptions(n_candidates=256, local_iters=10),
    )


def _fabric_options(n_procs: int, **kw) -> FabricOptions:
    return FabricOptions(
        n_procs=n_procs,
        batch=min(n_procs, 4),
        base_latency_s=LATENCY_S,
        **kw,
    )


def _run(n_procs: int, seed: int, **fabric_kw):
    app = DemoFunction()
    tuner = FabricTuner(
        app.make_problem(),
        _tuner_options(),
        _fabric_options(n_procs, **fabric_kw),
    )
    t0 = time.perf_counter()
    result = tuner.tune(app.default_task(), N_EVALS, seed=seed)
    wall = time.perf_counter() - t0
    return wall, result, tuner


def test_fabric_scaling():
    rows = []
    walls: dict[int, float] = {}
    bests: dict[int, float] = {}
    for p in PROC_COUNTS:
        run_walls, run_bests, utils = [], [], []
        for seed in SEEDS:
            wall, result, _ = _run(p, seed)
            run_walls.append(wall)
            run_bests.append(result.best_output)
            util = (result.perf or {}).get("gauges", {}).get(
                "fabric_worker_utilization", {}
            )
            utils.append(util.get("last", 0.0))
        walls[p] = float(np.median(run_walls))
        bests[p] = float(np.mean(run_bests))
        rows.append(
            {
                "procs": p,
                "wall_s": walls[p],
                "mean_best": bests[p],
                "mean_utilization": float(np.mean(utils)),
                "speedup": walls[PROC_COUNTS[0]] / walls[p],
            }
        )

    print(f"\nfabric: {N_EVALS} evals x {LATENCY_S * 1e3:.0f} ms latency, "
          f"{len(SEEDS)} seed(s), fork workers")
    print(f"{'procs':>6}  {'wall':>9}  {'speedup':>8}  {'util':>6}  {'mean best':>10}")
    for r in rows:
        print(
            f"{r['procs']:>6}  {r['wall_s']:>8.2f}s  {r['speedup']:>7.2f}x"
            f"  {r['mean_utilization']:>5.0%}  {r['mean_best']:>10.4f}"
        )
    save_results(
        "fabric_scaling",
        {"rows": rows, "n_evals": N_EVALS, "latency_s": LATENCY_S, "seeds": SEEDS},
    )

    speedup_at_4 = walls[1] / walls[4]
    assert speedup_at_4 >= MIN_SPEEDUP_AT_4, (
        f"only {speedup_at_4:.2f}x wall-clock speedup at 4 processes "
        f"(need >= {MIN_SPEEDUP_AT_4}x)"
    )
    regret_gap = bests[4] - bests[1]
    assert regret_gap <= MAX_REGRET_GAP, (
        f"4-process batch tuning lost {regret_gap:.3f} vs sequential "
        f"(allowed {MAX_REGRET_GAP})"
    )


def test_fabric_survives_worker_kill(tmp_path):
    """Kill one busy worker mid-run over a durable queue: the run must
    finish with zero acknowledged-job loss — the
    re-dispatched job completes, every job is applied exactly once, and
    the on-disk queue agrees with the delivered history."""
    kill_after = N_EVALS // 3
    killed = []

    def reaper(completed, coordinator):
        if completed == kill_after and not killed:
            busy = coordinator.busy_workers()
            if busy:
                coordinator.kill_worker(busy[0])
                killed.append(busy[0])

    app = DemoFunction()
    tuner = FabricTuner(
        app.make_problem(),
        _tuner_options(),
        _fabric_options(4, data_dir=tmp_path),
        on_progress=reaper,
    )
    t0 = time.perf_counter()
    result = tuner.tune(app.default_task(), N_EVALS, seed=0)
    wall = time.perf_counter() - t0

    gauges = (result.perf or {}).get("gauges", {})
    counters = (result.perf or {}).get("counters", {})
    utilization = gauges.get("fabric_worker_utilization", {}).get("last", 0.0)
    print(f"\nfabric kill-one-worker: {N_EVALS} evals, worker {killed} killed "
          f"after {kill_after} completions, wall {wall:.2f}s")
    print(f"  utilization {utilization:.0%}, "
          f"re-dispatches {tuner._last_redispatches}, "
          f"worker deaths {counters.get('fabric_worker_deaths', 0)}")
    save_results(
        "fabric_kill",
        {
            "n_evals": N_EVALS,
            "kill_after": kill_after,
            "wall_s": wall,
            "utilization": utilization,
            "redispatches": tuner._last_redispatches,
            "worker_deaths": counters.get("fabric_worker_deaths", 0),
        },
    )

    assert len(killed) == 1, "the kill hook never found a busy worker"
    assert result.n_evaluations == N_EVALS
    assert all(not e.failed for e in result.history)
    assert tuner._last_redispatches >= 1
    assert counters.get("fabric_worker_deaths", 0) == 1

    # zero acknowledged-job loss: recover the queue from disk and check
    # it against the delivered run — every job done, exactly once
    queue = DurableJobQueue(tmp_path)
    try:
        assert queue.n_jobs == N_EVALS
        assert queue.n_done == N_EVALS
        assert queue.n_pending == 0
        assert counters.get("fabric_jobs_completed", 0) == N_EVALS
    finally:
        queue.close()


def test_one_process_is_sequential_baseline():
    """The 1-process fabric run used as the baseline really is
    sequential: same trajectory as the synchronous tuner, same seed."""
    from repro.core import Tuner

    app = DemoFunction()
    seq = Tuner(app.make_problem(), _tuner_options()).tune(
        app.default_task(), 8, seed=0
    )
    fab = FabricTuner(
        app.make_problem(), _tuner_options(), FabricOptions(n_procs=1)
    ).tune(app.default_task(), 8, seed=0)
    np.testing.assert_allclose(fab.best_so_far(), seq.best_so_far())
