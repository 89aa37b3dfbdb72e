"""Registry benchmark: frozen-model serving vs per-query refitting.

The registry's performance promise: ``QueryPredictOutput`` against the
service costs one GP fit **total** (the first build), after which every
prediction is a cached-factorization mat-vec on the owning shard.  The
paper-faithful alternative — what :class:`~repro.crowd.api.CrowdClient`
does without a registry — re-queries the records and refits a fresh GP
on every call.

Two measurements over the same uploaded record set, one shard, router
cache off (so every request reaches the shard):

* **cold path** — ``use_registry=False`` clients calling
  ``query_predict_output`` (query + fit + predict each time),
* **registry path** — batched ``predict`` requests served from the
  frozen model; the serving loop is pinned fit-free by counter.

Checks: >= 10x prediction throughput over the refitting path and
>= 10^4 predictions/s on the single shard (batch 64).  Smoke mode
(``REPRO_BENCH_SMOKE=1``) shrinks budgets and drops the thresholds —
shared CI runners have noisy clocks.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import perf
from repro.crowd import CrowdClient, MetaDescription
from repro.registry import RegistryOptions
from repro.service import build_service

from harness import SMOKE, save_results

PROBLEM = "bench"
TASK = {"t": 1}
SPACE = {
    "input_space": [
        {"name": "t", "type": "real", "lower_bound": 0, "upper_bound": 10}
    ],
    "parameter_space": [
        {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0},
        {"name": "y", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0},
    ],
    "output_space": [{"name": "out", "type": "output"}],
}

N_RECORDS = 32 if SMOKE else 64
BATCH = 64
N_COLD = 3 if SMOKE else 10
N_BATCHES = 50 if SMOKE else 200

MIN_SPEEDUP = 2.0 if SMOKE else 10.0
MIN_QPS = 1e3 if SMOKE else 1e4


def _build_service():
    svc = build_service(
        1, replication=1, registry=RegistryOptions(min_new_samples=10**6)
    )
    _, key = svc.register_user("bench", "bench@lab.gov")
    rng = np.random.default_rng(0)
    for i in range(N_RECORDS):
        x, y = rng.random(2)
        response = svc.client.handle(
            {
                "route": "upload",
                "api_key": key,
                "problem_name": PROBLEM,
                "task_parameters": dict(TASK),
                "tuning_parameters": {"x": float(x), "y": float(y)},
                "output": float(np.sin(5 * x) + y),
            }
        )
        assert response["ok"], response
    return svc, key


def _probe_batch(rng) -> list[dict]:
    return [
        {"x": float(a), "y": float(b)} for a, b in rng.random((BATCH, 2))
    ]


def test_registry_throughput_vs_refitting():
    svc, key = _build_service()
    rng = np.random.default_rng(1)
    meta = MetaDescription.from_dict(
        {
            "api_key": key,
            "tuning_problem_name": PROBLEM,
            "problem_space": SPACE,
        }
    )
    try:
        # cold path: the paper-faithful client, refitting per call
        cold_client = CrowdClient(svc.client, meta, use_registry=False)
        probe = _probe_batch(rng)
        with perf.collect() as cold_stats:
            t0 = time.perf_counter()
            for _ in range(N_COLD):
                cold_out = cold_client.query_predict_output(probe, TASK, seed=0)
            cold_wall = time.perf_counter() - t0
        assert cold_stats.counters["gp_fits"] == N_COLD
        cold_qps = N_COLD * BATCH / cold_wall

        # registry path: register, build once, then serve fit-free
        reg = svc.client.handle(
            {
                "route": "register_problem",
                "api_key": key,
                "problem_name": PROBLEM,
                "problem_space": SPACE,
            }
        )
        assert reg["ok"], reg
        first = svc.client.handle(
            {
                "route": "predict",
                "api_key": key,
                "problem_name": PROBLEM,
                "task_parameters": dict(TASK),
                "configurations": probe,
            }
        )
        assert first["ok"], first
        # same data, same seed: the frozen model answers with the exact
        # bytes of the cold client's locally fitted GP
        assert np.array_equal(np.asarray(first["mean"]), cold_out)

        with perf.collect() as serve_stats:
            t0 = time.perf_counter()
            for _ in range(N_BATCHES):
                response = svc.client.handle(
                    {
                        "route": "predict",
                        "api_key": key,
                        "problem_name": PROBLEM,
                        "task_parameters": dict(TASK),
                        "configurations": probe,
                    }
                )
                assert response["ok"], response
            serve_wall = time.perf_counter() - t0
        assert serve_stats.counters.get("gp_fits", 0) == 0
        assert serve_stats.counters["registry_predict_batches"] == N_BATCHES
    finally:
        svc.close()

    registry_qps = N_BATCHES * BATCH / serve_wall
    speedup = registry_qps / cold_qps
    print(
        f"\nregistry: cold {cold_qps:,.0f} pred/s "
        f"({cold_wall / N_COLD * 1e3:.1f} ms/query, refit each call) vs "
        f"frozen {registry_qps:,.0f} pred/s "
        f"({serve_wall / N_BATCHES * 1e3:.2f} ms/batch of {BATCH}) "
        f"-> {speedup:.1f}x"
    )
    save_results(
        "registry_qps",
        {
            "n_records": N_RECORDS,
            "batch": BATCH,
            "cold_queries": N_COLD,
            "cold_wall_s": cold_wall,
            "cold_predictions_per_s": cold_qps,
            "registry_batches": N_BATCHES,
            "registry_wall_s": serve_wall,
            "registry_predictions_per_s": registry_qps,
            "speedup": speedup,
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"registry serving only {speedup:.1f}x the refitting path "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    assert registry_qps >= MIN_QPS, (
        f"only {registry_qps:,.0f} predictions/s on one shard "
        f"(need >= {MIN_QPS:,.0f})"
    )
