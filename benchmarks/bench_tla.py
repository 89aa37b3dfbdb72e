"""TLA-pool benchmark: what an ensemble run costs, and that the pool is exact.

The TLA pool (paper Sec. V, Table I) has one path: every member is called
through its own ``predict``, target-side GPs are kept by a ``refit_every``
cadence, and each source is fitted once per prepare.  This benchmark
records, with no baseline path to beat:

* **Wall-clock** — absolute ``Ensemble(proposed)`` prepare+tune timings
  at ``refit_every`` 1 and 5 (tracked commit over commit in
  ``results/tla_pool_speedup.json``; no ratio is asserted).
* **Source-fit counts** — the shell fits every source once and hands the
  fitted GPs to its three members (``tla_source_fits == n_sources``).
* **Exactness** — ``combine_weighted`` over the source GPs and every
  strategy's surrogate equal the test oracle (:mod:`tests.tla.oracles`,
  the paper's formulas over the textbook GP predictor) bit for bit.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.apps.synthetic import DemoFunction
from repro.core import perf
from repro.tla import STRATEGY_REGISTRY, TransferTuner, get_strategy
from repro.tla.base import combine_weighted, fit_source_gps

from harness import SMOKE, collect_source, save_results

sys.path.insert(0, str(Path(__file__).parent.parent))  # the repo root, for the oracle

from tests.tla import oracles  # noqa: E402

N_SOURCES = 4
N_SRC_SAMPLES = 20 if SMOKE else 40
#: 4 sources / 200 iterations at the default scale (tiny in CI smoke)
N_EVALS = 8 if SMOKE else 200
REFIT_CADENCES = (1, 5)
#: best-of-N timing repeats (one pass in smoke mode)
REPEATS = 1 if SMOKE else 2

SOURCE_TASKS = [{"t": 0.6}, {"t": 0.8}, {"t": 1.0}, {"t": 1.2}]
TARGET_TASK = {"t": 1.1}


def _sources(app):
    return [
        collect_source(app, task, N_SRC_SAMPLES, seed=i, label=f"t={task['t']}")
        for i, task in enumerate(SOURCE_TASKS)
    ]


def _run_ensemble(app, sources, refit_every: int):
    """Best-of-``REPEATS`` ensemble prepare+tune wall-clock.

    A fresh strategy is built per repeat so every pass pays the same
    cold-start costs.  Returns ``(seconds, best_output, perf counters)``;
    counters come from a single pass (they are deterministic across
    repeats)."""
    elapsed = np.inf
    for _ in range(REPEATS):
        strategy = get_strategy("ensemble-proposed", refit_every=refit_every)
        tuner = TransferTuner(app.make_problem(run=0), strategy, sources)
        with perf.collect() as stats:
            t0 = time.perf_counter()
            result = tuner.tune(TARGET_TASK, N_EVALS, seed=0)
            elapsed = min(elapsed, time.perf_counter() - t0)
    return elapsed, float(result.best_output), stats.snapshot()["counters"]


def test_ensemble_prepare_tune_timings():
    """Absolute timings and fit counters of the ensemble at each cadence."""
    app = DemoFunction()
    sources = _sources(app)

    print(
        f"\nEnsemble(proposed) at {N_SOURCES} sources x {N_SRC_SAMPLES} samples, "
        f"{N_EVALS} evaluations:"
    )
    runs = {}
    for refit_every in REFIT_CADENCES:
        seconds, best, counters = _run_ensemble(app, sources, refit_every)
        label = f"refit_every={refit_every}"
        print(f"  {label:<16} {seconds:8.2f} s   best {best:.4f}")
        runs[label] = {"seconds": seconds, "best": best, "counters": counters}

        # the shell fits each source once; its members predict from those fits
        assert counters["tla_source_fits"] == N_SOURCES
        # the cadence engages exactly when it is asked for
        assert (counters.get("tla_incremental_refits", 0) > 0) == (refit_every > 1)
        assert counters["tla_batched_predicts"] > 0
    save_results(
        "tla_pool_speedup",
        {
            "n_sources": N_SOURCES,
            "n_source_samples": N_SRC_SAMPLES,
            "n_evals": N_EVALS,
            "runs": runs,
        },
    )


def test_pool_matches_oracle():
    """Acceptance pin: the pool's surrogates equal the one-at-a-time oracle."""
    app = DemoFunction()
    sources = _sources(app)
    rng = np.random.default_rng(0)
    gps = fit_source_gps(sources, rng)
    dim = sources[0].dim
    weights = np.array([1.0, 0.5, 2.0, 1.5])
    Xq = np.random.default_rng(1).random((256, dim))

    mu, sd = combine_weighted([gp.predict for gp in gps], weights)(Xq)
    mu_ref, sd_ref = oracles.weighted_sum(gps, weights, Xq)
    err_mu = float(np.max(np.abs(mu - mu_ref)))
    err_ls = float(np.max(np.abs(np.log(sd) - np.log(sd_ref))))
    print(f"\ncombine_weighted vs oracle: |d mean| {err_mu:.2e}, |d log-std| {err_ls:.2e}")

    target = collect_source(app, TARGET_TASK, 6, seed=9, label="target")
    exact = {}
    for key in sorted(STRATEGY_REGISTRY):
        strategy = get_strategy(key)
        strategy.prepare(sources, rng)
        got = strategy.model(target, rng)(Xq)
        ref = oracles.strategy_surrogate(strategy, target, Xq)
        exact[key] = bool(np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1]))
    print("strategies bit-identical to the oracle:", sum(exact.values()), "of", len(exact))
    save_results(
        "tla_batched_combine",
        {
            "max_abs_mean_err": err_mu,
            "max_abs_logstd_err": err_ls,
            "strategy_equals_oracle": exact,
        },
    )
    assert err_mu == 0.0 and err_ls == 0.0
    assert all(exact.values()), exact
