"""Hot-path benchmark: surrogate cost per BO iteration vs history size.

Every BO iteration must refresh the surrogate with the newly observed
point.  The baseline path refits from scratch — an O(n^3) Cholesky per
iteration even when hyperparameters are frozen — while the incremental
path (``GaussianProcess.update``) appends to the cached factor in O(n^2).
At a refit boundary the cost is the marginal-likelihood search, recorded
here as a per-evaluation cost table (no threshold: it is a trajectory to
diff commit over commit, not a ratio to a legacy path).

This benchmark records the per-iteration surrogate latency across
history sizes for both paths and checks that at history size 200 the
incremental path is at least 3x faster than a full refactorization; it
also records the best-so-far trajectory and surrogate time of a tuner
run whose between-boundary steps take the incremental path (the tuner
has no other).

It also records what one ``predict`` call costs (absolute microseconds,
dense and sparse, at the acquisition search's two batch shapes: the
16-row polish batch, where per-call overhead dominates, and the 1024-row
candidate sweep), checked against the textbook predictor of
:mod:`tests.core.oracles` — a trajectory to diff, not a ratio.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.apps.synthetic import DemoFunction
from repro.core import RBF, GaussianProcess, SparseGP, Tuner, TunerOptions, perf
from repro.core import gp as gp_mod

from harness import FULL, SMOKE, save_results

sys.path.insert(0, str(Path(__file__).parent.parent))  # the repo root, for the oracle

from tests.core import oracles  # noqa: E402

HISTORY_SIZES = [25, 50, 100, 200]
DIM = 4
REPEATS = 15 if FULL else (3 if SMOKE else 7)

#: smoke mode only sanity-checks that incremental wins at all
MIN_SPEEDUP_AT_200 = 1.2 if SMOKE else 3.0


def _training_data(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.random((n + 1, DIM))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.3 * np.cos(5 * X[:, 2]) + 0.1 * X[:, 3]
    return X, y


def _time_full_refit(X: np.ndarray, y: np.ndarray) -> float:
    """Baseline: absorb one new point via a full (non-MLE) refit."""
    best = np.inf
    for _ in range(REPEATS):
        gp = GaussianProcess(RBF(DIM), optimize=False)
        gp.fit(X[:-1], y[:-1])
        t0 = time.perf_counter()
        gp.fit(X, y)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_incremental(X: np.ndarray, y: np.ndarray) -> float:
    """Hot path: absorb one new point via a rank-1 Cholesky append."""
    best = np.inf
    for _ in range(REPEATS):
        gp = GaussianProcess(RBF(DIM), optimize=False)
        gp.fit(X[:-1], y[:-1])
        t0 = time.perf_counter()
        gp.update(X[-1:], y[-1:])
        best = min(best, time.perf_counter() - t0)
    return best


def _mle_cost(X: np.ndarray, y: np.ndarray) -> dict:
    """One optimized fit: objective evaluations, MLE time, whole-fit time."""
    evals = [0]
    real = gp_mod._nll_grad

    def counting(theta, ws, ys):
        evals[0] += 1
        return real(theta, ws, ys)

    best = None
    gp_mod._nll_grad = counting
    try:
        for _ in range(3):
            evals[0] = 0
            with perf.collect() as stats:
                t0 = time.perf_counter()
                GaussianProcess(RBF(DIM), optimize=True, seed=0).fit(X, y)
                fit_s = time.perf_counter() - t0
            mle_s = stats.snapshot()["timers"]["gp_mle"]["total_s"]
            if best is None or fit_s < best["fit_ms"] / 1e3:
                best = {
                    "history_size": X.shape[0],
                    "evaluations_per_fit": evals[0],
                    "ms_per_evaluation": 1e3 * mle_s / evals[0],
                    "fit_ms": 1e3 * fit_s,
                }
    finally:
        gp_mod._nll_grad = real
    return best


def test_incremental_update_speedup():
    """Per-iteration surrogate latency vs history size; >= 3x at n=200."""
    rows = []
    for n in HISTORY_SIZES:
        X, y = _training_data(n)
        t_full = _time_full_refit(X, y)
        t_inc = _time_incremental(X, y)
        rows.append(
            {
                "history_size": n,
                "full_refit_ms": 1e3 * t_full,
                "incremental_ms": 1e3 * t_inc,
                "speedup": t_full / t_inc,
            }
        )

    print("\nper-iteration surrogate time (optimize off, one appended point)")
    print(f"{'n':>5}  {'full refit':>12}  {'incremental':>12}  {'speedup':>8}")
    for r in rows:
        print(
            f"{r['history_size']:>5}  {r['full_refit_ms']:>10.3f} ms"
            f"  {r['incremental_ms']:>10.3f} ms  {r['speedup']:>7.1f}x"
        )
    save_results("hotpath_latency", {"rows": rows, "dim": DIM, "repeats": REPEATS})

    at_200 = next(r for r in rows if r["history_size"] == 200)
    assert at_200["speedup"] >= MIN_SPEEDUP_AT_200, (
        f"incremental update only {at_200['speedup']:.1f}x faster at n=200"
    )


def test_mle_cost_per_evaluation():
    """Refit-boundary cost: ms per objective evaluation, evaluations, fit ms."""
    rows = [_mle_cost(*_training_data(n - 1)) for n in HISTORY_SIZES]
    print("\noptimized fit (RBF, 1 restart): marginal-likelihood search cost")
    print(f"{'n':>5}  {'ms / eval':>10}  {'evals / fit':>11}  {'fit':>10}")
    for r in rows:
        print(
            f"{r['history_size']:>5}  {r['ms_per_evaluation']:>10.3f}"
            f"  {r['evaluations_per_fit']:>11}  {r['fit_ms']:>7.1f} ms"
        )
    save_results("hotpath_mle", {"rows": rows, "dim": DIM})
    assert all(r["evaluations_per_fit"] > 0 for r in rows)


def test_tuner_incremental_trajectory_recorded():
    """Between refit boundaries the tuner runs the incremental path; its
    trajectory (fixed seed) and surrogate time are recorded to diff
    commit over commit.  That the path is an amortization and not an
    approximation is pinned where it is exact:
    ``tests/core/test_gp_incremental.py::TestUpdateEquivalence``."""
    app = DemoFunction()
    n_evals = 30 if FULL else 20
    options = TunerOptions(refit_every=5)
    result = Tuner(app.make_problem(), options).tune({"t": 1.0}, n_evals, seed=7)
    surrogate_s = result.perf["timers"]["iteration.surrogate"]["total_s"]
    print(f"\ntuner surrogate time over {n_evals} evals: {1e3 * surrogate_s:.1f} ms")
    save_results(
        "hotpath_trajectory",
        {
            "n_evals": n_evals,
            "best_so_far": result.best_so_far(),
            "surrogate_s": surrogate_s,
        },
    )
    assert result.perf["counters"].get("gp_incremental_updates", 0) > 0


#: (surrogate, history sizes); the sparse model keeps m = min(100, n) inducing points
PREDICT_MODELS = (("dense", (50, 200)), ("sparse", (50, 200, 1200)))
PREDICT_ROWS = (16, 1024)


def _predict_us(model, Xq: np.ndarray) -> float:
    """Best-of-REPEATS mean microseconds per ``predict(Xq)`` call."""
    calls = max(5, (4800 if SMOKE else 48000) // Xq.shape[0])
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            model.predict(Xq)
        best = min(best, (time.perf_counter() - t0) / calls)
    return 1e6 * best


def test_predict_cost_per_call():
    """What one ``predict`` costs, by surrogate, history size and batch rows."""
    rows = []
    for kind, sizes in PREDICT_MODELS:
        for n in sizes:
            X, y = _training_data(n - 1)
            if kind == "dense":
                model, oracle = GaussianProcess(RBF(DIM), optimize=False), oracles.gp_predict
            else:
                model = SparseGP(RBF(DIM), n_inducing=100, optimize=False)
                oracle = oracles.sparse_predict
            model.fit(X, y)
            for n_rows in PREDICT_ROWS:
                Xq = np.random.default_rng(n_rows).random((n_rows, DIM))
                mean, std = model.predict(Xq)
                mean_ref, std_ref = oracle(model, Xq)
                assert np.array_equal(mean, mean_ref) and np.array_equal(std, std_ref)
                rows.append(
                    {
                        "surrogate": kind,
                        "history_size": n,
                        "rows": n_rows,
                        "us_per_call": _predict_us(model, Xq),
                    }
                )

    print("\npredict cost per call (RBF, optimize off)")
    print(f"{'surrogate':>9}  {'n':>5}  {'rows':>5}  {'us / call':>10}")
    for r in rows:
        print(
            f"{r['surrogate']:>9}  {r['history_size']:>5}  {r['rows']:>5}"
            f"  {r['us_per_call']:>10.1f}"
        )
    save_results("hotpath_predict", {"rows": rows, "dim": DIM, "repeats": REPEATS})
    assert all(r["us_per_call"] > 0 for r in rows)
