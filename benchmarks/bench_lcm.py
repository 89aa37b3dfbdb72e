"""LCM fit-path benchmark: the analytic-gradient MLE and incremental
refits.

The LCM refit dominates Multitask(TS) iterations.  Its MLE evaluates the
NLL and every one of its ``n_params = Q (d + 2 T) + T`` partial
derivatives from one covariance assembly and one Cholesky
(:meth:`repro.core.lcm.LCM._nll_grad`), under the search every surrogate
shares (:func:`repro.core.fit.multistart_mle`).  This benchmark

* records what one MLE costs at (T=4, n=200, d=8, Q=2) — seconds,
  the NLL reached and the number of objective evaluations — as absolute
  numbers to track commit over commit (there is no second gradient mode
  to compare against), and
* pins that absorbing appended target observations through
  :meth:`LCM.update` is much faster than a full non-optimizing refit and
  yields identical predictions (pure amortization, not an
  approximation).

``EVAL_BUDGET`` is sized so the search converges well inside it:
L-BFGS-B terminates on its own after ~200 evaluations.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import LCM, perf

from harness import FULL, SMOKE, save_results

T_TASKS = 4
DIM = 8
Q_LATENT = 2
N_PER_TASK = 50  # n_total = 200
#: objective-evaluation budget of the one start (see module docstring)
EVAL_BUDGET = 2000 if SMOKE else 8000
ITERS = 3 if SMOKE else 20  # warm-up budget for the update benchmark
REPEATS = 1 if SMOKE else (3 if FULL else 2)

MIN_UPDATE_SPEEDUP = 1.2 if SMOKE else 3.0


def _datasets(seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Four correlated tasks sharing a landscape, shifted and rescaled."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(DIM)
    sets = []
    for i in range(T_TASKS):
        X = rng.random((N_PER_TASK, DIM))
        y = (
            np.sin(3.0 * X @ w / DIM + 0.3 * i)
            + 0.5 * (X[:, 0] - 0.5) ** 2
            + 0.2 * i
            + 0.02 * rng.standard_normal(N_PER_TASK)
        )
        sets.append((X, y))
    return sets


def _fit_once(sets) -> tuple[float, float, dict]:
    """One MLE fit; returns (mle_seconds, final_nll, counters)."""
    model = LCM(T_TASKS, DIM, n_latent=Q_LATENT, max_fun=EVAL_BUDGET, seed=0)
    with perf.collect() as stats:
        model.fit(sets)
    snap = stats.snapshot()
    return (
        snap["timers"]["lcm_mle"]["total_s"],
        float(model.last_nll_),
        snap["counters"],
    )


def test_lcm_mle_cost():
    """What one LCM MLE costs: seconds, NLL reached, objective evaluations."""
    sets = _datasets()
    best_t, nll, counters = np.inf, np.nan, {}
    for _ in range(REPEATS):
        t, nll, counters = _fit_once(sets)
        best_t = min(best_t, t)
    grad_evals = counters.get("lcm_grad_evals", 0)
    print(
        f"\nLCM MLE at T={T_TASKS}, n={T_TASKS * N_PER_TASK}, d={DIM}, "
        f"Q={Q_LATENT} (budget: {EVAL_BUDGET} objective evaluations): "
        f"{1e3 * best_t:.1f} ms, nll {nll:.3f}, {grad_evals} evaluations"
    )
    save_results(
        "lcm_mle",
        {
            "n_tasks": T_TASKS,
            "dim": DIM,
            "n_latent": Q_LATENT,
            "n_total": T_TASKS * N_PER_TASK,
            "eval_budget": EVAL_BUDGET,
            "mle_s": best_t,
            "nll": nll,
            "lcm_grad_evals": grad_evals,
        },
    )
    assert np.isfinite(nll)
    # converged on its own: the budget was not what stopped the search
    assert 0 < grad_evals < EVAL_BUDGET


def test_lcm_incremental_update_speedup():
    """Appending target rows via update() beats the full refit, exactly."""
    sets = _datasets()
    base = LCM(T_TASKS, DIM, n_latent=Q_LATENT, max_fun=ITERS, seed=0).fit(sets)
    rng = np.random.default_rng(7)
    X_app = rng.random((1, DIM))
    y_app = np.asarray([float(np.mean(sets[-1][1]))])
    grown = [
        (X, y) if i < T_TASKS - 1 else (np.vstack([X, X_app]), np.concatenate([y, y_app]))
        for i, (X, y) in enumerate(sets)
    ]

    def time_update():
        best = np.inf
        for _ in range(max(REPEATS, 3)):
            m = LCM(T_TASKS, DIM, n_latent=Q_LATENT, optimize=False)
            m.warm_start_from(base)
            m.fit(sets)
            t0 = time.perf_counter()
            m.update(T_TASKS - 1, X_app, y_app)
            best = min(best, time.perf_counter() - t0)
        return m, best

    def time_refit():
        best = np.inf
        for _ in range(max(REPEATS, 3)):
            m = LCM(T_TASKS, DIM, n_latent=Q_LATENT, optimize=False)
            m.warm_start_from(base)
            t0 = time.perf_counter()
            m.fit(grown)
            best = min(best, time.perf_counter() - t0)
        return m, best

    inc, t_inc = time_update()
    ref, t_ref = time_refit()
    speedup = t_ref / t_inc
    print(
        f"\nLCM append-one-row at n={T_TASKS * N_PER_TASK}: "
        f"full refit {1e3 * t_ref:.2f} ms, update {1e3 * t_inc:.2f} ms "
        f"({speedup:.1f}x)"
    )
    save_results(
        "lcm_incremental",
        {"full_refit_ms": 1e3 * t_ref, "update_ms": 1e3 * t_inc, "speedup": speedup},
    )

    Xq = np.random.default_rng(11).random((16, DIM))
    for task in range(T_TASKS):
        m1, s1 = inc.predict(task, Xq)
        m2, s2 = ref.predict(task, Xq)
        np.testing.assert_allclose(m1, m2, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(s1, s2, rtol=1e-9, atol=1e-9)
    assert speedup >= MIN_UPDATE_SPEEDUP
