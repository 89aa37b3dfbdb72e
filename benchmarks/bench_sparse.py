"""Large-n surrogate benchmark: fit+predict wall clock vs history size.

The dense GP's O(n^3) fit and O(n^2) predict cap histories at a few
thousand points; the sparse inducing-point GP (O(nm^2) fit, O(m^2)
predict) is the crowd-scale replacement.  This benchmark records
fit+predict wall clock across n for both and checks the guarantees:

* at n = 5000 the sparse surrogate's fit+predict is at least 10x faster
  than the dense GP's — conservatively: the dense side is timed at its
  cheapest (``optimize=False``, a single factorization with no MLE)
  while the sparse side pays its full cost including the subset-MLE
  hyperparameter fit,
* sparse cost scales near-linearly in n (doubling n far less than
  quadruples the time), and
* a small-history tuning run with ``surrogate="auto"`` produces the
  *identical* trajectory as the dense path (same seed) — the policy is
  pure routing, not an approximation, below ``N_DENSE_MAX``.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the size grid and loosens
the ratio thresholds to sanity checks for shared CI runners.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import GaussianProcess, Tuner, TunerOptions
from repro.core.kernels import kernel_from_name
from repro.core.sparse import SparseGP

from harness import FULL, SMOKE, save_results

DIM = 4

#: wall-clock-vs-n grid; dense is timed only while affordable
SIZES = [200, 1000, 5000, 20000] if (FULL or not SMOKE) else [200, 1000, 2500]
DENSE_MAX_N = 5000 if (FULL or not SMOKE) else 2500

N_INDUCING = 100
N_PREDICT = 512
REPEATS = 3 if FULL else (1 if SMOKE else 2)

#: smoke sanity-checks a smaller margin at its smaller top size
MIN_SPARSE_SPEEDUP = 3.0 if SMOKE else 10.0
#: near-linear scaling: t(n2)/t(n1) stays well under the quadratic ratio
MAX_SCALING_EXPONENT = 1.6


def _data(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.random((n, DIM))
    y = (
        np.sin(3 * X[:, 0])
        + X[:, 1] ** 2
        + 0.3 * np.cos(5 * X[:, 2])
        + 0.1 * X[:, 3]
        + 0.01 * rng.standard_normal(n)
    )
    return X, y


def _best_of(f, repeats: int = REPEATS) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_fit_predict(make_model, X, y, Xq, repeats: int = REPEATS) -> float:
    def run():
        model = make_model()
        model.fit(X, y)
        model.predict(Xq)

    return _best_of(run, repeats)


def bench_curves() -> dict:
    """Fit+predict wall clock for dense/sparse across n."""
    Xq = np.random.default_rng(99).random((N_PREDICT, DIM))
    curves: dict[str, dict[int, float]] = {"dense": {}, "sparse": {}}
    for n in SIZES:
        X, y = _data(n)
        if n <= DENSE_MAX_N:
            # the cheapest possible dense refresh: no MLE, one O(n^3)
            # factorization (a real refit pays many of these per L-BFGS
            # step) — so the reported speedup is a floor
            curves["dense"][n] = _time_fit_predict(
                lambda: GaussianProcess(kernel_from_name("rbf", DIM), optimize=False),
                X, y, Xq,
                repeats=1 if n >= 5000 else REPEATS,
            )
        curves["sparse"][n] = _time_fit_predict(
            lambda: SparseGP("rbf", n_inducing=N_INDUCING, n_restarts=0, seed=0),
            X, y, Xq,
        )
        row = "  ".join(
            f"{kind}={curves[kind][n] * 1e3:9.1f}ms"
            for kind in curves
            if n in curves[kind]
        )
        print(f"n={n:<6} {row}")
    return curves


def test_sparse_beats_dense_at_scale():
    curves = bench_curves()

    n_big = max(n for n in SIZES if n <= DENSE_MAX_N)
    speedup = curves["dense"][n_big] / curves["sparse"][n_big]
    print(f"sparse speedup over dense at n={n_big}: {speedup:.1f}x")

    ns = sorted(curves["sparse"])
    n1, n2 = ns[-2], ns[-1]
    exponent = float(
        np.log(curves["sparse"][n2] / curves["sparse"][n1]) / np.log(n2 / n1)
    )
    print(f"sparse scaling exponent between n={n1} and n={n2}: {exponent:.2f}")

    save_results(
        "bench_sparse",
        {
            "mode": "full" if FULL else ("smoke" if SMOKE else "default"),
            "sizes": SIZES,
            "n_inducing": N_INDUCING,
            "curves_s": curves,
            "speedup_at_n_big": speedup,
            "n_big": n_big,
            "sparse_scaling_exponent": exponent,
        },
    )

    assert speedup >= MIN_SPARSE_SPEEDUP, (
        f"sparse fit+predict only {speedup:.1f}x faster than dense at "
        f"n={n_big} (need >= {MIN_SPARSE_SPEEDUP}x)"
    )
    if not SMOKE:
        assert exponent <= MAX_SCALING_EXPONENT, (
            f"sparse scaling exponent {exponent:.2f} between n={n1} and "
            f"n={n2} (need <= {MAX_SCALING_EXPONENT} for near-linear)"
        )


def test_auto_policy_identical_below_threshold():
    """Fig. 3-style check: auto == dense bit for bit at paper scale."""
    from repro.apps.synthetic import DemoFunction

    app = DemoFunction()
    problem = app.make_problem(run=0)
    task = app.default_task()
    n = 8 if SMOKE else 30
    auto = Tuner(problem, TunerOptions(surrogate="auto")).tune(task, n, seed=7)
    dense = Tuner(problem, TunerOptions(surrogate="dense")).tune(task, n, seed=7)
    assert auto.best_so_far() == dense.best_so_far()
    assert auto.history.configs() == dense.history.configs()


def test_sparse_mode_regret_within_noise(sparse_threshold):
    """Forcing the sparse surrogate onto a small run stays competitive."""
    from repro.apps.synthetic import DemoFunction

    app = DemoFunction()
    problem = app.make_problem(run=0)
    task = app.default_task()
    n = 8 if SMOKE else 25
    dense = Tuner(problem, TunerOptions(surrogate="dense")).tune(task, n, seed=3)
    sparse_threshold(4, n_inducing=16)
    sparse = Tuner(problem, TunerOptions(surrogate="auto")).tune(task, n, seed=3)
    # within-noise: the sparse run's final incumbent is no worse than the
    # dense run's by more than the demo function's observed spread
    assert sparse.best_output <= dense.best_output * 1.5 + 0.1


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
