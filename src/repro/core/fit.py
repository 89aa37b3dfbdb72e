"""The fit policy: how hyperparameters are searched, and how often.

Two things, each spelled once and shared by every surrogate and every
tuning loop:

* :func:`multistart_mle` — the multi-start L-BFGS-B search over a
  negative log marginal likelihood, under
  :class:`~repro.core.gp.GaussianProcess` (and through it the sparse
  surrogate) and :class:`~repro.core.lcm.LCM`.  It is the
  only ``scipy.optimize.minimize`` call in the package: how starts are
  drawn, clipped, bounded in evaluations, run (in order, or on a thread
  pool) and compared is decided here.
* :class:`RefitCadence` — the ``refit_every`` state machine under the
  NoTLA tuner (:class:`~repro.core.tuner.GPProvider`), the TLA target and
  residual GPs (:mod:`repro.tla.base`) and the multitask LCM
  (:mod:`repro.tla.multitask`): re-run the search on every
  ``refit_every``-th call, and in between keep the hyperparameters and
  grow the held model by what the data appended.

The callers differ in the closures they hand the cadence, never in a
flag — what a boundary refit carries over from the previous model is
theirs to say:

* ``GPProvider`` hands back the *same* object: its kernel sits at the
  previous optimum, its rng continues the restart stream, and its seed
  is drawn once per run.
* The TLA target and residual GPs build a fresh surrogate from a seed
  drawn on every call; it starts from the previous theta (and skips the
  random restarts) only when ``refit_every > 1``.
* The multitask strategies build a fresh ``LCM`` from a seed drawn on
  every call, started at the previous theta.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np
from scipy import optimize as sopt

from . import perf

__all__ = ["NLL_FAIL", "RefitCadence", "grow_gp", "multistart_mle"]

#: objective values at or above this are "factorization failed" sentinels
#: (they must stay finite so L-BFGS-B can retreat from them)
NLL_FAIL = 1e25


def multistart_mle(
    objective: Callable[..., Any],
    theta0: np.ndarray,
    bounds: Sequence[tuple[float, float]],
    *,
    rng: np.random.Generator,
    n_restarts: int,
    max_fun: int,
    jac: bool,
    start_args: Callable[[], tuple] | None = None,
    n_jobs: int | None = 1,
) -> np.ndarray | None:
    """The lowest-objective theta over ``1 + n_restarts`` L-BFGS-B starts.

    The first start is ``theta0`` clipped into ``bounds``; each restart is
    one ``rng.uniform(lo, hi)`` draw over the whole box.  Every start gets
    ``max_fun`` objective evaluations.  With ``jac`` the objective returns
    ``(value, gradient)``; without, L-BFGS-B differences it.
    ``start_args()`` is called once per start, in start order and before
    any start runs, for that start's extra objective arguments — state an
    objective writes to is therefore never shared between starts.

    ``n_jobs`` is the thread-pool width (``None``: one thread per start up
    to the CPU count; ``1``: the calling thread).  Starts are compared in
    start order and the first lowest wins, so the result does not depend
    on it; a pooled search counts its starts as ``lcm_parallel_starts``
    (only the LCM's objective is safe to run concurrently).

    Returns ``None`` when every start ended on the :data:`NLL_FAIL`
    sentinel (or a non-finite value): the caller keeps the theta it had.
    """
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    starts = [np.clip(theta0, lo, hi)]
    starts += [rng.uniform(lo, hi) for _ in range(n_restarts)]
    args = [start_args() if start_args else () for _ in starts]

    def run_start(x0: np.ndarray, extra: tuple):
        return sopt.minimize(
            objective,
            x0,
            args=extra,
            jac=jac,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxfun": max_fun},
        )

    workers = min(len(starts), n_jobs or os.cpu_count() or 1)
    if workers > 1:
        # NumPy/SciPy release the GIL in BLAS/LAPACK, so starts overlap;
        # ex.map preserves start order whatever the thread timing
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run_start, starts, args))
        perf.incr("lcm_parallel_starts", len(starts))
    else:
        results = [run_start(x0, extra) for x0, extra in zip(starts, args)]

    best_theta, best_val = None, np.inf
    for res in results:
        if res.fun < best_val:
            best_val, best_theta = float(res.fun), res.x
    if best_theta is None or not np.isfinite(best_val) or best_val >= NLL_FAIL:
        return None
    return best_theta


def grow_gp(model, X: np.ndarray, y: np.ndarray) -> int | None:
    """Grow a fitted single-task surrogate to the data ``(X, y)``.

    Returns the number of rows absorbed through ``model.update`` — ``0``
    when ``(X, y)`` is exactly what the model was fit to — or ``None``
    (model untouched) when the model's data is not a row-for-row prefix.
    """
    n_new = model.extends_training_data(X, y)
    if n_new:
        model.update(X[-n_new:], y[-n_new:])
    return n_new


class RefitCadence:
    """One held model, re-optimized on every ``refit_every``-th refresh.

    ``errors`` is what a fit or an update raises when the covariance
    cannot be factorized; :meth:`refresh` answers ``None`` then, and the
    held model is whatever was last fit successfully — so the refresh
    after a failed first fit is a boundary again.
    """

    def __init__(self, refit_every: int, errors) -> None:
        self.refit_every = max(int(refit_every), 1)
        self.errors = errors
        self.reset()

    def reset(self) -> None:
        """Start over: the next :meth:`refresh` is the first."""
        self.model = None
        self.key = None
        self._calls = 0

    def refresh(self, data: tuple, *, build, grow, key=None):
        """A model of ``data``, or ``None`` when it cannot be fit.

        The first call, and every ``refit_every``-th, is a *boundary*:
        ``build(previous, True)`` names the model to fit with
        hyperparameter optimization on.  Between boundaries the held
        model keeps its hyperparameters: ``grow(model, *data)`` reuses it
        or absorbs what ``data`` appended and answers true, or answers
        false when it cannot — then ``build(previous, False)`` names the
        model to refit with optimization off.  A ``key`` other than the
        last call's (the surrogate kind when a history crosses
        :data:`repro.core.sparse.N_DENSE_MAX`) forgets the model but not
        the count.
        """
        if key != self.key:
            self.model, self.key = None, key
        boundary = self.model is None or self._calls % self.refit_every == 0
        self._calls += 1
        try:
            if not boundary and grow(self.model, *data):
                return self.model
            model = build(self.model, boundary)
            model.optimize = boundary
            try:
                model.fit(*data)
            finally:
                model.optimize = True
        except self.errors:
            return None
        self.model = model
        return model
