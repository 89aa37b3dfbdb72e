"""Linear Coregionalization Model (LCM) multitask GP (system S3).

GPTune's multitask surrogate [8] models ``T`` correlated tasks jointly:

    k((x, i), (x', j)) = sum_q  B_q[i, j] * k_q(x, x')
    B_q = a_q a_q^T + diag(kappa_q)

with unit-variance latent RBF kernels ``k_q`` (task scales live in the
coregionalization matrices ``B_q``).  Crucially for Multitask(TS) (paper
Sec. V-A2), the implementation supports an *unequal number of samples per
task*, including zero samples for the target task: the joint covariance is
assembled over the concatenation of all task datasets, indexed by a task
id per row.

Per-task output standardization keeps tasks with wildly different runtime
scales (e.g. a 32-node source vs a 64-node target) commensurate, matching
the normalization discussion in the paper's Sec. V-C.

The fit path is built for speed (the LCM refit dominates Multitask(TS)
iterations, cf. the GPTune line of work on LCM hyperparameter tuning):

* **Analytic NLL gradients** for every hyperparameter — lengthscales,
  coregionalization vectors ``a_q``, diagonals ``kappa_q``, per-task
  noise — via the trace identity ``dNLL/dtheta = -0.5 tr(W dK/dtheta)``
  with ``W = alpha alpha^T - K^{-1}``: one Cholesky per objective
  evaluation.
* **Fit-scoped workspace**: the per-dimension squared-difference tensor
  and the task-index grids are precomputed once per :meth:`fit`, so each
  covariance/gradient evaluation is allocation-light O(n^2 (d + Q)).
* **Parallel multi-start MLE**: the search is
  :func:`repro.core.fit.multistart_mle`, the driver the GP uses, with the
  restarts on a thread pool (NumPy and SciPy release the GIL inside
  BLAS/LAPACK); each start pins the best factorization it saw in its own
  :class:`_BestFactor`, merged in start order afterwards.
* **Incremental refits**: :meth:`update` appends observations to the
  pinned joint Cholesky via rank-1 block growth — O(n^2) per point
  instead of the O(n^3) refactorization — mirroring
  :meth:`repro.core.gp.GaussianProcess.update`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import perf
from .fit import NLL_FAIL, multistart_mle
from .gp import _LOG_2PI, GPFitError, _trtrs, chol_solve_inv, cholesky_with_jitter
from .kernels import pairwise_sq_diffs, sq_dists

__all__ = ["LCM", "LCMFitError"]


class LCMFitError(GPFitError):
    """Raised when the multitask covariance cannot be factorized."""


@dataclass
class _LCMState:
    X: np.ndarray  # (n_total, d) stacked inputs
    t: np.ndarray  # (n_total,) task index per row
    alpha: np.ndarray
    L: np.ndarray
    y_means: np.ndarray  # per-task standardization
    y_stds: np.ndarray
    #: per-task raw datasets in stacked-row order (fit order + appends);
    #: needed to re-standardize and to detect appendable refits
    X_tasks: list[np.ndarray]
    y_tasks: list[np.ndarray]
    #: raw targets aligned with the stacked rows
    y_raw: np.ndarray
    #: diagonal jitter baked into ``L`` (appended rows must match it)
    jitter: float = 0.0


@dataclass
class _Workspace:
    """Fit-scoped covariance-assembly cache.

    ``D`` holds the per-dimension squared differences ``(d, n, n)`` so a
    theta evaluation never recomputes pairwise distances from scratch;
    ``E`` is the one-hot task indicator ``(n, T)`` used by the gradient's
    segment sums; ``grid`` is the ``np.ix_`` task-index grid that scatters
    a ``(T, T)`` coregionalization matrix over the joint rows.
    """

    X: np.ndarray
    t: np.ndarray
    D: np.ndarray
    E: np.ndarray
    grid: tuple


def _make_workspace(X: np.ndarray, t: np.ndarray, n_tasks: int) -> _Workspace:
    E = np.zeros((X.shape[0], n_tasks))
    E[np.arange(X.shape[0]), t] = 1.0
    return _Workspace(X=X, t=t, D=pairwise_sq_diffs(X), E=E, grid=np.ix_(t, t))


class _BestFactor:
    """Per-start tracker of the best (nll, theta, L, jitter) evaluated.

    Each MLE start owns one, so parallel restarts never share mutable
    state; the winners are merged deterministically after the pool joins.
    """

    __slots__ = ("nll", "key", "L", "jitter")

    def __init__(self) -> None:
        self.nll: float | None = None
        self.key: bytes | None = None
        self.L: np.ndarray | None = None
        self.jitter: float = 0.0

    def note(self, nll: float, theta: np.ndarray, L: np.ndarray, jitter: float) -> None:
        if self.nll is None or nll < self.nll:
            self.nll = float(nll)
            self.key = np.asarray(theta).tobytes()
            self.L = L
            self.jitter = jitter


class LCM:
    """Multitask GP over ``n_tasks`` tasks in a shared unit-cube input space.

    Parameters
    ----------
    n_tasks, dim:
        Number of tasks and input dimensionality.
    n_latent:
        Number of latent processes ``Q`` (GPTune's default of a small Q;
        1 captures one shared trend, 2 adds an independent component).
    optimize / max_fun / n_restarts:
        Hyperparameter-MLE controls, as in
        :class:`repro.core.gp.GaussianProcess`.
    n_jobs:
        Thread-pool width for multi-start MLE (``None``: one thread per
        start up to the CPU count).  Results are independent of the
        worker count.
    """

    def __init__(
        self,
        n_tasks: int,
        dim: int,
        *,
        n_latent: int = 1,
        optimize: bool = True,
        max_fun: int = 60,
        n_restarts: int = 0,
        seed: int | None = None,
        n_jobs: int | None = None,
    ) -> None:
        if n_tasks < 1 or dim < 1 or n_latent < 1:
            raise ValueError("n_tasks, dim, n_latent must all be >= 1")
        self.n_tasks = n_tasks
        self.dim = dim
        self.n_latent = n_latent
        self.optimize = optimize
        self.max_fun = int(max_fun)
        self.n_restarts = int(n_restarts)
        self.n_jobs = n_jobs
        self._rng = np.random.default_rng(seed)
        self._theta = self._default_theta()
        self._state: _LCMState | None = None
        #: NLL of the training data at the adopted theta (set by fit/update)
        self.last_nll_: float | None = None

    # -- theta packing ------------------------------------------------------
    # Layout per latent q: [log ls (dim), a (n_tasks), log kappa (n_tasks)];
    # then [log noise (n_tasks)].
    @property
    def n_params(self) -> int:
        return self.n_latent * (self.dim + 2 * self.n_tasks) + self.n_tasks

    def _default_theta(self) -> np.ndarray:
        parts = []
        for _ in range(self.n_latent):
            parts.append(np.log(np.full(self.dim, 0.3)))  # lengthscales
            parts.append(np.full(self.n_tasks, 0.8))  # a_q
            parts.append(np.log(np.full(self.n_tasks, 0.1)))  # kappa_q
        parts.append(np.log(np.full(self.n_tasks, 1e-3)))  # noise
        return np.concatenate(parts)

    def _unpack(self, theta: np.ndarray):
        ls, a, kappa = [], [], []
        off = 0
        for _ in range(self.n_latent):
            ls.append(np.exp(theta[off : off + self.dim]))
            off += self.dim
            a.append(theta[off : off + self.n_tasks])
            off += self.n_tasks
            kappa.append(np.exp(theta[off : off + self.n_tasks]))
            off += self.n_tasks
        noise = np.exp(theta[off : off + self.n_tasks])
        return ls, a, kappa, noise

    def _bounds(self) -> list[tuple[float, float]]:
        b: list[tuple[float, float]] = []
        for _ in range(self.n_latent):
            b += [(np.log(5e-3), np.log(20.0))] * self.dim
            b += [(-5.0, 5.0)] * self.n_tasks
            b += [(np.log(1e-6), np.log(10.0))] * self.n_tasks
        b += [(np.log(1e-8), np.log(1.0))] * self.n_tasks
        return b

    # -- covariance assembly ---------------------------------------------------
    def _joint_cov(self, X: np.ndarray, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
        ls, a, kappa, noise = self._unpack(theta)
        n = X.shape[0]
        K = np.zeros((n, n))
        for q in range(self.n_latent):
            kq = np.exp(-0.5 * sq_dists(X, X, ls[q]))
            B = np.outer(a[q], a[q]) + np.diag(kappa[q])
            K += B[np.ix_(t, t)] * kq
        K[np.diag_indices(n)] += noise[t]
        return K

    def _assemble(self, ws: _Workspace, theta: np.ndarray):
        """Joint covariance from the workspace, keeping the per-latent
        pieces (``k_q`` and the scattered ``B_q``) for gradient reuse."""
        ls, a, kappa, noise = self._unpack(theta)
        n = ws.X.shape[0]
        K = np.zeros((n, n))
        kqs, Bgrids = [], []
        for q in range(self.n_latent):
            inv2 = 1.0 / (ls[q] * ls[q])
            kq = np.exp(-0.5 * np.tensordot(inv2, ws.D, axes=1))
            B = np.outer(a[q], a[q]) + np.diag(kappa[q])
            Bg = B[ws.grid]
            K += Bg * kq
            kqs.append(kq)
            Bgrids.append(Bg)
        K[np.diag_indices(n)] += noise[ws.t]
        return K, kqs, Bgrids

    def _cross_cov(
        self, Xs: np.ndarray, task: int, X: np.ndarray, t: np.ndarray, theta: np.ndarray
    ) -> np.ndarray:
        ls, a, kappa, _ = self._unpack(theta)
        n_star = Xs.shape[0]
        K = np.zeros((n_star, X.shape[0]))
        for q in range(self.n_latent):
            kq = np.exp(-0.5 * sq_dists(Xs, X, ls[q]))
            b_row = a[q][task] * a[q][t]
            b_row = b_row + np.where(t == task, kappa[q][task], 0.0)
            K += b_row[None, :] * kq
        return K

    def _prior_var(self, task: int, theta: np.ndarray) -> float:
        _, a, kappa, _ = self._unpack(theta)
        return float(sum(a[q][task] ** 2 + kappa[q][task] for q in range(self.n_latent)))

    # -- fitting --------------------------------------------------------------
    def fit(self, datasets: list[tuple[np.ndarray, np.ndarray]]) -> "LCM":
        """Fit on per-task datasets ``[(X_0, y_0), ..., (X_{T-1}, y_{T-1})]``.

        Datasets may have different sizes; a dataset may be empty (the
        Multitask(TS) cold start: sources full, target empty).  At least
        two observations are required overall.
        """
        if len(datasets) != self.n_tasks:
            raise ValueError(f"expected {self.n_tasks} datasets, got {len(datasets)}")
        Xs, ts, ys_raw = [], [], []
        X_tasks: list[np.ndarray] = []
        y_tasks: list[np.ndarray] = []
        for i, (X, y) in enumerate(datasets):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            y = np.asarray(y, dtype=float).ravel()
            if y.size == 0:
                X_tasks.append(np.zeros((0, self.dim)))
                y_tasks.append(np.zeros(0))
                continue
            if X.shape[1] != self.dim:
                raise ValueError(f"task {i}: dim {X.shape[1]} != {self.dim}")
            X_tasks.append(X.copy())
            y_tasks.append(y.copy())
            Xs.append(X)
            ts.append(np.full(y.size, i, dtype=int))
            ys_raw.append(y)
        if not Xs:
            raise ValueError("cannot fit LCM to zero observations")
        X_all = np.vstack(Xs)
        t_all = np.concatenate(ts)
        y_raw = np.concatenate(ys_raw)
        if y_raw.size < 2:
            raise ValueError("LCM needs at least two observations in total")
        y_means, y_stds = _task_standardization(y_tasks)
        y_all = (y_raw - y_means[t_all]) / y_stds[t_all]

        best = None
        if self.optimize:
            with perf.timer("lcm_mle"):
                best = self._optimize_theta(X_all, t_all, y_all)

        if best is not None and best.key == self._theta.tobytes():
            # the MLE already factorized the covariance at the adopted
            # theta — reuse it instead of reassembling and refactorizing
            perf.incr("kernel_cache_hits")
            L, jitter = best.L, best.jitter
        else:
            perf.incr("kernel_cache_misses")
            K = self._joint_cov(X_all, t_all, self._theta)
            try:
                L, jitter = cholesky_with_jitter(K)
            except GPFitError as exc:
                raise LCMFitError(str(exc)) from exc
        alpha = sla.cho_solve((L, True), y_all, check_finite=False)
        self.last_nll_ = float(
            0.5 * y_all @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * y_all.size * _LOG_2PI
        )
        self._state = _LCMState(
            X=X_all,
            t=t_all,
            alpha=alpha,
            L=L,
            y_means=y_means,
            y_stds=y_stds,
            X_tasks=X_tasks,
            y_tasks=y_tasks,
            y_raw=y_raw,
            jitter=jitter,
        )
        perf.incr("lcm_fits")
        return self

    # -- incremental refits -----------------------------------------------------
    def update(self, task: int, X_new: np.ndarray, y_new: np.ndarray) -> "LCM":
        """Append observations for one task without refitting theta.

        See :meth:`update_many`.
        """
        return self.update_many([(task, X_new, y_new)])

    def update_many(
        self, appends: list[tuple[int, np.ndarray, np.ndarray]]
    ) -> "LCM":
        """Append per-task observations, growing the pinned Cholesky.

        Each append ``(task, X_new, y_new)`` adds rows for ``task`` at the
        end of the joint system (row order is free: every row carries its
        task id, so predictions are ordering-independent).  The cached
        factor is extended by rank-1 block updates — O(n^2) per point
        instead of the O(n^3) refactorization — and the per-task
        standardization and ``alpha`` are recomputed over the combined
        data, so predictions match a from-scratch non-optimizing
        :meth:`fit` on the same data to round-off.

        Falls back to a full (non-optimizing) refit if the appended rows
        make the factorization numerically degenerate.
        """
        if self._state is None:
            raise RuntimeError("update() before fit()")
        st = self._state
        rows_X, rows_t, rows_y = [], [], []
        per_task: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for task, X_new, y_new in appends:
            if not 0 <= task < self.n_tasks:
                raise ValueError(f"task index {task} out of range [0, {self.n_tasks})")
            X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
            y_new = np.asarray(y_new, dtype=float).ravel()
            if X_new.shape[0] != y_new.shape[0]:
                raise ValueError(
                    f"x rows ({X_new.shape[0]}) != y length ({y_new.shape[0]})"
                )
            if y_new.size == 0:
                continue
            if X_new.shape[1] != self.dim:
                raise ValueError(f"x dimension {X_new.shape[1]} != {self.dim}")
            rows_X.append(X_new)
            rows_t.append(np.full(y_new.size, task, dtype=int))
            rows_y.append(y_new)
            old = per_task.get(task)
            if old is not None:
                X_new = np.vstack([old[0], X_new])
                y_new = np.concatenate([old[1], y_new])
            per_task[task] = (X_new, y_new)
        if not rows_X:
            return self

        X_all = np.vstack([st.X] + rows_X)
        t_all = np.concatenate([st.t] + rows_t)
        y_raw = np.concatenate([st.y_raw] + rows_y)
        n_old, m = st.X.shape[0], X_all.shape[0] - st.X.shape[0]
        noise = self._unpack(self._theta)[3]

        # grow the factor one row at a time, each step solving against the
        # previous (contiguous) factor via raw LAPACK; Fortran order keeps
        # every triangular solve copy-free
        L = st.L
        ok = True
        for i in range(m):
            k = n_old + i
            task = int(t_all[k])
            kvec = self._cross_cov(
                X_all[k][None, :], task, X_all[:k], t_all[:k], self._theta
            ).ravel()
            kss = self._prior_var(task, self._theta) + float(noise[task]) + st.jitter
            l12, info = _trtrs(L, kvec, lower=1, trans=0)
            d = kss - float(l12 @ l12) if info == 0 else -1.0
            if not np.isfinite(d) or d <= 0.0:
                ok = False
                break
            grown = np.empty((k + 1, k + 1), order="F")
            grown[:k, :k] = L
            grown[:k, k] = 0.0
            grown[k, :k] = l12
            grown[k, k] = np.sqrt(d)
            L = grown

        X_tasks = list(st.X_tasks)
        y_tasks = list(st.y_tasks)
        for task, (X_app, y_app) in per_task.items():
            X_tasks[task] = np.vstack([X_tasks[task], X_app])
            y_tasks[task] = np.concatenate([y_tasks[task], y_app])

        if not ok:
            # the append left the factor non-positive; rebuild through the
            # jitter ladder while keeping the current hyperparameters
            perf.incr("lcm_update_fallbacks")
            saved = self.optimize
            self.optimize = False
            try:
                return self.fit(list(zip(X_tasks, y_tasks)))
            finally:
                self.optimize = saved

        y_means, y_stds = _task_standardization(y_tasks)
        ys = (y_raw - y_means[t_all]) / y_stds[t_all]
        z, _ = _trtrs(L, ys, lower=1, trans=0)
        alpha, _ = _trtrs(L, z, lower=1, trans=1)
        self.last_nll_ = float(
            0.5 * ys @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * ys.size * _LOG_2PI
        )
        self._state = _LCMState(
            X=X_all,
            t=t_all,
            alpha=alpha,
            L=L,
            y_means=y_means,
            y_stds=y_stds,
            X_tasks=X_tasks,
            y_tasks=y_tasks,
            y_raw=y_raw,
            jitter=st.jitter,
        )
        perf.incr("lcm_incremental_updates", m)
        return self

    def extends_fitted(
        self, datasets: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[tuple[int, np.ndarray, np.ndarray]] | None:
        """Per-task appended rows if ``datasets`` extends the fitted data.

        Returns ``[]`` when the datasets are exactly the fitted data (the
        model can be reused as-is), a list of ``(task, X_app, y_app)``
        when every task's fitted rows are a row-for-row prefix of its new
        dataset (eligible for :meth:`update_many`), and ``None`` when any
        task's history diverges (a full refit is required).
        """
        if self._state is None or len(datasets) != self.n_tasks:
            return None
        st = self._state
        out: list[tuple[int, np.ndarray, np.ndarray]] = []
        for i, (X, y) in enumerate(datasets):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            y = np.asarray(y, dtype=float).ravel()
            n = st.y_tasks[i].size
            if y.size < n:
                return None
            if y.size and X.shape[1] != self.dim:
                return None
            if n and (
                not np.array_equal(X[:n], st.X_tasks[i])
                or not np.array_equal(y[:n], st.y_tasks[i])
            ):
                return None
            if y.size > n:
                out.append((i, X[n:], y[n:]))
        return out

    # -- MLE objective -------------------------------------------------------
    def _nll_grad(self, theta, ws: _Workspace, y, pin: _BestFactor | None = None):
        """NLL and its analytic gradient — one Cholesky per evaluation.

        Uses ``dNLL/dtheta = -0.5 sum(W * dK/dtheta)`` with
        ``W = alpha alpha^T - K^{-1}``.  The per-latent derivative blocks
        are task-masked rescalings of the already-computed ``k_q``:

        * ``dK/dlog ls_qj = B_q[t,t'] k_q D_j / ls_qj^2``
        * ``dK/da_q[m]    = (1[t=m] a_q[t'] + a_q[t] 1[t'=m]) k_q``
        * ``dK/dlog kap_qm = kap_qm 1[t=m] 1[t'=m] k_q``
        * ``dK/dlog noi_m  = noi_m diag(1[t=m])``

        so every trace reduces to GEMMs and segment sums over the
        workspace's indicator matrix — no ``(n, n)`` derivative matrix is
        ever materialized per parameter.
        """
        perf.incr("lcm_grad_evals")
        ls, a, kappa, noise = self._unpack(theta)
        n = ws.X.shape[0]
        K, kqs, Bgrids = self._assemble(ws, theta)
        try:
            L, jitter = cholesky_with_jitter(K, max_tries=3)
            alpha, half_logdet, Kinv = chol_solve_inv(L, y)
        except GPFitError:
            return NLL_FAIL, np.zeros_like(theta)
        nll = 0.5 * y @ alpha + half_logdet + 0.5 * n * _LOG_2PI
        if not np.isfinite(nll):
            return NLL_FAIL, np.zeros_like(theta)
        if pin is not None:
            pin.note(float(nll), theta, L, jitter)
        W = np.outer(alpha, alpha) - Kinv  # dNLL/dtheta = -0.5 sum(W * dK)
        grad = np.empty_like(theta)
        off = 0
        for q in range(self.n_latent):
            P = W * kqs[q]
            # lengthscales: contract the squared-difference tensor against
            # W ∘ B_q[t,t'] ∘ k_q, one inner product per dimension
            tr = np.einsum("jab,ab->j", ws.D, P * Bgrids[q])
            grad[off : off + self.dim] = -0.5 * tr / (ls[q] * ls[q])
            off += self.dim
            # a_q: symmetric rank-one derivative -> 2x a segment sum of P a_t
            M = P @ ws.E  # (n, T)
            grad[off : off + self.n_tasks] = -(ws.E.T @ (M @ a[q]))
            off += self.n_tasks
            # kappa_q (log): the (m, m) task block of P, per task
            grad[off : off + self.n_tasks] = -0.5 * kappa[q] * np.einsum(
                "it,it->t", ws.E, M
            )
            off += self.n_tasks
        grad[off:] = -0.5 * noise * (ws.E.T @ np.diagonal(W))
        return float(nll), grad

    def _optimize_theta(self, X, t, y) -> _BestFactor | None:
        """Adopt the MLE theta; returns the best factorization any start
        evaluated (``None`` if none factorized)."""
        ws = _make_workspace(X, t, self.n_tasks)
        pins: list[_BestFactor] = []

        def start_args() -> tuple:
            pins.append(_BestFactor())
            return ws, y, pins[-1]

        best = multistart_mle(
            self._nll_grad,
            self._theta,
            self._bounds(),
            rng=self._rng,
            n_restarts=self.n_restarts,
            max_fun=self.max_fun,
            jac=True,
            start_args=start_args,
            n_jobs=self.n_jobs,
        )
        if best is None:
            # every start failed: keep the pre-optimization theta rather
            # than whatever the last probe happened to evaluate
            perf.incr("lcm_mle_restores")
        else:
            self._theta = best
        return min((p for p in pins if p.nll is not None), key=lambda p: p.nll, default=None)

    # -- prediction -------------------------------------------------------------
    def predict(self, task: int, Xs: np.ndarray, return_std: bool = True):
        """Posterior for ``task`` at points ``Xs``, in that task's scale."""
        if self._state is None:
            raise RuntimeError("predict() before fit()")
        if not 0 <= task < self.n_tasks:
            raise ValueError(f"task index {task} out of range [0, {self.n_tasks})")
        st = self._state
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        Kst = self._cross_cov(Xs, task, st.X, st.t, self._theta)
        m, s = st.y_means[task], st.y_stds[task]
        # tasks never observed keep unit standardization (mean 0 / std 1):
        if st.y_stds[task] == 1.0 and st.y_means[task] == 0.0 and task not in st.t:
            # fall back to the average observed scale so predictions are
            # commensurate with the sources (cold-start target task)
            obs = np.unique(st.t)
            m = float(np.mean(st.y_means[obs]))
            s = float(np.mean(st.y_stds[obs]))
        mean = Kst @ st.alpha * s + m
        if not return_std:
            return mean
        v = sla.solve_triangular(st.L, Kst.T, lower=True, check_finite=False)
        prior = self._prior_var(task, self._theta)
        var = np.maximum(prior - np.sum(v * v, axis=0), 1e-12)
        return mean, np.sqrt(var) * s

    def warm_start_from(self, other: "LCM") -> None:
        """Adopt another LCM's hyperparameters (amortizes refits)."""
        if (other.n_tasks, other.dim, other.n_latent) != (
            self.n_tasks,
            self.dim,
            self.n_latent,
        ):
            raise ValueError("incompatible LCM shapes for warm start")
        self._theta = other._theta.copy()

    def task_correlation(self) -> np.ndarray:
        """The learned task-correlation matrix (sum of B_q, normalized)."""
        ls, a, kappa, _ = self._unpack(self._theta)
        B = sum(np.outer(aq, aq) + np.diag(kq) for aq, kq in zip(a, kappa))
        d = np.sqrt(np.clip(np.diag(B), 1e-12, None))
        return B / np.outer(d, d)


def _task_standardization(y_tasks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-task (mean, std) with unit fallbacks for empty/constant tasks."""
    T = len(y_tasks)
    means = np.zeros(T)
    stds = np.ones(T)
    for i, y in enumerate(y_tasks):
        if y.size == 0:
            continue
        m, s = float(np.mean(y)), float(np.std(y))
        if not np.isfinite(s) or s < 1e-12:
            s = 1.0
        means[i], stds[i] = m, s
    return means, stds
