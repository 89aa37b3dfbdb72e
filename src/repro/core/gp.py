"""Gaussian-process regression with marginal-likelihood fitting (system S2).

This is the single-task surrogate behind NoTLA tuning, the per-task models
of the weighted-sum TLA algorithms, and the residual models of stacking.
Implementation notes (these follow standard GP practice and the HPC-python
guides' "vectorize, avoid copies, profile the Cholesky" advice):

* Targets are standardized internally (zero mean, unit variance); all
  predictions are returned in the original scale.
* The noise variance is a trainable hyperparameter with a floor, so
  deterministic objectives interpolate while noisy ones smooth.
* Hyperparameters are fit by :func:`repro.core.fit.multistart_mle` — the
  one multi-start L-BFGS-B search, shared with the LCM — on the negative
  log marginal likelihood.  For the RBF kernel the objective is
  :func:`_nll_grad`: a pure function of ``theta`` over a workspace built
  once per :meth:`fit` (the theta-independent squared differences).  One
  evaluation is one covariance build, one jitter-ladder Cholesky,
  ``K^-1`` by LAPACK ``potri`` on that factor (:func:`chol_solve_inv`,
  shared with the LCM) and one GEMV for all lengthscale gradients; it
  neither reads nor writes the kernel object, which is set once, at the
  winning theta.  Other kernels take the finite-difference :meth:`_nll`.
* The factor :meth:`fit` stores is always recomputed as
  ``cholesky_with_jitter(kernel(X) + noise I)`` after the search — one
  extra Cholesky per fit — because that is the matrix
  :meth:`from_dict` rebuilds: the workspace's covariance differs from
  ``kernel(X)`` in the last bits, and a replica replaying a snapshot must
  serve the same bytes as the process that fit it.
* A progressively increased jitter guards Cholesky factorizations.  Its
  first rung — the only one almost any factorization reaches — is one
  bare LAPACK ``potrf`` behind the finite check, the factor
  ``scipy.linalg.cholesky`` would return, bit for bit, without its
  wrapper; the ladder's statistics are computed only on a retry.
* :meth:`update` appends observations to the stored factorization in
  O(n^2) per point (no O(n^3) refit when hyperparameters are unchanged).
* There is one predictor.  The fit state carries everything a prediction
  reuses — the kernel's train side (``X / lengthscales`` and its squared
  norms, :meth:`Kernel.train_side`) and the factor in Fortran order — so
  :meth:`predict` pays for the training inputs once per fit and solves
  through raw ``trtrs``; per call that is what matters on the 16-row
  batches the acquisition polish issues.  ``fit`` / ``update`` /
  ``from_dict`` *replace* the state and never mutate it, so holding
  ``gp._state`` is holding a snapshot (the fantasy save/restore in
  :func:`repro.core.optimizer.propose_batch` does exactly that).

:class:`Surrogate` is the part of the interface the dense GP shares with
the sparse GP of :mod:`repro.core.sparse`, written once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.linalg import get_lapack_funcs

from . import perf
from .fit import NLL_FAIL, multistart_mle
from .kernels import RBF, Kernel, kernel_from_name, kernel_name, pairwise_sq_diffs

__all__ = [
    "GaussianProcess",
    "GPFitError",
    "Surrogate",
    "cholesky_with_jitter",
    "cholesky_at",
    "chol_solve_inv",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

class GPFitError(RuntimeError):
    """Raised when a covariance matrix cannot be factorized.

    ``jitters`` carries the full diagonal-jitter ladder that was
    attempted before giving up (empty for non-factorization failures),
    so callers and logs can see how ill-conditioned the matrix actually
    was instead of just the final rung.
    """

    def __init__(self, message: str, jitters: tuple[float, ...] = ()) -> None:
        super().__init__(message)
        self.jitters = tuple(jitters)


#: raw LAPACK factorization / triangular / Cholesky solves — the scipy
#: wrappers spend more time on input validation than the work itself on the
#: update and MLE hot paths — and the inverse-from-factor routine scipy does
#: not wrap
_potrf, _trtrs, _potrs, _potri = get_lapack_funcs(
    ("potrf", "trtrs", "potrs", "potri"), (np.empty(0, dtype=np.float64),)
)


def _cholesky(K: np.ndarray) -> np.ndarray | None:
    """``scipy.linalg.cholesky(K, lower=True)`` of a float64 ``K`` without
    the wrapper: the same finite check (the same ``ValueError``) and the
    same LAPACK ``potrf`` call, hence the same factor bit for bit; ``None``
    when ``K`` is not positive definite."""
    if not np.isfinite(K).all():
        raise ValueError("array must not contain infs or NaNs")
    L, info = _potrf(K, lower=1, overwrite_a=0, clean=1)
    if info < 0:  # pragma: no cover - a malformed call, not a matrix
        raise ValueError(f"LAPACK potrf: illegal value in argument {-info}")
    return None if info else L


def cholesky_with_jitter(K: np.ndarray, max_tries: int = 8) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``K``, adding diagonal jitter on failure.

    Returns the factor and the jitter actually used.  The matrix is first
    tried as-is — one bare ``potrf`` (:func:`_cholesky`), which is all
    almost every call does; on failure all ``max_tries`` ladder rungs are
    attempted, starting at ``1e-10 * mean(diag)`` and growing tenfold per
    retry up to ``10 ** (max_tries - 11) * mean(diag)`` (``1e-3`` for the
    default 8).
    """
    L = _cholesky(K)
    if L is not None:
        return L, 0.0
    # the ladder: only a retry pays for its statistics and a copy of K
    diag = np.diag(K)
    diag_mean = float(np.mean(diag))
    if not np.isfinite(diag_mean) or diag_mean <= 0:
        diag_mean = 1.0
    K = K.copy()
    tried = [0.0]
    for attempt in range(1, max_tries + 1):
        jitter = diag_mean * 10.0 ** (attempt - 11)
        tried.append(jitter)
        K.flat[:: K.shape[0] + 1] = diag + jitter
        L = _cholesky(K)
        if L is not None:
            perf.incr("cholesky_retries", attempt)
            perf.incr("gp_jitter_retries", attempt)
            return L, jitter
    perf.incr("cholesky_failures")
    perf.incr("gp_jitter_retries", max_tries)
    raise GPFitError(
        "covariance not positive definite; tried jitters "
        + ", ".join(f"{j:.2e}" for j in tried),
        jitters=tuple(tried),
    )


def cholesky_at(K: np.ndarray, jitter: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``K`` at a recorded jitter-ladder rung.

    Replays the factorization a snapshot was taken from — same matrix,
    same rung, one ``cholesky`` call, hence the same factor bit for bit.
    A snapshot from another BLAS or platform may not factorize there:
    the ladder is walked again instead of refusing to load (counted as
    ``gp_jitter_replay_fallbacks``).  Returns the factor and the jitter
    actually used; ``K`` is not modified.
    """
    Kj = K
    if jitter:
        Kj = K.copy()
        Kj.flat[:: K.shape[0] + 1] += jitter
    L = _cholesky(Kj)
    if L is not None:
        return L, jitter
    perf.incr("gp_jitter_replay_fallbacks")
    return cholesky_with_jitter(K)


def chol_solve_inv(L: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """``(K^-1 y, 0.5 log det K, K^-1)`` from the lower Cholesky factor of ``K``.

    The step every analytic marginal-likelihood gradient shares
    (``W = alpha alpha^T - K^-1``).  ``K^-1`` comes from LAPACK ``potri``
    on the factor — n^3/3 flops where solving against a dense identity
    takes n^3.  ``L`` must be as :func:`cholesky_with_jitter` returns it
    (upper triangle zero); it is not modified and everything returned is
    freshly allocated, so concurrent MLE starts can call this on a
    thread pool.
    """
    alpha, info = _potrs(L, y, lower=1)
    Kinv, info_inv = _potri(L, lower=1)
    if info or info_inv:
        raise GPFitError(f"LAPACK potrs/potri failed on the factor ({info}, {info_inv})")
    # potri fills the lower triangle and leaves L's zeros above it: mirror
    Kinv = Kinv + Kinv.T
    Kinv.flat[:: L.shape[0] + 1] *= 0.5
    return alpha, float(np.sum(np.log(np.diag(L)))), Kinv


def _nll_grad(theta: np.ndarray, D: np.ndarray, ys: np.ndarray) -> tuple[float, np.ndarray]:
    """NLL of an ARD-RBF GP and its gradient, a pure function of ``theta``.

    ``theta = [log v, log ls_1..d, log noise]``; ``D`` is the fit-scoped
    workspace, :func:`pairwise_sq_diffs` flattened to ``(d, n * n)``.  With
    ``W = alpha alpha^T - K^-1`` and ``P = W * K_rbf`` the gradient is
    ``-0.5 * [sum(P), (D @ P) / ls^2, noise * tr(W)]`` — one GEMV for all
    lengthscales, no per-parameter derivative matrix.  A covariance the
    3-rung jitter ladder cannot factorize yields the finite ``NLL_FAIL``
    sentinel with a zero gradient so L-BFGS-B can retreat.
    """
    n = ys.shape[0]
    inv_ls2, noise = np.exp(-2.0 * theta[1:-1]), np.exp(theta[-1])
    K = (-0.5 * inv_ls2) @ D
    np.exp(K, out=K)
    K *= np.exp(theta[0])
    Kn = K.reshape(n, n).copy()
    Kn.flat[:: n + 1] += noise
    try:
        L, _ = cholesky_with_jitter(Kn, max_tries=3)
        alpha, half_logdet, Kinv = chol_solve_inv(L, ys)
    except GPFitError:
        return NLL_FAIL, np.zeros_like(theta)
    nll = 0.5 * ys @ alpha + half_logdet + 0.5 * n * _LOG_2PI
    if not np.isfinite(nll):
        return NLL_FAIL, np.zeros_like(theta)
    W = np.outer(alpha, alpha)
    W -= Kinv
    P = W.ravel() * K
    grad = np.empty_like(theta)
    grad[0] = P.sum()
    grad[1:-1] = (D @ P) * inv_ls2
    grad[-1] = noise * np.trace(W)
    grad *= -0.5
    return float(nll), grad


def target_scale(y: np.ndarray) -> tuple[float, float]:
    """``(mean, std)`` the targets are standardized by; a constant (or
    non-finite-spread) history keeps unit scale."""
    y_mean = float(np.mean(y))
    y_std = float(np.std(y))
    if not np.isfinite(y_std) or y_std < 1e-12:
        y_std = 1.0
    return y_mean, y_std


def _as_xy(X: np.ndarray, y: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``(n, d)`` inputs and ``(n,)`` targets as float arrays, row counts checked."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{name} rows ({X.shape[0]}) != y length ({y.shape[0]})")
    return X, y


class Surrogate:
    """What the tuners, the TLA pool and the registry hold a model by.

    ``fit`` / ``update`` / ``predict`` / ``to_dict`` / ``from_dict`` are
    each surrogate's own.  The rest of the contract follows from the one
    shape every surrogate has — a ``_state`` (``None`` before :meth:`fit`)
    that carries ``X`` and ``y_raw`` in insertion order and that ``fit`` /
    ``update`` replace, never mutate — and lives here.  Holding
    ``model._state`` is therefore holding a snapshot: speculative updates
    are undone by putting the held reference back.
    """

    #: how :meth:`fit` names the class when it refuses an empty history
    _noun = "GP"

    @property
    def fitted(self) -> bool:
        return self._state is not None

    @property
    def n_train(self) -> int:
        st = self._state
        return 0 if st is None else st.X.shape[0]

    def predict_mean(self, X: np.ndarray) -> np.ndarray:
        return self.predict(X, return_std=False)

    def extends_training_data(self, X: np.ndarray, y: np.ndarray) -> int | None:
        """Number of rows ``(X, y)`` appends to the fitted data, else ``None``.

        Returns 0 when the data is exactly the fitted training set (the
        model can be reused as-is), a positive count when the fitted set is
        a row-for-row prefix (eligible for :meth:`update`), and ``None``
        when the histories diverge (a full refit is required).
        """
        st = self._state
        if st is None:
            return None
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        n = st.X.shape[0]
        if X.shape[0] < n or X.shape[1] != st.X.shape[1]:
            return None
        if not np.array_equal(X[:n], st.X) or not np.array_equal(y[:n], st.y_raw):
            return None
        return X.shape[0] - n

    def _fit_data(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The checked arrays :meth:`fit` works on."""
        X, y = _as_xy(X, y, "X")
        if X.shape[0] == 0:
            raise ValueError(f"cannot fit a {self._noun} to zero observations")
        return X, y

    def _update_data(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The checked arrays :meth:`update` appends (possibly zero rows)."""
        st = self._state
        if st is None:
            raise RuntimeError("update() before fit()")
        X_new, y_new = _as_xy(x, y, "x")
        if X_new.shape[0] and X_new.shape[1] != st.X.shape[1]:
            raise ValueError(
                f"x dimension {X_new.shape[1]} != training dimension {st.X.shape[1]}"
            )
        return X_new, y_new


@dataclass
class _FitState:
    """Everything a prediction reuses; replaced, never mutated."""

    X: np.ndarray
    alpha: np.ndarray  # K^{-1} y_std
    L: np.ndarray  # lower Cholesky factor, Fortran order (copy-free trtrs)
    y_mean: float
    y_std: float
    #: raw (unstandardized) targets; needed to re-standardize on append
    y_raw: np.ndarray
    #: diagonal jitter baked into ``L`` (appended rows must match it)
    jitter: float
    #: ``kernel.train_side(X)`` at the fitted hyperparameters
    train: tuple[np.ndarray, np.ndarray] | None


class GaussianProcess(Surrogate):
    """GP regressor ``y ~ GP(0, k(x, x') + noise * I)`` on unit-cube inputs.

    Parameters
    ----------
    kernel:
        Covariance kernel; defaults to ARD RBF once the input dimension is
        known at :meth:`fit` time.
    noise_variance:
        Initial observation-noise variance (standardized-y units).
    optimize:
        Whether :meth:`fit` runs hyperparameter MLE; turn off to keep the
        current hyperparameters (used by the tuner's ``refit_every``
        heuristic to amortize optimization cost).
    n_restarts:
        Extra random restarts for the MLE multi-start.
    max_fun:
        L-BFGS-B function-evaluation cap per start.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        *,
        noise_variance: float = 1e-4,
        optimize: bool = True,
        n_restarts: int = 1,
        max_fun: int = 80,
        seed: int | None = None,
    ) -> None:
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.optimize = optimize
        self.n_restarts = int(n_restarts)
        self.max_fun = int(max_fun)
        self._rng = np.random.default_rng(seed)
        self._state: _FitState | None = None

    def _set_state(self, X, y_raw, y_mean, y_std, L, alpha, jitter) -> None:
        """Install a new fit state, with what :meth:`predict` reuses of it."""
        self._state = _FitState(
            X=X,
            alpha=alpha,
            L=np.asfortranarray(L),
            y_mean=y_mean,
            y_std=y_std,
            y_raw=y_raw,
            jitter=jitter,
            train=self.kernel.train_side(X),
        )

    # -- public API ---------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit to data; ``X`` is ``(n, d)`` in the unit cube, ``y`` ``(n,)``."""
        X, y = self._fit_data(X, y)
        if self.kernel is None:
            self.kernel = RBF(X.shape[1])
        elif self.kernel.dim != X.shape[1]:
            raise ValueError(
                f"kernel dimension {self.kernel.dim} != data dimension {X.shape[1]}"
            )

        y_mean, y_std = target_scale(y)
        ys = (y - y_mean) / y_std

        if self.optimize and X.shape[0] >= 2:
            with perf.timer("gp_mle"):
                self._optimize_hyperparameters(X, ys)

        L, jitter = cholesky_with_jitter(self._cov(X))
        alpha = sla.cho_solve((L, True), ys, check_finite=False)
        self._set_state(X, y.copy(), y_mean, y_std, L, alpha, jitter)
        perf.incr("gp_fits")
        return self

    def update(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Append observation(s) without refitting hyperparameters.

        Extends the cached Cholesky factor by rank-1 appends — O(n^2) per
        new point instead of the O(n^3) of a full :meth:`fit` — and
        recomputes the target standardization and ``alpha`` over the
        combined data, so predictions match a from-scratch fit on the same
        data (with hyperparameter optimization off) to round-off.

        Falls back to a full (non-optimizing) refit if the appended rows
        make the factorization numerically degenerate.
        """
        X_new, y_new = self._update_data(x, y)
        if X_new.shape[0] == 0:
            return self
        st = self._state
        n_old, m = st.X.shape[0], X_new.shape[0]
        X_all = np.vstack([st.X, X_new])
        y_raw = np.concatenate([st.y_raw, y_new])

        # grow the factor one row at a time, each step solving against the
        # previous (contiguous) factor via raw LAPACK; Fortran order keeps
        # every triangular solve copy-free
        L = st.L
        ok = True
        for i in range(m):
            k = n_old + i
            row = X_all[k]
            kvec = self.kernel(row[None, :], X_all[:k]).ravel()
            kss = float(self.kernel.diag(row[None, :])[0]) + self.noise_variance + st.jitter
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
        if not ok:
            # the append left the factor non-positive; rebuild through the
            # jitter ladder while keeping the current hyperparameters
            perf.incr("gp_update_fallbacks")
            saved = self.optimize
            self.optimize = False
            try:
                return self.fit(X_all, y_raw)
            finally:
                self.optimize = saved

        y_mean, y_std = target_scale(y_raw)
        z, _ = _trtrs(L, (y_raw - y_mean) / y_std, lower=1, trans=0)
        alpha, _ = _trtrs(L, z, lower=1, trans=1)
        self._set_state(X_all, y_raw, y_mean, y_std, L, alpha, st.jitter)
        perf.incr("gp_incremental_updates", m)
        return self

    def predict(self, X: np.ndarray, return_std: bool = True):
        """Posterior mean (and standard deviation) at ``X``, original scale."""
        st = self._state
        if st is None:
            raise RuntimeError("predict() before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ks = self.kernel(X, st.X, st.train)
        mean = Ks @ st.alpha * st.y_std + st.y_mean
        if not return_std:
            return mean
        v, _ = _trtrs(st.L, Ks.T, lower=1, trans=0)
        var = self.kernel.diag(X) + self.noise_variance - np.sum(v * v, axis=0)
        std = np.sqrt(np.maximum(var, 1e-12)) * st.y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """LML of the training data under the current hyperparameters."""
        if self._state is None:
            raise RuntimeError("log_marginal_likelihood() before fit()")
        st = self._state
        ys = st.L @ (st.L.T @ st.alpha)  # reconstruct standardized y
        return float(
            -0.5 * ys @ st.alpha
            - np.sum(np.log(np.diag(st.L)))
            - 0.5 * st.X.shape[0] * _LOG_2PI
        )

    # -- MLE ---------------------------------------------------------------
    def _theta(self) -> np.ndarray:
        return np.concatenate([self.kernel.get_theta(), [np.log(self.noise_variance)]])

    def _set_theta(self, theta: np.ndarray) -> None:
        self.kernel.set_theta(theta[:-1])
        self.noise_variance = float(np.exp(theta[-1]))

    def _bounds(self) -> list[tuple[float, float]]:
        return self.kernel.bounds() + [(np.log(1e-8), np.log(1.0))]

    def _cov(self, X: np.ndarray) -> np.ndarray:
        """``kernel(X) + noise I`` at the current hyperparameters."""
        K = self.kernel(X)
        K.flat[:: X.shape[0] + 1] += self.noise_variance
        return K

    def _nll(self, theta: np.ndarray, X: np.ndarray, ys: np.ndarray) -> float:
        """Finite-difference objective for kernels without a closed form."""
        self._set_theta(theta)
        try:
            L, _ = cholesky_with_jitter(self._cov(X), max_tries=3)
        except GPFitError:
            return NLL_FAIL
        alpha = sla.cho_solve((L, True), ys, check_finite=False)
        nll = 0.5 * ys @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * len(ys) * _LOG_2PI
        if not np.isfinite(nll):
            return NLL_FAIL
        return float(nll)

    def _optimize_hyperparameters(self, X: np.ndarray, ys: np.ndarray) -> None:
        theta0 = self._theta()
        # exact type: a subclass may redefine the covariance
        use_grad = type(self.kernel) is RBF
        if use_grad:
            D = pairwise_sq_diffs(X).reshape(X.shape[1], -1)
            fun = lambda th: _nll_grad(th, D, ys)
        else:
            fun = lambda th: self._nll(th, X, ys)
        best = multistart_mle(
            fun,
            theta0,
            self._bounds(),
            rng=self._rng,
            n_restarts=self.n_restarts,
            max_fun=self.max_fun,
            jac=use_grad,
        )
        if best is None:
            # every start failed: the finite-difference probes left the
            # kernel at an arbitrary theta — restore the pre-optimization state
            perf.incr("gp_mle_restores")
        self._set_theta(theta0 if best is None else best)

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Portable description (kernel hyperparameters + training stats).

        Used by the crowd repository's ``QuerySurrogateModel`` and the
        frozen-model registry to ship models between users without
        pickling.  The snapshot carries the *raw* kernel parameters, the
        fitted noise variance, the jitter the Cholesky ladder settled on
        and the raw targets, so :meth:`from_dict` reproduces the fitted
        predictor bit for bit — log-space ``theta`` round-trips
        (``exp(log(x))``) and re-running the jitter ladder can both drift
        the factor by an ulp, which is enough to break the registry's
        served-equals-local guarantee.
        """
        if self._state is None:
            raise RuntimeError("cannot serialize an unfitted GP")
        st = self._state
        return {
            "kernel": kernel_name(self.kernel),
            "theta": self._theta().tolist(),
            "variance": float(self.kernel.variance),
            "lengthscales": self.kernel.lengthscales.tolist(),
            "noise_variance": float(self.noise_variance),
            "jitter": float(st.jitter),
            "X": st.X.tolist(),
            "y_mean": st.y_mean,
            "y_std": st.y_std,
            "y_raw": st.y_raw.tolist(),
            "alpha": st.alpha.tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "GaussianProcess":
        X = np.asarray(doc["X"], dtype=float)
        # raw parameters, no log round-trip
        kernel = kernel_from_name(
            doc["kernel"],
            X.shape[1],
            variance=float(doc["variance"]),
            lengthscales=doc["lengthscales"],
        )
        gp = GaussianProcess(
            kernel, noise_variance=float(doc["noise_variance"]), optimize=False
        )
        L, jitter = cholesky_at(gp._cov(X), float(doc["jitter"]))
        y_raw, alpha = (np.asarray(doc[k], dtype=float) for k in ("y_raw", "alpha"))
        gp._set_state(X, y_raw, float(doc["y_mean"]), float(doc["y_std"]), L, alpha, jitter)
        return gp
