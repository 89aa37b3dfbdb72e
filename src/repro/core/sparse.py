"""The large-n surrogate: a sparse inducing-point GP.

Every surrogate in the reproduction was a dense Cholesky — O(n^3) fit,
O(n^2) memory — which is fine at the paper's n≈200 histories but
collapses at the 10^4–10^6 record histories a real crowd database
accumulates.  :class:`SparseGP` is the large-n surrogate behind the
:class:`~repro.core.gp.GaussianProcess` interface (``fit`` / ``update`` /
``predict`` / ``to_dict`` of its own, the rest inherited from the shared
:class:`~repro.core.gp.Surrogate` base), so the incremental machinery of
the tuner, the TLA pool and the model registry keep working unchanged.
Like the dense GP, it has one ``predict`` and a fit state that ``fit`` /
``update`` replace rather than mutate.

It is an inducing-point SGPR/Nyström GP: ``m`` inducing points are
chosen deterministically by greedy max-min (k-center) selection on the
unit cube, hyperparameters come from an exact-GP MLE on the k-center
subset, and the posterior is the standard projected-process one —
O(nm^2) fit, O(m^2) per prediction point, with a rank-1 ``update()``
that folds new rows into the cached ``U U^T``-style factors in O(m^2)
per point.  One global set of hyperparameters describes the whole
history; where that underfits (different length scales in different
regions) raise :data:`N_INDUCING`.

Task-level grouping happens *above* this module: the registry builds
one surrogate per ``(problem, task)`` and the tuners model one task at
a time, so the class summarizes a single task's history.

This module owns the dense-or-sparse decision: the ``"auto"`` policy
(:func:`resolve_surrogate_kind`) keeps the dense GP — bit-identical to
the historical behavior — up to :data:`N_DENSE_MAX` observations and
fits the sparse one past it.  Every fit of crowd data (tuner, TLA
models, registry builds, the client's fit-locally paths, sensitivity
analysis) resolves its kind here and builds through
:func:`make_surrogate`, so a served model and a local fit of the same
records agree by construction; :func:`surrogate_from_dict` loads either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import perf
from .gp import (
    GaussianProcess,
    Surrogate,
    cholesky_at,
    cholesky_with_jitter,
    target_scale,
)
from .kernels import Kernel, kernel_from_name, kernel_name

__all__ = [
    "SURROGATE_KINDS",
    "N_DENSE_MAX",
    "N_INDUCING",
    "SparseGP",
    "select_inducing",
    "check_surrogate_policy",
    "resolve_surrogate_kind",
    "make_surrogate",
    "surrogate_from_dict",
]

(_trtrs,) = get_lapack_funcs(("trtrs",), (np.empty(0, dtype=np.float64),))

#: surrogate policies accepted by the tuners and the TLA strategies
SURROGATE_KINDS = ("auto", "dense", "sparse")

#: past this many observations ``"auto"`` fits the sparse surrogate
#: (read at call time, so a test can lower it with ``monkeypatch``)
N_DENSE_MAX = 1000

#: inducing points ``m`` of every sparse surrogate :func:`make_surrogate` builds
N_INDUCING = 100

#: noise-variance floor inside the SGPR factors (a zero noise would make
#: the information matrix B = I + U U^T / sigma^2 singular in float64)
_NOISE_FLOOR = 1e-8


def select_inducing(X: np.ndarray, m: int) -> np.ndarray:
    """Indices of ``m`` greedy max-min (k-center) points of ``X``.

    Deterministic: the first pick is the point nearest the data mean,
    every later pick maximizes the minimum squared distance to the
    points already chosen (ties broken by lowest index via argmax).
    The greedy order is *nested* — the first k of an m-selection are
    exactly the k-selection — which lets one call serve both the
    inducing set and the (possibly larger) hyperparameter subset.
    O(nm) with a running min-distance array.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    m = int(min(max(m, 1), n))
    center = X.mean(axis=0)
    first = int(np.argmin(np.sum((X - center) ** 2, axis=1)))
    chosen = np.empty(m, dtype=np.intp)
    chosen[0] = first
    d2 = np.sum((X - X[first]) ** 2, axis=1)
    for j in range(1, m):
        nxt = int(np.argmax(d2))
        chosen[j] = nxt
        np.minimum(d2, np.sum((X - X[nxt]) ** 2, axis=1), out=d2)
    return chosen


def check_surrogate_policy(policy: str) -> str:
    """``policy`` if it is one of :data:`SURROGATE_KINDS`, else ``ValueError``.

    Called where a policy is written down (``TunerOptions``,
    ``TLAStrategy``), so a bad one fails at construction instead of at
    the first fit.
    """
    if policy not in SURROGATE_KINDS:
        raise ValueError(f"unknown surrogate policy {policy!r}; choose from {SURROGATE_KINDS}")
    return policy


def resolve_surrogate_kind(policy: str, n: int) -> str:
    """Map a surrogate policy to the concrete kind for ``n`` observations.

    ``"dense"`` / ``"sparse"`` are explicit; ``"auto"`` keeps the exact
    dense GP (bit-identical to the historical path) up to
    :data:`N_DENSE_MAX` points and the sparse inducing-point GP past it.
    """
    if check_surrogate_policy(policy) != "auto":
        return policy
    return "dense" if n <= N_DENSE_MAX else "sparse"


def make_surrogate(
    kind: str,
    kernel: str | Kernel = "rbf",
    *,
    dim: int | None = None,
    seed: int | None = None,
    max_fun: int = 80,
    n_restarts: int = 1,
):
    """Construct an unfitted surrogate of the given concrete ``kind``.

    The shared factory behind every fit of crowd data, so every layer
    creates each class with the same knobs (a sparse one with
    :data:`N_INDUCING` inducing points).  ``kind`` must already be
    concrete (resolve ``"auto"`` with :func:`resolve_surrogate_kind`
    first).  ``"dense"`` takes a :class:`Kernel` instance (the
    mixed-space kernel), or a kernel name plus the input dimension ``dim``.
    """
    if kind == "dense":
        if isinstance(kernel, str):
            if dim is None:
                raise ValueError("a dense surrogate from a kernel name needs dim")
            kernel = kernel_from_name(kernel, dim)
        return GaussianProcess(kernel, max_fun=max_fun, n_restarts=n_restarts, seed=seed)
    if kind == "sparse":
        return SparseGP(
            kernel,
            n_inducing=N_INDUCING,
            max_fun=max_fun,
            n_restarts=n_restarts,
            seed=seed,
        )
    raise ValueError(f"unknown surrogate kind {kind!r}")


def surrogate_from_dict(doc: dict):
    """Reconstruct any serialized surrogate from its portable snapshot.

    Dispatches on the snapshot's ``"type"`` tag; snapshots without one
    are dense :class:`GaussianProcess` documents (the historical format,
    which never carried a tag).  Snapshots arrive from outside the
    process (replicated registry entries, model uploads, ``model_meta``
    responses), so a tag this build does not know is refused by name.
    """
    kind = doc.get("type", "dense")
    if kind == "sparse":
        return SparseGP.from_dict(doc)
    if kind == "dense":
        return GaussianProcess.from_dict(doc)
    raise ValueError(
        f"unknown surrogate snapshot type {kind!r}; this build loads "
        "('dense', 'sparse') and untagged (dense) documents"
    )


# -- SGPR / Nyström inducing-point GP ------------------------------------------


@dataclass
class _SparseState:
    """Immutable-by-convention cached SGPR factorization.

    ``update()`` replaces the state object instead of mutating arrays in
    place, so the batch-proposal fantasy save/restore (``gp._state``
    snapshotting in :func:`repro.core.optimizer.propose_batch`) stays
    valid.
    """

    X: np.ndarray  # (n, d) training inputs, insertion order
    y_raw: np.ndarray  # (n,) raw targets
    Z: np.ndarray  # (m, d) inducing points
    Lm: np.ndarray  # chol(K_mm + jitter_m I), lower, Fortran order
    jitter_m: float
    UUt: np.ndarray  # U U^T where U = Lm^{-1} K_mn
    U1: np.ndarray  # U @ 1_n
    Uy: np.ndarray  # U @ y_raw
    y_mean: float
    y_std: float
    sigma2: float  # effective noise variance (floored)
    LB: np.ndarray  # chol(I + UUt / sigma2), lower, Fortran order
    jitter_b: float
    c: np.ndarray  # LB^{-1} (U ys) / sigma2


class SparseGP(Surrogate):
    """Inducing-point SGPR/Nyström GP on unit-cube inputs.

    Parameters
    ----------
    kernel:
        Kernel instance, kernel name, or ``None`` (ARD RBF at fit time).
    n_inducing:
        Number of inducing points ``m`` (capped at n).  Fit is O(nm^2),
        predictions O(m^2) per point.
    inducing:
        Optional explicit inducing-point array overriding the k-center
        selection (tests pin update-vs-refit equivalence with it).
    noise_variance / optimize / n_restarts / max_fun / seed:
        As in :class:`GaussianProcess`.  Hyperparameters are optimized
        by an *exact* GP MLE on the inducing set (the deterministic
        k-center subset) — O(m^3) independent of n — then frozen into
        the O(nm^2) SGPR factorization.
    """

    _noun = "SparseGP"

    def __init__(
        self,
        kernel: Kernel | str | None = None,
        *,
        n_inducing: int = 100,
        inducing: np.ndarray | None = None,
        noise_variance: float = 1e-4,
        optimize: bool = True,
        n_restarts: int = 1,
        max_fun: int = 80,
        seed: int | None = None,
    ) -> None:
        if n_inducing < 1:
            raise ValueError("n_inducing must be >= 1")
        self.kernel = kernel if isinstance(kernel, Kernel) else None
        self._kernel_name = kernel if isinstance(kernel, str) else None
        self.n_inducing = int(n_inducing)
        self.inducing = None if inducing is None else np.atleast_2d(
            np.asarray(inducing, dtype=float)
        )
        self.noise_variance = float(noise_variance)
        self.optimize = optimize
        self.n_restarts = int(n_restarts)
        self.max_fun = int(max_fun)
        self.seed = seed
        self._state: _SparseState | None = None

    # -- public API ---------------------------------------------------------
    @property
    def inducing_points(self) -> np.ndarray:
        if self._state is None:
            raise RuntimeError("inducing_points before fit()")
        return self._state.Z

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SparseGP":
        """Fit to data: select inducing points, MLE on the subset, factorize."""
        X, y = self._fit_data(X, y)
        n, d = X.shape
        if self.kernel is None:
            name = self._kernel_name or "rbf"
            self.kernel = kernel_from_name(name, d)
        elif self.kernel.dim != d:
            raise ValueError(f"kernel dimension {self.kernel.dim} != data dimension {d}")

        m = min(self.n_inducing, n)
        n_sub = min(n, max(m, 2))
        if self.inducing is not None:
            Z = self.inducing
            sub = np.unique(np.linspace(0, n - 1, n_sub).astype(np.intp))
        else:
            with perf.timer("sparse_select_inducing"):
                idx = select_inducing(X, n_sub)
            Z = X[idx[:m]].copy()
            sub = idx[:n_sub]

        if self.optimize and n >= 2:
            # exact-GP MLE on the k-center subset; the helper shares this
            # model's kernel object, so the optimum lands in self.kernel
            helper = GaussianProcess(
                self.kernel,
                noise_variance=self.noise_variance,
                n_restarts=self.n_restarts,
                max_fun=self.max_fun,
                seed=self.seed,
            )
            helper.fit(X[sub], y[sub])
            self.noise_variance = helper.noise_variance

        self._state = self._build_state(X, y, Z)
        perf.incr("sparse_fits")
        return self

    def _build_state(self, X: np.ndarray, y_raw: np.ndarray, Z: np.ndarray) -> _SparseState:
        """The O(nm^2) SGPR factorization at the current hyperparameters."""
        Lm, jitter_m = cholesky_with_jitter(self.kernel(Z))
        Lm = np.asfortranarray(Lm)
        Kmn = self.kernel(Z, X)
        U, _ = _trtrs(Lm, Kmn, lower=1, trans=0)
        UUt = U @ U.T
        U1 = U.sum(axis=1)
        Uy = U @ y_raw
        return self._refresh(X, y_raw, Z, Lm, jitter_m, UUt, U1, Uy)

    def _refresh(
        self,
        X: np.ndarray,
        y_raw: np.ndarray,
        Z: np.ndarray,
        Lm: np.ndarray,
        jitter_m: float,
        UUt: np.ndarray,
        U1: np.ndarray,
        Uy: np.ndarray,
        jitter_b: float | None = None,
    ) -> _SparseState:
        """Rebuild the y-dependent tail of the state (standardization,
        information-matrix Cholesky, projected coefficients) — O(m^3)."""
        y_mean, y_std = target_scale(y_raw)
        sigma2 = max(float(self.noise_variance), _NOISE_FLOOR)
        B = np.eye(Z.shape[0]) + UUt / sigma2
        if jitter_b is None:
            LB, jitter_b = cholesky_with_jitter(B)
        else:
            LB, jitter_b = cholesky_at(B, jitter_b)
        LB = np.asfortranarray(LB)
        Uys = (Uy - y_mean * U1) / y_std
        c0, _ = _trtrs(LB, Uys, lower=1, trans=0)
        return _SparseState(
            X=X,
            y_raw=y_raw,
            Z=Z,
            Lm=Lm,
            jitter_m=jitter_m,
            UUt=UUt,
            U1=U1,
            Uy=Uy,
            y_mean=y_mean,
            y_std=y_std,
            sigma2=sigma2,
            LB=LB,
            jitter_b=float(jitter_b),
            c=c0 / sigma2,
        )

    def update(self, x: np.ndarray, y: np.ndarray) -> "SparseGP":
        """Append observation(s) without re-selecting inducing points.

        Folds the new rows into the cached ``U U^T`` / ``U 1`` / ``U y``
        accumulators — O(m^2) per point plus one O(m^3) refresh of the
        m-by-m information Cholesky — so crowd-sized histories absorb a
        stream of new records without ever touching the O(nm^2) fit
        again.  Hyperparameters and inducing points stay frozen, exactly
        like the dense ``update()`` freezes theta.
        """
        X_new, y_new = self._update_data(x, y)
        if X_new.shape[0] == 0:
            return self
        st = self._state
        k_new = self.kernel(st.Z, X_new)  # (m, k)
        u_new, _ = _trtrs(st.Lm, k_new, lower=1, trans=0)
        self._state = self._refresh(
            np.vstack([st.X, X_new]),
            np.concatenate([st.y_raw, y_new]),
            st.Z,
            st.Lm,
            st.jitter_m,
            st.UUt + u_new @ u_new.T,
            st.U1 + u_new.sum(axis=1),
            st.Uy + u_new @ y_new,
        )
        perf.incr("sparse_updates", X_new.shape[0])
        return self

    def predict(self, X: np.ndarray, return_std: bool = True):
        """SGPR posterior mean (and std) at ``X``, original target scale."""
        st = self._state
        if st is None:
            raise RuntimeError("predict() before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ksm = self.kernel(X, st.Z)  # (n*, m)
        t1, _ = _trtrs(st.Lm, Ksm.T, lower=1, trans=0)  # Lm^{-1} K_ms
        t2, _ = _trtrs(st.LB, t1, lower=1, trans=0)  # LB^{-1} Lm^{-1} K_ms
        mean = t2.T @ st.c * st.y_std + st.y_mean
        if not return_std:
            return mean
        var = (
            self.kernel.diag(X) + st.sigma2 - np.sum(t1 * t1, axis=0) + np.sum(t2 * t2, axis=0)
        )
        return mean, np.sqrt(np.maximum(var, 1e-12)) * st.y_std

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """Portable snapshot, exact like the dense GP's.

        Carries the incremental accumulators (``UUt`` / ``U1`` / ``Uy``)
        rather than recomputing them from scratch on load: an updated
        model's factors were built by rank-1 accumulation, which a
        one-shot ``U @ U.T`` would reproduce only to round-off — and the
        registry's served-equals-local guarantee is bitwise.
        """
        if self._state is None:
            raise RuntimeError("cannot serialize an unfitted SparseGP")
        st = self._state
        return {
            "type": "sparse",
            "kernel": kernel_name(self.kernel),
            "variance": float(self.kernel.variance),
            "lengthscales": self.kernel.lengthscales.tolist(),
            "noise_variance": float(self.noise_variance),
            "n_inducing": int(self.n_inducing),
            "Z": st.Z.tolist(),
            "jitter_m": float(st.jitter_m),
            "jitter_b": float(st.jitter_b),
            "UUt": st.UUt.tolist(),
            "U1": st.U1.tolist(),
            "Uy": st.Uy.tolist(),
            "X": st.X.tolist(),
            "y_raw": st.y_raw.tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "SparseGP":
        Z = np.asarray(doc["Z"], dtype=float)
        X = np.asarray(doc["X"], dtype=float)
        y_raw = np.asarray(doc["y_raw"], dtype=float)
        kernel = kernel_from_name(
            doc["kernel"],
            Z.shape[1],
            variance=float(doc["variance"]),
            lengthscales=doc["lengthscales"],
        )
        gp = SparseGP(
            kernel,
            n_inducing=int(doc.get("n_inducing", Z.shape[0])),
            noise_variance=float(doc["noise_variance"]),
            optimize=False,
        )
        Lm, jitter_m = cholesky_at(kernel(Z), float(doc.get("jitter_m", 0.0)))
        gp._state = gp._refresh(
            X,
            y_raw,
            Z,
            np.asfortranarray(Lm),
            jitter_m,
            np.asarray(doc["UUt"], dtype=float),
            np.asarray(doc["U1"], dtype=float),
            np.asarray(doc["Uy"], dtype=float),
            jitter_b=float(doc.get("jitter_b", 0.0)) if "jitter_b" in doc else None,
        )
        return gp
