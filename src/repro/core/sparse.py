"""Large-n surrogates: sparse inducing-point GPs and partitioned local GPs.

Every surrogate in the reproduction was a dense Cholesky — O(n^3) fit,
O(n^2) memory — which is fine at the paper's n≈200 histories but
collapses at the 10^4–10^6 record histories a real crowd database
accumulates.  This module adds two complementary large-n surrogates
behind the :class:`~repro.core.gp.GaussianProcess` interface (``fit`` /
``update`` / ``predict`` / ``to_dict`` of their own, the rest inherited
from the shared :class:`~repro.core.gp.Surrogate` base), so the
incremental machinery of the tuner, the TLA pool and the model registry
keep working unchanged.  Like the dense GP, each has one ``predict``
and a fit state that ``fit`` / ``update`` replace rather than mutate:

* :class:`SparseGP` — an inducing-point SGPR/Nyström GP.  ``m``
  inducing points are chosen deterministically by greedy max-min
  (k-center) selection on the unit cube, hyperparameters come from an
  exact-GP MLE on the k-center subset, and the posterior is the standard
  projected-process one: O(nm^2) fit, O(m^2) per prediction point, with
  a rank-1 ``update()`` that folds new rows into the cached
  ``U U^T``-style factors in O(m^2) per point.
* :class:`PartitionedGP` — a partitioned local-GP ensemble.  The
  history is split by recursive k-d median cuts until every leaf holds
  at most ``leaf_size`` points, one *exact* GP is fitted per leaf
  (optionally in parallel threads — per-leaf seeds are drawn up front,
  so parallel and serial fits are identical), and predictions merge the
  ``top_k`` nearest leaves with the paper's Eq. (1)-(2) weighted
  combine from :mod:`repro.core.combine` (inverse-squared-distance
  weights, one weight per leaf per query point).  Total fit cost is
  O(n * leaf_size^2) — linear in n at fixed leaf size.

When to use which: ``SparseGP`` wins when one global set of
hyperparameters describes the whole history (smooth objectives, m in
the low hundreds captures the structure) and gives the cheapest
predictions; ``PartitionedGP`` wins when the response surface is
non-stationary (different length scales in different regions — common
across a crowd's heterogeneous configurations) because every leaf gets
its own MLE, at the price of a slightly costlier merge at predict time.

Task-level grouping happens *above* this module: the registry builds
one surrogate per ``(problem, task)`` and the tuners model one task at
a time, so both classes partition/summarize within a single task's
history.

The ``surrogate="auto"`` policy (:func:`resolve_surrogate_kind`) keeps
the dense GP — bit-identical to the historical behavior — up to
``n_dense_max`` observations and switches to the sparse surrogate past
it; :func:`make_surrogate` and :func:`surrogate_from_dict` are the
construction/round-trip entry points the tuners and the registry share.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import perf
from .combine import combine_stacked, normalized_weight_matrix
from .gp import (
    GaussianProcess,
    GPFitError,
    Surrogate,
    cholesky_at,
    cholesky_with_jitter,
    target_scale,
)
from .kernels import Kernel, kernel_from_name, kernel_name, sq_dists

__all__ = [
    "SparseGP",
    "PartitionedGP",
    "select_inducing",
    "resolve_surrogate_kind",
    "make_surrogate",
    "surrogate_from_dict",
]

(_trtrs,) = get_lapack_funcs(("trtrs",), (np.empty(0, dtype=np.float64),))

#: surrogate policies accepted by the tuners and the registry
SURROGATE_KINDS = ("auto", "dense", "sparse", "partitioned")

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


def resolve_surrogate_kind(policy: str, n: int, n_dense_max: int) -> str:
    """Map a surrogate policy to the concrete kind for ``n`` observations.

    ``"dense"`` / ``"sparse"`` / ``"partitioned"`` are explicit;
    ``"auto"`` keeps the exact dense GP (bit-identical to the historical
    path) up to ``n_dense_max`` points and switches to the sparse
    inducing-point GP past it.
    """
    if policy not in SURROGATE_KINDS:
        raise ValueError(f"unknown surrogate policy {policy!r}; choose from {SURROGATE_KINDS}")
    if policy != "auto":
        return policy
    return "dense" if n <= int(n_dense_max) else "sparse"


def make_surrogate(
    kind: str,
    kernel: str | Kernel = "rbf",
    *,
    dim: int | None = None,
    seed: int | None = None,
    max_fun: int = 80,
    n_restarts: int = 1,
    n_inducing: int = 100,
    leaf_size: int = 200,
    top_k: int = 4,
    n_jobs: int = 1,
):
    """Construct an unfitted surrogate of the given concrete ``kind``.

    The shared factory behind the tuners' ``surrogate=`` policy and the
    registry's builds, so every layer creates each class with the same
    knobs.  ``kind`` must already be concrete (resolve ``"auto"`` with
    :func:`resolve_surrogate_kind` first).  ``"dense"`` takes a
    :class:`Kernel` instance (the mixed-space kernel), or a kernel name
    plus the input dimension ``dim``.
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
            n_inducing=n_inducing,
            max_fun=max_fun,
            n_restarts=n_restarts,
            seed=seed,
        )
    if kind == "partitioned":
        return PartitionedGP(
            kernel,
            leaf_size=leaf_size,
            top_k=top_k,
            max_fun=max_fun,
            n_restarts=n_restarts,
            n_jobs=n_jobs,
            seed=seed,
        )
    raise ValueError(f"unknown surrogate kind {kind!r}")


def surrogate_from_dict(doc: dict):
    """Reconstruct any serialized surrogate from its portable snapshot.

    Dispatches on the snapshot's ``"type"`` tag; snapshots without one
    are dense :class:`GaussianProcess` documents (the historical format,
    which never carried a tag).
    """
    kind = doc.get("type", "dense")
    if kind == "sparse":
        return SparseGP.from_dict(doc)
    if kind == "partitioned":
        return PartitionedGP.from_dict(doc)
    return GaussianProcess.from_dict(doc)


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


# -- partitioned local-GP ensemble ---------------------------------------------


class _Leaf:
    """One cluster of the partition: its data, exact GP, and centroid."""

    __slots__ = ("gp", "X", "y", "centroid")

    def __init__(self, gp: GaussianProcess, X: np.ndarray, y: np.ndarray) -> None:
        self.gp = gp
        self.X = X
        self.y = y
        self.centroid = X.mean(axis=0)


def _median_split_indices(
    X: np.ndarray, idx: np.ndarray, leaf_size: int
) -> list[np.ndarray]:
    """Recursive k-d median split of ``idx`` into groups of <= leaf_size.

    Each cut sorts the group along its widest-spread dimension (stable)
    and halves it at the midpoint, so groups are balanced, never empty,
    and the split sequence is deterministic.
    """
    out: list[np.ndarray] = []
    stack = [idx]
    while stack:
        g = stack.pop()
        if g.shape[0] <= leaf_size:
            out.append(g)
            continue
        sub = X[g]
        dim = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        order = np.argsort(sub[:, dim], kind="stable")
        half = g.shape[0] // 2
        stack.append(g[order[half:]])
        stack.append(g[order[:half]])
    return out


class PartitionedGP(Surrogate):
    """Partitioned local-GP surrogate: exact GPs on k-d leaves, merged
    at predict with per-point Eq. (1)-(2) weights.

    Parameters
    ----------
    kernel:
        Kernel *name* (every leaf gets its own instance and its own MLE
        — the non-stationarity win over one global set of
        hyperparameters).
    leaf_size:
        Maximum points per leaf; fit cost is O(n * leaf_size^2).  A leaf
        grown past ``2 * leaf_size`` by :meth:`update` is re-split.
    top_k:
        Leaves merged per query point.
    n_jobs:
        Thread-parallel leaf fitting when > 1 (per-leaf seeds are drawn
        up front, so results are scheduling-independent).
    """

    _noun = "PartitionedGP"

    def __init__(
        self,
        kernel: str | None = "rbf",
        *,
        leaf_size: int = 200,
        top_k: int = 4,
        noise_variance: float = 1e-4,
        optimize: bool = True,
        n_restarts: int = 1,
        max_fun: int = 80,
        n_jobs: int = 1,
        seed: int | None = None,
    ) -> None:
        if leaf_size < 2:
            raise ValueError("leaf_size must be >= 2")
        if isinstance(kernel, Kernel):
            raise TypeError("PartitionedGP takes a kernel name; every leaf "
                            "instantiates (and optimizes) its own kernel")
        self.kernel_name = kernel or "rbf"
        self.leaf_size = int(leaf_size)
        self.top_k = int(top_k)
        self.noise_variance = float(noise_variance)
        self.optimize = optimize
        self.n_restarts = int(n_restarts)
        self.max_fun = int(max_fun)
        self.n_jobs = int(n_jobs)
        self.seed = seed
        self._leaves: list[_Leaf] | None = None
        #: (n_leaves, d) leaf centroids, kept in step with ``_leaves``
        self._centroids: np.ndarray | None = None
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._seed_rng = np.random.default_rng(seed)

    def _data(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The insertion-order history (not the per-leaf order)."""
        return None if self._X is None else (self._X, self._y)

    def _set_leaves(self, leaves: list[_Leaf]) -> None:
        self._leaves = leaves
        self._centroids = np.array([leaf.centroid for leaf in leaves])

    # -- public API ---------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return 0 if self._leaves is None else len(self._leaves)

    def _fit_leaf(self, X: np.ndarray, y: np.ndarray, seed: int) -> GaussianProcess:
        gp = GaussianProcess(
            kernel_from_name(self.kernel_name, X.shape[1]),
            noise_variance=self.noise_variance,
            optimize=self.optimize,
            n_restarts=self.n_restarts,
            max_fun=self.max_fun,
            seed=seed,
        )
        gp.fit(X, y)
        perf.incr("partition_leaf_fits")
        return gp

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PartitionedGP":
        """Partition the history and fit one exact GP per leaf."""
        X, y = self._fit_data(X, y)
        groups = _median_split_indices(X, np.arange(X.shape[0], dtype=np.intp),
                                       self.leaf_size)
        # seeds drawn up front in group order: thread scheduling cannot
        # change which seed a leaf gets, so n_jobs>1 is bit-identical
        seeds = [int(self._seed_rng.integers(0, 2**31 - 1)) for _ in groups]
        if self.n_jobs > 1 and len(groups) > 1:
            with ThreadPoolExecutor(max_workers=self.n_jobs) as pool:
                gps = list(
                    pool.map(
                        lambda args: self._fit_leaf(*args),
                        [(X[g], y[g], s) for g, s in zip(groups, seeds)],
                    )
                )
        else:
            gps = [self._fit_leaf(X[g], y[g], s) for g, s in zip(groups, seeds)]
        self._set_leaves([_Leaf(gp, X[g].copy(), y[g].copy()) for gp, g in zip(gps, groups)])
        self._X = X.copy()
        self._y = y.copy()
        return self

    def update(self, x: np.ndarray, y: np.ndarray) -> "PartitionedGP":
        """Route new observation(s) to their nearest leaves incrementally.

        Each row lands in the leaf with the nearest centroid and is
        absorbed through the leaf GP's O(leaf^2) rank-1 ``update`` (a
        degenerate append falls back to a non-optimizing leaf refit).  A
        leaf grown past ``2 * leaf_size`` is re-split and its halves
        refit with fresh MLEs — the only O(leaf^3) work on the update
        path, amortized over ``leaf_size`` appends.
        """
        X_new, y_new = self._update_data(x, y)
        if X_new.shape[0] == 0:
            return self
        nearest = np.argmin(sq_dists(X_new, self._centroids, 1.0), axis=1)
        touched: dict[int, list[int]] = {}
        for row, leaf_id in enumerate(nearest):
            touched.setdefault(int(leaf_id), []).append(row)
        split_queue: list[_Leaf] = []
        for leaf_id in sorted(touched):
            rows = touched[leaf_id]
            leaf = self._leaves[leaf_id]
            leaf.X = np.vstack([leaf.X, X_new[rows]])
            leaf.y = np.concatenate([leaf.y, y_new[rows]])
            leaf.centroid = leaf.X.mean(axis=0)
            try:
                leaf.gp.update(X_new[rows], y_new[rows])
            except GPFitError:
                saved = leaf.gp.optimize
                leaf.gp.optimize = False
                try:
                    leaf.gp.fit(leaf.X, leaf.y)
                finally:
                    leaf.gp.optimize = saved
            if leaf.X.shape[0] > 2 * self.leaf_size:
                split_queue.append(leaf)
        for leaf in split_queue:
            self._split_leaf(leaf)
        self._set_leaves(self._leaves)
        self._X = np.vstack([self._X, X_new])
        self._y = np.concatenate([self._y, y_new])
        perf.incr("partition_updates", X_new.shape[0])
        return self

    def _split_leaf(self, leaf: _Leaf) -> None:
        """Replace one oversized leaf with its median-split children."""
        groups = _median_split_indices(
            leaf.X, np.arange(leaf.X.shape[0], dtype=np.intp), self.leaf_size
        )
        pos = self._leaves.index(leaf)
        children = []
        for g in groups:
            seed = int(self._seed_rng.integers(0, 2**31 - 1))
            gp = self._fit_leaf(leaf.X[g], leaf.y[g], seed)
            children.append(_Leaf(gp, leaf.X[g].copy(), leaf.y[g].copy()))
        self._leaves[pos : pos + 1] = children

    def predict(self, X: np.ndarray, return_std: bool = True):
        """Eq. (1)-(2) merge of the ``top_k`` nearest leaves per query point.

        Weights are inverse squared centroid distances, column-normalized by
        :func:`~repro.core.combine.normalized_weight_matrix`; the reduction
        is :func:`~repro.core.combine.combine_stacked` — the exact machinery
        the TLA weighted-sum strategies run, one weight per model per point.
        """
        if self._leaves is None:
            raise RuntimeError("predict() before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n, n_leaves = X.shape[0], len(self._leaves)
        d2 = sq_dists(X, self._centroids, 1.0)
        k = min(max(int(self.top_k), 1), n_leaves)
        if k == n_leaves:
            sel = np.broadcast_to(np.arange(n_leaves), (n, n_leaves))
        else:
            sel = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(n)[:, None]
        W = normalized_weight_matrix(1.0 / (d2[rows, sel] + 1e-9).T)  # (k, n)
        means = np.empty((k, n))
        stds = np.empty((k, n))
        for leaf_id in np.unique(sel):
            pos_i, pos_j = np.nonzero(sel == leaf_id)
            mu, sd = self._leaves[leaf_id].gp.predict(X[pos_i])
            means[pos_j, pos_i] = mu
            stds[pos_j, pos_i] = sd
        mean, std = combine_stacked(list(means), list(stds), W)
        perf.incr("partition_merges")
        return (mean, std) if return_std else mean

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """Portable snapshot: per-leaf dense-GP snapshots + global history.

        Each leaf rides on :meth:`GaussianProcess.to_dict`'s exact
        round-trip (raw parameters, pinned jitter, raw targets), so a
        reloaded partition serves bit-identical predictions fit-free.
        """
        if self._leaves is None:
            raise RuntimeError("cannot serialize an unfitted PartitionedGP")
        return {
            "type": "partitioned",
            "kernel": self.kernel_name,
            "leaf_size": int(self.leaf_size),
            "top_k": int(self.top_k),
            "noise_variance": float(self.noise_variance),
            "X": self._X.tolist(),
            "y_raw": self._y.tolist(),
            "leaves": [leaf.gp.to_dict() for leaf in self._leaves],
        }

    @staticmethod
    def from_dict(doc: dict) -> "PartitionedGP":
        model = PartitionedGP(
            doc.get("kernel", "rbf"),
            leaf_size=int(doc.get("leaf_size", 200)),
            top_k=int(doc.get("top_k", 4)),
            noise_variance=float(doc.get("noise_variance", 1e-4)),
            optimize=False,
        )
        leaves = []
        for leaf_doc in doc["leaves"]:
            gp = GaussianProcess.from_dict(leaf_doc)
            leaves.append(_Leaf(gp, gp._state.X, gp._state.y_raw))
        model._set_leaves(leaves)
        model._X = np.asarray(doc["X"], dtype=float)
        model._y = np.asarray(doc["y_raw"], dtype=float)
        return model
