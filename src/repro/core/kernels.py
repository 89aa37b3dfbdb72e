"""Covariance kernels for Gaussian-process surrogates (system S2).

Kernels expose their hyperparameters as a flat vector ``theta`` in log
space, which is what the marginal-likelihood optimizer in
:mod:`repro.core.gp` manipulates.  The RBF kernel has a closed-form
likelihood gradient there (the common fast path, built on
:func:`pairwise_sq_diffs`); the Matern kernels fall back to finite
differences inside the optimizer.

A stationary kernel is *a function of the ARD-scaled squared distance*:
:meth:`Kernel.__call__` builds that distance once, on the base class
(:func:`sq_dists`), and each kernel contributes only its formula
(:meth:`Kernel._from_sq_dists`).  The half of the distance that depends on
the second argument alone — its scaled rows and their squared norms,
:meth:`Kernel.train_side` — can be computed once and passed back in, so a
fitted model pays for its training inputs per fit instead of per
prediction; the result is the same bits either way.

All kernels operate on points in the unit hypercube produced by
:class:`repro.core.space.Space`, so lengthscale bounds are expressed
relative to a [0, 1] domain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Kernel", "RBF", "Matern52", "Matern32", "kernel_from_name"]


def _scaled_side(Y: np.ndarray, lengthscales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Y / lengthscales, row squared norms)``: one side of :func:`sq_dists`."""
    B = Y / lengthscales
    return B, np.sum(B * B, axis=1)


def sq_dists(
    X: np.ndarray,
    Y: np.ndarray,
    lengthscales: np.ndarray | float,
    train: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Pairwise squared distances after per-dimension scaling.

    Computed via the expanded form ``|a|^2 + |b|^2 - 2 a.b`` which is the
    vectorized idiom (no Python loops); clipped at zero to absorb
    round-off.  ``train`` is ``_scaled_side(Y, lengthscales)`` computed
    ahead of time (``Y`` is then not read).
    """
    A, a_norms = _scaled_side(X, lengthscales)
    B, b_norms = _scaled_side(Y, lengthscales) if train is None else train
    d2 = a_norms[:, None] + b_norms[None, :] - 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0)


def pairwise_sq_diffs(X: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences ``D[j, a, b] = (X[a, j] - X[b, j])^2``.

    The theta-independent part of an ARD squared-exponential covariance,
    computed once per fit; ``(d, n, n)``, C-contiguous (``reshape(d, -1)``
    is a view).
    """
    diff = X[:, None, :] - X[None, :, :]
    return np.ascontiguousarray(np.moveaxis(diff * diff, -1, 0))


class Kernel(ABC):
    """Base class: stationary ARD kernel with signal variance.

    ``theta`` layout: ``[log(variance), log(ls_1), ..., log(ls_d)]``.
    """

    def __init__(self, dim: int, variance: float = 1.0, lengthscales=None) -> None:
        if dim < 1:
            raise ValueError("kernel dimension must be >= 1")
        self.dim = dim
        self.variance = float(variance)
        if lengthscales is None:
            self.lengthscales = np.full(dim, 0.3)
        else:
            ls = np.asarray(lengthscales, dtype=float).ravel()
            if ls.shape != (dim,):
                raise ValueError(f"need {dim} lengthscales, got shape {ls.shape}")
            self.lengthscales = ls.copy()
        if self.variance <= 0 or np.any(self.lengthscales <= 0):
            raise ValueError("variance and lengthscales must be positive")

    # -- hyperparameter vector --------------------------------------------
    @property
    def n_params(self) -> int:
        return 1 + self.dim

    def get_theta(self) -> np.ndarray:
        return np.concatenate([[np.log(self.variance)], np.log(self.lengthscales)])

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} params, got {theta.shape}")
        self.variance = float(np.exp(theta[0]))
        self.lengthscales = np.exp(theta[1:])

    def bounds(self) -> list[tuple[float, float]]:
        """Log-space box bounds for MLE (generous but numerically safe)."""
        var_b = (np.log(1e-4), np.log(1e4))
        ls_b = (np.log(5e-3), np.log(20.0))
        return [var_b] + [ls_b] * self.dim

    # -- evaluation ----------------------------------------------------------
    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None, train=None) -> np.ndarray:
        """Covariance matrix ``K[i, j] = k(X[i], Y[j])`` (``Y=None`` → X).

        ``train`` is :meth:`train_side` of ``Y`` at the current
        hyperparameters, when the caller kept it.
        """
        Y = X if Y is None else Y
        return self._from_sq_dists(sq_dists(X, Y, self.lengthscales, train))

    @abstractmethod
    def _from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        """The covariance at ARD-scaled squared distances ``d2``: a
        stationary kernel's whole contribution."""

    def train_side(self, Y: np.ndarray):
        """What ``self(X, Y)`` needs of ``Y`` alone, or ``None`` (nothing)."""
        return _scaled_side(Y, self.lengthscales)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.variance)

    def __repr__(self) -> str:  # pragma: no cover
        ls = np.array2string(self.lengthscales, precision=3)
        return f"{type(self).__name__}(var={self.variance:.3g}, ls={ls})"


class RBF(Kernel):
    """Squared-exponential kernel with ARD lengthscales."""

    def _from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        return self.variance * np.exp(-0.5 * d2)


class Matern52(Kernel):
    """Matern-5/2 kernel with ARD lengthscales."""

    def _from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        s = np.sqrt(5.0) * np.sqrt(d2)
        return self.variance * (1.0 + s + s * s / 3.0) * np.exp(-s)


class Matern32(Kernel):
    """Matern-3/2 kernel with ARD lengthscales."""

    def _from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        s = np.sqrt(3.0) * np.sqrt(d2)
        return self.variance * (1.0 + s) * np.exp(-s)


_KERNELS = {"rbf": RBF, "matern52": Matern52, "matern32": Matern32}


def kernel_from_name(name: str, dim: int, **kwargs) -> Kernel:
    """Instantiate a kernel by name (``rbf``, ``matern52``, ``matern32``)."""
    try:
        return _KERNELS[name](dim, **kwargs)
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}")


def kernel_name(kernel: Kernel) -> str:
    """The name :func:`kernel_from_name` rebuilds ``kernel``'s class from.

    What a model snapshot records; a kernel outside the table (the
    mixed-space kernel, whose switch weights no snapshot carries) is
    refused here rather than written as a document nothing can load.
    """
    name = type(kernel).__name__.lower()
    if _KERNELS.get(name) is not type(kernel):
        raise TypeError(
            f"a {type(kernel).__name__} model cannot be serialized: "
            f"snapshots rebuild kernels by name, one of {sorted(_KERNELS)}"
        )
    return name
