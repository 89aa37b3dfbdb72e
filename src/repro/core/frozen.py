"""Frozen fast predictors for fitted, never-again-refit surrogates.

:class:`FrozenGP` pre-extracts a fitted :class:`~repro.core.gp.GaussianProcess`'s
``(alpha, L, scaled train inputs, y-statistics)`` once and serves batch
predictions with the train-side quantities cached and the triangular
solve done through raw LAPACK ``trtrs``.  The arithmetic mirrors
:meth:`GaussianProcess.predict` operation for operation, so the fast
path is bit-identical to the plain one — pure amortization, not an
approximation.

It lives in ``core`` because every layer above uses it: the TLA pool
predicts its source and stack GPs through frozen views, the registry
serves resident ones, and the large-n surrogates of
:mod:`repro.core.sparse` provide frozen views of themselves.
:func:`frozen_view` dispatches on a ``frozen_view()`` method when the
surrogate provides its own (the sparse classes do), and falls back to
the dense :class:`FrozenGP` extraction otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .gp import GaussianProcess
from .kernels import RBF, Matern32, Matern52

__all__ = ["FrozenGP", "frozen_view"]

(_trtrs,) = get_lapack_funcs(("trtrs",), (np.empty(0, dtype=np.float64),))

#: kernels whose prediction math FrozenGP can replay (all are functions
#: of the ARD-scaled squared distance)
_FAST_KERNELS = (RBF, Matern52, Matern32)


class FrozenGP:
    """Pre-extracted state of a fitted, never-again-refit GP.

    Prediction replays :meth:`GaussianProcess.predict` with the same
    operations in the same order (scaled-difference expansion, LAPACK
    ``trtrs`` for the variance solve), but the train-side quantities —
    the lengthscale-scaled training inputs and their squared norms —
    are computed once here instead of on every call.
    """

    __slots__ = (
        "kernel", "variance", "lengthscales", "B", "b_norms",
        "L", "alpha", "noise", "y_mean", "y_std",
    )

    def __init__(self, gp: GaussianProcess) -> None:
        if not isinstance(gp.kernel, _FAST_KERNELS):
            raise TypeError(f"unsupported kernel {type(gp.kernel).__name__}")
        st = gp.fit_state
        self.kernel = type(gp.kernel)
        self.variance = float(gp.kernel.variance)
        self.lengthscales = gp.kernel.lengthscales.copy()
        self.B = st.X / self.lengthscales
        self.b_norms = np.sum(self.B * self.B, axis=1)
        self.L = np.asfortranarray(st.L)
        self.alpha = st.alpha
        self.noise = float(gp.noise_variance)
        self.y_mean = st.y_mean
        self.y_std = st.y_std

    def _cross_cov(self, X: np.ndarray) -> np.ndarray:
        A = X / self.lengthscales
        d2 = (
            np.sum(A * A, axis=1)[:, None]
            + self.b_norms[None, :]
            - 2.0 * (A @ self.B.T)
        )
        d2 = np.maximum(d2, 0.0)
        if self.kernel is RBF:
            return self.variance * np.exp(-0.5 * d2)
        r = np.sqrt(d2)
        if self.kernel is Matern52:
            s = np.sqrt(5.0) * r
            return self.variance * (1.0 + s + s * s / 3.0) * np.exp(-s)
        s = np.sqrt(3.0) * r  # Matern32
        return self.variance * (1.0 + s) * np.exp(-s)

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and std at ``X`` (original target scale)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ks = self._cross_cov(X)
        mean = Ks @ self.alpha * self.y_std + self.y_mean
        v, _ = _trtrs(self.L, Ks.T, lower=1, trans=0)
        var = self.variance + self.noise - np.sum(v * v, axis=0)
        std = np.sqrt(np.maximum(var, 1e-12)) * self.y_std
        return mean, std


def frozen_view(gp) -> object | None:
    """The (cached) frozen fast predictor for a fitted surrogate, or ``None``.

    Surrogates that provide their own frozen extraction (the large-n
    classes in :mod:`repro.core.sparse`) are dispatched through their
    ``frozen_view()`` method.  Dense GPs get the :class:`FrozenGP`
    extraction, cached on the GP keyed by its fit version so a later
    ``fit``/``update`` invalidates it automatically.  ``None`` when the
    surrogate is unfitted or uses a kernel the fast path does not
    support (e.g. the mixed-space kernel).
    """
    own = getattr(gp, "frozen_view", None)
    if callable(own):
        return own()
    if not isinstance(gp, GaussianProcess):
        return None
    if not gp.fitted or not isinstance(gp.kernel, _FAST_KERNELS):
        return None
    cached = getattr(gp, "_frozen_cache", None)
    if cached is not None and cached[0] == gp.version:
        return cached[1]
    frozen = FrozenGP(gp)
    gp._frozen_cache = (gp.version, frozen)
    return frozen
