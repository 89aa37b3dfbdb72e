"""Acquisition functions for Bayesian optimization (system S4).

Acquisitions consume a *predict function* ``predict(X) -> (mean, std)``
rather than a model object, so single-task GPs, LCMs and all the combined
TLA surrogates (weighted sums, stacks) plug in uniformly.

All problems are minimization (runtime, memory), matching the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np
from scipy import special

from . import perf

__all__ = [
    "Acquisition",
    "ExpectedImprovement",
    "LowerConfidenceBound",
    "PendingPenalty",
]

PredictFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_SQRT2 = float(np.sqrt(2.0))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + special.erf(z / _SQRT2))


class Acquisition(ABC):
    """Scores candidate points; higher is better (maximized by the search)."""

    name = "abstract"

    @abstractmethod
    def __call__(
        self, predict: PredictFn, X: np.ndarray, y_best: float
    ) -> np.ndarray:
        """Acquisition values for candidate rows of ``X``."""


class ExpectedImprovement(Acquisition):
    """EI for minimization: ``E[max(y_best - f(x) - xi, 0)]``.

    ``xi`` is a small exploration margin.  Degenerate standard deviations
    collapse EI to the deterministic improvement, keeping the search
    well-defined when a surrogate interpolates exactly.
    """

    name = "ei"

    def __init__(self, xi: float = 0.0) -> None:
        self.xi = float(xi)

    def __call__(self, predict: PredictFn, X: np.ndarray, y_best: float) -> np.ndarray:
        perf.incr("acquisition_evaluations", X.shape[0])
        mean, std = predict(X)
        mean = np.asarray(mean, dtype=float).ravel()
        std = np.asarray(std, dtype=float).ravel()
        improve = y_best - mean - self.xi
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(std > 0, improve / std, 0.0)
            ei = np.where(
                std > 0,
                improve * _norm_cdf(z) + std * _norm_pdf(z),
                np.maximum(improve, 0.0),
            )
        return np.maximum(ei, 0.0)


class LowerConfidenceBound(Acquisition):
    """LCB for minimization, returned negated so "higher is better"."""

    name = "lcb"

    def __init__(self, beta: float = 2.0) -> None:
        self.beta = float(beta)

    def __call__(self, predict: PredictFn, X: np.ndarray, y_best: float) -> np.ndarray:
        perf.incr("acquisition_evaluations", X.shape[0])
        mean, std = predict(X)
        return -(np.asarray(mean).ravel() - self.beta * np.asarray(std).ravel())


class PendingPenalty(Acquisition):
    """Damp a base acquisition around configurations already in flight.

    The model-agnostic fallback for batch/asynchronous proposal when the
    surrogate offers no cheap fantasy update (combined TLA predictors):
    scores decay linearly to zero within ``radius`` of the nearest
    pending unit point, so a batch spreads out instead of proposing the
    same argmax q times.  With no pending points this is the identity.
    """

    name = "pending-penalty"

    def __init__(
        self, base: Acquisition, X_pending: np.ndarray | None, radius: float = 0.1
    ) -> None:
        if radius <= 0:
            raise ValueError("penalty radius must be positive")
        self.base = base
        Xp = None if X_pending is None else np.atleast_2d(np.asarray(X_pending, float))
        self.X_pending = None if Xp is None or Xp.shape[0] == 0 else Xp
        self.radius = float(radius)

    def __call__(self, predict: PredictFn, X: np.ndarray, y_best: float) -> np.ndarray:
        s = self.base(predict, X, y_best)
        if self.X_pending is None:
            return s
        Xp = self.X_pending
        d2 = (
            np.sum(X * X, axis=1)[:, None]
            + np.sum(Xp * Xp, axis=1)[None, :]
            - 2.0 * (X @ Xp.T)
        )
        dist = np.sqrt(np.maximum(d2, 0.0)).min(axis=1)
        return s * np.clip(dist / self.radius, 0.0, 1.0)


_ACQS = {"ei": ExpectedImprovement, "lcb": LowerConfidenceBound}


def get_acquisition(name: str, **kwargs) -> Acquisition:
    """Look up an acquisition by name (``ei``, ``lcb``)."""
    try:
        return _ACQS[name](**kwargs)
    except KeyError:
        raise ValueError(f"unknown acquisition {name!r}; choose from {sorted(_ACQS)}")
