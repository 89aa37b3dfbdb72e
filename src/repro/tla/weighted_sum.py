"""Weighted-sum TLA: static/equal (HiPerBOt [6]) and dynamic (paper Sec. V-B/C).

The combined surrogate is Eq. (1)-(2) of the paper:

    mu(x)    = w_t * mu_t(x) + sum_i w_i * mu_i(x)
    sigma(x) = sigma_t(x)^{w_t} * prod_i sigma_i(x)^{w_i}

``WeightedSumStatic`` uses user-provided weights, or equal weights 1 when
none are given (the paper's ``WeightedSum(static/equal)``).

``WeightedSumDynamic`` is GPTuneCrowd's improvement: at every iteration it
solves the linear regression of Sec. V-C for non-negative weights.  For
each observed target sample ``(x_j, y_j)``, with ``x*`` the incumbent and
``y* = f(x*)`` the observed minimum,

    (y* - y_j) / |y*|  ≈  sum_i w_i * [mu_i(x*) - mu_i(x_j)] / |mu_i(x*)|

(the normalization by ``y*`` and ``G_i(x*)`` from the paper handles the
different output scales of source and target tasks).  The system is
solved with non-negative least squares; a good fit assigns large weights
to surrogates whose landscape around the incumbent agrees with the
target's observations.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize as sopt

from ..core import perf
from ..core.acquisition import PredictFn
from ..core.history import TaskData
from .base import TLAStrategy, combine_weighted, equal_weight_model

__all__ = ["WeightedSumStatic", "WeightedSumDynamic"]


def dynamic_weights(
    models: list[PredictFn], target: TaskData
) -> np.ndarray | None:
    """Solve the Sec. V-C regression; returns weights or ``None`` if the
    system is degenerate (fewer than two target observations)."""
    if target.n < 2:
        return None
    x_star, y_star = target.best()
    denom_y = max(abs(y_star), 1e-12)
    lhs = (y_star - target.y) / denom_y  # (n,) non-positive entries

    cols = []
    for m in models:
        mu_all, _ = m(np.vstack([x_star[None, :], target.X]))
        mu_star, mu_obs = mu_all[0], mu_all[1:]
        denom = max(abs(mu_star), 1e-12)
        cols.append((mu_star - mu_obs) / denom)
    A = np.stack(cols, axis=1)  # (n, n_models)
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(lhs)):
        return None
    try:
        w, _ = sopt.nnls(A, lhs)
    except (RuntimeError, ValueError):  # iteration cap hit / malformed system
        perf.incr("tla_weight_solver_failures")
        return None
    if not np.any(w > 0):
        return None
    # normalize so the combined scale stays comparable to a single model
    return w * (len(models) / np.sum(w))


class WeightedSumStatic(TLAStrategy):
    """HiPerBOt-style weighted sum with static (default: equal) weights."""

    name = "WeightedSum (equal)"
    provenance = "[6]"

    def __init__(self, weights: list[float] | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.static_weights = None if weights is None else np.asarray(weights, float)
        if weights is not None:
            self.name = "WeightedSum (static)"

    def _adopt(self, sources: list[TaskData], source_gps, rng: np.random.Generator) -> None:
        # checked here, before the tuner spends an evaluation on a model
        # that could never be combined
        n = len(source_gps) + 1
        if self.static_weights is not None and self.static_weights.shape != (n,):
            raise ValueError(
                f"need {n} static weights (sources then target), "
                f"got {self.static_weights.shape}"
            )
        super()._adopt(sources, source_gps, rng)

    def model(self, target: TaskData, rng: np.random.Generator) -> PredictFn | None:
        target_gp = self._target_gp(target, rng)
        if target_gp is None:
            return equal_weight_model(self.source_gps)
        models = [gp.predict for gp in (*self.source_gps, target_gp)]
        w = self.static_weights if self.static_weights is not None else np.ones(len(models))
        return combine_weighted(models, w)


class WeightedSumDynamic(TLAStrategy):
    """GPTuneCrowd's weighted sum with per-iteration dynamic weights."""

    name = "WeightedSum (dynamic)"
    provenance = "GPTuneCrowd"

    def model(self, target: TaskData, rng: np.random.Generator) -> PredictFn | None:
        target_gp = self._target_gp(target, rng)
        if target_gp is None:
            return equal_weight_model(self.source_gps)
        models = [gp.predict for gp in (*self.source_gps, target_gp)]
        w = dynamic_weights(models, target)
        if w is None:  # not enough target data yet: paper's equal fallback
            w = np.ones(len(models))
        return combine_weighted(models, w)
