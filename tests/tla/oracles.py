"""Reference surrogates for the TLA pool, over the textbook GP predictor.

:mod:`repro.tla` evaluates every pool member once per call through its
``predict`` and reduces the batch in one pass.  These are the formulas as
the paper states them — the per-model Eq. (1)-(2) loop and the Stacking
mean/std recursion of Sec. V-D — written one model at a time over the
reference posterior of :mod:`tests.core.oracles` (nothing reused from the
fit), kept as the test oracle the pool must equal bit for bit on the same
batch.
"""

from __future__ import annotations

import numpy as np

from repro.core import GaussianProcess
from repro.tla import Stacking, WeightedSumDynamic
from repro.tla.ensemble import _EnsembleBase
from repro.tla.multitask import _MultitaskBase
from repro.tla.weighted_sum import dynamic_weights

from ..core.oracles import gp_predict


def _predict(gp, X):
    """A pool member at ``X``: dense GPs through the reference predictor."""
    return gp_predict(gp, X) if isinstance(gp, GaussianProcess) else gp.predict(X)


def weighted_sum(gps, weights, X):
    """Eq. (1)-(2): weights normalized to sum 1, arithmetic mean of the
    means, geometric mean of the standard deviations."""
    weights = np.asarray(weights, dtype=float)
    weights = weights / float(np.sum(weights))
    mean = np.zeros(X.shape[0])
    log_std = np.zeros(X.shape[0])
    for w, gp in zip(weights, gps):
        mu, sd = _predict(gp, X)
        mean += w * mu
        log_std += w * np.log(np.maximum(sd, 1e-12))
    return mean, np.exp(log_std)


def stacking(stack, stack_ns, residual_gp, n_target, X):
    """Sec. V-D: the residual GP's mean on top of the summed stack means;
    stds combined down the stack by sample-count-weighted geometric means."""
    stack_mean = np.zeros(X.shape[0])
    for gp in stack:
        stack_mean += _predict(gp, X)[0]
    running = np.maximum(_predict(stack[0], X)[1], 1e-12)
    for gp, n_i, n_prev in zip(stack[1:], stack_ns[1:], stack_ns[:-1]):
        beta = n_i / (n_i + n_prev)
        running = np.maximum(_predict(gp, X)[1], 1e-12) ** beta * running ** (1.0 - beta)
    mu_t, sd_t = _predict(residual_gp, X)
    beta = n_target / (n_target + stack_ns[-1])
    return mu_t + stack_mean, np.maximum(sd_t, 1e-12) ** beta * running ** (1.0 - beta)


def strategy_surrogate(strategy, target, X):
    """What ``strategy.model(target, rng)``, just called, must return at ``X``.

    Reads the fitted pieces off the strategy (source GPs, the stack, the
    target-side GP of the latest call, the ensemble's chosen member) and
    combines them with the oracles above.
    """
    if isinstance(strategy, _EnsembleBase):
        return strategy_surrogate(strategy.pool[strategy._chosen], target, X)
    if isinstance(strategy, _MultitaskBase) and strategy._target.model is not None:
        return strategy._target.model.predict(len(strategy.source_gps), X)
    if target.n == 0:
        return weighted_sum(strategy.source_gps, np.ones(len(strategy.source_gps)), X)
    if isinstance(strategy, Stacking):
        return stacking(
            strategy._stack, strategy._stack_ns, strategy._residual.model, target.n, X
        )
    gps = strategy.source_gps + [strategy._target.model]
    weights = None
    if isinstance(strategy, WeightedSumDynamic):
        weights = dynamic_weights([lambda X, gp=gp: _predict(gp, X) for gp in gps], target)
    return weighted_sum(gps, np.ones(len(gps)) if weights is None else weights, X)
