"""Ensemble TLA — the paper's proposed Algorithm 1 plus the two naive
baselines it is compared against (Sec. V-E).

``Ensemble(proposed)`` keeps a pool of TLA algorithms (default:
Multitask(TS), WeightedSum(dynamic), Stacking).  Before each function
evaluation it either *explores* — picks an algorithm uniformly at random,
with probability given by the dynamically shrinking rate of Eq. (4) —

    ExplorationRate = (|T| * n_params / n_samples)
                      / (1 + |T| * n_params / n_samples)

— or *exploits*: samples an algorithm from the probability distribution
of Eq. (3), which favors algorithms whose chosen configurations achieved
the best outputs so far:

    prob(t) = (1 / best_output(t)) / sum_t' (1 / best_output(t'))

``Ensemble(toggling)`` cycles through the pool round-robin and
``Ensemble(prob)`` uses Eq. (3) alone (exploration rate pinned to zero);
both are the naive baselines of Fig. 3.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.acquisition import PredictFn
from ..core.history import TaskData
from .base import TLAStrategy
from .multitask import MultitaskTS
from .stacking import Stacking
from .weighted_sum import WeightedSumDynamic

__all__ = ["EnsembleProposed", "EnsembleToggling", "EnsembleProb"]


def exploration_rate(n_algorithms: int, n_parameters: int, n_samples: int) -> float:
    """Eq. (4).  With zero samples the rate is 1 (pure exploration)."""
    if n_algorithms < 1 or n_parameters < 1:
        raise ValueError("n_algorithms and n_parameters must be >= 1")
    if n_samples <= 0:
        return 1.0
    ratio = n_algorithms * n_parameters / n_samples
    return ratio / (1.0 + ratio)


def _default_pool(multitask_kwargs=None, **kwargs) -> list[TLAStrategy]:
    """The paper's default pool.  ``multitask_kwargs`` reach only the LCM
    member (e.g. ``lcm_n_restarts``, ``refit_every``), so the fast-LCM
    controls can be tuned without breaking the GP-only strategies."""
    return [
        MultitaskTS(**{**kwargs, **(multitask_kwargs or {})}),
        WeightedSumDynamic(**kwargs),
        Stacking(**kwargs),
    ]


class _EnsembleBase(TLAStrategy):
    """Shared pool management and per-algorithm best-output tracking."""

    def __init__(
        self,
        pool: list[TLAStrategy] | None = None,
        multitask_kwargs=None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.pool = (
            pool
            if pool is not None
            else _default_pool(multitask_kwargs=multitask_kwargs, **kwargs)
        )
        if not self.pool:
            raise ValueError("ensemble pool must not be empty")
        self.best_outputs: list[float] = [math.inf] * len(self.pool)
        self._chosen: int | None = None
        #: unit-vector bytes of each in-flight proposal -> the member that
        #: made it; results can land after later model() calls moved _chosen
        self._proposer: dict[bytes, int] = {}
        self._n_parameters: int | None = None

    def _adopt(self, sources: list[TaskData], source_gps, rng: np.random.Generator) -> None:
        super()._adopt(sources, source_gps, rng)
        self._n_parameters = sources[0].dim
        for strategy in self.pool:
            # a member that would fit the sources the way the shell did
            # takes the shell's GPs; any other fits its own
            if (strategy.kernel, strategy.gp_max_fun) == (self.kernel, self.gp_max_fun):
                strategy._adopt(sources, source_gps, rng)
            else:
                strategy.prepare(sources, rng)
        self.best_outputs = [math.inf] * len(self.pool)
        self._chosen = None
        self._proposer = {}

    # -- selection machinery ----------------------------------------------
    def _probabilities(self) -> np.ndarray:
        """Eq. (3) over algorithms that have produced a result.

        The paper assumes non-negative objectives (runtime, memory).  For
        objectives that can dip <= 0 (the synthetic demo function) the
        recorded bests are shifted to be positive first, preserving the
        ordering "better best => higher probability".
        """
        best = np.array(self.best_outputs, dtype=float)
        seen = np.isfinite(best)
        probs = np.zeros(len(best))
        if not np.any(seen):
            probs[:] = 1.0 / len(best)
            return probs
        vals = best[seen]
        lo = float(np.min(vals))
        if lo <= 0.0:
            spread = float(np.max(vals) - lo)
            vals = vals - lo + max(spread, 1.0) * 1e-3
        inv = 1.0 / vals
        probs[seen] = inv / np.sum(inv)
        return probs

    def _choose(self, target: TaskData, rng: np.random.Generator) -> int:
        raise NotImplementedError

    # -- strategy interface -----------------------------------------------
    def model(self, target: TaskData, rng: np.random.Generator) -> PredictFn | None:
        self._chosen = self._choose(target, rng)
        return self.pool[self._chosen].model(target, rng)

    def notify_proposal(self, x_unit: np.ndarray, rng: np.random.Generator) -> None:
        for strategy in self.pool:  # stateful members stay in sync
            strategy.notify_proposal(x_unit, rng)
        if self._chosen is not None:
            self._proposer[np.asarray(x_unit, dtype=float).tobytes()] = self._chosen

    def notify_result(self, x_unit: np.ndarray, y: float | None) -> None:
        for strategy in self.pool:
            strategy.notify_result(x_unit, y)
        # Algorithm 1 credits the member that proposed this point; a
        # result announced without its proposal goes to the latest choice
        key = np.asarray(x_unit, dtype=float).tobytes()
        member = self._proposer.pop(key, self._chosen)
        if member is not None and y is not None and y < self.best_outputs[member]:
            self.best_outputs[member] = float(y)

    @property
    def chosen_name(self) -> str | None:
        """Name of the algorithm used for the most recent proposal."""
        return None if self._chosen is None else self.pool[self._chosen].name


class EnsembleProposed(_EnsembleBase):
    """Algorithm 1: exploration-rate-gated probabilistic selection."""

    name = "Ensemble (proposed)"
    provenance = "GPTuneCrowd"

    def _choose(self, target: TaskData, rng: np.random.Generator) -> int:
        rate = exploration_rate(len(self.pool), self._n_parameters or 1, target.n)
        if rng.random() < rate:
            return int(rng.integers(0, len(self.pool)))
        return int(rng.choice(len(self.pool), p=self._probabilities()))


class EnsembleToggling(_EnsembleBase):
    """Naive baseline: cycle through the pool sequentially."""

    name = "Ensemble (toggling)"
    provenance = "GPTuneCrowd"

    def __init__(self, pool: list[TLAStrategy] | None = None, **kwargs) -> None:
        super().__init__(pool, **kwargs)
        self._counter = 0

    def _adopt(self, sources: list[TaskData], source_gps, rng: np.random.Generator) -> None:
        # re-preparation must restart the round-robin cycle at member 0;
        # a surviving cursor would skew the toggling baseline on reuse
        super()._adopt(sources, source_gps, rng)
        self._counter = 0

    def _choose(self, target: TaskData, rng: np.random.Generator) -> int:
        idx = self._counter % len(self.pool)
        self._counter += 1
        return idx


class EnsembleProb(_EnsembleBase):
    """Naive baseline: Eq. (3) alone, exploration rate pinned to zero."""

    name = "Ensemble (prob)"
    provenance = "GPTuneCrowd"

    def _choose(self, target: TaskData, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.pool), p=self._probabilities()))
