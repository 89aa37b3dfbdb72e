"""Transfer-learning model provider (system S7's driver).

:class:`StrategyProvider` plugs a :class:`~repro.tla.base.TLAStrategy`
into the one tuning loop (:meth:`repro.core.tuner.Tuner.tune`): instead
of an initial random design plus a target-only GP, every proposal comes
from the strategy's transfer surrogate.  The very first evaluation —
when no target data exists and neither dynamic weights nor an LCM has
anything to fit — falls back to the equal-weight combination of the
source surrogates, matching the paper's experimental protocol
(Sec. VI-A).  :class:`TransferTuner` is the sequential tuner built with
it; assigning a :class:`StrategyProvider` to ``provider`` of a
:class:`~repro.fabric.tuner.FabricTuner` runs the same strategy with
evaluations in flight on worker processes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.acquisition import PredictFn
from ..core.feasibility import KnnFeasibility
from ..core.history import History, TaskData
from ..core.problem import TuningProblem
from ..core.tuner import Tuner, TunerOptions
from .base import TLAStrategy, equal_weight_model

__all__ = ["StrategyProvider", "TransferTuner"]


class StrategyProvider:
    """Model provider whose surrogate is a TLA strategy over source data.

    Parameters
    ----------
    strategy:
        A :class:`repro.tla.base.TLAStrategy` (one of the paper's
        Table I pool).
    sources:
        Source-task datasets, e.g. from
        :meth:`repro.crowd.api.CrowdClient.query_source_data`.
    """

    n_initial = 0  # transfer replaces the random initial design
    gp = None  # combined predictors have no fantasy-update path

    def __init__(self, strategy: TLAStrategy, sources: list[TaskData]) -> None:
        self.strategy = strategy
        self.sources = list(sources)
        self.name = strategy.name
        self.notify_proposal = strategy.notify_proposal
        self.notify_result = strategy.notify_result

    def prepare(self, rng: np.random.Generator) -> None:
        # every run starts from the sources again, so a reused tuner does
        # not inherit the previous run's cadence, credit or rng position;
        # only a strategy prepared from models alone has nothing to redo
        if self.sources or not self.strategy.prepared:
            self.strategy.prepare(self.sources, rng)

    def model(self, hist: History, rng: np.random.Generator) -> PredictFn | None:
        predict = self.strategy.model(hist.as_task_data(), rng)
        if predict is None:
            try:
                predict = equal_weight_model(self.strategy.source_gps)
            except ValueError:
                return None  # no source surrogate either: random search
        return predict

    def p_feasible(self, X_obs: np.ndarray, X_failed: np.ndarray):
        """P(feasible) learned from target history *and* the sources'
        recorded failures (the crowd database stores failed samples too;
        an OOM region observed on a source task warns the target run)."""
        fails = [X_failed] + [
            s.X_failed for s in self.sources if s.X_failed is not None
        ]
        fails = [f for f in fails if len(f)]
        if not fails:
            return None
        oks = [X_obs] + [s.X for s in self.sources]
        return KnnFeasibility(np.vstack(oks), np.vstack(fails)).predict_proba


class TransferTuner(Tuner):
    """Sequential tuner whose model provider is a :class:`StrategyProvider`.

    ``strategy`` and ``sources`` are the provider's; ``options`` and
    ``callbacks`` are :class:`~repro.core.tuner.Tuner`'s.  The strategy
    fits the target task's model, so what that model is — ``surrogate``,
    ``n_dense_max``, ``n_inducing``, ``refit_every``, ``kernel`` — is set
    on the strategy (``get_strategy(key, surrogate="sparse", ...)``);
    the ``options`` fields of the same names are read only by a tuner
    that fits its own GP and do nothing here.
    """

    def __init__(
        self,
        problem: TuningProblem,
        strategy: TLAStrategy,
        sources: list[TaskData],
        options: TunerOptions | None = None,
        callbacks=None,
    ) -> None:
        # a copy: the caller's options keep their own n_initial
        options = replace(options or TunerOptions(), n_initial=0)
        super().__init__(problem, options, callbacks)
        self.provider = StrategyProvider(strategy, sources)
