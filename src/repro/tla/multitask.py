"""LCM-based multitask TLA: Multitask(PS) [11] and Multitask(TS) (Sec. V-A).

Both variants model source and target tasks jointly with the Linear
Coregionalization Model of :mod:`repro.core.lcm`; they differ in what
stands in for the source tasks' knowledge:

* **Multitask(PS)** — "pseudo samples": only the *pre-trained source
  surrogate models* are available (GPTune's 2021 history-database mode).
  The source GP means act as black-box functions; at every iteration the
  strategy appends one pseudo sample per source at the point chosen for
  the target, and the LCM is fit on pseudo + true-target samples.
* **Multitask(TS)** — "true samples": GPTuneCrowd's improvement.  The
  shared database gives access to all collected source observations, so
  the LCM is fit directly on the full unequal-sized datasets (sources
  full, target growing from zero).  The evaluation (paper Fig. 3)
  shows TS dominating PS, which our benchmarks reproduce.

The joint LCM is refit under the same ``refit_every`` state machine as
every other surrogate (:class:`repro.core.fit.RefitCadence`).

``max_source_samples`` bounds LCM cost on huge source datasets (e.g.
NIMROD's 500 samples): a uniform subsample that always keeps the source
optimum.  Set to ``None`` to use everything, as the paper does.
"""

from __future__ import annotations

import numpy as np

from ..core import perf
from ..core.acquisition import PredictFn
from ..core.history import TaskData
from ..core.lcm import LCM, LCMFitError
from .base import TLAStrategy, equal_weight_model

__all__ = ["MultitaskPS", "MultitaskTS"]


class _MultitaskBase(TLAStrategy):
    """Shared LCM plumbing: warm-started refits, target-task prediction.

    The joint LCM is kept by the base class's
    :class:`~repro.core.fit.RefitCadence`: every fit — boundary or not —
    is a fresh ``LCM`` started at the previous one's theta, and between
    ``refit_every`` boundaries a step that only *appends* observations
    (the target's new sample; PS's pseudo samples) skips the O(n^3)
    refactorization entirely: the held LCM grows its joint Cholesky
    incrementally (:meth:`LCM.update_many`).
    """

    _fit_errors = (LCMFitError, ValueError)

    def __init__(
        self,
        *,
        n_latent: int = 1,
        lcm_max_fun: int = 50,
        max_source_samples: int | None = 150,
        lcm_n_restarts: int = 0,
        lcm_n_jobs: int | None = None,
        **kwargs,
    ) -> None:
        # ``refit_every`` is the base-class knob (shared with the GP-only
        # strategies' target refits); here it gates the LCM MLE cadence
        super().__init__(**kwargs)
        self.n_latent = n_latent
        self.lcm_max_fun = lcm_max_fun
        self.max_source_samples = max_source_samples
        self.lcm_n_restarts = int(lcm_n_restarts)
        self.lcm_n_jobs = lcm_n_jobs

    def _fit_lcm(
        self,
        source_sets: list[tuple[np.ndarray, np.ndarray]],
        target: TaskData,
        rng: np.random.Generator,
    ) -> PredictFn | None:
        n_tasks = len(source_sets) + 1
        target_index = n_tasks - 1
        dim = target.dim if target.n else source_sets[0][0].shape[1]
        seed = int(rng.integers(0, 2**31 - 1))
        datasets = source_sets + [(target.X, target.y)]

        def build(previous: LCM | None, optimize: bool) -> LCM:
            lcm = LCM(
                n_tasks,
                dim,
                n_latent=self.n_latent,
                max_fun=self.lcm_max_fun,
                n_restarts=self.lcm_n_restarts,
                n_jobs=self.lcm_n_jobs,
                seed=seed,
            )
            if previous is not None:
                lcm.warm_start_from(previous)
            return lcm

        def grow(lcm: LCM, datasets) -> bool:
            appends = lcm.extends_fitted(datasets)
            if appends is None:
                return False
            try:
                lcm.update_many(appends)
            except (LCMFitError, ValueError):
                return False  # refit in full, hyperparameters kept
            perf.incr("tla_incremental_refits")
            return True

        lcm = self._target.refresh((datasets,), build=build, grow=grow)
        return None if lcm is None else (lambda X: lcm.predict(target_index, X))


class MultitaskPS(_MultitaskBase):
    """Multitask learning on pseudo samples from source surrogates [11]."""

    name = "Multitask (PS)"
    provenance = "[11]"

    def __init__(self, *, n_pseudo_init: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        self.n_pseudo_init = n_pseudo_init
        self._pseudo: list[tuple[list[np.ndarray], list[float]]] = []

    def _adopt(self, sources: list[TaskData], source_gps, rng: np.random.Generator) -> None:
        super()._adopt(sources, source_gps, rng)
        self._seed_pseudo(sources[0].dim, rng)

    def prepare_from_models(
        self, models, dim: int, rng: np.random.Generator
    ) -> None:
        """Prepare from pre-trained surrogate models alone (no raw data).

        This is the pure history-database mode of [11]: the crowd
        repository ships only black-box surrogate models, never the
        samples — e.g. :meth:`repro.crowd.api.CrowdClient.query_surrogate_model`
        per source task (the registry's model first, a local fit else).
        """
        if not models:
            raise ValueError("need at least one pre-trained source model")
        super()._adopt([], models, rng)
        self._seed_pseudo(dim, rng)

    def _seed_pseudo(self, dim: int, rng: np.random.Generator) -> None:
        # Seed each source with a few pseudo samples so the first LCM fit
        # has something to coregionalize; all values come from the source
        # GP mean — never from the raw source data, per the PS contract.
        self._pseudo = []
        for gp in self.source_gps:
            X0 = rng.random((self.n_pseudo_init, dim))
            y0 = gp.predict_mean(X0)
            self._pseudo.append(([x for x in X0], [float(v) for v in y0]))

    def notify_proposal(self, x_unit: np.ndarray, rng: np.random.Generator) -> None:
        # "The LCM model is used to predict the next sample for all the
        # source and target tasks": append the source-GP mean at the newly
        # proposed point as a pseudo sample for every source task.
        for gp, (xs, ys) in zip(self.source_gps, self._pseudo):
            xs.append(np.asarray(x_unit, dtype=float))
            ys.append(float(gp.predict_mean(x_unit[None, :])[0]))

    def model(self, target: TaskData, rng: np.random.Generator) -> PredictFn | None:
        if target.n == 0:
            return equal_weight_model(self.source_gps)
        source_sets = [
            (np.vstack(xs), np.asarray(ys, dtype=float)) for xs, ys in self._pseudo
        ]
        return self._fit_lcm(source_sets, target, rng)


class MultitaskTS(_MultitaskBase):
    """Multitask learning on the sources' true samples (GPTuneCrowd)."""

    name = "Multitask (TS)"
    provenance = "GPTuneCrowd"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._source_sets: list[tuple[np.ndarray, np.ndarray]] = []

    def _adopt(self, sources: list[TaskData], source_gps, rng: np.random.Generator) -> None:
        super()._adopt(sources, source_gps, rng)
        trimmed = sources
        if self.max_source_samples is not None:
            trimmed = [s.subsample(self.max_source_samples, rng) for s in sources]
        self._source_sets = [(s.X, s.y) for s in trimmed]

    def model(self, target: TaskData, rng: np.random.Generator) -> PredictFn | None:
        # Unlike PS, a zero-sample target is fine: the LCM supports
        # unequal (including empty) per-task datasets (Sec. V-A2).
        return self._fit_lcm(self._source_sets, target, rng)
