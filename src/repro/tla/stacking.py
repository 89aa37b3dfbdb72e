"""Stacking TLA — Google Vizier's residual-model transfer [12] (Sec. V-D).

Sources are ordered by sample count (largest first, the paper's choice).
A GP is fit to the first source; each subsequent source gets a GP on the
*residuals* between its observations and the running stack's mean; the
target task contributes a final residual GP refit at every iteration.

    mu(x) = mu'_target(x) + sum_i mu'_src_i(x)

The standard deviation combines iteratively through sample-count-weighted
geometric means:

    sigma_i(x) = sigma'_i(x)^beta_i * sigma_{i-1}(x)^{1-beta_i},
    beta_i = n_i / (n_i + n_{i-1})

ending with ``beta = n_target / (n_target + n_src_last)`` for the target.

The source stack never changes after :meth:`prepare`: its GPs are
predicted each once per call (:meth:`Stacking._stack_predict`), and old
rows' residuals are stable:
with ``refit_every > 1`` the per-iteration target residual GP — a second
:class:`repro.core.fit.RefitCadence` beside the base class's — freezes
its hyperparameters between boundaries and absorbs appended observations
through rank-1 updates.  The stack is fitted through
:func:`repro.tla.base.fit_source_gps` under the ``tla_stack_fits``
counter; its first entry (the raw largest source) is fitted from the
stack's own seed, not taken from the source GPs.
"""

from __future__ import annotations

import numpy as np

from ..core import perf
from ..core.acquisition import PredictFn
from ..core.fit import RefitCadence
from ..core.gp import GaussianProcess
from ..core.history import TaskData
from .base import TLAStrategy, equal_weight_model, fit_source_gps

__all__ = ["Stacking"]


class Stacking(TLAStrategy):
    """Vizier-style stacked residual surrogates."""

    name = "Stacking"
    provenance = "[12]"

    #: stacking orders: "samples" (paper: largest source first),
    #: "given" (query order), "reverse" (smallest first; ablation)
    ORDERS = ("samples", "given", "reverse")

    def __init__(self, order: str = "samples", **kwargs) -> None:
        super().__init__(**kwargs)
        if order not in self.ORDERS:
            raise ValueError(f"order must be one of {self.ORDERS}, got {order!r}")
        self.order = order
        self._stack: list[GaussianProcess] = []
        self._stack_ns: list[int] = []
        self._residual = RefitCadence(self.refit_every, self._fit_errors)

    # -- source stack (built once) ----------------------------------------
    def _adopt(self, sources: list[TaskData], source_gps, rng: np.random.Generator) -> None:
        super()._adopt(sources, source_gps, rng)
        if self.order == "samples":
            ordered = sorted(sources, key=lambda s: s.n, reverse=True)
        elif self.order == "reverse":
            ordered = sorted(sources, key=lambda s: s.n)
        else:
            ordered = list(sources)
        self._stack = []
        self._stack_ns = []
        self._residual.reset()
        for src in ordered:
            if self._stack:
                src = TaskData(src.task, src.X, src.y - self._stack_mean(src.X), src.label)
            self._stack += fit_source_gps(
                [src], rng, kernel=self.kernel, max_fun=self.gp_max_fun, counter="stack"
            )
            self._stack_ns.append(src.n)

    def _stack_predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The source stack at ``X``: the sum of its means and the
        iterative sample-weighted geometric mean of its stds."""
        preds = [gp.predict(X) for gp in self._stack]
        mean = np.zeros(X.shape[0])
        for mu_i, _ in preds:
            mean += mu_i
        running = np.maximum(preds[0][1], 1e-12)
        for (_, s_i), n_i, n_prev in zip(
            preds[1:], self._stack_ns[1:], self._stack_ns[:-1]
        ):
            beta = n_i / (n_i + n_prev)
            running = np.maximum(s_i, 1e-12) ** beta * running ** (1.0 - beta)
        return mean, running

    def _stack_mean(self, X: np.ndarray) -> np.ndarray:
        return self._stack_predict(X)[0]

    # -- per-iteration target residual ------------------------------------
    def model(self, target: TaskData, rng: np.random.Generator) -> PredictFn | None:
        if target.n == 0:
            return equal_weight_model(self.source_gps)
        residual = target.y - self._stack_mean(target.X)
        tgt = self._refresh_gp(self._residual, target.X, residual, rng)
        if tgt is None:
            return None
        n_t, n_last = target.n, self._stack_ns[-1]
        beta = n_t / (n_t + n_last)

        def predict(X: np.ndarray):
            perf.incr("tla_batched_predicts")
            mu_t, sd_t = tgt.predict(X)
            mean, std = self._stack_predict(X)
            return mu_t + mean, np.maximum(sd_t, 1e-12) ** beta * std ** (1.0 - beta)

        return predict
