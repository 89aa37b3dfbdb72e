"""Transfer-learning strategy interface (system S7, paper Sec. V).

A :class:`TLAStrategy` turns *source-task datasets* (queried from the
crowd repository) plus the growing *target-task history* into a surrogate
``predict(X) -> (mean, std)`` that the shared acquisition search consumes.

The lifecycle, driven by :class:`repro.tla.tuner.StrategyProvider`:

1. :meth:`prepare` — once, with the source datasets: fits one GP per
   source (:func:`fit_source_gps`) and hands the fitted GPs to
   :meth:`TLAStrategy._adopt`, the hook a strategy with state of its own
   (a stack, pseudo samples, an ensemble's members) extends.
2. per iteration: :meth:`model` — build/refresh the transfer surrogate
   from current target data; the tuner then searches and evaluates.
3. :meth:`notify_proposal` / :meth:`notify_result` — hooks for stateful
   strategies (Multitask(PS) grows pseudo samples on proposals; the
   ensemble updates its per-algorithm best outputs on results); each
   result arrives with the point of its own proposal, in completion
   order.

When the target task has no data at all, every strategy falls back to the
equal-weight combination of the source surrogates — the paper's choice
for the first function evaluation (Sec. VI-A).

There is one pool path and one way to predict: every member — source
GPs fitted once in :meth:`prepare`, the per-iteration *target-side* models
a :class:`repro.core.fit.RefitCadence` keeps — is called through its own
``predict``, which already reuses everything its fit computed
(:mod:`repro.core.gp`).  ``refit_every`` is the refit cadence for the
target-side models, GP and LCM alike: between boundaries the
hyperparameters stay frozen and new target observations are absorbed
through rank-1 :meth:`GaussianProcess.update` appends.  The state machine
is the NoTLA tuner's (:mod:`repro.core.fit`); what is the strategies' own
is what a boundary carries over (:meth:`TLAStrategy._refresh_gp`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core import perf
from ..core.acquisition import PredictFn
from ..core.combine import combine_stacked, normalized_weights
from ..core.fit import RefitCadence, grow_gp
from ..core.gp import GaussianProcess, GPFitError
from ..core.history import TaskData
from ..core.kernels import kernel_from_name
from ..core.sparse import check_surrogate_policy, make_surrogate, resolve_surrogate_kind

__all__ = [
    "TLAStrategy",
    "fit_source_gps",
    "equal_weight_model",
    "combine_weighted",
]


def fit_source_gps(
    sources: list[TaskData],
    rng: np.random.Generator,
    *,
    kernel: str = "rbf",
    max_fun: int = 80,
    counter: str = "source",
) -> list[GaussianProcess]:
    """Pre-train one dense GP surrogate per source dataset, each from a
    seed drawn from ``rng``; ``counter`` names the perf counter
    (``tla_{counter}_fits``)."""
    gps = []
    for src in sources:
        if src.n == 0:
            raise ValueError(f"source dataset {src.label!r} is empty")
        seed = int(rng.integers(0, 2**31 - 1))
        gp = GaussianProcess(kernel_from_name(kernel, src.dim), max_fun=max_fun, seed=seed)
        gps.append(gp.fit(src.X, src.y))
        perf.incr(f"tla_{counter}_fits")
    return gps


def combine_weighted(models: list[PredictFn], weights: np.ndarray) -> PredictFn:
    """The paper's Eq. (1)-(2): weighted arithmetic mean of the means and
    weighted geometric mean of the standard deviations.

    Weights must be non-negative with a positive sum; they are
    normalized to sum 1 (a convex combination), so the combined surrogate
    lives on the same scale as its members.
    """
    weights = normalized_weights(weights, len(models))

    def predict(X: np.ndarray):
        perf.incr("tla_batched_predicts")
        means, stds = zip(*(m(X) for m in models))
        return combine_stacked(means, stds, weights)

    return predict


def equal_weight_model(source_gps: list[GaussianProcess]) -> PredictFn:
    """Equal-weight combination of the source surrogates only.

    Used for the very first target evaluation, when neither dynamic
    weights nor an LCM can be formed (paper Sec. VI-A note).
    """
    if not source_gps:
        raise ValueError("need at least one source surrogate")
    return combine_weighted([gp.predict for gp in source_gps], np.ones(len(source_gps)))


class TLAStrategy(ABC):
    """Base class for the TLA pool entries of the paper's Table I."""

    #: pool name, e.g. "Multitask (TS)"
    name: str = "abstract"
    #: provenance per Table I ("[11]", "[6]", "[12]", or "GPTuneCrowd")
    provenance: str = ""
    #: what fitting or growing the target-side model raises when its
    #: covariance cannot be factorized (the strategy then has no model)
    _fit_errors: type | tuple = GPFitError

    def __init__(
        self,
        *,
        kernel: str = "rbf",
        gp_max_fun: int = 80,
        refit_every: int = 1,
        surrogate: str = "auto",
        n_dense_max: int = 1000,
        n_inducing: int = 100,
    ) -> None:
        self.kernel = kernel
        self.gp_max_fun = gp_max_fun
        self.refit_every = max(int(refit_every), 1)
        #: target-side surrogate policy: ``"auto"`` keeps the dense GP
        #: (bit-identical) up to ``n_dense_max`` target observations and
        #: switches to the sparse inducing-point GP past it — target
        #: histories grown from a large crowd transfer can be huge even
        #: when each tuning run adds only tens of points
        self.surrogate = check_surrogate_policy(surrogate)
        self.n_dense_max = int(n_dense_max)
        self.n_inducing = int(n_inducing)
        self.sources: list[TaskData] = []
        self.source_gps: list[GaussianProcess] = []
        #: set once prepare()/prepare_from_models() has run; a provider
        #: without sources keeps a strategy prepared from models as it is
        self.prepared = False
        #: keeps the per-iteration target-side model (the multitask
        #: strategies keep their joint LCM here)
        self._target = RefitCadence(self.refit_every, self._fit_errors)

    # -- lifecycle -----------------------------------------------------------
    def prepare(self, sources: list[TaskData], rng: np.random.Generator) -> None:
        """One-time setup with the queried source datasets: fits each
        source once and hands the fitted GPs to :meth:`_adopt`."""
        if not sources:
            raise ValueError(f"{self.name}: transfer learning needs >= 1 source task")
        dims = {s.dim for s in sources}
        if len(dims) != 1:
            raise ValueError(f"{self.name}: source dims differ: {dims}")
        source_gps = fit_source_gps(sources, rng, kernel=self.kernel, max_fun=self.gp_max_fun)
        self._adopt(sources, source_gps, rng)

    def _adopt(
        self,
        sources: list[TaskData],
        source_gps: list[GaussianProcess],
        rng: np.random.Generator,
    ) -> None:
        """Take ``source_gps`` (one fitted GP per source, under this
        strategy's ``kernel`` and ``gp_max_fun``) as this strategy's and
        start from an empty target.  Subclasses extend it with their own
        setup, which may draw from ``rng``."""
        self.sources = list(sources)
        self.source_gps = list(source_gps)
        self._target.reset()
        self.prepared = True

    @abstractmethod
    def model(self, target: TaskData, rng: np.random.Generator) -> PredictFn | None:
        """Build the transfer surrogate for the current target data.

        Returns ``None`` if no model can be formed (the tuner then falls
        back to the equal-weight source combination, or random search if
        even that fails).
        """

    # -- optional hooks ----------------------------------------------------------
    def notify_proposal(self, x_unit: np.ndarray, rng: np.random.Generator) -> None:
        """Called with the unit-cube point chosen for evaluation."""

    def notify_result(self, x_unit: np.ndarray, y: float | None) -> None:
        """Called with the evaluation outcome (``None`` on failure)."""

    # -- shared by subclasses -------------------------------------------------
    def _refresh_gp(
        self, cadence: RefitCadence, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ):
        """The surrogate of ``(X, y)`` under ``cadence``; ``None`` without
        data or when the covariance cannot be factorized.

        A boundary fits a fresh surrogate from a seed drawn from ``rng``
        on every call, boundary or not, so the cadence never shifts the
        caller's random stream.  A history that diverged between
        boundaries refits the held surrogate at its hyperparameters.
        """
        if X.shape[0] == 0:
            return None
        seed = int(rng.integers(0, 2**31 - 1))
        kind = resolve_surrogate_kind(self.surrogate, X.shape[0], self.n_dense_max)

        def build(previous, optimize: bool):
            if not optimize:
                return previous
            gp = make_surrogate(
                kind,
                self.kernel,
                dim=X.shape[1],
                seed=seed,
                max_fun=self.gp_max_fun,
                n_inducing=self.n_inducing,
            )
            if self.refit_every > 1 and previous is not None and kind == "dense":
                # boundary refit under an amortized cadence: hyperparameters
                # move little between boundaries, so start the MLE at the
                # previous optimum and skip the random restarts
                gp.kernel.set_theta(previous.kernel.get_theta())
                gp.noise_variance = previous.noise_variance
                gp.n_restarts = 0
            return gp

        def grow(gp, X: np.ndarray, y: np.ndarray) -> bool:
            n_new = grow_gp(gp, X, y)
            if n_new:
                perf.incr("tla_incremental_refits")
            return n_new is not None

        return cadence.refresh((X, y), build=build, grow=grow, key=kind)

    def _target_gp(self, target: TaskData, rng: np.random.Generator):
        """The target-task GP, refreshed under the ``refit_every`` cadence."""
        return self._refresh_gp(self._target, target.X, target.y, rng)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"
