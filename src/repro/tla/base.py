"""Transfer-learning strategy interface (system S7, paper Sec. V).

A :class:`TLAStrategy` turns *source-task datasets* (queried from the
crowd repository) plus the growing *target-task history* into a surrogate
``predict(X) -> (mean, std)`` that the shared acquisition search consumes.

The lifecycle, driven by :class:`repro.tla.tuner.StrategyProvider`:

1. :meth:`prepare` — once, with the source datasets (pre-train source GPs).
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
GPs fitted once in :meth:`prepare`, the per-iteration *target-side* GPs a
:class:`RefitCadence` keeps — is called through its own ``predict``,
which already reuses everything its fit computed
(:mod:`repro.core.gp`).  The pool's two controls:

* ``store`` — a shared :class:`repro.tla.store.SourceModelStore`; it only
  decides where a fitted source GP comes from (:func:`fit_source_gps`):
  source GPs for identical data are fitted once across strategies and
  repeats.  ``None`` means "fit it yourself".
* ``refit_every`` — refit cadence for the target-side GPs (the same knob
  the LCM members expose): between boundaries the hyperparameters stay
  frozen and new target observations are absorbed through rank-1
  :meth:`GaussianProcess.update` appends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core import perf
from ..core.acquisition import PredictFn
from ..core.combine import combine_stacked, normalized_weights
from ..core.gp import GaussianProcess, GPFitError
from ..core.history import TaskData
from ..core.sparse import make_surrogate, resolve_surrogate_kind
from .store import SourceModelStore, fit_gp

__all__ = [
    "TLAStrategy",
    "RefitCadence",
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
    store: SourceModelStore | None = None,
    counter: str = "source",
) -> list[GaussianProcess]:
    """Pre-train one GP surrogate per source dataset.

    The one place a ``store`` is consulted: with one, datasets already
    fitted (same content, kernel and ``max_fun``) reuse the cached GP
    instead of re-running the MLE.  The per-source seed is drawn from
    ``rng`` unconditionally so cache hits never shift the caller's
    random stream.  ``counter`` names the perf counters
    (``tla_{counter}_fits`` / ``tla_{counter}_cache_hits``).
    """
    fit = fit_gp if store is None else store.fit_gp
    gps = []
    for src in sources:
        if src.n == 0:
            raise ValueError(f"source dataset {src.label!r} is empty")
        seed = int(rng.integers(0, 2**31 - 1))
        gps.append(fit(src.X, src.y, seed, kernel=kernel, max_fun=max_fun, counter=counter))
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


class RefitCadence:
    """One per-iteration target-side GP under its owner's ``refit_every``.

    Every :meth:`refresh` returns a surrogate of the data it is given.
    On ``refit_every`` boundaries the GP is refit from scratch with
    hyperparameter MLE — at the default cadence of 1 that is every
    call.  Between boundaries the hyperparameters stay frozen: an
    unchanged history reuses the model outright, appended observations
    are absorbed through O(n^2) rank-1 :meth:`GaussianProcess.update`
    appends, and a diverged history falls back to a non-optimizing
    refit.  The kernel, ``gp_max_fun``, ``refit_every`` and the
    surrogate policy are read off the owning strategy.
    """

    def __init__(self, owner: "TLAStrategy") -> None:
        self._owner = owner
        self.reset()

    def reset(self) -> None:
        """Forget the model: the next :meth:`refresh` is a boundary fit."""
        self.gp = None
        self._kind: str | None = None
        self._calls = 0

    def refresh(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        """The surrogate of ``(X, y)``; ``None`` without data or when the
        covariance cannot be factorized.

        The per-call seed is drawn from ``rng`` unconditionally so the
        cadence never shifts the caller's random stream.
        """
        if X.shape[0] == 0:
            return None
        own = self._owner
        seed = int(rng.integers(0, 2**31 - 1))
        kind = resolve_surrogate_kind(own.surrogate, X.shape[0], own.n_dense_max)
        if kind != self._kind:
            self.gp = None  # history crossed n_dense_max: rebuild as the new kind
        prev = self.gp
        refit = prev is None or self._calls % own.refit_every == 0
        self._calls += 1
        try:
            if not refit:
                n_new = prev.extends_training_data(X, y)
                if n_new is None:
                    # history diverged: refit without re-optimizing hyperparameters
                    prev.optimize = False
                    try:
                        prev.fit(X, y)
                    finally:
                        prev.optimize = True
                elif n_new:
                    prev.update(X[-n_new:], y[-n_new:])
                    perf.incr("tla_incremental_refits")
                return prev
            gp = make_surrogate(
                kind,
                own.kernel,
                dim=X.shape[1],
                seed=seed,
                max_fun=own.gp_max_fun,
                n_inducing=own.n_inducing,
            )
            if own.refit_every > 1 and prev is not None and kind == "dense":
                # boundary refit under an amortized cadence: hyperparameters
                # move little between boundaries, so start the MLE at the
                # previous optimum and skip the random restarts
                gp.kernel.set_theta(prev.kernel.get_theta())
                gp.noise_variance = prev.noise_variance
                gp.n_restarts = 0
            gp.fit(X, y)
        except GPFitError:
            return None
        self.gp, self._kind = gp, kind
        return gp


class TLAStrategy(ABC):
    """Base class for the TLA pool entries of the paper's Table I."""

    #: pool name, e.g. "Multitask (TS)"
    name: str = "abstract"
    #: provenance per Table I ("[11]", "[6]", "[12]", or "GPTuneCrowd")
    provenance: str = ""

    def __init__(
        self,
        *,
        kernel: str = "rbf",
        gp_max_fun: int = 80,
        refit_every: int = 1,
        store: SourceModelStore | None = None,
        surrogate: str = "auto",
        n_dense_max: int = 1000,
        n_inducing: int = 100,
    ) -> None:
        self.kernel = kernel
        self.gp_max_fun = gp_max_fun
        self.refit_every = max(int(refit_every), 1)
        self.store = store
        #: target-side surrogate policy: ``"auto"`` keeps the dense GP
        #: (bit-identical) up to ``n_dense_max`` target observations and
        #: switches to the sparse inducing-point GP past it — target
        #: histories grown from a large crowd transfer can be huge even
        #: when each tuning run adds only tens of points
        self.surrogate = surrogate
        self.n_dense_max = int(n_dense_max)
        self.n_inducing = int(n_inducing)
        self.sources: list[TaskData] = []
        self.source_gps: list[GaussianProcess] = []
        #: set once prepare()/prepare_from_models() has run; the provider
        #: skips re-preparation for already-prepared strategies
        self.prepared = False
        self._target = RefitCadence(self)

    # -- lifecycle -----------------------------------------------------------
    def prepare(self, sources: list[TaskData], rng: np.random.Generator) -> None:
        """One-time setup with the queried source datasets."""
        if not sources:
            raise ValueError(f"{self.name}: transfer learning needs >= 1 source task")
        dims = {s.dim for s in sources}
        if len(dims) != 1:
            raise ValueError(f"{self.name}: source dims differ: {dims}")
        self.sources = list(sources)
        self.source_gps = fit_source_gps(
            sources, rng, kernel=self.kernel, max_fun=self.gp_max_fun, store=self.store
        )
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
    def _target_gp(self, target: TaskData, rng: np.random.Generator):
        """The target-task GP, refreshed under the ``refit_every`` cadence."""
        return self._target.refresh(target.X, target.y, rng)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"
