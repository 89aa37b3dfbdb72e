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

Fast-pool controls (all off by default, preserving bit-identical
behavior):

* ``store`` — a shared :class:`repro.tla.store.SourceModelStore`; source
  GPs for identical data are fitted once across strategies/repeats and
  frozen predictions are batched and memoized.
* ``refit_every`` — refit cadence for the per-iteration *target-side*
  GPs (the same knob the LCM members expose): between boundaries the
  hyperparameters stay frozen and new target observations are absorbed
  through rank-1 :meth:`GaussianProcess.update` appends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core import perf
from ..core.acquisition import PredictFn
from ..core.combine import normalized_weights
from ..core.gp import GaussianProcess, GPFitError
from ..core.history import TaskData
from ..core.kernels import kernel_from_name
from ..core.sparse import make_surrogate, resolve_surrogate_kind
from .store import SourceModelStore, frozen_view

__all__ = ["TLAStrategy", "fit_source_gps", "equal_weight_model", "combine_weighted"]


def fit_source_gps(
    sources: list[TaskData],
    rng: np.random.Generator,
    *,
    kernel: str = "rbf",
    max_fun: int = 80,
    store: SourceModelStore | None = None,
) -> list[GaussianProcess]:
    """Pre-train one GP surrogate per source dataset.

    With a ``store``, datasets already fitted (same content, kernel and
    ``max_fun``) reuse the cached GP instead of re-running the MLE.  The
    per-source seed is drawn from ``rng`` unconditionally so cache hits
    never shift the caller's random stream.
    """
    gps = []
    for src in sources:
        if src.n == 0:
            raise ValueError(f"source dataset {src.label!r} is empty")
        seed = int(rng.integers(0, 2**31 - 1))
        if store is not None:
            gp = store.fit_gp(src.X, src.y, seed, kernel=kernel, max_fun=max_fun)
        else:
            gp = GaussianProcess(
                kernel_from_name(kernel, src.dim), max_fun=max_fun, seed=seed
            )
            gp.fit(src.X, src.y)
            perf.incr("tla_source_fits")
        gps.append(gp)
    return gps


def combine_weighted(
    models: list[PredictFn],
    weights: np.ndarray,
    *,
    store: SourceModelStore | None = None,
) -> PredictFn:
    """The paper's Eq. (1)-(2): weighted arithmetic mean of the means and
    weighted geometric mean of the standard deviations.

    Weights must be non-negative with a positive sum; they are
    normalized to sum 1 (a convex combination), so the combined surrogate
    lives on the same scale as its members.

    With a ``store``, members that are frozen fitted GPs are served
    through their pre-extracted :class:`repro.tla.store.FrozenGP` fast
    path: the per-model cross-covariance against the candidate batch is
    computed in one vectorized pass over cached train-side quantities,
    and the Eq. (1)-(2) reduction is fused over the stacked per-model
    means/log-stds.  The fast path replays the plain per-model arithmetic
    exactly, so enabling it does not change results.
    """
    weights = normalized_weights(weights, len(models))

    entries: list = list(models)
    if store is not None:
        for i, m in enumerate(entries):
            gp = getattr(m, "__self__", None) or getattr(m, "__wrapped_gp__", None)
            if isinstance(gp, GaussianProcess):
                frozen = frozen_view(gp)
                if frozen is not None:
                    entries[i] = frozen.predict
        batched = True
    else:
        batched = False

    def predict(X: np.ndarray):
        if batched:
            perf.incr("tla_batched_predicts")
        mean = np.zeros(X.shape[0])
        log_std = np.zeros(X.shape[0])
        for w, m in zip(weights, entries):
            mu, sd = m(X)
            mean += w * mu
            log_std += w * np.log(np.maximum(sd, 1e-12))
        return mean, np.exp(log_std)

    return predict


def equal_weight_model(
    source_gps: list[GaussianProcess],
    *,
    store: SourceModelStore | None = None,
) -> PredictFn:
    """Equal-weight combination of the source surrogates only.

    Used for the very first target evaluation, when neither dynamic
    weights nor an LCM can be formed (paper Sec. VI-A note).
    """
    if not source_gps:
        raise ValueError("need at least one source surrogate")
    return combine_weighted(
        [gp.predict for gp in source_gps], np.ones(len(source_gps)), store=store
    )


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
        self._tgt_gp: GaussianProcess | None = None
        self._tgt_kind: str | None = None
        self._tgt_iter = 0

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
        self._tgt_gp = None
        self._tgt_iter = 0
        self.prepared = True

    def prepare_from_store(
        self,
        store: SourceModelStore,
        sources: list[TaskData],
        rng: np.random.Generator,
    ) -> None:
        """Prepare with source surrogates shared through ``store``.

        Sugar for attaching the store then calling :meth:`prepare`; pool
        sweeps use it to fit each source dataset exactly once across
        many strategies and repeats.
        """
        self.store = store
        self.prepare(sources, rng)

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

    # -- fallback shared by subclasses ----------------------------------------------
    def _source_predict_fns(self) -> list[PredictFn]:
        """One ``PredictFn`` per source GP, memoized through the store.

        Strategies that re-evaluate the frozen source surrogates at
        recurring points every iteration (``dynamic_weights`` over the
        growing target history) use these so only the new rows are
        computed.
        """
        if self.store is None:
            return [gp.predict for gp in self.source_gps]
        return [self.store.cached_predict_fn(gp) for gp in self.source_gps]

    def _target_gp(
        self, target: TaskData, rng: np.random.Generator
    ) -> GaussianProcess | None:
        """Fit (or incrementally refresh) the target-task GP.

        On ``refit_every`` boundaries the GP is refit from scratch with
        hyperparameter MLE — at the default cadence of 1 this happens
        every call, exactly the pre-store behavior.  Between boundaries
        the hyperparameters stay frozen: an unchanged history reuses the
        model outright, appended observations are absorbed through
        O(n^2) rank-1 :meth:`GaussianProcess.update` appends, and a
        diverged history falls back to a non-optimizing refit.

        The per-call seed is drawn from ``rng`` unconditionally so the
        cadence never shifts the caller's random stream.
        """
        if target.n == 0:
            return None
        seed = int(rng.integers(0, 2**31 - 1))
        kind = resolve_surrogate_kind(self.surrogate, target.n, self.n_dense_max)
        if self._tgt_gp is not None and kind != self._tgt_kind:
            self._tgt_gp = None  # history crossed n_dense_max: rebuild sparse
        refit = self._tgt_gp is None or (self._tgt_iter % self.refit_every == 0)
        self._tgt_iter += 1
        gp = self._tgt_gp
        if not refit and gp is not None and gp.fitted:
            n_new = gp.extends_training_data(target.X, target.y)
            if n_new == 0:
                return gp
            if n_new is not None:
                try:
                    gp.update(target.X[-n_new:], target.y[-n_new:])
                except GPFitError:
                    return None
                perf.incr("tla_incremental_refits")
                return gp
            # history diverged: refit without re-optimizing hyperparameters
            gp.optimize = False
            try:
                gp.fit(target.X, target.y)
            except GPFitError:
                return None
            finally:
                gp.optimize = True
            return gp
        prev = self._tgt_gp
        if kind == "dense":
            gp = GaussianProcess(
                kernel_from_name(self.kernel, target.dim),
                max_fun=self.gp_max_fun,
                seed=seed,
            )
        else:
            gp = make_surrogate(
                kind,
                self.kernel,
                seed=seed,
                max_fun=self.gp_max_fun,
                n_inducing=self.n_inducing,
            )
        if (
            self.refit_every > 1
            and prev is not None
            and prev.fitted
            and isinstance(gp, GaussianProcess)
            and isinstance(prev, GaussianProcess)
        ):
            # boundary refit under an amortized cadence: hyperparameters
            # move little between boundaries, so start the MLE at the
            # previous optimum and skip the random restarts
            gp.kernel.set_theta(prev.kernel.get_theta())
            gp.noise_variance = prev.noise_variance
            gp.n_restarts = 0
        try:
            gp.fit(target.X, target.y)
        except GPFitError:
            return None
        self._tgt_gp = gp
        self._tgt_kind = kind
        return gp

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"
