"""The Bayesian-optimization tuning loop (system S5).

There is one loop, :meth:`Tuner.tune`: keep the *executor* full with
proposals, fold every terminal outcome into the history in completion
order, repeat until the budget is spent.  What varies is composed in:

* a **model provider** (``tuner.provider``) turns the history into a
  surrogate ``predict`` and a learned ``p_feasible``, and hears about
  every proposal and the result of that proposal.  :class:`GPProvider`
  is the paper's ``NoTLA`` baseline — an initial random design, then a
  target-only GP refreshed after every evaluation under the
  ``refit_every`` cadence of :mod:`repro.core.fit`;
  :class:`repro.tla.tuner.StrategyProvider` wraps any TLA strategy.
* an **executor** runs the evaluations: a context manager with
  ``submit(config) -> job_id`` (ids count up from 0),
  ``get(timeout) -> EvalOutcome`` (terminal outcomes only — re-dispatch
  happens inside; ``queue.Empty`` on timeout), ``inflight`` (submitted,
  not yet collected) and ``n_workers`` (which bound the proposals kept
  in flight) and ``step`` (the name of the loop's per-step timer).
  There are two: :class:`InlineExecutor` evaluates in the calling
  thread and is the sequential reference; the process
  :class:`~repro.fabric.coordinator.FabricCoordinator` is the one
  parallel executor — leases, re-dispatch bounded by
  ``max_redispatch``, a durable queue, utilization gauges.

:class:`Tuner`, :class:`~repro.tla.tuner.TransferTuner` and
:class:`~repro.fabric.tuner.FabricTuner` name the common pairs; any
other pair is one assignment to ``tuner.provider`` away.
"""

from __future__ import annotations

import itertools
import queue
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from . import perf, sparse
from .acquisition import Acquisition, ExpectedImprovement, PredictFn
from .feasibility import KnnFeasibility
from .fit import RefitCadence, grow_gp
from .gp import GPFitError, Surrogate
from .history import History
from .optimizer import SearchOptions, propose_batch
from .problem import Evaluation, TuningProblem
from .samplers import Sampler, get_sampler
from .space import Space
from .sparse import check_surrogate_policy, make_surrogate, resolve_surrogate_kind

__all__ = [
    "EvalOutcome",
    "GPProvider",
    "InlineExecutor",
    "Tuner",
    "TunerOptions",
    "TuningResult",
]

EvaluationCallback = Callable[[Evaluation], None]


@dataclass
class TunerOptions:
    """Controls for the BO loop.

    ``n_initial`` random evaluations seed the surrogate (the paper's
    typical setting starts BO after a random phase, Sec. VI-B);
    ``refit_every`` re-runs hyperparameter MLE only every k-th iteration
    (data is always refreshed), amortizing optimization cost on large
    histories; on the in-between iterations the new observations are
    appended to the GP's cached Cholesky factor in O(n^2) instead of
    refactorizing from scratch (:class:`repro.core.fit.RefitCadence`).
    """

    n_initial: int = 2
    sampler: str = "random"
    kernel: str = "rbf"
    acquisition: Acquisition = field(default_factory=ExpectedImprovement)
    refit_every: int = 1
    gp_max_fun: int = 80
    gp_restarts: int = 1
    #: surrogate policy: ``"auto"`` keeps the exact dense GP (bit-identical
    #: to the historical loop) up to :data:`repro.core.sparse.N_DENSE_MAX`
    #: observations and switches to the O(nm^2) sparse inducing-point GP
    #: past it; ``"dense"`` / ``"sparse"`` force one kind.  The mixed-space
    #: kernel is dense only, so it refuses ``"sparse"``
    surrogate: str = "auto"
    #: learn P(feasible) from observed failures and steer the acquisition
    #: away from them (ablation: bench_ablation_failures.py)
    learn_feasibility: bool = True
    search: SearchOptions = field(default_factory=SearchOptions)

    def __post_init__(self) -> None:
        if check_surrogate_policy(self.surrogate) == "sparse" and self.kernel == "mixed":
            raise ValueError("the mixed-space kernel has no sparse surrogate")

    @property
    def n_dense_max(self) -> int:
        """:data:`repro.core.sparse.N_DENSE_MAX` for its one reader,
        ``benchmarks/e2e/workloads.py``; read-only, not an option."""
        return sparse.N_DENSE_MAX

    def make_sampler(self) -> Sampler:
        return get_sampler(self.sampler)


@dataclass
class TuningResult:
    """Outcome of one tuning run."""

    problem_name: str
    tuner_name: str
    task: dict[str, Any]
    history: History
    seed: int | None = None
    #: perf-counter/timer snapshot of this run (see :mod:`repro.core.perf`)
    perf: dict[str, Any] | None = None

    @property
    def best_config(self) -> dict[str, Any]:
        return self.history.best().config

    @property
    def best_output(self) -> float:
        return self.history.best_output()

    @property
    def n_evaluations(self) -> int:
        return len(self.history)

    def best_so_far(self) -> list[float]:
        return self.history.best_so_far()

    def summary(self) -> dict[str, Any]:
        out = {
            "problem": self.problem_name,
            "tuner": self.tuner_name,
            "task": dict(self.task),
            "n_evaluations": self.n_evaluations,
            "n_failures": self.history.n_failures,
            "best_output": self.best_output if self.history.n_successes else None,
            "best_config": self.best_config if self.history.n_successes else None,
        }
        if self.perf is not None:
            out["perf"] = self.perf
        return out


@dataclass
class EvalOutcome:
    """What an executor reports for one job's last attempt."""

    job_id: int
    config: dict[str, Any]
    attempt: int
    #: the completed evaluation; ``None`` when the job was lost
    evaluation: Evaluation | None
    #: ``None`` on success, else ``"lease-exhausted"`` / ``"error: ..."``
    error: str | None = None
    worker_id: int | None = None
    #: simulated execution latency (seconds) of this attempt
    latency_s: float = 0.0
    #: executor bookkeeping merged into the evaluation's metadata
    metadata: dict[str, Any] = field(default_factory=dict)
    #: times the fabric re-leased the job after losing it
    redispatches: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


class InlineExecutor:
    """Evaluates in the calling thread: ``submit`` runs the objective and
    queues its outcome for ``get``, so one loop step is one whole BO
    iteration (propose, then evaluate)."""

    n_workers = 1
    step = "iteration"

    def __init__(self, evaluate: Callable[[dict[str, Any]], Evaluation]) -> None:
        self._evaluate = evaluate
        self._done: queue.SimpleQueue[EvalOutcome] = queue.SimpleQueue()
        self._job_ids = itertools.count()

    def __enter__(self) -> "InlineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        pass

    @property
    def inflight(self) -> int:
        return self._done.qsize()

    def submit(self, config: dict[str, Any]) -> int:
        job_id = next(self._job_ids)
        with perf.timer("evaluate"):
            evaluation = self._evaluate(config)
        self._done.put(EvalOutcome(job_id, config, 0, evaluation))
        return job_id

    def get(self, timeout: float | None = None) -> EvalOutcome:
        return self._done.get_nowait()


class GPProvider:
    """Model provider of the ``NoTLA`` baseline: a target-only GP.

    The surface the loop relies on: ``name``, ``n_initial`` (random
    evaluations before the model takes over), ``gp`` (the surrogate
    batch proposal may fantasize on, or ``None``) and the methods below.
    """

    name = "NoTLA"

    def __init__(self, space: Space, options: TunerOptions) -> None:
        self.space = space
        self.options = options
        self.prepare(None)

    @property
    def n_initial(self) -> int:
        return self.options.n_initial

    def prepare(self, rng: np.random.Generator | None) -> None:
        """One-time setup before the loop: forget the previous run's model."""
        self._cadence = RefitCadence(self.options.refit_every, GPFitError)
        #: the one surrogate made for ``kind`` — also while no fit of it
        #: has succeeded yet, so a retry neither reseeds nor restarts it
        self.gp: Surrogate | None = None
        self.kind: str | None = None

    def notify_proposal(self, x_unit: np.ndarray, rng: np.random.Generator) -> None:
        """Called with every unit-cube point chosen for evaluation."""

    def notify_result(self, x_unit: np.ndarray, y: float | None) -> None:
        """Called with that point's outcome (``None`` on failure)."""

    def _resolve_kind(self, n: int) -> str:
        """The concrete surrogate kind for an ``n``-observation history.

        Pure function of the options and ``n`` — it consumes no random
        draws, so below ``N_DENSE_MAX`` the loop's rng stream (and hence
        its proposals) is bit-identical to the pre-policy tuner.  The
        mixed-space kernel stays dense under ``"auto"``: the sparse kind
        covers the continuous kernel family only.
        """
        if self.options.kernel == "mixed":
            return "dense"
        return resolve_surrogate_kind(self.options.surrogate, n)

    def p_feasible(self, X_obs: np.ndarray, X_failed: np.ndarray):
        """A learned P(feasible) when failures have been observed."""
        if X_failed.shape[0] == 0:
            return None
        return KnnFeasibility(X_obs, X_failed).predict_proba

    def model(self, hist: History, rng: np.random.Generator) -> PredictFn | None:
        """Fit (or refresh) the surrogate; returns its predict function.

        On ``refit_every`` boundaries the surrogate is refit with
        hyperparameter MLE — the same object every time, so its kernel
        starts the search at the previous optimum and its rng continues
        the restart stream.  In between, a history that has only grown is
        appended to the cached factorization in O(n^2) per point (and an
        iteration with no new successes reuses the model outright).
        """
        X, y = hist.arrays()
        if X.shape[0] == 0:
            return None
        opts = self.options
        kind = self._resolve_kind(X.shape[0])

        def build(previous: Surrogate | None, optimize: bool) -> Surrogate:
            if kind == self.kind:
                return self.gp
            kernel = opts.kernel
            if kernel == "mixed":
                from .mixed import mixed_kernel_for_space

                kernel = mixed_kernel_for_space(self.space)
            self.kind, self.gp = kind, make_surrogate(
                kind,
                kernel,
                dim=X.shape[1],
                seed=int(rng.integers(0, 2**31 - 1)),
                max_fun=opts.gp_max_fun,
                n_restarts=opts.gp_restarts,
            )
            return self.gp

        def grow(gp: Surrogate, X: np.ndarray, y: np.ndarray) -> bool:
            n_new = grow_gp(gp, X, y)
            if n_new == 0:
                perf.incr("gp_model_reuses")  # e.g. the evaluation failed
            return n_new is not None

        gp = self._cadence.refresh((X, y), build=build, grow=grow, key=kind)
        return None if gp is None else gp.predict


class Tuner:
    """Bayesian-optimization autotuner: the one loop (``NoTLA`` as built).

    Parameters
    ----------
    problem:
        The tuning problem to minimize.
    options:
        Loop controls; defaults are sensible for the paper's budgets
        (10-20 evaluations).
    callbacks:
        Called with every :class:`Evaluation` (success or failure) in
        completion order from the loop's thread; the crowd layer uses
        this to stream records to the shared repository when
        ``sync_crowd_repo`` is on.
    """

    #: prepended to the provider's name in :attr:`name`
    prefix = ""
    #: max proposals per refill round and the fantasy lie for in-flight ones
    batch, lie = 1, "cl-min"

    def __init__(
        self,
        problem: TuningProblem,
        options: TunerOptions | None = None,
        callbacks: list[EvaluationCallback] | None = None,
    ) -> None:
        self.problem = problem
        self.options = options or TunerOptions()
        self.callbacks = list(callbacks or [])
        self.provider = GPProvider(problem.parameter_space, self.options)

    @property
    def name(self) -> str:
        return self.prefix + self.provider.name

    # the plain-GP provider's state, read after a run by tests and benchmarks
    _gp = property(lambda self: self.provider.gp)
    _surrogate_kind = property(lambda self: self.provider.kind)

    def _model(self, hist: History, rng: np.random.Generator) -> PredictFn | None:
        """The provider's surrogate for ``hist`` (tests patch this)."""
        return self.provider.model(hist, rng)

    def _executor(self, evaluate, seed: int | None):
        """The executor of one run; ``evaluate(config) -> Evaluation``."""
        return InlineExecutor(evaluate)

    def _seed_history(self, task: Mapping[str, Any]) -> History:
        """The history a run without a continuation starts from."""
        return History(task, self.problem.parameter_space)

    # -- main loop -------------------------------------------------------
    def tune(
        self,
        task: Mapping[str, Any],
        n_samples: int,
        *,
        seed: int | None = None,
        history: History | None = None,
    ) -> TuningResult:
        """Run ``n_samples`` function evaluations on ``task``.

        Every terminal outcome (success, objective failure, or a job
        the executor lost for good) consumes one sample; re-dispatches
        of the same job do not.  An existing ``history`` may be passed
        to continue a previous run (its evaluations count toward the
        surrogate but not the budget).
        """
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        self.problem.input_space.validate(task)
        rng = np.random.default_rng(seed)
        space = self.problem.parameter_space
        feasible = lambda cfg: self.problem.feasible(task, cfg)
        executor = self._executor(lambda cfg: self.problem.evaluate(task, cfg), seed)
        pending: dict[int, dict[str, Any]] = {}  # job_id -> config
        completed = 0
        with perf.collect() as stats, executor:
            # inside the collect window so preparation work (e.g. TLA
            # source-surrogate fits) shows up in .perf
            with perf.timer("prepare"):
                hist = history if history is not None else self._seed_history(task)
                self.provider.prepare(rng)

            while completed < n_samples:
                # keep the executor full
                while completed + len(pending) < n_samples:
                    free = max(executor.n_workers, 1) - executor.inflight
                    if free < 1:
                        break
                    k = min(self.batch, free, n_samples - completed - len(pending))
                    with perf.timer(executor.step):
                        in_flight = list(pending.values())
                        for cfg in self._propose(hist, rng, k, in_flight, feasible):
                            pending[executor.submit(cfg)] = cfg
                try:
                    outcome = executor.get(timeout=120.0)
                except queue.Empty:  # pragma: no cover - watchdog
                    raise RuntimeError(
                        f"{type(executor).__name__} stalled: {len(pending)} "
                        f"evaluations pending, {completed}/{n_samples} completed, "
                        f"{executor.n_workers} workers live"
                    )
                config = pending.pop(outcome.job_id, outcome.config)
                evaluation = outcome.evaluation
                if evaluation is None:
                    # the executor gave the job up (re-dispatches
                    # exhausted, or the objective raised): a crowd-style
                    # failure record — consumes budget, feeds feasibility
                    failure = {"failure": outcome.error or "unknown"}
                    evaluation = Evaluation(dict(task), dict(config), None, failure)
                evaluation.metadata.update(outcome.metadata)
                hist.append(evaluation)
                completed += 1
                for cb in self.callbacks:
                    cb(evaluation)
                self.provider.notify_result(
                    space.to_unit(config),
                    None if evaluation.failed else float(evaluation.output),
                )
        return TuningResult(
            problem_name=self.problem.name,
            tuner_name=self.name,
            task=dict(task),
            history=hist,
            seed=seed,
            perf=stats.snapshot(),
        )

    # -- proposal ----------------------------------------------------------
    def _propose(
        self,
        hist: History,
        rng: np.random.Generator,
        k: int,
        pending: list[dict[str, Any]],
        feasible: Callable[[dict[str, Any]], bool],
    ) -> list[dict[str, Any]]:
        """``k`` fresh configurations, fantasy-conditioned on ``pending``."""
        space = self.problem.parameter_space
        provider = self.provider
        evaluated = hist.configs() + pending
        predict = None
        if hist.n_successes >= provider.n_initial:
            with perf.timer("surrogate"):
                predict = self._model(hist, rng)
        if predict is None:  # initial design, or modeling failed: random search
            sampler = self.options.make_sampler()
            configs: list[dict[str, Any]] = []
            for _ in range(k):
                configs.append(self._sample(sampler, evaluated + configs, feasible, rng))
        else:
            X_obs, y_obs = hist.arrays()
            X_failed = hist.failed_array()
            learn = self.options.learn_feasibility
            # exact fantasies only on the provider's own surrogate
            own = getattr(predict, "__self__", None) is provider.gp
            with perf.timer("search"):
                configs = propose_batch(
                    predict, space, self.options.acquisition, rng, q=k,
                    gp=provider.gp if own else None, X_obs=X_obs, y_obs=y_obs,
                    X_pending=space.to_unit_array(pending) if pending else None,
                    evaluated=evaluated, X_failed=X_failed,
                    p_feasible=provider.p_feasible(X_obs, X_failed) if learn else None,
                    feasible=feasible, lie=self.lie, options=self.options.search,
                )
        for cfg in configs:
            provider.notify_proposal(space.to_unit(cfg), rng)
        return configs

    def _sample(self, sampler: Sampler, evaluated, feasible, rng) -> dict[str, Any]:
        """A fresh random configuration, preferring feasible ones."""
        for _ in range(50):
            batch = sampler.sample(self.problem.parameter_space, 1, rng, exclude=evaluated)
            config = batch[0] if batch else self.problem.parameter_space.sample(rng)
            if feasible(config):
                return config
        return config
