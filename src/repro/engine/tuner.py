"""Asynchronous batched Bayesian-optimization tuning.

:class:`AsyncTuner` is the one tuning loop
(:meth:`repro.core.tuner.Tuner.tune`) run on a
:class:`~repro.engine.pool.WorkerPool`: whenever workers are idle the
loop proposes new configurations — conditioned on *fantasy
observations* at every evaluation still in flight
(:func:`repro.core.optimizer.propose_batch`) so concurrent proposals
stay diverse — and folds results into the surrogate in completion
order.  The pool retries crashed or timed-out evaluations with
exponential backoff up to the retry budget; what is still lost after
that the loop records as a *failure* in the history, where it feeds the
KNN feasibility model and (via callbacks such as
:class:`~repro.engine.stream.CrowdStreamer`) the crowd repository —
exactly how the paper's database treats bad configurations.

With one worker and no faults the loop degenerates to propose, wait,
fold, repeat — and reproduces the sequential tuner's trajectories
bit-for-bit, for the plain GP and for any TLA provider (regression
tests pin both), so every speedup measured by
``benchmarks/bench_async.py`` is pure overlap, not a different
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.problem import TuningProblem
from ..core.tuner import EvaluationCallback, ExecutorOptions, Tuner, TunerOptions
from ..hpc.scheduler import SlurmSim
from .faults import FaultInjector, FaultSource, RetryPolicy
from .pool import WorkerPool

__all__ = ["AsyncTuner", "EngineOptions"]


@dataclass(kw_only=True)
class EngineOptions(ExecutorOptions):
    """Controls for the asynchronous engine: batch proposal and latency
    simulation as in :class:`~repro.core.tuner.ExecutorOptions`, plus the
    thread pool's own."""

    n_workers: int = 4
    #: per-evaluation simulated-latency ceiling (None = no timeout)
    timeout_s: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: probability a worker dies mid-evaluation (per attempt)
    fault_rate: float = 0.0
    fault_seed: int = 0
    #: nodes each worker sallocs from the shared SlurmSim (when given)
    nodes_per_worker: int = 1

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        super().__post_init__()


class AsyncTuner(Tuner):
    """The tuning loop over a simulated thread worker pool.

    Parameters
    ----------
    problem:
        The tuning problem to minimize.
    options:
        BO-loop controls (shared with the sequential tuner).
    engine:
        Engine controls: workers, batch size, latencies, faults.
    callbacks:
        Called with every completed :class:`Evaluation` *in completion
        order* from the event-loop thread (thread-safe to mutate local
        state; the crowd streamer uploads records here).
    scheduler:
        Optional shared :class:`SlurmSim` the workers allocate from.
    fault_injector:
        Overrides the ``engine.fault_rate``-derived injector (tests use
        :class:`~repro.engine.faults.ScriptedFaults`).
    """

    prefix = "Async"

    def __init__(
        self,
        problem: TuningProblem,
        options: TunerOptions | None = None,
        engine: EngineOptions | None = None,
        callbacks: list[EvaluationCallback] | None = None,
        *,
        scheduler: SlurmSim | None = None,
        fault_injector: FaultSource | None = None,
    ) -> None:
        super().__init__(problem, options, callbacks)
        self.engine = engine or EngineOptions()
        self.batch, self.lie = self.engine.batch, self.engine.lie
        self.scheduler = scheduler
        if fault_injector is None and self.engine.fault_rate > 0.0:
            fault_injector = FaultInjector(self.engine.fault_rate, self.engine.fault_seed)
        self.fault_injector = fault_injector

    def _executor(self, evaluate, seed: int | None) -> WorkerPool:
        eng = self.engine
        return WorkerPool(
            evaluate,
            eng.n_workers,
            latency_fn=eng.latency_s,
            scheduler=self.scheduler,
            nodes_per_worker=eng.nodes_per_worker,
            heterogeneity=eng.heterogeneity,
            fault_injector=self.fault_injector,
            timeout_s=eng.timeout_s,
            retry=eng.retry,
            seed=seed,
        )
