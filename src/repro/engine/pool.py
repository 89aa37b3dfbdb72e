"""A thread pool of simulated evaluation workers.

Each worker models one crowd participant: it holds a node allocation on
the shared :class:`~repro.hpc.scheduler.SlurmSim` cluster for its whole
lifetime, executes one evaluation at a time, and "runs" each evaluation
for a simulated latency (``latency_fn``; the engine charges a fixed
:meth:`~repro.core.tuner.ExecutorOptions.latency_s` per success).
Workers are heterogeneous — each draws a persistent speed factor, like a
crowd of machines of different generations.

The pool is deliberately simple: an input queue, an output queue, and
cooperative sleeping so shutdown and timeouts never block on a stuck
thread.  Given a :class:`~repro.engine.faults.RetryPolicy` it re-runs
crashed and timed-out attempts itself (with backoff, charged to the
worker that picks the retry up), so the tuning loop only ever collects
terminal outcomes — the same contract the fabric's lease re-dispatch
gives.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

import numpy as np

from ..core import perf
from ..core.problem import Evaluation
from ..core.tuner import EvalJob, EvalOutcome
from ..hpc.scheduler import SlurmJob, SlurmSim
from .faults import FaultSource, RetryPolicy

__all__ = ["EvalJob", "EvalOutcome", "WorkerPool"]

#: pseudo-config put on the input queue to stop a worker
_SHUTDOWN = object()
#: longest a sleeping worker waits before it looks at the stop flag again
_TICK_S = 0.002


class WorkerPool:
    """Threaded evaluation workers with simulated latencies and faults.

    Parameters
    ----------
    evaluate:
        ``evaluate(config) -> Evaluation``; must not raise for ordinary
        objective failures (``TuningProblem.evaluate`` already converts
        those into failed evaluations).
    n_workers:
        Number of concurrent workers.
    latency_fn:
        ``latency_fn(evaluation) -> seconds`` of simulated execution
        time.  ``None`` disables latency simulation (unit tests).
    scheduler:
        Optional :class:`SlurmSim`; each worker sallocs
        ``nodes_per_worker`` nodes for its lifetime, and the allocation
        shape is reported in every outcome's metadata (the crowd
        record's reproducibility block).
    heterogeneity:
        Log-normal sigma of per-worker speed factors (0 = identical
        workers).
    fault_injector:
        Optional :class:`~repro.engine.faults.FaultInjector`-like source
        of simulated worker crashes.
    timeout_s:
        Per-evaluation ceiling on simulated latency; slower runs are
        reported as ``"timeout"`` after ``timeout_s`` of wall time.
    retry:
        Re-run crashed/timed-out attempts while the policy allows and
        report only the last one; ``None`` reports every attempt.
    """

    #: the tuning loop's per-step timer: a step proposes and enqueues
    step = "propose"

    def __init__(
        self,
        evaluate: Callable[[dict[str, Any]], Evaluation],
        n_workers: int,
        *,
        latency_fn: Callable[[Evaluation], float] | None = None,
        scheduler: SlurmSim | None = None,
        nodes_per_worker: int = 1,
        heterogeneity: float = 0.0,
        fault_injector: FaultSource | None = None,
        timeout_s: float | None = None,
        retry: RetryPolicy | None = None,
        seed: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self._evaluate = evaluate
        self.n_workers = int(n_workers)
        self._latency_fn = latency_fn
        self._scheduler = scheduler
        self._nodes_per_worker = int(nodes_per_worker)
        self._fault_injector = fault_injector
        self._timeout_s = timeout_s
        self._retry = retry
        rng = np.random.default_rng(seed)
        sigma = float(heterogeneity)
        self._speeds = [
            float(np.exp(rng.normal(0.0, sigma))) if sigma > 0 else 1.0
            for _ in range(self.n_workers)
        ]
        self._in: queue.Queue = queue.Queue()
        self._out: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._allocations: list[SlurmJob | None] = [None] * self.n_workers
        self._busy_s = [0.0] * self.n_workers
        self._lock = threading.Lock()
        self._next_job_id = 0
        self._inflight = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._t0 = time.perf_counter()
        if self._scheduler is not None:
            for wid in range(self.n_workers):
                # raises AllocationError when the cluster is too small
                self._allocations[wid] = self._scheduler.salloc(self._nodes_per_worker)
        for wid in range(self.n_workers):
            t = threading.Thread(
                target=self._worker, args=(wid,), name=f"eval-worker-{wid}", daemon=True
            )
            t.start()
            self._threads.append(t)
        self._started = True
        return self

    def close(self) -> None:
        if not self._started:
            return
        wall = time.perf_counter() - self._t0
        perf.gauge("engine_worker_utilization", self.utilization(wall))
        perf.gauge("engine_wall_s", wall)
        self._stop.set()
        for _ in self._threads:
            self._in.put(_SHUTDOWN)
        for t in self._threads:
            t.join(timeout=5.0)
        if self._scheduler is not None:
            for wid, alloc in enumerate(self._allocations):
                if alloc is not None:
                    self._scheduler.release(alloc)
                    self._allocations[wid] = None
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission / collection -------------------------------------------
    def submit(self, config: dict[str, Any]) -> int:
        """Enqueue a fresh evaluation; returns its job id."""
        with self._lock:
            job_id = self._next_job_id
            self._next_job_id += 1
            self._inflight += 1
            inflight = self._inflight
        self._in.put(EvalJob(job_id, dict(config)))
        # every job in flight is a fantasy the next proposal conditions on
        perf.gauge("engine_pending_fantasies", inflight)
        perf.gauge("engine_queue_depth", self._in.qsize())
        return job_id

    def resubmit(self, job: EvalJob, delay_s: float = 0.0) -> None:
        """Re-enqueue a collected failed job for another attempt after ``delay_s``."""
        with self._lock:
            self._inflight += 1
        self._requeue(job, delay_s)

    def _requeue(self, job: EvalJob, delay_s: float) -> None:
        self._in.put(
            EvalJob(
                job.job_id,
                job.config,
                attempt=job.attempt + 1,
                not_before=time.monotonic() + max(delay_s, 0.0),
            )
        )
        perf.gauge("engine_queue_depth", self._in.qsize())

    def get(self, timeout: float | None = None) -> EvalOutcome:
        """Next completed outcome (blocks; raises ``queue.Empty`` on timeout)."""
        outcome = self._out.get(timeout=timeout)
        with self._lock:
            self._inflight -= 1
        return outcome

    # -- introspection ------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs enqueued but not yet picked up by a worker."""
        return self._in.qsize()

    @property
    def inflight(self) -> int:
        """Jobs submitted whose outcome has not been collected yet."""
        with self._lock:
            return self._inflight

    @property
    def busy_s(self) -> float:
        """Total worker-seconds spent executing evaluations."""
        with self._lock:
            return float(sum(self._busy_s))

    def utilization(self, wall_s: float) -> float:
        """Fraction of available worker time spent busy over ``wall_s``."""
        if wall_s <= 0:
            return 0.0
        return min(self.busy_s / (self.n_workers * wall_s), 1.0)

    def allocation(self, worker_id: int) -> SlurmJob | None:
        return self._allocations[worker_id]

    # -- worker loop --------------------------------------------------------
    def _sleep(self, seconds: float) -> None:
        """Cooperative sleep: wakes early when the pool is closing."""
        deadline = time.monotonic() + seconds
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(_TICK_S, remaining))

    def _worker(self, wid: int) -> None:
        speed = self._speeds[wid]
        alloc = self._allocations[wid]
        slurm_meta: dict[str, Any] = {}
        if alloc is not None:
            slurm_meta = {
                "slurm_job_id": alloc.job_id,
                "nodelist": alloc.environment()["SLURM_JOB_NODELIST"],
            }
        while not self._stop.is_set():
            try:
                job = self._in.get(timeout=0.05)
            except queue.Empty:
                continue
            if job is _SHUTDOWN:
                break
            t0 = time.perf_counter()
            wait = job.not_before - time.monotonic()
            if wait > 0:
                self._sleep(wait)
            evaluation: Evaluation | None
            error: str | None = None
            latency = 0.0
            try:
                evaluation = self._evaluate(job.config)
                latency = (
                    max(float(self._latency_fn(evaluation)), 0.0) * speed
                    if self._latency_fn is not None
                    else 0.0
                )
                crash = self._fault_injector is not None and (
                    self._fault_injector.should_crash(wid, job.job_id, job.attempt)
                )
                if crash:
                    # the worker dies partway through the run
                    self._sleep(0.5 * latency)
                    evaluation, error = None, "crash"
                    perf.incr("engine_worker_crashes")
                elif self._timeout_s is not None and latency > self._timeout_s:
                    self._sleep(self._timeout_s)
                    evaluation, error = None, "timeout"
                    perf.incr("engine_timeouts")
                else:
                    self._sleep(latency)
            except Exception as exc:  # defensive: evaluate() should not raise
                evaluation, error = None, f"error: {exc!r}"
            busy = time.perf_counter() - t0
            with self._lock:
                self._busy_s[wid] += busy
            perf.incr("engine_evaluations")
            if (
                error in ("crash", "timeout")
                and self._retry is not None
                and self._retry.allows(job.attempt)
            ):
                perf.incr("engine_retries")
                self._requeue(job, self._retry.backoff_s(job.attempt))
                continue
            metadata = {
                "worker": wid,
                "attempt": job.attempt,
                "latency_s": round(latency, 6),
                **slurm_meta,
                "attempts": job.attempt + 1,
            }
            self._out.put(
                EvalOutcome(
                    job.job_id, job.config, job.attempt, evaluation, error,
                    worker_id=wid, latency_s=latency, metadata=metadata,
                )
            )
