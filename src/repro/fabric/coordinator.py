"""The fabric coordinator: leases, liveness, elasticity, re-dispatch.

:class:`FabricCoordinator` owns a
:class:`~repro.fabric.jobqueue.DurableJobQueue` and a set of
:mod:`multiprocessing` workers.  Its event
pump, driven from :meth:`get`, does four things each tick:

1. **drain** every worker's outbox — heartbeats refresh liveness,
   ``done`` payloads go through the queue's exactly-once
   :meth:`~repro.fabric.jobqueue.DurableJobQueue.complete` and (when
   applied) surface as :class:`~repro.core.tuner.EvalOutcome`\\ s,
   with the worker's perf snapshot merged into the parent's collectors;
2. **reap** dead processes — a worker that exited without being asked
   (kill -9, segfault, OOM, an injected fault) has its leased job
   re-dispatched immediately and is replaced by a fresh process;
3. **expire** leases — a leased job past its deadline while its worker
   is merely *slow* is re-dispatched to another worker (straggler
   mitigation).  The straggler is handed nothing else until it reports;
   if its stale token then loses the race, the queue rejects it, so the
   completion is never applied twice;
4. **dispatch** pending jobs to idle workers under fresh leases.

``max_redispatch`` is the one retry bound: a job lost (to a crash or an
expired lease) that many times is completed as a ``"lease-exhausted"``
failure by :meth:`_recover_lost_job`, the one place an executor gives a
job up, rather than looping forever.

Elasticity: :meth:`add_worker` joins a new process mid-run,
:meth:`remove_worker` drains one gracefully (it finishes its current
evaluation first — the stop message queues behind the job), and
:meth:`kill_worker` hard-terminates one to simulate a crash.  The
dispatch loop sees only the current membership; a crashed worker's
replacement keeps it at the size it had.

Start method: ``fork`` (evaluation closures need no
pickling — they are inherited), falling back to the platform default
where ``fork`` is unavailable, in which case ``evaluate`` must be
picklable.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..core import perf
from ..core.optimizer import LIE_STRATEGIES
from ..core.problem import Evaluation
from ..core.tuner import EvalOutcome
from .jobqueue import DurableJobQueue, JobState
from .worker import MSG_DONE, MSG_HEARTBEAT, MSG_READY, worker_main

__all__ = ["FabricCoordinator", "FabricOptions"]

#: coordinator pump tick (seconds) while waiting for an outcome
_TICK_S = 0.003


@dataclass(kw_only=True)
class FabricOptions:
    """Controls for the multi-process tuning fabric: batch proposal, the
    simulated-latency model, and leases.

    Latency simulation charges each successful evaluation a fixed wall
    time (:meth:`latency_s`).  With the default of 0 the fabric runs as
    fast as the objective computes — unit tests stay instant, benchmarks
    dial in realistic latencies.

    ``lease_s`` bounds how long the coordinator waits for a leased
    evaluation before re-dispatching it elsewhere; it must comfortably
    exceed the longest real evaluation.  The queue's checkpoint cadence
    is :class:`DurableJobQueue`'s default; pass the coordinator a
    ``queue=`` for another.
    """

    #: max proposals per refill round (the ``q`` of batch proposal)
    batch: int = 1
    #: fantasy strategy for in-flight evaluations (see LIE_STRATEGIES)
    lie: str = "cl-min"
    #: fixed simulated seconds per successful evaluation
    base_latency_s: float = 0.0
    #: log-normal sigma of per-worker speed factors
    heterogeneity: float = 0.0
    n_procs: int = 2
    #: seconds a leased job may run before straggler re-dispatch
    lease_s: float = 30.0
    #: worker heartbeat cadence (liveness resolution)
    heartbeat_s: float = 0.2
    #: re-dispatches per job before it is completed as a failure
    max_redispatch: int = 4
    #: queue directory (None = memory-only queue)
    data_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.lie not in LIE_STRATEGIES:
            raise ValueError(f"lie must be one of {LIE_STRATEGIES}, got {self.lie!r}")
        if self.lease_s <= 0:
            raise ValueError("lease_s must be positive")
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if self.max_redispatch < 0:
            raise ValueError("max_redispatch must be >= 0")

    def latency_s(self, evaluation: Evaluation | None) -> float:
        """Simulated seconds ``evaluation`` occupies a unit-speed worker:
        ``base_latency_s``, or nothing for a failed or lost one."""
        if evaluation is None or evaluation.failed:
            return 0.0
        return max(self.base_latency_s, 0.0)


@dataclass
class _WorkerHandle:
    worker_id: int
    process: Any
    inbox: Any
    outbox: Any
    speed: float
    last_seen: float
    #: job currently dispatched to this worker (None = idle)
    job_id: int | None = None
    #: a graceful stop was requested; don't treat exit as a crash
    stopping: bool = False

    @property
    def idle(self) -> bool:
        return self.job_id is None and not self.stopping


class FabricCoordinator:
    """Elastic multi-process evaluation fabric over a durable queue.

    Parameters
    ----------
    evaluate:
        ``evaluate(config) -> Evaluation``.  Inherited by workers via
        fork, so closures over the problem/task are fine.
    options:
        Fabric controls (process count, latencies, lease/heartbeat).
    queue:
        An existing :class:`DurableJobQueue` (e.g. one recovered from a
        crashed run's directory — its pending jobs are dispatched before
        any new submissions); by default one is built from
        ``options.data_dir``.
    seed:
        Seeds the per-worker speed factors (heterogeneity).
    fault:
        ``fault(job_id, attempt) -> bool``, the one fault hook,
        inherited by every worker; see
        :func:`~repro.fabric.worker.worker_main`.
    on_progress:
        ``on_progress(collected, coordinator)`` as :meth:`get` hands out
        each outcome — the hook benchmarks and the CLI use to kill or
        add workers mid-run.
    """

    #: the tuning loop's per-step timer: a step proposes and enqueues
    step = "propose"

    def __init__(
        self,
        evaluate: Callable[[dict[str, Any]], Evaluation],
        options: FabricOptions | None = None,
        *,
        queue: DurableJobQueue | None = None,
        seed: int | None = None,
        fault: Callable[[int, int], bool] | None = None,
        on_progress: Callable[[int, "FabricCoordinator"], None] | None = None,
    ) -> None:
        self.options = options or FabricOptions()
        self._evaluate = evaluate
        self._fault = fault
        self._on_progress = on_progress
        self._collected = 0
        self.queue = queue if queue is not None else DurableJobQueue(self.options.data_dir)
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # platform without fork: evaluate must pickle
            self._ctx = mp.get_context()
        self._rng = np.random.default_rng(seed)
        self._workers: dict[int, _WorkerHandle] = {}
        self._next_wid = 0
        self._completed: "queue_mod.SimpleQueue[EvalOutcome]" = (
            queue_mod.SimpleQueue()
        )
        self._inflight = 0
        self._busy_s = 0.0
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FabricCoordinator":
        if self._started:
            return self
        self._t0 = time.perf_counter()
        for _ in range(self.options.n_procs):
            self._spawn_worker()
        self._started = True
        # a queue recovered from a crashed run may carry pending jobs:
        # they are part of this run's in-flight budget
        self._inflight += self.queue.n_pending
        return self

    def __enter__(self) -> "FabricCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop all workers and the queue (idempotent).

        A worker still holding a job is terminated rather than waited
        for: nobody will collect that evaluation, and since leases are
        soft state its job reverts to pending when the queue is reopened.
        """
        if self._closed:
            return
        self._closed = True
        if self._started:
            wall = time.perf_counter() - self._t0
            perf.gauge("fabric_worker_utilization", self.utilization(wall))
            perf.gauge("fabric_wall_s", wall)
        for handle in list(self._workers.values()):
            handle.stopping = True
            try:
                handle.inbox.put(("stop", None))
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
            if handle.job_id is not None:
                handle.process.terminate()
        deadline = time.monotonic() + 5.0
        for handle in list(self._workers.values()):
            handle.process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            self._discard_channels(handle)
        self._workers.clear()
        self.queue.close()

    @staticmethod
    def _discard_channels(handle: _WorkerHandle) -> None:
        for q in (handle.inbox, handle.outbox):
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, AttributeError):  # pragma: no cover
                pass

    # -- membership ----------------------------------------------------------
    def _spawn_worker(self) -> int:
        wid = self._next_wid
        self._next_wid += 1
        sigma = float(self.options.heterogeneity)
        speed = float(np.exp(self._rng.normal(0.0, sigma))) if sigma > 0 else 1.0
        inbox = self._ctx.Queue()
        outbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                wid,
                inbox,
                outbox,
                self._evaluate,
                self.options.latency_s,
                speed,
                self.options.heartbeat_s,
                self._fault,
            ),
            name=f"fabric-worker-{wid}",
            daemon=True,
        )
        process.start()
        self._workers[wid] = _WorkerHandle(
            wid, process, inbox, outbox, speed, last_seen=time.monotonic()
        )
        perf.incr("fabric_workers_started")
        return wid

    def add_worker(self) -> int:
        """Elastically join one more worker process mid-run."""
        if self._closed:
            raise RuntimeError("coordinator is closed")
        return self._spawn_worker()

    def remove_worker(self, worker_id: int) -> None:
        """Gracefully drain one worker: it finishes its current job first.

        The stop message queues behind any dispatched job, so nothing is
        re-dispatched; the process is reaped by the pump once it exits.
        """
        handle = self._workers[worker_id]
        handle.stopping = True
        handle.inbox.put(("stop", None))
        perf.incr("fabric_workers_removed")

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one worker (crash simulation); its job re-dispatches
        and the pump replaces it."""
        handle = self._workers[worker_id]
        handle.process.terminate()
        perf.incr("fabric_workers_killed")

    def busy_workers(self) -> list[int]:
        """Workers currently executing a dispatched job."""
        return [w.worker_id for w in self._workers.values() if w.job_id is not None]

    def liveness(self) -> dict[int, float]:
        """Seconds since each live worker was last heard from."""
        now = time.monotonic()
        return {
            w.worker_id: now - w.last_seen for w in self._workers.values()
        }

    @property
    def n_workers(self) -> int:
        """Current live (non-draining) membership."""
        return sum(1 for w in self._workers.values() if not w.stopping)

    # -- submission / collection ---------------------------------------------
    def submit(self, config: dict[str, Any]) -> int:
        """Durably enqueue one evaluation; returns its job id."""
        job_id = self.queue.enqueue(config)
        self._inflight += 1
        return job_id

    @property
    def inflight(self) -> int:
        """Jobs submitted (or recovered) whose outcome was not collected."""
        return self._inflight

    def get(self, timeout: float | None = None) -> EvalOutcome:
        """Next terminal outcome (raises ``queue.Empty`` on timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._pump()
            try:
                outcome = self._completed.get_nowait()
            except queue_mod.Empty:
                if deadline is not None and time.monotonic() > deadline:
                    raise queue_mod.Empty from None
                time.sleep(_TICK_S)
                continue
            self._inflight -= 1
            self._collected += 1
            if self._on_progress is not None:
                self._on_progress(self._collected, self)
            return outcome

    # -- accounting ----------------------------------------------------------
    @property
    def busy_s(self) -> float:
        """Total worker-seconds spent executing evaluations."""
        return self._busy_s

    def utilization(self, wall_s: float, n_workers: int | None = None) -> float:
        """Fraction of available worker time spent busy over ``wall_s``."""
        if wall_s <= 0:
            return 0.0
        n = n_workers if n_workers is not None else max(self.options.n_procs, 1)
        return min(self._busy_s / (n * wall_s), 1.0)

    @property
    def redispatches(self) -> int:
        return self.queue.redispatches

    # -- the event pump -------------------------------------------------------
    def _pump(self) -> None:
        now = time.monotonic()
        self._drain_outboxes(now)
        self._reap_dead(now)
        self._expire_leases(now)
        self._dispatch(now)

    def _drain_outboxes(self, now: float) -> None:
        for handle in list(self._workers.values()):
            while True:
                try:
                    kind, wid, body = handle.outbox.get_nowait()
                except (queue_mod.Empty, OSError):
                    break
                handle.last_seen = now
                if kind in (MSG_READY, MSG_HEARTBEAT):
                    continue
                assert kind == MSG_DONE
                self._on_done(handle, body)

    def _on_done(self, handle: _WorkerHandle, body: dict[str, Any]) -> None:
        if handle.job_id == body["job_id"]:
            handle.job_id = None  # worker is idle again either way
        self._busy_s += float(body.get("busy_s", 0.0))
        # worker-process counters fold into the parent collectors here —
        # the cross-process aggregation path (duplicate results included:
        # the compute they report really happened)
        snap = body.get("perf")
        if snap:
            perf.merge(snap)
        status = self.queue.complete(
            body["job_id"], body["token"], self._result_payload(body)
        )
        if status != "applied":
            return  # replay or straggler duplicate: never surfaced twice
        job = self.queue.job(body["job_id"])
        evaluation = (
            Evaluation.from_dict(body["evaluation"])
            if body.get("evaluation") is not None
            else None
        )
        attempt = int(body["attempt"])
        latency = float(body.get("latency_s", 0.0))
        metadata = {
            "worker": handle.worker_id,
            "attempt": attempt,
            "latency_s": round(latency, 6),
            "attempts": attempt + 1,
        }
        self._completed.put(
            EvalOutcome(
                job.job_id, dict(job.config), attempt, evaluation, body.get("error"),
                worker_id=handle.worker_id, latency_s=latency, metadata=metadata,
                redispatches=job.redispatches,
            )
        )

    @staticmethod
    def _result_payload(body: dict[str, Any]) -> dict[str, Any]:
        """The durable completion record journaled by the queue."""
        return {
            "evaluation": body.get("evaluation"),
            "error": body.get("error"),
            "attempt": int(body.get("attempt", 0)),
        }

    def _reap_dead(self, now: float) -> None:
        for wid, handle in list(self._workers.items()):
            if handle.process.is_alive():
                continue
            del self._workers[wid]
            self._discard_channels(handle)
            if handle.stopping:
                continue  # asked to leave: a clean exit, not a crash
            perf.incr("fabric_worker_deaths")
            if handle.job_id is not None:
                self._recover_lost_job(handle.job_id)
            # the crowd participant's machine comes back: a fresh process
            # keeps the membership at its size
            self._spawn_worker()

    def _expire_leases(self, now: float) -> None:
        for job in self.queue.expired(now):
            # the worker may be slow rather than dead — leave it running,
            # and busy until it reports (:meth:`_on_done` frees it), so no
            # job queues behind the straggler; token dedup disarms
            # whichever attempt loses the race
            self._recover_lost_job(job.job_id)

    def _recover_lost_job(self, job_id: int) -> None:
        job = self.queue.job(job_id)
        if job.state == JobState.DONE:
            return
        if job.redispatches >= self.options.max_redispatch:
            # give up: a durable failure completion, budget is consumed
            status = self.queue.complete(
                job_id, f"{job_id}.abandoned", {"error": "lease-exhausted"}
            )
            if status == "applied":
                perf.incr("fabric_jobs_abandoned")
                metadata = {"attempt": job.attempt, "attempts": job.attempt + 1}
                self._completed.put(
                    EvalOutcome(
                        job_id, dict(job.config), job.attempt, None, "lease-exhausted",
                        metadata=metadata, redispatches=job.redispatches,
                    )
                )
            return
        self.queue.redispatch(job_id)

    def _dispatch(self, now: float) -> None:
        idle = [w for w in self._workers.values() if w.idle]
        for handle in idle:
            job = self.queue.lease(handle.worker_id, now, self.options.lease_s)
            if job is None:
                return
            handle.job_id = job.job_id
            try:
                handle.inbox.put(
                    (
                        "job",
                        {
                            "job_id": job.job_id,
                            "token": job.lease_token,
                            "attempt": job.attempt,
                            "config": dict(job.config),
                        },
                    )
                )
            except (OSError, ValueError):  # pragma: no cover - worker died
                handle.job_id = None
                self.queue.redispatch(job.job_id)
