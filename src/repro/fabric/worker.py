"""The fabric worker process: evaluate, heartbeat, report home.

Each worker is one OS process (one crowd participant's machine).  It
owns two queues: an *inbox* the coordinator dispatches leased jobs into,
and an *outbox* it reports on — ``ready`` at startup, ``hb`` heartbeats
while idle and during long evaluations, and ``done`` with the completed
payload.  Per-worker queues keep channels independent: killing a worker
mid-``put`` can only corrupt its own outbox, which the coordinator
discards with the worker.

Every evaluation runs under its own :func:`repro.core.perf.collect`
window and the snapshot rides home inside the ``done`` payload — the
coordinator folds it into the parent's collectors with ``perf.merge``,
so counters incremented in worker processes are not silently lost (the
cross-process aggregation contract).

Simulated latency is the fabric's fixed per-success charge
(:meth:`repro.fabric.coordinator.FabricOptions.latency_s`) times the worker's
persistent speed factor.  The sleep is sliced so heartbeats keep
flowing mid-evaluation — a *slow* worker and a *dead* worker look
different to the coordinator.
"""

from __future__ import annotations

import os
import queue
import time
from typing import Any, Callable

from ..core import perf
from ..core.problem import Evaluation

__all__ = ["worker_main"]

#: message kinds on the worker outbox
MSG_READY = "ready"
MSG_HEARTBEAT = "hb"
MSG_DONE = "done"


def worker_main(
    worker_id: int,
    inbox: Any,
    outbox: Any,
    evaluate: Callable[[dict[str, Any]], Evaluation],
    latency_fn: Callable[[Evaluation | None], float],
    speed: float,
    heartbeat_s: float,
    fault: Callable[[int, int], bool] | None = None,
) -> None:
    """Run the worker loop until a ``stop`` message arrives.

    ``fault(job_id, attempt) -> bool`` is the crash hook (a pure
    function of its arguments, so a fixed hook crashes the same attempts
    whichever worker runs them): when it returns True the process dies
    mid-evaluation with ``os._exit`` (no cleanup, no goodbye — exactly
    what a segfaulting tuner process looks like to the coordinator).
    """
    outbox.put((MSG_READY, worker_id, None))
    hb_every = max(float(heartbeat_s), 1e-3)
    last_hb = time.monotonic()

    def beat(force: bool = False) -> None:
        nonlocal last_hb
        now = time.monotonic()
        if force or now - last_hb >= hb_every:
            outbox.put((MSG_HEARTBEAT, worker_id, None))
            last_hb = now

    def sleep_with_heartbeats(seconds: float) -> None:
        deadline = time.monotonic() + seconds
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, hb_every / 2.0))
            beat()

    while True:
        try:
            msg = inbox.get(timeout=hb_every / 2.0)
        except queue.Empty:
            beat()
            continue
        kind, body = msg
        if kind == "stop":
            return
        assert kind == "job"
        t0 = time.perf_counter()
        evaluation: Evaluation | None = None
        error: str | None = None
        latency = 0.0
        with perf.collect() as stats:
            with perf.timer("evaluate"):
                try:
                    evaluation = evaluate(body["config"])
                except Exception as exc:  # objective bug: report, don't die
                    evaluation, error = None, f"error: {exc!r}"
            latency = latency_fn(evaluation) * speed
            if fault is not None and fault(body["job_id"], body["attempt"]):
                # die partway through the run, result lost with us
                time.sleep(0.5 * latency)
                os._exit(13)
            if latency > 0:
                sleep_with_heartbeats(latency)
            perf.incr("fabric_evaluations")
        outbox.put(
            (
                MSG_DONE,
                worker_id,
                {
                    "job_id": body["job_id"],
                    "token": body["token"],
                    "attempt": body["attempt"],
                    "evaluation": (
                        evaluation.to_dict() if evaluation is not None else None
                    ),
                    "error": error,
                    "latency_s": latency,
                    "busy_s": time.perf_counter() - t0,
                    "perf": stats.snapshot(),
                },
            )
        )
        beat(force=True)
