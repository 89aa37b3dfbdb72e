"""`repro.fabric` — the multi-process elastic tuning cluster (system S14).

The paper's crowd is many independent *machines* tuning concurrently
and feeding one shared database.  This package is the repo's one
parallel executor: every parallel tuning run — the CLI's ``--workers``,
the benchmarks, the end-to-end workloads — evaluates on forked worker
processes under its lease / re-dispatch loop, with one retry bound
(``max_redispatch``) and one fault hook (``fault(job_id, attempt)``).
The in-thread :class:`~repro.core.tuner.InlineExecutor` is the
sequential reference it is pinned against.

* :mod:`~repro.fabric.jobqueue` — a durable on-disk job queue (JSONL
  WAL + atomic snapshots, crash recovery, exactly-once completion via
  idempotent lease tokens),
* :mod:`~repro.fabric.worker` — the :mod:`multiprocessing` worker
  entry: evaluate, heartbeat, ship results (and perf snapshots) home,
* :mod:`~repro.fabric.coordinator` — leases jobs to workers, tracks
  liveness by heartbeat, re-dispatches expired leases and dead workers'
  jobs, replaces crashed workers, and grows/drains/kills workers
  elastically mid-run,
* :mod:`~repro.fabric.tuner` — :class:`FabricTuner` runs the one
  tuning loop (:meth:`repro.core.tuner.Tuner.tune`) with the
  coordinator as its executor and streams every completed evaluation
  through the crowd service, so one tuning run feeds (and optionally
  consults) the shared database end to end.

Layering: the fabric sits above :mod:`repro.core` (the loop) and
:mod:`repro.engine` (the crowd streamer) and talks to
:mod:`repro.service` only through the public ``handle()`` protocol.
Nothing below imports the fabric.
"""

from .coordinator import FabricCoordinator, FabricOptions
from .jobqueue import DurableJobQueue, FabricJob, JobState
from .tuner import FabricTuner

__all__ = [
    "DurableJobQueue",
    "FabricCoordinator",
    "FabricJob",
    "FabricOptions",
    "FabricTuner",
    "JobState",
]
