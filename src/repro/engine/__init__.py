"""Asynchronous batched evaluation engine (system S12).

The sequential tuner evaluates one configuration at a time; real crowd
tuning does not.  This package runs the same Bayesian-optimization loop
against a pool of simulated workers, keeping every worker busy with
fantasy-conditioned batch proposals, surviving worker crashes and
timeouts through bounded retry, and streaming each completed evaluation
to the crowd repository the moment it lands.

Layering: :mod:`repro.engine` sits above :mod:`repro.core` (the loop,
surrogates, batch proposal), :mod:`repro.hpc` (the simulated cluster
workers allocate from), and :mod:`repro.crowd` (the upload route the
streamer posts to).  Nothing in those packages imports the engine.
"""

from .faults import FaultInjector, RetryPolicy, ScriptedFaults, WorkerCrash
from .pool import EvalJob, EvalOutcome, WorkerPool
from .stream import CrowdStreamer
from .tuner import AsyncTuner, EngineOptions

__all__ = [
    "AsyncTuner",
    "CrowdStreamer",
    "EngineOptions",
    "EvalJob",
    "EvalOutcome",
    "FaultInjector",
    "RetryPolicy",
    "ScriptedFaults",
    "WorkerCrash",
    "WorkerPool",
]
