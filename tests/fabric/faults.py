"""Fault hooks for the fabric's recovery tests.

A fault hook is any ``fault(job_id, attempt) -> bool`` handed to
:class:`~repro.fabric.FabricTuner` or
:class:`~repro.fabric.coordinator.FabricCoordinator`; the worker process
that runs an attempt the hook picks dies mid-evaluation
(:func:`repro.fabric.worker.worker_main`), which exercises the recovery
path: lease re-dispatch up to ``max_redispatch``, then a failure record
feeding the feasibility model.

Determinism contract: :class:`FaultInjector` decides crashes by hashing
``(seed, job_id, attempt)`` — *never* from wall-clock or process timing
— so a run with a fixed seed injects exactly the same faults regardless
of which worker picks a job up.  :class:`ScriptedFaults` pins specific
``(job_id, attempt)`` pairs.
"""

from __future__ import annotations

from typing import Iterable

from repro.service.transport import _draw


class FaultInjector:
    """Pseudo-random but timing-independent worker crashes.

    ``rate`` is the per-attempt crash probability.  The decision for a
    given ``(job_id, attempt)`` is a pure function of the seed (the
    transport's draw over ``f"{seed}:{job_id}:{attempt}"``).
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"crash rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def __call__(self, job_id: int, attempt: int) -> bool:
        return self.rate > 0.0 and _draw(self.seed, str(job_id), attempt) < self.rate


class ScriptedFaults:
    """Crash exactly the scripted ``(job_id, attempt)`` pairs."""

    def __init__(self, crashes: Iterable[tuple[int, int]]) -> None:
        self.crashes = {(int(j), int(a)) for j, a in crashes}

    def __call__(self, job_id: int, attempt: int) -> bool:
        return (job_id, attempt) in self.crashes
