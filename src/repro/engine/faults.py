"""Fault injection for the fabric, and the service client's retry policy.

Real crowd tuning loses evaluations: nodes die, processes segfault, file
systems hiccup.  The fabric simulates the first two so its recovery path
(lease re-dispatch up to ``max_redispatch``, then a failure record
feeding the feasibility model) is continuously exercised.  A fault hook
is any ``fault(job_id, attempt) -> bool``; the worker process that runs
an attempt the hook picks dies mid-evaluation
(:func:`repro.fabric.worker.worker_main`).

Determinism contract: :class:`FaultInjector` decides crashes by hashing
``(seed, job_id, attempt)`` — *never* from wall-clock or process timing
— so a run with a fixed seed injects exactly the same faults regardless
of which worker picks a job up.  :class:`ScriptedFaults` pins specific
``(job_id, attempt)`` pairs for regression tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

__all__ = ["FaultInjector", "RetryPolicy", "ScriptedFaults"]


class FaultInjector:
    """Pseudo-random but timing-independent worker crashes.

    ``rate`` is the per-attempt crash probability.  The decision for a
    given ``(job_id, attempt)`` is a pure function of the seed, so the
    same tuning run injects the same faults no matter which worker picks
    the job up or how processes interleave.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"crash rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def __call__(self, job_id: int, attempt: int) -> bool:
        if self.rate <= 0.0:
            return False
        blob = f"{self.seed}:{job_id}:{attempt}".encode()
        digest = hashlib.sha256(blob).digest()
        draw = int.from_bytes(digest[:8], "little") / 2**64
        return draw < self.rate


class ScriptedFaults:
    """Crash exactly the scripted ``(job_id, attempt)`` pairs (tests)."""

    def __init__(self, crashes: Iterable[tuple[int, int]]) -> None:
        self.crashes = {(int(j), int(a)) for j, a in crashes}

    def __call__(self, job_id: int, attempt: int) -> bool:
        return (job_id, attempt) in self.crashes


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff (the service client's).

    A faulted or throttled request is retried up to ``max_retries``
    times; retry ``k`` waits ``base_s * factor**k`` (capped at
    ``cap_s``) before it is sent again.
    """

    max_retries: int = 2
    base_s: float = 0.01
    factor: float = 2.0
    cap_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError("backoff durations must be >= 0")

    def allows(self, attempt: int) -> bool:
        """Whether attempt index ``attempt`` (0-based) may be retried."""
        return attempt < self.max_retries

    def backoff_s(self, attempt: int) -> float:
        """Delay before re-sending a request that failed on ``attempt``."""
        return min(self.cap_s, self.base_s * self.factor**attempt)
