"""Crowd streaming, fault hooks and the client retry policy (system S12).

What is left of the evaluation engine once the process fabric
(:mod:`repro.fabric`) became the one parallel executor:

* :class:`CrowdStreamer` — the callback that uploads every completed
  evaluation to the crowd repository the moment it lands;
* :class:`FaultInjector` / :class:`ScriptedFaults` — deterministic
  worker-crash hooks, ``fault(job_id, attempt) -> bool``, handed to the
  fabric coordinator;
* :class:`RetryPolicy` — the service client's bounded backoff.

Layering: :mod:`repro.engine` sits above :mod:`repro.core` (evaluations,
perf counters).  It reaches the crowd repository only through the
``handle()`` protocol, and nothing in :mod:`repro.core` imports it.
"""

from .faults import FaultInjector, RetryPolicy, ScriptedFaults
from .stream import CrowdStreamer

__all__ = [
    "CrowdStreamer",
    "FaultInjector",
    "RetryPolicy",
    "ScriptedFaults",
]
