"""Simulated in-process transport with deterministic latency and faults.

Shard RPC is simulated in-process: every behavioral decision is a pure
function of ``(seed, endpoint, sequence number)`` — never of wall-clock
or thread timing — so a run with a fixed seed drops exactly the same
requests and charges exactly the same latencies regardless of how
client threads interleave.

:class:`SimTransport` also serializes delivery per endpoint (one shard
processes one request at a time, like a single-threaded server loop),
which is what makes the sharding benchmark honest: aggregate read
throughput grows with shard count only because independent shards really
do serve concurrently.

Faults use the *request-lost* model: a dropped request never reaches the
endpoint (no half-applied writes), the client sees
:class:`TransportError` and retries.  This matches the paper's service
reality — an HTTPS POST that fails to connect — while keeping upload
retries exactly-once on the storage side.  ``scripted_response_faults``
models the nastier *ack-lost* failure: the request IS delivered and
applied, then the response is dropped on the way back — the case that
makes blind client retries duplicate writes unless an idempotency token
deduplicates them (see :class:`~repro.service.client.ServiceClient`).

``down`` simulates a crashed endpoint; flipping it back to ``False``
fires every callback registered with :meth:`on_up` — the service runs
the router's anti-entropy round over the rejoining shard's buckets
there, so it takes every write it missed.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Any, Callable, Iterable, Mapping

from ..core import perf

__all__ = ["TransportError", "SimTransport"]


class TransportError(ConnectionError):
    """A simulated network failure (request never delivered)."""


def _draw(seed: int, endpoint: str, seq: int) -> float:
    """Deterministic uniform draw in [0, 1) for one delivery attempt."""
    blob = f"{seed}:{endpoint}:{seq}".encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


class SimTransport:
    """Deterministic-latency, fault-injecting channel to one endpoint.

    Parameters
    ----------
    target:
        The endpoint's request handler (``request dict -> response
        dict``), e.g. :meth:`CrowdShard.handle`.
    name:
        Endpoint name; part of the fault/latency hash.
    latency_s:
        Base one-way service latency.  Each delivery is charged
        ``latency_s * (0.75 + 0.5 * u)`` with ``u`` the deterministic
        draw for its sequence number (zero latency charges nothing).
    fault_rate:
        Per-delivery probability of dropping the request.
    scripted_faults:
        Explicit sequence numbers to drop (regression tests); applied on
        top of ``fault_rate``.  Sequence numbers start at 1.
    scripted_response_faults:
        Sequence numbers whose *response* is dropped: the request is
        delivered and applied by the endpoint, then the ack is lost.
    """

    def __init__(
        self,
        target: Callable[[Mapping[str, Any]], dict[str, Any]],
        name: str = "shard",
        *,
        latency_s: float = 0.0,
        fault_rate: float = 0.0,
        seed: int = 0,
        scripted_faults: Iterable[int] = (),
        scripted_response_faults: Iterable[int] = (),
    ) -> None:
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError(f"fault rate must be in [0, 1), got {fault_rate}")
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        self.target = target
        self.name = name
        self.latency_s = float(latency_s)
        self.fault_rate = float(fault_rate)
        self.seed = int(seed)
        self.scripted_faults = {int(s) for s in scripted_faults}
        self.scripted_response_faults = {int(s) for s in scripted_response_faults}
        self._down = False  # hard-failed endpoint (crash simulations)
        self._on_up: list[Callable[[str], None]] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._seq_lock = threading.Lock()

    @property
    def down(self) -> bool:
        """Hard-failed endpoint (crash simulations)."""
        return self._down

    @down.setter
    def down(self, value: bool) -> None:
        was_down, self._down = self._down, bool(value)
        if was_down and not self._down:
            for callback in list(self._on_up):
                callback(self.name)

    def retarget(self, target: Callable[[Mapping[str, Any]], dict[str, Any]]) -> None:
        """Point the channel at ``target`` once the delivery in progress
        (if any) is done; deliveries still waiting get the new one."""
        with self._lock:
            self.target = target

    def on_up(self, callback: Callable[[str], None]) -> None:
        """Register ``callback(name)`` to fire when ``down`` clears.

        :func:`~repro.service.build_service` registers the router's
        anti-entropy round over the endpoint's buckets here, so the
        writes it missed while down land as soon as it rejoins.
        """
        self._on_up.append(callback)

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    @property
    def n_requests(self) -> int:
        """Delivery attempts so far (including dropped ones)."""
        with self._seq_lock:
            return self._seq

    def request(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Deliver one request; raises :class:`TransportError` on faults."""
        seq = self._next_seq()
        if self.down:
            perf.incr("transport_faults")
            raise TransportError(f"endpoint {self.name} is down")
        # the draw is read only by a fault rate or a latency
        u = (
            _draw(self.seed, self.name, seq)
            if self.fault_rate > 0.0 or self.latency_s > 0.0
            else 0.0
        )
        if seq in self.scripted_faults or (
            self.fault_rate > 0.0 and u < self.fault_rate
        ):
            perf.incr("transport_faults")
            raise TransportError(f"request {seq} to {self.name} lost")
        with self._lock:  # one request at a time per endpoint
            if self.latency_s > 0.0:
                time.sleep(self.latency_s * (0.75 + 0.5 * u))
            response = self.target(request)
        if seq in self.scripted_response_faults:
            # the endpoint applied the request; only the ack is lost
            perf.incr("transport_faults")
            raise TransportError(f"response {seq} from {self.name} lost")
        return response
