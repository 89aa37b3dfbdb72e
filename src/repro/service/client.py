"""Client side of the crowd service: retries and a repository adapter.

:class:`ServiceClient` gives any consumer of the request/response
protocol (the fabric tuner's crowd uploads, the router's own shard
connections, user code) a reliable ``handle()`` on top of an
unreliable channel: transport faults and ``throttled`` backpressure
responses are retried with bounded exponential backoff
(:class:`RetryPolicy`), honoring the server's ``retry_after`` hint.
Exhausted retries surface as an ``unavailable`` error response —
protocol shaped, never an exception — so callers like the fabric
tuner's uploads degrade exactly as they do against a rejecting server.

Uploads carry an **idempotency token** ``[client_id, n]``, stamped once
per logical write and shared by every retry attempt; ``client_id`` is
issued by the deployment (route ``client_id``, asked on the first
upload; refused once the ids run out, when uploads go untokened).  The
router derives the record's uid from the token
(:func:`~repro.service.shard.token_uid`) and the shards deduplicate by
uid, so N faulted attempts store exactly one record, whatever came
between them.  A client's count lives in its process: a forked child
that uploads through an inherited client names the parent's uids.

:class:`RemoteRepository` adapts a :class:`ServiceClient` to the subset
of the :class:`~repro.crowd.repository.CrowdRepository` surface the
crowd-tuning API uses, so a :class:`~repro.crowd.api.CrowdClient` — and
with it the whole TLA query path (``query_source_data`` feeding
:class:`~repro.tla.tuner.TransferTuner`) — runs unchanged over the
sharded service.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Protocol

from ..core import perf
from ..crowd.records import PerformanceRecord
from ..crowd.users import AuthError, User
from .transport import SimTransport, TransportError

__all__ = ["ServiceClient", "RemoteRepository"]

@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff.

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


class Endpoint(Protocol):  # pragma: no cover - typing helper
    """Anything that maps a request dict to a response dict."""

    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]: ...


class ServiceClient:
    """Bounded-retry client over a transport, router, or server.

    ``endpoint`` may be a :class:`SimTransport` (``request()``) or any
    object with ``handle()`` (a :class:`CrowdRouter`,
    :class:`CrowdShard`, or another client).
    """

    def __init__(
        self,
        endpoint: SimTransport | Endpoint,
        *,
        retry: RetryPolicy | None = None,
        sleep=time.sleep,
    ) -> None:
        self._send = (
            endpoint.request
            if isinstance(endpoint, SimTransport)
            else endpoint.handle
        )
        self.endpoint = endpoint
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self.n_retries = 0
        #: ``[client_id, uploads named]`` (the id asked for on the first upload)
        self._token: list[int] | None = None
        self._token_lock = threading.Lock()

    def _stamp_idempotency(self, request: Mapping[str, Any]) -> Mapping[str, Any]:
        """Give an upload one token for *all* its retry attempts.

        Router-stamped requests (``uid`` present) are the router's own
        replica writes — already idempotent by uid — and a caller's
        explicit token is preserved.  Without a client id to be had, the
        upload goes untokened (the router's write clock names it).
        """
        if (
            request.get("route") != "upload"
            or "uid" in request
            or "idempotency_key" in request
        ):
            return request
        if self._token is None:
            # asked outside the lock: concurrent first uploads may each
            # ask, and all but one id go unused
            issued = self.handle({"route": "client_id", "api_key": request.get("api_key")})
            if not issued.get("ok"):
                return request
            with self._token_lock:
                self._token = self._token or [int(issued["client_id"]), 0]
        with self._token_lock:
            self._token[1] += 1
            token = list(self._token)
        stamped = dict(request)
        stamped["idempotency_key"] = token
        return stamped

    def handle(
        self, request: Mapping[str, Any], *, retry: RetryPolicy | None = None
    ) -> dict[str, Any]:
        """Send one request, retrying faults and throttles (under
        ``retry``, else the client's policy); never raises."""
        retry = retry if retry is not None else self.retry
        request = self._stamp_idempotency(request)
        attempt = 0
        while True:
            try:
                response = self._send(request)
            except TransportError as exc:
                if not retry.allows(attempt):
                    perf.incr("service_client_gaveups")
                    return {
                        "ok": False,
                        "error": "unavailable",
                        "message": str(exc),
                        "attempts": attempt + 1,
                    }
                self._sleep(retry.backoff_s(attempt))
                attempt += 1
                self.n_retries += 1
                perf.incr("service_client_retries")
                continue
            if (
                isinstance(response, Mapping)
                and response.get("error") == "throttled"
                and retry.allows(attempt)
            ):
                wait = float(response.get("retry_after", 0.0))
                self._sleep(min(max(wait, retry.backoff_s(attempt)),
                                retry.cap_s))
                attempt += 1
                self.n_retries += 1
                perf.incr("service_client_retries")
                continue
            return dict(response)


class _RemoteUsers:
    """``repository.users`` shim: authentication via the whoami route."""

    def __init__(self, client: ServiceClient) -> None:
        self._client = client

    def authenticate(self, api_key: str) -> User:
        response = self._client.handle({"route": "whoami", "api_key": api_key})
        if not response.get("ok"):
            raise AuthError(response.get("message", "authentication failed"))
        return User(
            username=response["username"],
            email=response.get("email", ""),
            groups=set(response.get("groups", [])),
        )


class RemoteRepository:
    """The crowd repository as seen through the service protocol.

    Implements the methods :class:`~repro.crowd.api.CrowdClient` calls
    (``users.authenticate``, ``query``, ``query_sql``, ``upload``,
    ``problems``), translating protocol errors back into the exceptions
    the in-process repository raises.
    """

    def __init__(self, endpoint: ServiceClient | SimTransport | Endpoint) -> None:
        self.client = (
            endpoint if isinstance(endpoint, ServiceClient) else ServiceClient(endpoint)
        )
        self.users = _RemoteUsers(self.client)

    def _call(self, request: Mapping[str, Any]) -> dict[str, Any]:
        response = self.client.handle(request)
        if response.get("ok"):
            return response
        kind = response.get("error")
        message = response.get("message", str(response))
        if kind == "auth":
            raise AuthError(message)
        raise RuntimeError(f"crowd service error ({kind}): {message}")

    def query(
        self,
        api_key: str,
        *,
        problem_name: str | None = None,
        problem_space: Mapping[str, Any] | None = None,
        configuration_space: Mapping[str, Any] | None = None,
        task_parameters: Mapping[str, Any] | None = None,
        require_success: bool = True,
        limit: int | None = None,
    ) -> list[PerformanceRecord]:
        request: dict[str, Any] = {
            "route": "query",
            "api_key": api_key,
            "require_success": require_success,
        }
        if problem_name is not None:
            request["problem_name"] = problem_name
        if problem_space:
            request["problem_space"] = dict(problem_space)
        if configuration_space:
            request["configuration_space"] = dict(configuration_space)
        if task_parameters is not None:
            request["task_parameters"] = dict(task_parameters)
        if limit is not None:
            request["limit"] = limit
        response = self._call(request)
        return [PerformanceRecord.from_doc(d) for d in response["records"]]

    def query_sql(self, api_key: str, sql: str) -> list[PerformanceRecord]:
        response = self._call({"route": "query_sql", "api_key": api_key, "sql": sql})
        return [PerformanceRecord.from_doc(d) for d in response["records"]]

    def upload(
        self,
        record: PerformanceRecord,
        api_key: str,
        *,
        timestamp: float | None = None,
    ) -> int:
        request = {
            "route": "upload",
            "api_key": api_key,
            "problem_name": record.problem_name,
            "task_parameters": dict(record.task_parameters),
            "tuning_parameters": dict(record.tuning_parameters),
            "output": record.output,
            "machine_configuration": dict(record.machine_configuration),
            "software_configuration": dict(record.software_configuration),
            "accessibility": record.accessibility.to_dict(),
        }
        response = self._call(request)
        return int(response["uid"])

    def problems(self, api_key: str) -> list[str]:
        return list(self._call({"route": "problems", "api_key": api_key})["problems"])

    # -- registry routes -----------------------------------------------------
    # These return the RAW response dict (ok or not): the crowd client
    # treats the registry as an optimization and decides for itself
    # whether to fall back to fitting locally — an exception here would
    # turn a missing registry into a query failure.

    def register_problem(
        self, api_key: str, problem_name: str, problem_space: Mapping[str, Any]
    ) -> dict[str, Any]:
        return self.client.handle(
            {
                "route": "register_problem",
                "api_key": api_key,
                "problem_name": problem_name,
                "problem_space": dict(problem_space),
            }
        )

    def predict(
        self,
        api_key: str,
        problem_name: str,
        task_parameters: Mapping[str, Any],
        configurations: list[Mapping[str, Any]],
    ) -> dict[str, Any]:
        return self.client.handle(
            {
                "route": "predict",
                "api_key": api_key,
                "problem_name": problem_name,
                "task_parameters": dict(task_parameters),
                "configurations": [dict(c) for c in configurations],
            }
        )

    def model_meta(
        self,
        api_key: str,
        problem_name: str,
        task_parameters: Mapping[str, Any],
        *,
        include_model: bool = False,
    ) -> dict[str, Any]:
        return self.client.handle(
            {
                "route": "model_meta",
                "api_key": api_key,
                "problem_name": problem_name,
                "task_parameters": dict(task_parameters),
                "include_model": include_model,
            }
        )

    def sensitivity(
        self,
        api_key: str,
        problem_name: str,
        task_parameters: Mapping[str, Any],
        *,
        n_base: int = 1024,
        n_bootstrap: int = 100,
        seed: int | None = None,
        include_model: bool = False,
    ) -> dict[str, Any]:
        return self.client.handle(
            {
                "route": "sensitivity",
                "api_key": api_key,
                "problem_name": problem_name,
                "task_parameters": dict(task_parameters),
                "n_base": n_base,
                "n_bootstrap": n_bootstrap,
                "seed": seed,
                "include_model": include_model,
            }
        )
