"""Client side of the crowd service: retries and a repository adapter.

:class:`ServiceClient` gives any consumer of the request/response
protocol (:class:`~repro.engine.stream.CrowdStreamer`, the router's own
shard connections, user code) a reliable ``handle()`` on top of an
unreliable channel: transport faults and ``throttled`` backpressure
responses are retried with bounded exponential backoff
(:class:`~repro.engine.faults.RetryPolicy`), honoring the server's
``retry_after`` hint.  Exhausted retries surface as an ``unavailable``
error response — protocol shaped, never an exception — so callers like
the streamer degrade exactly as they do against a rejecting server.

Uploads carry a client-generated **idempotency token**, stamped once
per logical write and shared by every retry attempt.  Without it, an
ack lost *after* the router applied the write (the transport's
response-fault model) would make the retry a brand-new write with a
fresh router uid — two copies of one evaluation.  The router maps the
token back to the original uid/timestamp stamp and the shards
deduplicate by uid, so N faulted attempts store exactly one record.

:class:`RemoteRepository` adapts a :class:`ServiceClient` to the subset
of the :class:`~repro.crowd.repository.CrowdRepository` surface the
crowd-tuning API uses, so a :class:`~repro.crowd.api.CrowdClient` — and
with it the whole TLA query path (``query_source_data`` feeding
:class:`~repro.tla.tuner.TransferTuner`) — runs unchanged over the
sharded service.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Mapping
from typing import Any, Protocol

from ..core import perf
from ..crowd.records import PerformanceRecord
from ..crowd.users import AuthError, User
from ..engine.faults import RetryPolicy
from .transport import SimTransport, TransportError

__all__ = ["ServiceClient", "RemoteRepository", "Endpoint"]

#: deployment-unique client tags for idempotency tokens (deterministic:
#: tags follow client construction order, never wall-clock or pids)
_client_tags = itertools.count(1)


class Endpoint(Protocol):  # pragma: no cover - typing helper
    """Anything that maps a request dict to a response dict."""

    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]: ...


class ServiceClient:
    """Bounded-retry client over a transport, router, or server.

    ``endpoint`` may be a :class:`SimTransport` (``request()``) or any
    object with ``handle()`` (a :class:`CrowdRouter`,
    :class:`CrowdServer`, or another client).
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
        self._tag = next(_client_tags)
        self._idem_counter = itertools.count(1)
        self._idem_lock = threading.Lock()

    def _stamp_idempotency(self, request: Mapping[str, Any]) -> Mapping[str, Any]:
        """Give an upload one token for *all* its retry attempts.

        Router-stamped requests (``uid`` present) are the router's own
        replica writes — already idempotent by uid — and a caller's
        explicit token is preserved.
        """
        if (
            request.get("route") != "upload"
            or "uid" in request
            or "idempotency_key" in request
        ):
            return request
        with self._idem_lock:
            token = f"c{self._tag}-{next(self._idem_counter)}"
        stamped = dict(request)
        stamped["idempotency_key"] = token
        return stamped

    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request, retrying faults and throttles; never raises."""
        request = self._stamp_idempotency(request)
        attempt = 0
        while True:
            try:
                response = self._send(request)
            except TransportError as exc:
                if not self.retry.allows(attempt):
                    perf.incr("service_client_gaveups")
                    return {
                        "ok": False,
                        "error": "unavailable",
                        "message": str(exc),
                        "attempts": attempt + 1,
                    }
                self._sleep(self.retry.backoff_s(attempt))
                attempt += 1
                self.n_retries += 1
                perf.incr("service_client_retries")
                continue
            if (
                isinstance(response, Mapping)
                and response.get("error") == "throttled"
                and self.retry.allows(attempt)
            ):
                wait = float(response.get("retry_after", 0.0))
                self._sleep(min(max(wait, self.retry.backoff_s(attempt)),
                                self.retry.cap_s))
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
