"""Client side of the crowd service: retries, and the one crowd client.

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

Every caller reaches the crowd through the node's routes, one way.
:class:`RemoteRepository` is the crowd as one user's code sees it:
the routes a :class:`~repro.crowd.api.CrowdClient` calls, over a
:class:`ServiceClient` to any ``handle()`` endpoint — a bare
:class:`~repro.service.shard.CrowdShard` (memory-only or durable, with
or without a registry), the router, or a deployment's client — with
protocol errors turned back into exceptions.  The protocol is spelled
here once: :func:`upload_request` builds every evaluation upload (the
crowd client's and the fabric tuner's), :func:`query_request` every
record query, and :func:`observation` is the one rule by which a
queried record becomes a tuning observation (TLA source data, the
fabric's crowd consult).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Protocol

from ..core import perf
from ..core.problem import Evaluation
from ..core.space import Space, SpaceError
from ..crowd.records import Accessibility, PerformanceRecord
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


def upload_request(
    api_key: str,
    problem_name: str,
    evaluation: Evaluation,
    machine: Mapping[str, Any],
    software: Mapping[str, Any],
    accessibility: Accessibility | None = None,
) -> dict[str, Any]:
    """The ``upload`` request of one evaluation (a failure's output is
    ``null``); without ``accessibility`` the node stores it public."""
    request = {
        "route": "upload",
        "api_key": api_key,
        "problem_name": problem_name,
        "task_parameters": dict(evaluation.task),
        "tuning_parameters": dict(evaluation.config),
        "output": None if evaluation.failed else float(evaluation.output),
        "machine_configuration": dict(machine),
        "software_configuration": dict(software),
    }
    if accessibility is not None:
        request["accessibility"] = accessibility.to_dict()
    return request


def query_request(
    api_key: str,
    *,
    problem_name: str | None = None,
    problem_space: Mapping[str, Any] | None = None,
    configuration_space: Mapping[str, Any] | None = None,
    task_parameters: Mapping[str, Any] | None = None,
    require_success: bool = True,
    limit: int | None = None,
) -> dict[str, Any]:
    """The ``query`` request of a meta-description query (``task_parameters``
    pins one task); a filter that is ``None`` or an empty space is left out."""
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
    return request


def observation(
    config: Mapping[str, Any], output: Any, space: Space
) -> tuple[dict[str, Any], float | None] | None:
    """A queried record's ``(configuration, output)`` as an observation
    in ``space``, or ``None`` for a record that does not fit: parameter
    names other than exactly the space's, a value the space does not
    hold, or an output that is neither null nor a number."""
    config = dict(config)
    if set(config) != set(space.names):
        return None
    try:
        space.validate(config)
        return config, None if output is None else float(output)
    except (SpaceError, TypeError, ValueError):
        return None


class RemoteRepository:
    """The crowd as one user's code sees it, through the node's routes.

    ``endpoint`` is a :class:`ServiceClient`, used as given, or anything
    a :class:`ServiceClient` wraps.  Record routes raise
    :class:`~repro.crowd.users.AuthError` for a refused key and
    ``RuntimeError`` for any other refusal; the registry routes return
    the raw response, ok or not, because the crowd client treats the
    registry as an optimization and falls back to fitting locally.
    """

    def __init__(self, endpoint: ServiceClient | SimTransport | Endpoint) -> None:
        self.client = (
            endpoint if isinstance(endpoint, ServiceClient) else ServiceClient(endpoint)
        )

    def _call(self, request: Mapping[str, Any]) -> dict[str, Any]:
        response = self.client.handle(request)
        if response.get("ok"):
            return response
        kind = response.get("error")
        message = response.get("message", str(response))
        if kind == "auth":
            raise AuthError(message)
        raise RuntimeError(f"crowd service error ({kind}): {message}")

    def authenticate(self, api_key: str) -> User:
        response = self._call({"route": "whoami", "api_key": api_key})
        return User(
            username=response["username"],
            email=response.get("email", ""),
            groups=set(response.get("groups", [])),
        )

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
        """The records the :func:`query_request` of these filters returns."""
        request = query_request(
            api_key,
            problem_name=problem_name,
            problem_space=problem_space,
            configuration_space=configuration_space,
            task_parameters=task_parameters,
            require_success=require_success,
            limit=limit,
        )
        response = self._call(request)
        return [PerformanceRecord.from_doc(d) for d in response["records"]]

    def query_sql(self, api_key: str, sql: str) -> list[PerformanceRecord]:
        response = self._call({"route": "query_sql", "api_key": api_key, "sql": sql})
        return [PerformanceRecord.from_doc(d) for d in response["records"]]

    def upload(
        self,
        api_key: str,
        problem_name: str,
        evaluation: Evaluation,
        machine: Mapping[str, Any],
        software: Mapping[str, Any],
        accessibility: Accessibility | None = None,
    ) -> int:
        """Upload one evaluation (:func:`upload_request`); its uid."""
        request = upload_request(
            api_key, problem_name, evaluation, machine, software, accessibility
        )
        return int(self._call(request)["uid"])

    def problems(self, api_key: str) -> list[str]:
        return list(self._call({"route": "problems", "api_key": api_key})["problems"])

    # -- registry routes: the raw response ------------------------------------
    def _registry(
        self, route: str, api_key: str, problem_name: str, **fields: Any
    ) -> dict[str, Any]:
        request = {"route": route, "api_key": api_key, "problem_name": problem_name}
        return self.client.handle({**request, **fields})

    def register_problem(
        self, api_key: str, problem_name: str, problem_space: Mapping[str, Any]
    ) -> dict[str, Any]:
        return self._registry(
            "register_problem", api_key, problem_name, problem_space=dict(problem_space)
        )

    def predict(
        self,
        api_key: str,
        problem_name: str,
        task_parameters: Mapping[str, Any],
        configurations: list[Mapping[str, Any]],
    ) -> dict[str, Any]:
        return self._registry(
            "predict",
            api_key,
            problem_name,
            task_parameters=dict(task_parameters),
            configurations=[dict(c) for c in configurations],
        )

    def model_meta(
        self,
        api_key: str,
        problem_name: str,
        task_parameters: Mapping[str, Any],
        *,
        include_model: bool = False,
    ) -> dict[str, Any]:
        return self._registry(
            "model_meta",
            api_key,
            problem_name,
            task_parameters=dict(task_parameters),
            include_model=include_model,
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
        return self._registry(
            "sensitivity",
            api_key,
            problem_name,
            task_parameters=dict(task_parameters),
            n_base=n_base,
            n_bootstrap=n_bootstrap,
            seed=seed,
            include_model=include_model,
        )
