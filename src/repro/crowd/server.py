"""Request/response API service over the crowd repository.

The production GPTuneCrowd repository is reached over HTTPS
(gptune.lbl.gov).  No network exists in this environment, so this module
implements the service *protocol* layer with the transport factored out:
:class:`CrowdServer` maps JSON-shaped request dicts to JSON-shaped
response dicts, one route per operation of the web API.  A real
deployment would wrap :meth:`handle` in a dozen lines of any HTTP
framework; the tests exercise the full protocol surface directly.

Protocol conventions (mirroring typical REST-over-JSON services):

* every request: ``{"route": <name>, "api_key": <key>, ...params}``
  (``register`` alone requires no key),
* success: ``{"ok": true, ...payload}``,
* failure: ``{"ok": false, "error": <kind>, "message": <detail>}`` with
  ``error`` in {"auth", "bad_request", "not_found"} — internal details
  never leak into responses.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..registry import ModelRegistry

from .records import Accessibility, PerformanceRecord
from .repository import CrowdRepository
from .users import AuthError
from .views import contributor_stats, leaderboard, render_html

__all__ = ["CrowdServer", "bad_request"]

#: the largest ``n_base`` / ``n_bootstrap`` a ``sensitivity`` request may
#: ask for: the first sizes the Saltelli design (``n_base * (d + 2)``
#: predictions), both scale the CPU time of a shard that serves one
#: request at a time
_SENSITIVITY_MAX_BASE = 1 << 14
_SENSITIVITY_MAX_BOOTSTRAP = 10_000


class CrowdServer:
    """Transport-free request dispatcher for the crowd service."""

    #: route -> handler method name, resolved per request (a table of
    #: bound methods would make every server a reference cycle, alive
    #: after its last holder until the next collector pass)
    _ROUTES = {
        route: f"_route_{route}"
        for route in (
            "register",
            "issue_key",
            "whoami",
            "upload",
            "query",
            "query_sql",
            "problems",
            "leaderboard",
            "contributors",
            "browse_html",
            "register_problem",
            "predict",
            "model_meta",
            "sensitivity",
        )
    }

    def __init__(
        self,
        repository: CrowdRepository | None = None,
        *,
        registry: "ModelRegistry | None" = None,
    ) -> None:
        self.repository = repository if repository is not None else CrowdRepository()
        #: optional frozen-model registry (repro.registry); the four
        #: registry routes answer not_found when none is attached
        self.registry = registry

    # -- dispatch ----------------------------------------------------------
    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Process one request dict; never raises."""
        if not isinstance(request, Mapping):
            return bad_request("request must be an object")
        return self._answer(request, self._ROUTES)

    def summary(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """The shard-level ``summary`` route: the partial aggregate rows
        of one problem as one user may see them (``tasks``), for the
        router to merge.  Not a public route — :meth:`routes` and
        :meth:`handle` do not know it; :class:`CrowdShard` serves it
        beside ``digest`` / ``fetch`` — but answered under the same
        error mapping as one."""
        return self._answer(request, {"summary": "_route_summary"})

    def _answer(
        self, request: Mapping[str, Any], routes: Mapping[str, str]
    ) -> dict[str, Any]:
        """Run the request's route (``routes`` names its method), mapping
        what the handler raises to the protocol's failure responses."""
        route = request.get("route")
        try:
            handler = routes.get(route)  # an unhashable route: TypeError
            if handler is None:
                return {
                    "ok": False,
                    "error": "not_found",
                    "message": f"unknown route {route!r}",
                }
            return getattr(self, handler)(request)
        except AuthError as exc:
            return {"ok": False, "error": "auth", "message": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return bad_request(str(exc))
        # KeyError (missing request field -> bad_request) is a LookupError
        # subclass, so this clause must stay below the tuple above; what
        # reaches it is the registry's "no such model" signal
        except LookupError as exc:
            return {"ok": False, "error": "not_found", "message": str(exc)}

    def handle_json(self, payload: str) -> str:
        """Wire-format entry point: JSON string in, JSON string out."""
        try:
            request = json.loads(payload)
        except json.JSONDecodeError as exc:
            return json.dumps(bad_request(f"invalid JSON: {exc.msg}"))
        return json.dumps(self.handle(request), default=str)

    def routes(self) -> list[str]:
        return sorted(self._ROUTES)

    # -- account routes -------------------------------------------------------
    def _route_register(self, req: Mapping[str, Any]) -> dict[str, Any]:
        user = self.repository.users.register(req["username"], req["email"])
        key = self.repository.users.issue_api_key(user.username)
        return {"ok": True, "username": user.username, "api_key": key}

    def _route_issue_key(self, req: Mapping[str, Any]) -> dict[str, Any]:
        user = self.repository.users.authenticate(req["api_key"])
        new_key = self.repository.users.issue_api_key(user.username)
        return {"ok": True, "api_key": new_key}

    def _route_whoami(self, req: Mapping[str, Any]) -> dict[str, Any]:
        user = self.repository.users.authenticate(req["api_key"])
        return {
            "ok": True,
            "username": user.username,
            "email": user.email,
            "groups": sorted(user.groups),
        }

    # -- record routes -----------------------------------------------------------
    def _route_upload(self, req: Mapping[str, Any]) -> dict[str, Any]:
        # "uid"/"timestamp" are trusted-front-end fields: the sharded
        # router stamps every replica of one logical write identically so
        # cross-shard reads deduplicate.  End users talk to the router,
        # which never forwards client-supplied values for them.
        if not isinstance(req.get("idempotency_key", ""), str):
            raise TypeError("idempotency_key must be a string")
        uid = int(req.get("uid", 0))
        if uid:
            # idempotent replay: the router re-sends a stamped write when
            # a client retries after a lost ack (same idempotency token
            # -> same uid) and when replaying hinted handoff; a record
            # already stored under this uid must not be duplicated
            self.repository.users.authenticate(req["api_key"])
            if self.repository.store["performance_records"].contains("uid", uid):
                return {"ok": True, "uid": uid, "duplicate": True}
        record = PerformanceRecord(
            problem_name=req["problem_name"],
            task_parameters=dict(req["task_parameters"]),
            tuning_parameters=dict(req["tuning_parameters"]),
            output=req.get("output"),
            machine_configuration=dict(req.get("machine_configuration", {})),
            software_configuration=dict(req.get("software_configuration", {})),
            accessibility=Accessibility.from_dict(req.get("accessibility")),
            uid=int(req.get("uid", 0)),
        )
        ts = req.get("timestamp")
        stored = self.repository.upload_doc(
            record.to_doc(), req["api_key"], timestamp=None if ts is None else float(ts)
        )
        if self.registry is not None:
            self.registry.notify([stored])
        return {"ok": True, "uid": stored["uid"]}

    def _route_query(self, req: Mapping[str, Any]) -> dict[str, Any]:
        task = req.get("task_parameters")
        records = self.repository.query(
            req["api_key"],
            problem_name=req.get("problem_name"),
            problem_space=req.get("problem_space"),
            configuration_space=req.get("configuration_space"),
            task_parameters=None if task is None else dict(task),
            require_success=bool(req.get("require_success", True)),
            limit=req.get("limit"),
        )
        return {"ok": True, "records": [r.to_doc() for r in records]}

    def _route_query_sql(self, req: Mapping[str, Any]) -> dict[str, Any]:
        records = self.repository.query_sql(req["api_key"], req["sql"])
        return {"ok": True, "records": [r.to_doc() for r in records]}

    def _route_problems(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {"ok": True, "problems": self.repository.problems(req["api_key"])}

    # -- registry routes ---------------------------------------------------------------
    def _registry(self) -> "ModelRegistry":
        if self.registry is None:
            raise LookupError("no model registry attached to this server")
        return self.registry

    def _route_register_problem(self, req: Mapping[str, Any]) -> dict[str, Any]:
        registry = self._registry()
        self.repository.users.authenticate(req["api_key"])
        ts = req.get("timestamp")
        changed = registry.register_problem(
            req["problem_name"],
            dict(req["problem_space"]),
            uid=str(req.get("uid", "")),
            timestamp=None if ts is None else float(ts),
        )
        from ..registry import space_fingerprint

        return {
            "ok": True,
            "changed": changed,
            "space_fingerprint": space_fingerprint(req["problem_space"]),
        }

    def _route_predict(self, req: Mapping[str, Any]) -> dict[str, Any]:
        registry = self._registry()
        self.repository.users.authenticate(req["api_key"])
        out = registry.predict(
            req["problem_name"],
            dict(req["task_parameters"]),
            list(req["configurations"]),
        )
        out["ok"] = True
        return out

    def _route_model_meta(self, req: Mapping[str, Any]) -> dict[str, Any]:
        registry = self._registry()
        self.repository.users.authenticate(req["api_key"])
        out = registry.model_meta(
            req["problem_name"],
            dict(req["task_parameters"]),
            include_model=bool(req.get("include_model", False)),
        )
        out["ok"] = True
        return out

    def _route_sensitivity(self, req: Mapping[str, Any]) -> dict[str, Any]:
        registry = self._registry()
        self.repository.users.authenticate(req["api_key"])
        n_base = int(req.get("n_base", 1024))
        n_bootstrap = int(req.get("n_bootstrap", 100))
        if n_base > _SENSITIVITY_MAX_BASE:
            raise ValueError(f"n_base must be <= {_SENSITIVITY_MAX_BASE}")
        if n_bootstrap > _SENSITIVITY_MAX_BOOTSTRAP:
            raise ValueError(f"n_bootstrap must be <= {_SENSITIVITY_MAX_BOOTSTRAP}")
        seed = req.get("seed")
        out = registry.sensitivity(
            req["problem_name"],
            dict(req["task_parameters"]),
            n_base=n_base,
            n_bootstrap=n_bootstrap,
            seed=None if seed is None else int(seed),
            include_model=bool(req.get("include_model", False)),
        )
        out["ok"] = True
        return out

    # -- browse routes ------------------------------------------------------------------
    # a missing ``problem_name`` reaches ``CrowdRepository.task_summary``
    # as None and is refused there with every other non-name
    def _route_summary(self, req: Mapping[str, Any]) -> dict[str, Any]:
        tasks = self.repository.task_summary(req["api_key"], req.get("problem_name"))
        return {"ok": True, "tasks": tasks}

    def _route_leaderboard(self, req: Mapping[str, Any]) -> dict[str, Any]:
        rows = leaderboard(self.repository, req["api_key"], req.get("problem_name"))
        return {"ok": True, "rows": [r.to_response() for r in rows]}

    def _route_contributors(self, req: Mapping[str, Any]) -> dict[str, Any]:
        stats = contributor_stats(
            self.repository, req["api_key"], req.get("problem_name")
        )
        return {"ok": True, "contributors": stats}

    def _route_browse_html(self, req: Mapping[str, Any]) -> dict[str, Any]:
        html = render_html(self.repository, req["api_key"], req.get("problem_name"))
        return {"ok": True, "html": html}


def bad_request(message: str) -> dict[str, Any]:
    """The protocol's ``bad_request`` failure response."""
    return {"ok": False, "error": "bad_request", "message": message}
