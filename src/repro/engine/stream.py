"""Streaming completed evaluations to the crowd repository.

:class:`CrowdStreamer` is an :data:`~repro.core.tuner.EvaluationCallback`
that posts every evaluation — success *or* failure — to the upload route
of any protocol endpoint the moment it lands, so the shared database
grows while the tuning run is still in flight (the paper's crowd-tuning
mode, where every participant's history becomes everyone else's
transfer-learning source data).

The endpoint is anything with a ``handle(request) -> response`` method:
a bare :class:`~repro.service.shard.CrowdShard`, the sharded
:class:`~repro.service.router.CrowdRouter`, or — against a flaky
transport — a retrying :class:`~repro.service.client.ServiceClient`,
which turns transport faults into bounded-backoff retries instead of
lost records.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol

from ..core import perf
from ..core.problem import Evaluation

__all__ = ["CrowdStreamer"]


class UploadEndpoint(Protocol):  # pragma: no cover - typing helper
    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]: ...

#: engine bookkeeping copied from evaluation metadata into the record's
#: machine configuration (the crowd record's reproducibility block)
_MACHINE_KEYS = ("worker", "slurm_job_id", "nodelist", "attempts")


class CrowdStreamer:
    """Upload evaluations to a crowd server as they complete.

    Uploads never raise into the tuning loop: a rejected record is
    counted (``crowd_upload_errors``) and remembered in ``errors`` but
    tuning continues — a flaky repository must not kill the run.
    """

    def __init__(
        self,
        server: UploadEndpoint,
        api_key: str,
        problem_name: str,
        *,
        machine_configuration: Mapping[str, Any] | None = None,
        software_configuration: Mapping[str, Any] | None = None,
        accessibility: Mapping[str, Any] | None = None,
    ) -> None:
        self.server = server
        self.api_key = api_key
        self.problem_name = problem_name
        self.machine_configuration = dict(machine_configuration or {})
        self.software_configuration = dict(software_configuration or {})
        self.accessibility = dict(accessibility) if accessibility else None
        self.uploaded_uids: list[str] = []
        self.errors: list[dict[str, Any]] = []

    def __call__(self, evaluation: Evaluation) -> None:
        machine = dict(self.machine_configuration)
        for key in _MACHINE_KEYS:
            if key in evaluation.metadata:
                machine[key] = evaluation.metadata[key]
        request: dict[str, Any] = {
            "route": "upload",
            "api_key": self.api_key,
            "problem_name": self.problem_name,
            "task_parameters": dict(evaluation.task),
            "tuning_parameters": dict(evaluation.config),
            "output": evaluation.output,
            "machine_configuration": machine,
            "software_configuration": dict(self.software_configuration),
        }
        if self.accessibility is not None:
            request["accessibility"] = self.accessibility
        response = self.server.handle(request)
        if response.get("ok"):
            self.uploaded_uids.append(response["uid"])
            perf.incr("crowd_uploads")
        else:
            self.errors.append(response)
            perf.incr("crowd_upload_errors")

    @property
    def n_uploaded(self) -> int:
        return len(self.uploaded_uids)
