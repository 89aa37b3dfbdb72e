"""Crowd tuning over the process fabric: propose, lease, stream, fold.

:class:`FabricTuner` is the one tuning loop
(:meth:`repro.core.tuner.Tuner.tune` — constant-liar fantasy batches,
incremental surrogate fold-in, any model provider) run on a
:class:`~repro.fabric.coordinator.FabricCoordinator` of worker
*processes* over a durable job queue.  With a crowd endpoint
(:class:`~repro.service.router.CrowdRouter`, a retrying
:class:`~repro.service.client.ServiceClient` or any ``handle()``
endpoint), every completed evaluation is uploaded the moment it lands
by the tuner's own upload callback, which never raises into the loop
(counters ``crowd_uploads`` / ``crowd_upload_errors``).  One tuning run
therefore both **feeds** the shared database (uploads, each of which may
trigger a registry rebuild on the shard that stores it) and can
**consult** it (``consult=True`` seeds the surrogate with the task's
existing crowd records before the first proposal — the paper's crowd
premise end to end).

Whenever workers are idle the loop proposes up to ``batch`` new
configurations, conditioned on *fantasy observations* at every
evaluation still in flight (:func:`repro.core.optimizer.propose_batch`)
so concurrent proposals stay diverse, and folds results into the
surrogate in completion order.  A job lost more than ``max_redispatch``
times is recorded as a *failure* in the history, where it feeds the KNN
feasibility model and the crowd repository — how the paper's database
treats bad configurations.

Determinism contract: with one process, no faults and default
latencies, the fabric degenerates to propose → wait → fold and
reproduces the sequential tuner's trajectory bit-for-bit, for the plain
GP and for any TLA provider (pinned by
``tests/fabric/test_fabric_tuner.py``) — every speedup the fabric
benchmark measures is overlap, not a different algorithm.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..core import perf
from ..core.history import History
from ..core.problem import Evaluation, TuningProblem
from ..core.tuner import EvaluationCallback, Tuner, TunerOptions
from ..service.client import observation, query_request, upload_request
from .coordinator import FabricCoordinator, FabricOptions

__all__ = ["FabricTuner"]

#: fabric bookkeeping copied from evaluation metadata into the uploaded
#: record's machine configuration (its reproducibility block)
_MACHINE_KEYS = ("worker", "slurm_job_id", "nodelist", "attempts")


class FabricTuner(Tuner):
    """The tuning loop over the multi-process fabric.

    Parameters
    ----------
    problem:
        The tuning problem to minimize.
    options:
        BO-loop controls (shared with the sequential tuner).
    fabric:
        Fabric controls: processes, batch, latencies, lease/heartbeat,
        queue directory.
    callbacks:
        Called with every completed :class:`Evaluation` in completion
        order (in addition to crowd streaming when ``crowd`` is given).
    crowd:
        Any upload endpoint with ``handle(request) -> response`` — a
        :class:`~repro.service.client.ServiceClient`, a
        :class:`~repro.service.router.CrowdRouter`, or a bare
        :class:`~repro.service.shard.CrowdShard`.  Every evaluation is
        uploaded as it lands (requires ``api_key``); the run's perf
        counters ``crowd_uploads`` / ``crowd_upload_errors`` count the
        accepted and the rejected uploads.
    machine_configuration, software_configuration:
        Copied into every uploaded record; the fabric's ``worker``,
        ``slurm_job_id``, ``nodelist`` and ``attempts`` metadata join
        the machine block.
    consult:
        Query the crowd database for this problem+task before tuning
        and seed the surrogate with the records found (they feed the
        model, not the budget).
    on_progress:
        ``on_progress(completed, coordinator)`` for every collected
        evaluation — the hook benchmarks and the CLI use to kill or
        add workers mid-run.
    fault:
        ``fault(job_id, attempt) -> bool`` worker-crash hook (tests,
        benchmarks): the worker process running an attempt it picks
        dies mid-evaluation.
    """

    prefix = "Fabric"

    def __init__(
        self,
        problem: TuningProblem,
        options: TunerOptions | None = None,
        fabric: FabricOptions | None = None,
        callbacks: list[EvaluationCallback] | None = None,
        *,
        crowd: Any | None = None,
        api_key: str | None = None,
        machine_configuration: Mapping[str, Any] | None = None,
        software_configuration: Mapping[str, Any] | None = None,
        consult: bool = False,
        on_progress: Callable[[int, FabricCoordinator], None] | None = None,
        fault: Callable[[int, int], bool] | None = None,
    ) -> None:
        super().__init__(problem, options, callbacks)
        self.fabric = fabric or FabricOptions()
        self.batch, self.lie = self.fabric.batch, self.fabric.lie
        self.crowd = crowd
        self.api_key = api_key
        self.consult = bool(consult)
        self.on_progress = on_progress
        self._fault = fault
        if crowd is not None:
            if api_key is None:
                raise ValueError("crowd streaming requires api_key")
            self._machine = dict(machine_configuration or {})
            self._software = dict(software_configuration or {})
            self.callbacks.append(self._upload)
        elif consult:
            raise ValueError("consult=True requires a crowd endpoint")

    # -- crowd write path ----------------------------------------------------
    def _upload(self, evaluation: Evaluation) -> None:
        """Upload one evaluation, success or failure, as it lands.

        A rejected upload never raises into the loop: it is counted in
        ``crowd_upload_errors`` (``crowd_uploads`` counts the accepted
        ones) and tuning continues.
        """
        md = evaluation.metadata
        machine = {**self._machine, **{key: md[key] for key in _MACHINE_KEYS if key in md}}
        request = upload_request(
            self.api_key, self.problem.name, evaluation, machine, self._software
        )
        response = self.crowd.handle(request)
        perf.incr("crowd_uploads" if response.get("ok") else "crowd_upload_errors")

    # -- crowd read path -----------------------------------------------------
    def consult_crowd(self, task: Mapping[str, Any]) -> History:
        """Seed a history with the crowd's existing records for ``task``.

        Successes and failures both load (failures feed the feasibility
        model, the paper's treatment of bad configurations); a record
        becomes an observation by the rule ``query_source_data`` uses
        (:func:`~repro.service.client.observation`), and one that does
        not fit is skipped and counted in ``fabric_consult_skipped``.  The
        returned history is passed as a continuation,
        so crowd records feed the surrogate but never the budget.
        """
        assert self.crowd is not None and self.api_key is not None
        hist = History(task, self.problem.parameter_space)
        response = self.crowd.handle(
            query_request(
                self.api_key,
                problem_name=self.problem.name,
                task_parameters=task,
                require_success=False,
            )
        )
        if not response.get("ok"):
            return hist
        docs = sorted(
            response.get("records", []),
            key=lambda d: (float(d.get("timestamp", 0.0) or 0.0), d.get("uid", 0)),
        )
        for doc in docs:
            seen = observation(
                doc.get("tuning_parameters") or {},
                doc.get("output"),
                self.problem.parameter_space,
            )
            if seen is None:
                # a record that does not fit this problem: skip, don't die
                perf.incr("fabric_consult_skipped")
                continue
            config, output = seen
            metadata = {"crowd_uid": doc.get("uid"), "crowd_seed": True}
            hist.append(Evaluation(dict(task), config, output, metadata))
            perf.incr("fabric_consulted_records")
        return hist

    # -- the loop's two run-scoped pieces -------------------------------------
    def _seed_history(self, task: Mapping[str, Any]) -> History:
        return self.consult_crowd(task) if self.consult else super()._seed_history(task)

    def _executor(self, evaluate, seed: int | None) -> FabricCoordinator:
        self._coordinator = FabricCoordinator(
            evaluate, self.fabric, seed=seed, fault=self._fault, on_progress=self.on_progress
        )
        return self._coordinator

    @property
    def _last_redispatches(self) -> int:
        """Lease re-dispatches of the most recent run."""
        return self._coordinator.redispatches
