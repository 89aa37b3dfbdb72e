"""Crowd-tuning API (system S15, paper Sec. IV).

:class:`MetaDescription` validates the user-facing meta description (the
paper's code snippet: API key, problem name, ``problem_space``,
``configuration_space``, machine/software blocks, ``sync_crowd_repo``).

:class:`CrowdClient` is the programmable interface bound to one user's
API key, exposing the paper's utility functions:

* :meth:`query_function_evaluations` — raw records,
* :meth:`query_surrogate_model` — a portable trained surrogate,
* :meth:`query_predict_output` — point predictions from that surrogate,
* :meth:`query_sensitivity_analysis` — the Sobol' pipeline of Tables IV/V,
* :meth:`query_source_data` — records grouped per task as
  :class:`~repro.core.history.TaskData` (the TLA layer's input),
* :meth:`tune` — end-to-end: evaluate with any tuner and stream records
  back to the repository when ``sync_crowd_repo`` is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..core.gp import Surrogate
from ..core.sparse import make_surrogate, resolve_surrogate_kind, surrogate_from_dict
from ..core.history import TaskData
from ..core.problem import Evaluation, TuningProblem, task_key
from ..core.space import Space
from ..core.taskmodel import TaskAwareSurrogate
from ..core.tuner import Tuner, TunerOptions, TuningResult
from ..sensitivity.analyzer import SensitivityReport
from ..sensitivity.sobol import SobolIndices, sobol_analyze_function
from ..tla.base import TLAStrategy
from ..tla.tuner import TransferTuner
from .environment import parse_slurm_environment, parse_spack_spec
from .records import Accessibility, PerformanceRecord
from .repository import CrowdRepository

__all__ = ["MetaDescription", "CrowdClient"]


@dataclass
class MetaDescription:
    """Validated form of the paper's meta description."""

    api_key: str
    tuning_problem_name: str
    problem_space: dict[str, Any] = field(default_factory=dict)
    configuration_space: dict[str, Any] = field(default_factory=dict)
    machine_configuration: dict[str, Any] = field(default_factory=dict)
    software_configuration: dict[str, Any] = field(default_factory=dict)
    sync_crowd_repo: bool = False
    accessibility: Accessibility = field(default_factory=Accessibility)

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "MetaDescription":
        missing = [k for k in ("api_key", "tuning_problem_name") if not doc.get(k)]
        if missing:
            raise ValueError(f"meta description missing {missing}")
        sync = doc.get("sync_crowd_repo", "no")
        if isinstance(sync, str):
            sync = sync.strip().lower() in ("yes", "true", "1", "on")
        md = MetaDescription(
            api_key=doc["api_key"],
            tuning_problem_name=doc["tuning_problem_name"],
            problem_space=dict(doc.get("problem_space", {})),
            configuration_space=dict(doc.get("configuration_space", {})),
            machine_configuration=dict(doc.get("machine_configuration", {})),
            software_configuration=dict(doc.get("software_configuration", {})),
            sync_crowd_repo=bool(sync),
            accessibility=Accessibility.from_dict(doc.get("accessibility")),
        )
        md.validate()
        return md

    def validate(self) -> None:
        for block in ("input_space", "parameter_space", "output_space"):
            entries = self.problem_space.get(block, [])
            if entries:
                Space.from_list(entries)  # raises on malformed entries
        self._validate_configuration_space()

    def _validate_configuration_space(self) -> None:
        """Reject malformed restriction blocks at construction time.

        Without this, a machine entry that is not a mapping (say, a bare
        machine-name string) survives until query time and explodes deep
        inside filter construction with an ``AttributeError`` — which the
        service layer's error net does not even translate to a
        ``bad_request``.
        """
        config = self.configuration_space
        if not isinstance(config, Mapping):
            raise ValueError("configuration_space must be a mapping")
        for block in ("machine_configurations", "software_configurations"):
            entries = config.get(block, [])
            if isinstance(entries, (str, Mapping)) or not isinstance(
                entries, (list, tuple)
            ):
                raise ValueError(f"{block} must be a list of mappings")
            for entry in entries:
                if not isinstance(entry, Mapping):
                    raise ValueError(f"{block} entry is not a mapping: {entry!r}")
        for sw in config.get("software_configurations", []):
            for package, constraint in sw.items():
                if not isinstance(constraint, Mapping):
                    continue  # presence-only constraint
                for bound in ("version_from", "version_to"):
                    if bound in constraint and not isinstance(
                        constraint[bound], (list, tuple)
                    ):
                        raise ValueError(
                            f"software constraint {package!r}.{bound} must be "
                            f"a version list, got {constraint[bound]!r}"
                        )
        users = config.get("user_configurations", [])
        if isinstance(users, str) or not isinstance(users, (list, tuple)):
            raise ValueError("user_configurations must be a list of usernames")

    def parameter_space(self) -> Space:
        entries = self.problem_space.get("parameter_space", [])
        if not entries:
            raise ValueError("meta description has no parameter_space block")
        return Space.from_list(entries)

    def resolve_environment(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """Expand the machine/software blocks via the automatic parsers.

        ``machine_configuration`` may carry ``slurm: yes`` plus a
        ``slurm_environment`` dict; ``software_configuration`` may carry
        ``spack`` spec strings — the paper's automatic environment
        parsing hooks.
        """
        machine = {
            k: v
            for k, v in self.machine_configuration.items()
            if k not in ("slurm", "slurm_environment")
        }
        slurm_flag = str(self.machine_configuration.get("slurm", "no")).lower()
        if slurm_flag in ("yes", "true", "1"):
            env = self.machine_configuration.get("slurm_environment", {})
            if env:
                machine.update(parse_slurm_environment(env))
        software: dict[str, Any] = {}
        spack = self.software_configuration.get("spack")
        if spack:
            specs = spack if isinstance(spack, list) else [spack]
            for spec in specs:
                parsed = parse_spack_spec(str(spec))
                software[parsed.pop("name")] = parsed
        for key, value in self.software_configuration.items():
            if key != "spack":
                software[key] = value
        return machine, software


class CrowdClient:
    """A user's handle on the crowd repository (Sec. IV-B utilities)."""

    def __init__(
        self,
        repository: CrowdRepository,
        meta: MetaDescription,
        *,
        use_registry: bool = True,
    ) -> None:
        self.repository = repository
        self.meta = meta
        # authenticate eagerly so a bad key fails at construction
        self.user = repository.users.authenticate(meta.api_key)
        self._machine_config, self._software_config = meta.resolve_environment()
        # registry consultation is an optimization: it needs a repository
        # that speaks the registry routes (the service's RemoteRepository;
        # the in-process CrowdRepository does not) and degrades to the
        # fit-locally path on any miss or mismatch
        self._use_registry = bool(use_registry) and hasattr(repository, "predict")
        self._registry_ready = False

    # -- registry consultation ------------------------------------------------
    def _registry_usable(self, task: Mapping[str, Any] | None) -> bool:
        """Whether a registry answer would match this client's query.

        Registry models are fit per exact task on the *public* record
        set under the registered problem space alone — so a client
        restricting by ``configuration_space`` (or asking across tasks)
        needs the local path.  Clients holding private/group data fall
        back too, via the fingerprint/staleness checks failing to beat
        an explicit opt-out: the served predictions simply reflect the
        public view, which :meth:`query_surrogate_model` documents.
        """
        return self._use_registry and task is not None and not self.meta.configuration_space

    def _ensure_registered(self) -> bool:
        """Register this problem's space with the service once."""
        if self._registry_ready:
            return True
        response = self.repository.register_problem(
            self.meta.api_key,
            self.meta.tuning_problem_name,
            self.meta.problem_space,
        )
        if not response.get("ok"):
            # no registry attached (or the space was rejected): stop
            # paying a round-trip per query, this client fits locally
            self._use_registry = False
            return False
        self._registry_ready = True
        return True

    def _meta_fingerprint(self) -> str:
        from ..registry.entry import space_fingerprint

        return space_fingerprint(self.meta.problem_space)

    # -- QueryFunctionEvaluations -------------------------------------------
    def query_function_evaluations(
        self, *, require_success: bool = True, limit: int | None = None
    ) -> list[PerformanceRecord]:
        """Queried records for this problem under the meta restrictions."""
        return self.repository.query(
            self.meta.api_key,
            problem_name=self.meta.tuning_problem_name,
            problem_space=self.meta.problem_space,
            configuration_space=self.meta.configuration_space,
            require_success=require_success,
            limit=limit,
        )

    # -- grouping into TLA source datasets --------------------------------------
    def query_source_data(
        self, space: Space | None = None, *, min_samples: int = 2
    ) -> list[TaskData]:
        """Group queried records per task — the TLA algorithms' input."""
        space = space if space is not None else self.meta.parameter_space()
        groups: dict[tuple, list[PerformanceRecord]] = {}
        for rec in self.query_function_evaluations():
            groups.setdefault(task_key(rec.task_parameters), []).append(rec)
        out: list[TaskData] = []
        for records in groups.values():
            if len(records) < min_samples:
                continue
            X = space.to_unit_array([r.tuning_parameters for r in records])
            y = np.array([r.output for r in records], dtype=float)
            task = dict(records[0].task_parameters)
            out.append(TaskData(task, X, y, label=str(sorted(task.items()))))
        out.sort(key=lambda d: d.n, reverse=True)
        return out

    # -- QuerySurrogateModel -------------------------------------------------------
    def query_surrogate_model(
        self,
        task: Mapping[str, Any] | None = None,
        *,
        kernel: str = "rbf",
        seed: int | None = None,
    ) -> Surrogate:
        """A surrogate of the queried data (optionally one task's).

        With a registry-backed repository and a task-pinned query, the
        service's frozen model is fetched and reconstructed instead of
        refitting — bit-identical to the served predictor.  Registry
        models are fit on the *public* record set; clients whose queries
        depend on private/group data, on ``configuration_space``
        restrictions, or on a different kernel fit locally.  ``seed``
        pins the local fit's MLE restart draw (the registry's own fits
        are seeded by its options); the local fit picks dense or sparse
        by :mod:`repro.core.sparse`'s policy, as the registry's build does.
        """
        space = self.meta.parameter_space()
        if self._registry_usable(task) and self._ensure_registered():
            response = self.repository.model_meta(
                self.meta.api_key,
                self.meta.tuning_problem_name,
                task,
                include_model=True,
            )
            if (
                response.get("ok")
                and response.get("kernel") == kernel
                and response.get("space_fingerprint") == self._meta_fingerprint()
            ):
                return surrogate_from_dict(dict(response["model"]))
        records = self.query_function_evaluations()
        if task is not None:
            records = [r for r in records if task_key(r.task_parameters) == task_key(task)]
        if len(records) < 2:
            raise ValueError(
                f"need >= 2 queried samples to build a surrogate, got {len(records)}"
            )
        return self._fit_locally(records, kernel, seed)

    def _fit_locally(
        self, records: list[PerformanceRecord], kernel: str, seed: int | None
    ) -> Surrogate:
        """The surrogate of ``records`` fitted the way a registry build
        fits it — the kind :mod:`repro.core.sparse` picks for their count,
        the factory's defaults — from ``seed``."""
        space = self.meta.parameter_space()
        X = space.to_unit_array([r.tuning_parameters for r in records])
        y = np.array([r.output for r in records], dtype=float)
        kind = resolve_surrogate_kind("auto", len(records))
        return make_surrogate(kind, kernel, dim=space.dim, seed=seed).fit(X, y)

    # -- QueryPredictOutput -----------------------------------------------------------
    def query_predict_output(
        self,
        configurations: list[Mapping[str, Any]],
        task: Mapping[str, Any] | None = None,
        *,
        seed: int | None = None,
    ) -> np.ndarray:
        """Predicted outputs for given configurations.

        Registry-backed: a task-pinned call sends the configurations to
        the service and gets batched frozen-model predictions back — no
        model shipping, no GP fit anywhere on the hot path.  Falls back
        to fitting locally (see :meth:`query_surrogate_model`) when the
        registry cannot answer for this client.
        """
        space = self.meta.parameter_space()
        if self._registry_usable(task) and self._ensure_registered():
            response = self.repository.predict(
                self.meta.api_key,
                self.meta.tuning_problem_name,
                task,
                configurations,
            )
            if (
                response.get("ok")
                and response.get("space_fingerprint") == self._meta_fingerprint()
            ):
                return np.asarray(response["mean"], dtype=float)
        gp = self.query_surrogate_model(task, seed=seed)
        return gp.predict_mean(space.to_unit_array(configurations))

    # -- cross-task performance prediction ------------------------------------------
    def query_task_model(
        self,
        input_space: Space,
        *,
        log_output: bool = True,
        seed: int | None = None,
    ) -> TaskAwareSurrogate:
        """Fit a joint (task, configuration) surrogate on all queried data.

        Unlike :meth:`query_surrogate_model` this pools samples across
        *all* tasks and can predict for tasks nobody measured (GPTune's
        performance-prediction use case).
        """
        records = self.query_function_evaluations()
        if len(records) < 4:
            raise ValueError(
                f"cross-task model needs >= 4 queried samples, got {len(records)}"
            )
        model = TaskAwareSurrogate(
            input_space, self.meta.parameter_space(), log_output=log_output, seed=seed
        )
        model.fit(
            [r.task_parameters for r in records],
            [r.tuning_parameters for r in records],
            [r.output for r in records],
        )
        return model

    # -- QuerySensitivityAnalysis ---------------------------------------------------------
    def query_sensitivity_analysis(
        self,
        task: Mapping[str, Any] | None = None,
        *,
        n_base: int = 1024,
        seed: int | None = None,
        max_samples: int | None = None,
    ) -> SensitivityReport:
        """The paper's Sobol' pipeline over queried data (Tables IV-V).

        Registry-backed (task-pinned, no ``max_samples`` subsetting): the
        service runs the Sobol' analysis against its frozen surrogate and
        ships the indices plus the model snapshot back, so the client
        builds the same :class:`SensitivityReport` without fitting a GP.
        Otherwise the analysis runs here on the surrogate
        :meth:`query_surrogate_model` would fit, so with ``seed`` equal to
        the registry's seed both paths give the same indices.
        """
        space = self.meta.parameter_space()
        if (
            max_samples is None
            and self._registry_usable(task)
            and self._ensure_registered()
        ):
            response = self.repository.sensitivity(
                self.meta.api_key,
                self.meta.tuning_problem_name,
                task,
                n_base=n_base,
                seed=seed,
                include_model=True,
            )
            if (
                response.get("ok")
                and response.get("space_fingerprint") == self._meta_fingerprint()
            ):
                indices = SobolIndices(
                    names=list(response["names"]),
                    S1=np.asarray(response["S1"], dtype=float),
                    ST=np.asarray(response["ST"], dtype=float),
                    S1_conf=np.asarray(response["S1_conf"], dtype=float),
                    ST_conf=np.asarray(response["ST_conf"], dtype=float),
                    variance=float(response["variance"]),
                    n_base=int(response["n_base"]),
                )
                surrogate = surrogate_from_dict(dict(response["model"]))
                return SensitivityReport(
                    indices, space, surrogate, int(response["n_samples"])
                )
        records = self.query_function_evaluations()
        if task is not None:
            records = [r for r in records if task_key(r.task_parameters) == task_key(task)]
        if len(records) < space.dim + 2:
            raise ValueError(
                f"sensitivity analysis needs more data: {len(records)} samples "
                f"for {space.dim} parameters"
            )
        if max_samples is not None and len(records) > max_samples:
            rng = np.random.default_rng(seed)
            idx = rng.choice(len(records), size=max_samples, replace=False)
            records = [records[i] for i in idx]
        surrogate = self._fit_locally(records, "rbf", seed)
        indices = sobol_analyze_function(
            surrogate.predict_mean, space.dim, n_base=n_base, names=space.names, seed=seed
        )
        return SensitivityReport(indices, space, surrogate, len(records))

    # -- uploading ----------------------------------------------------------------------
    def record_evaluation(self, evaluation: Evaluation) -> int | None:
        """Upload one evaluation (no-op unless ``sync_crowd_repo``)."""
        if not self.meta.sync_crowd_repo:
            return None
        record = PerformanceRecord(
            problem_name=self.meta.tuning_problem_name,
            task_parameters=dict(evaluation.task),
            tuning_parameters=dict(evaluation.config),
            output=None if evaluation.failed else float(evaluation.output),
            machine_configuration=dict(self._machine_config),
            software_configuration=dict(self._software_config),
            accessibility=self.meta.accessibility,
        )
        return self.repository.upload(record, self.meta.api_key)

    # -- end-to-end tuning -----------------------------------------------------------------
    def tune(
        self,
        problem: TuningProblem,
        task: Mapping[str, Any],
        n_samples: int,
        *,
        strategy: TLAStrategy | None = None,
        options: TunerOptions | None = None,
        seed: int | None = None,
        min_source_samples: int = 5,
    ) -> TuningResult:
        """Tune ``task``: transfer-tune when the crowd has relevant data.

        When ``strategy`` is given and the repository yields at least one
        source task with ``min_source_samples`` successful samples (after
        excluding the target task itself), a
        :class:`~repro.tla.tuner.TransferTuner` drives the loop;
        otherwise plain single-task BO.  All evaluations stream back to
        the repository when the meta description enables syncing.
        """
        callbacks: list[Callable[[Evaluation], None]] = [self.record_evaluation]
        sources: list[TaskData] = []
        if strategy is not None:
            sources = [
                s
                for s in self.query_source_data(
                    problem.parameter_space, min_samples=min_source_samples
                )
                if task_key(s.task) != task_key(task)
            ]
        if strategy is not None and sources:
            tuner: Tuner = TransferTuner(
                problem, strategy, sources, options=options, callbacks=callbacks
            )
        else:
            tuner = Tuner(problem, options=options, callbacks=callbacks)
        return tuner.tune(task, n_samples, seed=seed)
