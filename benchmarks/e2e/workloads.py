"""The five workloads: sizes, generated inputs, set-up, measured phase, checks.

Every workload drives the program through public entry points only
(``build_service``, ``ServiceClient.handle``, ``CrowdClient``,
``Tuner``/``TransferTuner``/``FabricTuner``, ``restart_shard``) with
library defaults wherever a size below does not say otherwise, so the
numbers are what a user gets.

A workload object is built from ``--seed`` alone: :meth:`Workload.__init__`
generates every input, untimed (the application model's evaluations that
stand in for other users' past runs are inputs, not system work), and
the tuners' own RNG seeds derive from it.  The runner then calls
:func:`warm_up` and :meth:`setup` on a fresh :class:`Deployment` (together
timed as ``setup_s``), :meth:`measure` (the measured phase) and
:meth:`check`.

Sizes are constants here.  ``Sizes.ops`` scales the measured operation
counts (``--seconds`` over the nominal ``metrics.RUN_SECONDS``),
``Sizes.setup`` the seeded data; ``--smoke`` divides both by ten.  The
measured phases take 10 to 20 s on the 2-core reference box.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.apps import PDGEQRF
from repro.core import Tuner, TunerOptions, perf
from repro.core.problem import Evaluation, task_key
from repro.crowd import CrowdClient, MetaDescription
from repro.fabric import DurableJobQueue, FabricOptions, FabricTuner
from repro.hpc import cori_haswell
from repro.service import RegistryOptions, RemoteRepository, build_service
from repro.tla import TransferTuner, get_strategy

from metrics import READ_ROUTES, median, percentile
from spans import (
    TimedCallback,
    TimedEndpoint,
    TimedObjective,
    TracedStrategy,
    Tracer,
    maybe_span,
    route_seconds,
    traced_target,
)

__all__ = [
    "WORKLOADS",
    "Deployment",
    "Sizes",
    "warm_up",
]


MACHINES = [
    {"machine_name": "cori", "haswell": {"nodes": 8, "cores": 32}},
    {"machine_name": "Cori-Haswell", "haswell": {"nodes": 8, "cores": 32}},
    {"machine_name": "cori", "haswell": {"nodes": 4, "cores": 32}},
]
SOFTWARE = [
    {"scalapack": {"version_split": [2, 1, 0]}, "gcc": {"version_split": [8, 3, 0]}},
    {"scalapack": {"version_split": [2, 2, 0]}, "gcc": {"version_split": [9, 1, 0]}},
]
#: failures the application model reports for a bad configuration; any
#: other failure tag is an abandoned job or an escaped exception
APP_REJECTIONS = ("constraint", "non-finite")


@dataclass(frozen=True)
class Sizes:
    ops: float = 1.0
    setup: float = 1.0

    def n_ops(self, nominal: int, floor: int) -> int:
        return max(int(round(nominal * self.ops)), floor)

    def n_setup(self, nominal: int, floor: int) -> int:
        return max(int(round(nominal * self.setup)), floor)


class Deployment:
    """The common deployment in a fresh directory, plus the load generator's clock.

    4 shards, replication 2, write quorum 2, read quorum 1, on-disk WAL +
    snapshots, registry attached with ``min_new_samples=32`` and
    synchronous builds; everything else is the library default.
    """

    def __init__(self, root: Path) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="deploy-", dir=root))
        self.svc = build_service(
            4,
            replication=2,
            write_quorum=2,
            read_quorum=1,
            data_dir=self.dir / "service",
            registry=RegistryOptions(min_new_samples=32),
        )
        #: counters and timers of the measured phase
        self.stats = perf.PerfStats()
        self.tracer: Tracer | None = None
        self.endpoint = TimedEndpoint(self.svc.client, self.stats.counters)
        self.repository = RemoteRepository(self.endpoint)
        self.replica_writes = [0]
        self._log_start = 0

    def begin_measuring(self, tracer: Tracer | None) -> None:
        """Everything the endpoint logs from here on belongs to the measured phase."""
        self._log_start = len(self.endpoint.log)
        if tracer is not None:
            self.tracer = self.endpoint.tracer = tracer
            self.trace_shards()

    def measured_log(self) -> list[tuple[str, float, bool, bool]]:
        return self.endpoint.log[self._log_start:]

    def trace_shards(self) -> None:
        """(Re-)wrap every transport target; a restart installs new ones."""
        if self.tracer is None:
            return
        for name, transport in self.svc.transports.items():
            transport.target = traced_target(
                self.svc.shards[name].handle, self.tracer, self.replica_writes
            )

    def register(self, username: str) -> str:
        return self.svc.register_user(username, f"{username}@bench.org")[1]

    def count(self, key: str, problem_name: str, task: Mapping[str, Any]) -> int:
        """Records the service holds for one task, failures included."""
        response = self.svc.client.handle(task_query(key, problem_name, task))
        return len(response["records"]) if response.get("ok") else -1

    def disk_bytes(self, sub: str = "service") -> int:
        return sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(self.dir / sub)
            for name in names
        )

    def close(self) -> None:
        self.svc.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def upload_request(
    key: str | None,
    problem_name: str,
    task: Mapping[str, Any],
    config: Mapping[str, Any],
    output: float | None,
    variant: int = 0,
) -> dict[str, Any]:
    return {
        "route": "upload",
        "api_key": key,
        "problem_name": problem_name,
        "task_parameters": dict(task),
        "tuning_parameters": dict(config),
        "output": output,
        "machine_configuration": dict(MACHINES[variant % len(MACHINES)]),
        "software_configuration": dict(SOFTWARE[variant % len(SOFTWARE)]),
    }


def task_query(key: str, problem_name: str, task: Mapping[str, Any]) -> dict[str, Any]:
    """Every record of one task, failures included (a single-shard read)."""
    return {
        "route": "query",
        "api_key": key,
        "problem_name": problem_name,
        "task_parameters": dict(task),
        "require_success": False,
    }


def with_key(bodies: list[dict[str, Any]], key: str) -> list[dict[str, Any]]:
    return [dict(body, api_key=key) for body in bodies]


def meta_for(key: str, problem, *, sync: bool) -> MetaDescription:
    return MetaDescription.from_dict(
        {
            "api_key": key,
            "tuning_problem_name": problem.name,
            "problem_space": problem.describe(),
            "machine_configuration": MACHINES[0],
            "software_configuration": SOFTWARE[0],
            "sync_crowd_repo": "yes" if sync else "no",
        }
    )


def sample_evaluations(problem, task, n_success: int, rng, *, keep_failures: bool):
    """Random distinct configurations evaluated until ``n_success`` succeeded."""
    space = problem.parameter_space
    seen: set[tuple] = set()
    out: list[Evaluation] = []
    succeeded = 0
    while succeeded < n_success:
        config = space.sample(rng)
        ident = tuple(sorted(config.items()))
        if ident in seen:
            continue
        seen.add(ident)
        evaluation = problem.evaluate(task, config)
        if not evaluation.failed:
            succeeded += 1
        if keep_failures or not evaluation.failed:
            out.append(evaluation)
    return out


def synthetic_output(task: Mapping[str, Any], config: Mapping[str, Any], rng) -> float:
    """A cheap stand-in runtime for the store workloads (never fit-critical)."""
    size = task["m"] * task["n"] / 1e7
    shape = (
        1.0
        + 0.02 * (config["mb"] - 6) ** 2
        + 0.03 * (config["nb"] - 9) ** 2
        + 0.2 * abs(config["lg2npernode"] - 3)
        + abs(config["p"] - 32) / 64.0
    )
    return float(size * shape * math.exp(rng.normal(0.0, 0.04)))


def tuning_failures(evaluations) -> int:
    """Evaluations lost to the infrastructure (not rejected by the app model)."""
    return sum(
        1
        for e in evaluations
        if e.failed and e.metadata.get("failure") not in APP_REJECTIONS
    )


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = int(seed)
        self.sizes = sizes
        self.app = PDGEQRF(cori_haswell(8))
        self.problem = self.app.make_problem(run=self.seed)
        self.space = self.problem.parameter_space

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def describe_sizes(self) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self, dep: Deployment) -> None:
        raise NotImplementedError

    def measure(self, dep: Deployment) -> dict[str, Any]:
        """Run the measured phase; returns the raw numbers of the pass.

        Keys every workload returns: ``wall_s``; ``evaluations`` and
        ``lost`` (evaluations lost to the infrastructure; requests are
        counted from the endpoint's log); ``user`` (workload-specific
        end-to-end metrics) and ``layer`` (per-layer numbers only the
        workload can know).
        """
        raise NotImplementedError

    def check(self, dep: Deployment) -> list[str]:
        """Output checks; returns one line per failed check."""
        raise NotImplementedError


# -- tla_pipeline --------------------------------------------------------------

class TlaPipeline(Workload):
    name = "tla_pipeline"
    SOURCE_TASKS = [{"m": 4000, "n": 4000}, {"m": 3000, "n": 5000}, {"m": 5000, "n": 3000}]
    SESSIONS = [
        ("NoTLA", None, {"m": 3500, "n": 3500}),
        ("WeightedSum(dynamic)", "weighted-sum-dynamic", {"m": 4500, "n": 4500}),
        ("Stacking", "stacking", {"m": 3000, "n": 4000}),
        ("Multitask(TS)", "multitask-ts", {"m": 4000, "n": 3000}),
        ("Ensemble(proposed)", "ensemble-proposed", {"m": 5000, "n": 5000}),
    ]
    SOURCE_SAMPLES = 50
    EVALS_PER_SESSION = 20
    PROBES = 64
    #: fixed sample the reference minimum of each target task is taken over
    REFERENCE_POINTS = 512
    REFERENCE_SEED = 20230515

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.n_source = sizes.n_setup(self.SOURCE_SAMPLES, 8)
        self.n_evals = sizes.n_ops(self.EVALS_PER_SESSION, 3)
        rng = self.rng(1)
        self.source_evaluations = [
            e
            for task in self.SOURCE_TASKS
            for e in sample_evaluations(
                self.problem, task, self.n_source, rng, keep_failures=True
            )
        ]
        self.probes = [
            [self.space.sample(rng) for _ in range(self.PROBES)] for _ in self.SESSIONS
        ]
        self.n_reference = sizes.n_setup(self.REFERENCE_POINTS, 64)
        fixed = np.random.default_rng(self.REFERENCE_SEED)
        sample = [self.space.sample(fixed) for _ in range(self.n_reference)]
        self.reference = []
        for _, _, target in self.SESSIONS:
            outputs = [
                self.app.raw_objective(target, c)
                for c in sample
                if self.app.constraint(target, c)
            ]
            self.reference.append(min(y for y in outputs if y is not None))

    def describe_sizes(self) -> dict[str, Any]:
        return {
            "source_tasks": len(self.SOURCE_TASKS),
            "source_samples": self.n_source,
            "source_uploads": len(self.source_evaluations),
            "sessions": len(self.SESSIONS),
            "evals_per_session": self.n_evals,
            "probes": self.PROBES,
            "reference_points": self.n_reference,
        }

    def setup(self, dep: Deployment) -> None:
        self.keys = [dep.register(f"user_{who}") for who in "abc"]
        user_a = CrowdClient(dep.repository, meta_for(self.keys[0], self.problem, sync=True))
        for evaluation in self.source_evaluations:
            user_a.record_evaluation(evaluation)

    def measure(self, dep: Deployment) -> dict[str, Any]:
        tracer = dep.tracer
        user_b = CrowdClient(dep.repository, meta_for(self.keys[1], self.problem, sync=True))
        user_c = CrowdClient(dep.repository, meta_for(self.keys[2], self.problem, sync=False))
        objective = TimedObjective(self.problem.objective, tracer)
        problem = dataclasses.replace(self.problem, objective=objective)
        upload = TimedCallback(user_b.record_evaluation, "service.upload", tracer)
        results = []
        consult_s, consult_records = 0.0, 0
        t0 = time.perf_counter()
        with maybe_span(tracer, "workload"):
            # the body of CrowdClient.tune, composed here so each piece is timed
            for i, (_, strategy_key, target) in enumerate(self.SESSIONS):
                with maybe_span(tracer, "session", rid=f"session-{i}"):
                    if strategy_key is None:
                        tuner = Tuner(problem, callbacks=[upload])
                    else:
                        t_consult = time.perf_counter()
                        with maybe_span(tracer, "crowd.consult"):
                            sources = [
                                s
                                for s in user_b.query_source_data(self.space, min_samples=5)
                                if task_key(s.task) != task_key(target)
                            ]
                        consult_s += time.perf_counter() - t_consult
                        consult_records += sum(s.n for s in sources)
                        strategy = get_strategy(strategy_key)
                        if tracer is not None:
                            strategy = TracedStrategy(strategy, tracer)
                        tuner = TransferTuner(problem, strategy, sources, callbacks=[upload])
                    with maybe_span(tracer, "core.tune"):
                        results.append(
                            tuner.tune(target, self.n_evals, seed=1000 * self.seed + i)
                        )
            t_sessions = time.perf_counter()
            analyze_s = 0.0
            for i, (_, _, target) in enumerate(self.SESSIONS):
                with maybe_span(tracer, "next_user", rid=f"user-c-{i}"):
                    with maybe_span(tracer, "crowd.predict"):
                        user_c.query_predict_output(self.probes[i], target)
                    t_analyze = time.perf_counter()
                    with maybe_span(tracer, "sensitivity.analyze"):
                        user_c.query_sensitivity_analysis(target, seed=self.seed)
                    analyze_s += time.perf_counter() - t_analyze
        t_end = time.perf_counter()
        sessions_s = t_sessions - t0
        evaluations = [e for r in results for e in r.history]
        ratios = [
            r.best_output / ref
            for r, ref in zip(results, self.reference)
            if r.history.n_successes
        ]
        self.results = results
        return {
            "wall_s": t_end - t0,
            "evaluations": len(evaluations),
            "lost": tuning_failures(evaluations),
            "user": {
                "overhead_ms_per_eval": 1e3 * (sessions_s - objective.total_s) / len(evaluations),
                "best_ratio": float(np.exp(np.mean(np.log(ratios)))) if ratios else math.inf,
                "next_user_s": t_end - t_sessions,
            },
            "layer": {
                "apps.evaluate_s": objective.total_s,
                "apps.evaluations": objective.calls,
                "crowd.consult_s": consult_s,
                "crowd.consult_records": consult_records,
                "sensitivity.analyze_s": analyze_s,
            },
        }

    def check(self, dep: Deployment) -> list[str]:
        problems = []
        for (label, _, target), result in zip(self.SESSIONS, self.results):
            if result.n_evaluations != self.n_evals:
                problems.append(f"{label}: {result.n_evaluations} evaluations, budget {self.n_evals}")
            held = dep.count(self.keys[2], self.problem.name, target)
            if held != self.n_evals:
                problems.append(f"{label}: service holds {held} records, expected {self.n_evals}")
        # the registry's frozen model must answer exactly like a local fit
        target = self.SESSIONS[1][2]
        served = dep.repository.predict(
            self.keys[2], self.problem.name, target, self.probes[1]
        )
        meta = meta_for(self.keys[2], self.problem, sync=False)
        local = CrowdClient(dep.repository, meta, use_registry=False).query_predict_output(
            self.probes[1], target, seed=RegistryOptions().seed
        )
        if not served.get("ok") or not np.array_equal(served["mean"], local):
            problems.append("registry predict differs from the fit-locally answer")
        return problems


# -- fabric_notla / crowd_history ---------------------------------------------

class FabricNotla(Workload):
    name = "fabric_notla"
    TASK = {"m": 4000, "n": 4000}
    EVALS = 150
    PROCS = 2
    BATCH = 2
    BASE_LATENCY_S = 0.05

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.n_evals = sizes.n_ops(self.EVALS, 6)
        self.history_records: list[Evaluation] = []

    def describe_sizes(self) -> dict[str, Any]:
        return {
            "evals": self.n_evals,
            "procs": self.PROCS,
            "batch": self.BATCH,
            "base_latency_s": self.BASE_LATENCY_S,
            "history": len(self.history_records),
        }

    def setup(self, dep: Deployment) -> None:
        self.key = dep.register("user_a")
        for i, e in enumerate(self.history_records):
            response = dep.endpoint.handle(
                upload_request(self.key, self.problem.name, e.task, e.config, e.output, i)
            )
            if not response.get("ok"):
                raise RuntimeError(f"seeding upload rejected: {response}")

    def measure(self, dep: Deployment) -> dict[str, Any]:
        tracer = dep.tracer
        progress = TimedCallback(lambda evaluation: None, "bench.progress")
        tuner = FabricTuner(
            self.problem,
            TunerOptions(),
            FabricOptions(
                n_procs=self.PROCS,
                batch=self.BATCH,
                base_latency_s=self.BASE_LATENCY_S,
                data_dir=dep.dir / "queue",
            ),
            callbacks=[progress],
            crowd=dep.endpoint,
            api_key=self.key,
            machine_configuration=MACHINES[0],
            software_configuration=SOFTWARE[0],
        )
        consult_s = 0.0
        history = None
        t0 = time.perf_counter()
        with maybe_span(tracer, "workload"), maybe_span(tracer, "session", rid="session-0"):
            if self.history_records:
                # FabricTuner(consult=True) makes this call inside tune();
                # made here, and the history passed on, so it can be timed
                with maybe_span(tracer, "crowd.consult"):
                    history = tuner.consult_crowd(self.TASK)
                consult_s = time.perf_counter() - t0
            self.consulted = len(history) if history is not None else 0
            t_tune = time.perf_counter()
            with maybe_span(tracer, "core.tune"):
                result = tuner.tune(self.TASK, self.n_evals, seed=self.seed, history=history)
        wall = time.perf_counter() - t0
        self.evaluations = list(result.history)[self.consulted:]
        busy_s = sum(float(e.metadata.get("latency_s", 0.0)) for e in self.evaluations)
        return {
            "wall_s": wall,
            "evaluations": len(self.evaluations),
            "lost": tuning_failures(self.evaluations),
            "user": {
                "overhead_ms_per_eval": 1e3 * (wall - busy_s / self.PROCS) / len(self.evaluations),
                "worker_utilization": busy_s / (self.PROCS * wall),
            },
            "layer": {
                "apps.evaluate_s": busy_s,
                "apps.evaluations": len(self.evaluations),
                "crowd.consult_s": consult_s,
                "crowd.consult_records": self.consulted,
                "fabric.first_result_s": progress.starts[0] - t_tune,
                "fabric.queue_bytes": dep.disk_bytes("queue"),
            },
        }

    def check(self, dep: Deployment) -> list[str]:
        problems = []
        if len(self.evaluations) != self.n_evals:
            problems.append(f"{len(self.evaluations)} evaluations, budget {self.n_evals}")
        expected = len(self.history_records) + self.n_evals
        held = dep.count(self.key, self.problem.name, self.TASK)
        if held != expected:
            problems.append(f"service holds {held} records, expected {expected}")
        queue = DurableJobQueue(dep.dir / "queue")
        try:
            if queue.n_done != self.n_evals or queue.n_jobs != self.n_evals:
                problems.append(
                    f"durable queue: {queue.n_done} done of {queue.n_jobs} jobs, "
                    f"budget {self.n_evals}"
                )
        finally:
            queue.close()
        duplicates = dep.stats.counters.get("fabric_duplicate_completions", 0)
        if duplicates:
            problems.append(f"{duplicates} duplicate completions")
        return problems


class CrowdHistory(FabricNotla):
    name = "crowd_history"
    TASK = {"m": 2000, "n": 2000}
    HISTORY = 1100
    EVALS = 130

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.history_records = sample_evaluations(
            self.problem,
            self.TASK,
            sizes.n_setup(self.HISTORY, 40),
            self.rng(3),
            keep_failures=False,
        )

    def measure(self, dep: Deployment) -> dict[str, Any]:
        m = super().measure(dep)
        del m["user"]["worker_utilization"]  # the workers idle here by design
        return m

    def check(self, dep: Deployment) -> list[str]:
        problems = super().check(dep)
        if self.consulted != len(self.history_records):
            problems.append(
                f"consulted {self.consulted} records, seeded {len(self.history_records)}"
            )
        sparse = dep.stats.counters.get("sparse_fits", 0)
        if len(self.history_records) > TunerOptions().n_dense_max and sparse < 1:
            problems.append("history is past n_dense_max but no sparse fit ran")
        return problems


# -- crowd_ingest ---------------------------------------------------------------

def store_tasks(n: int) -> list[dict[str, int]]:
    return [{"m": 2000 + 500 * (t % 8), "n": 2000 + 500 * (t // 8)} for t in range(n)]


class CrowdIngest(Workload):
    name = "crowd_ingest"
    PROBLEM = "PDGEQRF-ingest"
    UPLOADS = 11_000
    TASKS = 64
    FAILURE_FRAC = 0.05
    #: read back every this-many-th upload after the restart
    READBACK_EVERY = 100

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        rng = self.rng(4)
        self.tasks = store_tasks(self.TASKS)
        self.bodies = []
        for i in range(sizes.n_ops(self.UPLOADS, 300)):
            task = self.tasks[int(rng.integers(self.TASKS))]
            config = self.space.sample(rng)
            failed = rng.random() < self.FAILURE_FRAC
            output = None if failed else synthetic_output(task, config, rng)
            self.bodies.append(upload_request(None, self.PROBLEM, task, config, output, i))

    def describe_sizes(self) -> dict[str, Any]:
        return {
            "uploads": len(self.bodies),
            "tasks": self.TASKS,
            "failure_frac": self.FAILURE_FRAC,
        }

    def setup(self, dep: Deployment) -> None:
        self.key = dep.register("user_a")

    def measure(self, dep: Deployment) -> dict[str, Any]:
        tracer = dep.tracer
        requests = with_key(self.bodies, self.key)
        self.uids = []
        t0 = time.perf_counter()
        with maybe_span(tracer, "workload"):
            for i, request in enumerate(requests):
                with maybe_span(tracer, "op", rid=f"op-{i}"):
                    self.uids.append(dep.endpoint.handle(request).get("uid"))
            t_ingested = time.perf_counter()
            with maybe_span(tracer, "recover", rid="recover"):
                for name in sorted(dep.svc.shards):
                    dep.svc.restart_shard(name)
                dep.trace_shards()
                dep.endpoint.handle(task_query(self.key, self.PROBLEM, self.tasks[0]))
        t_end = time.perf_counter()
        recover_s = t_end - t_ingested
        uploads = route_seconds(dep.measured_log(), "upload")
        return {
            "wall_s": t_end - t0,
            "evaluations": 0,
            "lost": 0,
            "user": {
                "upload_p50_ms": 1e3 * median(uploads),
                "upload_p999_ms": 1e3 * percentile(uploads, 99.9),
                "recover_s": recover_s,
            },
            "layer": {
                "service.recover_records_per_s": dep.svc.total_records() / recover_s,
            },
        }

    def check(self, dep: Deployment) -> list[str]:
        problems = []
        total = dep.svc.total_records()
        if total != 2 * len(self.bodies):
            problems.append(f"{total} records after restart, expected {2 * len(self.bodies)}")
        sampled = range(0, len(self.bodies), self.READBACK_EVERY)
        stored: dict[int, Mapping[str, Any]] = {}
        for task in self.tasks:
            response = dep.svc.client.handle(task_query(self.key, self.PROBLEM, task))
            stored.update({doc["uid"]: doc for doc in response.get("records", [])})
        fields = ("problem_name", "task_parameters", "tuning_parameters", "output")
        wrong = sum(
            1
            for i in sampled
            if self.uids[i] not in stored
            or any(stored[self.uids[i]][f] != self.bodies[i][f] for f in fields)
        )
        if wrong:
            problems.append(f"{wrong} of {len(sampled)} sampled uploads read back wrong")
        return problems


# -- crowd_serve ----------------------------------------------------------------

class CrowdServe(Workload):
    name = "crowd_serve"
    RECORDS = 3200
    TASKS = 64
    OPS = 3000
    #: cumulative shares of the traffic mix, in draw order
    MIX = (
        ("query", 0.40),
        ("query_sql", 0.55),
        ("predict", 0.88),
        ("model_meta", 0.93),
        ("leaderboard", 0.95),
        ("upload", 1.00),
    )
    PROBES = 64
    FAILURE_FRAC = 0.05

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        rng = self.rng(5)
        name = self.problem.name
        self.tasks = store_tasks(self.TASKS)
        ranks = np.arange(1, self.TASKS + 1)
        mild = ranks**-0.5 / np.sum(ranks**-0.5)
        zipf = ranks**-1.0 / np.sum(ranks**-1.0)
        successes = [0] * self.TASKS

        def upload_body(t: int, variant: int) -> dict[str, Any]:
            config = self.space.sample(rng)
            failed = rng.random() < self.FAILURE_FRAC
            output = None if failed else synthetic_output(self.tasks[t], config, rng)
            successes[t] += not failed
            return upload_request(None, name, self.tasks[t], config, output, variant)

        n_records = sizes.n_setup(self.RECORDS, 4 * self.TASKS)
        # two successes per task first, so every task can hold a model
        seeded = [t for t in range(self.TASKS) for _ in range(2)]
        seeded += [
            int(t) for t in rng.choice(self.TASKS, size=n_records - len(seeded), p=mild)
        ]
        self.seed_bodies = []
        for i, t in enumerate(seeded):
            body = upload_body(t, i)
            if i < 2 * self.TASKS and body["output"] is None:
                body["output"] = synthetic_output(
                    self.tasks[t], body["tuning_parameters"], rng
                )
                successes[t] += 1
            self.seed_bodies.append(body)

        #: (kind, request body, expected record count for query ops)
        self.ops: list[tuple[str, dict[str, Any], int | None]] = []
        for i in range(sizes.n_ops(self.OPS, 200)):
            u = rng.random()
            kind = next(k for k, share in self.MIX if u < share)
            t = int(rng.choice(self.TASKS, p=zipf))
            pinned = {"problem_name": name, "task_parameters": self.tasks[t]}
            expected = None
            if kind == "query":
                body = {"route": "query", **pinned}
                expected = successes[t]
            elif kind == "query_sql":
                low = int(rng.integers(1, 29)) / 4.0
                limit = int(rng.integers(5, 25))
                body = {
                    "route": "query_sql",
                    "sql": (
                        f"SELECT * WHERE problem_name = '{name}' AND output >= {low} "
                        f"AND output < {low + 2.0} ORDER BY output LIMIT {limit}"
                    ),
                }
            elif kind == "predict":
                probes = [self.space.sample(rng) for _ in range(self.PROBES)]
                body = {"route": "predict", **pinned, "configurations": probes}
            elif kind == "model_meta":
                body = {"route": "model_meta", **pinned}
            elif kind == "leaderboard":
                body = {"route": "leaderboard", "problem_name": name}
            else:
                body = upload_body(t, i)
            self.ops.append((kind, body, expected))

    def describe_sizes(self) -> dict[str, Any]:
        kinds = [kind for kind, _, _ in self.ops]
        return {
            "records": len(self.seed_bodies),
            "tasks": self.TASKS,
            "ops": len(self.ops),
            "mix": {kind: kinds.count(kind) for kind, _ in self.MIX},
            "distinct_sql": len({b["sql"] for k, b, _ in self.ops if k == "query_sql"}),
            "probes": self.PROBES,
        }

    def setup(self, dep: Deployment) -> None:
        self.key = dep.register("user_a")
        requests = with_key(self.seed_bodies, self.key)
        requests.append(
            {
                "route": "register_problem",
                "api_key": self.key,
                "problem_name": self.problem.name,
                "problem_space": self.problem.describe(),
            }
        )
        # one model_meta per task builds every registry entry
        requests += with_key(
            [
                {"route": "model_meta", "problem_name": self.problem.name, "task_parameters": t}
                for t in self.tasks
            ],
            self.key,
        )
        for request in requests:
            response = dep.endpoint.handle(request)
            if not response.get("ok"):
                raise RuntimeError(f"set-up request rejected: {response}")

    def measure(self, dep: Deployment) -> dict[str, Any]:
        tracer = dep.tracer
        requests = with_key([body for _, body, _ in self.ops], self.key)
        expected = [count for _, _, count in self.ops]
        self.miscounted = 0
        t0 = time.perf_counter()
        with maybe_span(tracer, "workload"):
            for i, request in enumerate(requests):
                with maybe_span(tracer, "op", rid=f"op-{i}"):
                    response = dep.endpoint.handle(request)
                if expected[i] is not None:
                    self.miscounted += len(response.get("records", ())) != expected[i]
        wall = time.perf_counter() - t0
        log = dep.measured_log()
        reads = route_seconds(log, *READ_ROUTES)
        return {
            "wall_s": wall,
            "evaluations": 0,
            "lost": 0,
            "user": {
                "upload_p50_ms": 1e3 * median(route_seconds(log, "upload")),
                "read_p50_ms": 1e3 * median(reads),
                "read_p99_ms": 1e3 * percentile(reads, 99.0),
            },
            "layer": {},
        }

    def check(self, dep: Deployment) -> list[str]:
        if self.miscounted:
            return [f"{self.miscounted} query responses held the wrong record count"]
        return []


WORKLOADS = {w.name: w for w in (TlaPipeline, FabricNotla, CrowdHistory, CrowdIngest, CrowdServe)}


def warm_up(root: Path) -> None:
    """One 3-evaluation session and 50 uploads on a throwaway deployment.

    It absorbs the cold process (lazy imports, allocator growth, first
    fsync) before anything is measured, and is counted into ``setup_s``.
    """
    dep = Deployment(root)
    try:
        key = dep.register("warm_up")
        app = PDGEQRF(cori_haswell(8))
        # the same work whatever the seed: it is part of every ``setup_s``
        problem = app.make_problem()
        client = CrowdClient(dep.repository, meta_for(key, problem, sync=True))
        Tuner(problem, callbacks=[client.record_evaluation]).tune(
            app.default_task(), 3, seed=0
        )
        rng = np.random.default_rng(0)
        task = {"m": 2000, "n": 2000}
        for i in range(50):
            config = problem.parameter_space.sample(rng)
            dep.endpoint.handle(
                upload_request(key, "warm-up", task, config, synthetic_output(task, config, rng), i)
            )
    finally:
        dep.close()

