"""Command-line interface (system S30).

Subcommands mirror the workflows of the paper:

* ``gptunecrowd tune`` — tune an application (NoTLA or a TLA strategy),
* ``gptunecrowd sensitivity`` — collect samples and print a Table IV/V-
  style Sobol' report,
* ``gptunecrowd pool`` — print the TLA algorithm pool (Table I),
* ``gptunecrowd apps`` — list available application models and machines,
* ``gptunecrowd variability`` — repeat-measurement noise diagnosis (the
  paper's future-work feature),
* ``gptunecrowd bandit`` — GPTuneBand-style multi-fidelity tuning,
* ``gptunecrowd service`` — demo the sharded, durable crowd service.

Applications are addressed by name; machines by preset key and node
count, e.g.::

    gptunecrowd tune --app pdgeqrf --machine cori-haswell --nodes 8 \
        --samples 10 --tla ensemble-proposed
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

import numpy as np

from .apps import NIMROD, PDGEQRF, BraninFunction, DemoFunction, HypreAMG, SuperLUDist2D
from .apps.base import HPCApplication
from .core import TaskData, Tuner, TunerOptions
from .core.sparse import SURROGATE_KINDS
from .hpc import MACHINE_PRESETS, get_machine
from .sensitivity import SensitivityAnalyzer
from .tla import (
    STRATEGY_REGISTRY,
    GPTuneBand,
    MultiFidelityObjective,
    StrategyProvider,
    get_strategy,
    pool_table,
)

__all__ = ["main", "build_app"]

_APPS = {
    "demo": DemoFunction,
    "branin": BraninFunction,
    "pdgeqrf": PDGEQRF,
    "superlu": SuperLUDist2D,
    "hypre": HypreAMG,
    "nimrod": NIMROD,
}

_MACHINE_APPS = {"pdgeqrf", "superlu", "hypre", "nimrod"}


def build_app(name: str, machine_key: str | None, nodes: int) -> HPCApplication:
    """Instantiate an application, with a machine when it needs one."""
    try:
        cls = _APPS[name]
    except KeyError:
        raise SystemExit(f"unknown app {name!r}; choose from {sorted(_APPS)}")
    if name in _MACHINE_APPS:
        machine = get_machine(machine_key or "cori-haswell", nodes)
        return cls(machine)
    return cls()


def _parse_task(
    app: HPCApplication, text: str | None, flag: str = "--task"
) -> dict[str, Any]:
    """The task named by a JSON ``flag`` value (the app's default without one)."""
    if text is None:
        return app.default_task()
    try:
        task = json.loads(text)
        if not isinstance(task, dict):
            raise ValueError(f"expected a JSON object, got {text!r}")
        app.input_space().validate(task)
    except ValueError as exc:  # malformed JSON, or a SpaceError from validate()
        raise SystemExit(f"{flag}: {exc}")
    return task


def _cmd_tune(args: argparse.Namespace) -> int:
    app = build_app(args.app, args.machine, args.nodes)
    problem = app.make_problem(run=args.seed)
    task = _parse_task(app, args.task)
    # the target task's surrogate policy: a TunerOptions field where the
    # tuner fits the model, a strategy argument where a TLA strategy does
    options = TunerOptions(n_initial=args.n_initial, surrogate=args.surrogate)

    if args.workers > 1 or args.batch > 1:
        from .fabric import FabricOptions, FabricTuner

        tuner: Tuner = FabricTuner(
            problem,
            options,
            FabricOptions(n_procs=args.workers, batch=args.batch, lie=args.lie),
        )
    else:
        tuner = Tuner(problem, options=options)

    if args.tla:
        rng = np.random.default_rng(args.seed + 1000)
        space = problem.parameter_space
        src_task = task
        if args.source_task:
            src_task = _parse_task(app, args.source_task, "--source-task")
        configs, ys = [], []
        while len(ys) < args.source_samples:
            c = space.sample(rng)
            y = app.objective(src_task, c, run=9999)
            if y is not None:
                configs.append(c)
                ys.append(y)
        source = TaskData(src_task, space.to_unit_array(configs), np.array(ys), "cli-source")
        strategy = get_strategy(args.tla, surrogate=args.surrogate)
        tuner.provider = StrategyProvider(strategy, [source])

    result = tuner.tune(task, args.samples, seed=args.seed)
    print(json.dumps(result.summary(), indent=2, default=str))
    print("best-so-far:", [round(v, 4) for v in result.best_so_far()])
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    app = build_app(args.app, args.machine, args.nodes)
    task = _parse_task(app, args.task)
    space = app.parameter_space()
    rng = np.random.default_rng(args.seed)
    configs, ys = [], []
    while len(ys) < args.samples:
        c = space.sample(rng)
        y = app.objective(task, c, run=args.seed)
        if y is not None:
            configs.append(c)
            ys.append(y)
    data = TaskData(task, space.to_unit_array(configs), np.array(ys))
    report = SensitivityAnalyzer(space).analyze(
        data, n_base=args.n_base, seed=args.seed
    )
    print(f"# Sobol sensitivity of {app.name} on task {task}")
    print(f"# {data.n} samples, {args.n_base} base points")
    print(report.table())
    keep = report.sensitive_parameters()
    print(f"\nsensitive parameters (S1>=0.05 or ST>=0.2): {keep}")
    return 0


def _cmd_variability(args: argparse.Namespace) -> int:
    from .crowd import PerformanceRecord
    from .crowd.analytics import detect_outliers, variability_report

    app = build_app(args.app, args.machine, args.nodes)
    task = _parse_task(app, args.task)
    space = app.parameter_space()
    rng = np.random.default_rng(args.seed)
    # measure a handful of configurations several times each
    records = []
    configs = [space.sample(rng) for _ in range(args.configs)]
    for run in range(args.repeats):
        for cfg in configs:
            y = app.objective(task, cfg, run=run)
            records.append(
                PerformanceRecord(
                    problem_name=app.name,
                    task_parameters=dict(task),
                    tuning_parameters=cfg,
                    output=y,
                )
            )
    report = variability_report(records, problem_name=app.name)
    print(f"# variability of {app.name} on {task} "
          f"({args.configs} configs x {args.repeats} repeats)")
    print(report.table())
    print(
        f"\npooled relative std: {report.pooled_relative_std:.4f} "
        "(suggested tuner noise sigma)"
    )
    outliers = detect_outliers(records)
    print(f"outliers (|modified z| > 3.5): {len(outliers)}")
    return 0


def _cmd_bandit(args: argparse.Namespace) -> int:
    app = build_app(args.app, args.machine, args.nodes)
    task = _parse_task(app, args.task)
    objective = MultiFidelityObjective(
        fn=lambda t, c, f: app.fidelity_objective(t, c, f, run=args.seed),
        space=app.parameter_space(),
        task=task,
    )
    tuner = GPTuneBand(
        objective, bracket_size=args.bracket_size, n_rungs=args.rungs
    )
    result = tuner.tune(args.budget, seed=args.seed)
    screened = len({tuple(sorted(c.items())) for c, _, _ in result.evaluations})
    print(json.dumps(
        {
            "app": app.name,
            "task": task,
            "budget": args.budget,
            "cost_spent": round(result.cost_spent, 3),
            "configs_screened": screened,
            "best_output": result.best_output,
            "best_config": result.best_config,
        },
        indent=2,
        default=str,
    ))
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    """Demo a sharded crowd service: upload, query, survive a crash."""
    from .service import RegistryOptions, RouterOptions, build_service

    app = build_app(args.app, args.machine, args.nodes)
    task = _parse_task(app, args.task)
    space = app.parameter_space()
    svc = build_service(
        args.shards,
        data_dir=args.data_dir,
        options=RouterOptions(
            replication=args.replication,
            write_quorum=args.write_quorum,
            read_quorum=args.read_quorum,
        ),
        registry=RegistryOptions() if args.registry else None,
    )
    try:
        _, key = svc.register_user("cli", "cli@gptunecrowd.local")
        rng = np.random.default_rng(args.seed)
        uploaded = 0
        while uploaded < args.uploads:
            cfg = space.sample(rng)
            response = svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": app.name,
                    "task_parameters": dict(task),
                    "tuning_parameters": cfg,
                    "output": app.objective(task, cfg, run=args.seed),
                }
            )
            if response.get("ok"):
                uploaded += 1
        per_shard = {name: shard.count() for name, shard in svc.shards.items()}
        print(f"service: {args.shards} shard(s), replication {args.replication}")
        print(f"uploaded {uploaded} records -> stored copies per shard: {per_shard}")

        query = {"route": "query", "api_key": key, "problem_name": app.name}
        records = svc.client.handle(query)["records"]
        print(f"fan-out query: {len(records)} distinct records")
        if args.shards > 1:
            # kill the most loaded shard — the worst case for reads
            victim = max(svc.shards, key=lambda n: svc.shards[n].count())
            svc.kill_shard(victim)
            survived = svc.client.handle(query)["records"]
            print(f"after killing {victim}: {len(survived)} records still served")
            # writes during the outage: at W=1 they ack degraded and the
            # victim's copy is hinted; at W>1 they may be quorum-rejected
            acked = rejected = 0
            for _ in range(4):
                cfg = space.sample(rng)
                response = svc.client.handle(
                    {
                        "route": "upload",
                        "api_key": key,
                        "problem_name": app.name,
                        "task_parameters": dict(task),
                        "tuning_parameters": cfg,
                        "output": app.objective(task, cfg, run=args.seed),
                    }
                )
                if response.get("ok"):
                    uploaded += 1
                    acked += 1
                else:
                    rejected += 1
            print(
                f"4 writes during the outage: {acked} acked, "
                f"{rejected} quorum-rejected, "
                f"{svc.router.hints_pending(victim)} hint(s) buffered for {victim}"
            )
            svc.revive_shard(victim)  # hinted handoff replays automatically
            stats = svc.router.anti_entropy_round()
            print(
                f"revived {victim}: hints pending now "
                f"{svc.router.hints_pending(victim)}, anti-entropy healed "
                f"{stats['healed']} record(s) across {stats['buckets']} bucket(s)"
            )

        board = svc.client.handle(
            {"route": "leaderboard", "api_key": key, "problem_name": app.name}
        )
        for row in board.get("rows", []):
            print(
                f"best {row['best_output']:.5g} by {row['best_owner']} "
                f"({row['n_samples']} samples, {row['n_failures']} failures)"
            )
        if args.registry:
            # server-side prediction: register the space, then ask the
            # frozen model — no GP is fit on the client, and repeated
            # calls are served from the registry without refitting
            svc.client.handle(
                {
                    "route": "register_problem",
                    "api_key": key,
                    "problem_name": app.name,
                    "problem_space": {"parameter_space": space.to_list()},
                }
            )
            probe = [space.sample(rng) for _ in range(4)]
            pred = svc.client.handle(
                {
                    "route": "predict",
                    "api_key": key,
                    "problem_name": app.name,
                    "task_parameters": dict(task),
                    "configurations": probe,
                }
            )
            if pred.get("ok"):
                best = min(pred["mean"])
                print(
                    f"registry predict: {len(probe)} configs served from a "
                    f"frozen model of {pred['n_samples']} samples "
                    f"(data_version {pred['data_version']}), "
                    f"best predicted output {best:.5g}"
                )
            else:
                print(f"registry predict unavailable: {pred.get('message')}")
        if args.data_dir:
            svc.snapshot_all()
            print(f"snapshots + WALs persisted under {args.data_dir}")
    finally:
        svc.close()
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    """Demo the multi-process tuning fabric feeding a crowd service."""
    from .fabric import DurableJobQueue, FabricOptions, FabricTuner
    from .service import build_service

    app = build_app(args.app, args.machine, args.nodes)
    problem = app.make_problem(run=args.seed)
    task = _parse_task(app, args.task)
    options = TunerOptions(n_initial=args.n_initial)
    fabric = FabricOptions(
        n_procs=args.procs,
        batch=min(args.procs, 4),
        base_latency_s=args.latency_s,
        lease_s=args.lease_s,
        data_dir=args.data_dir,
    )

    killed: list[int] = []

    def on_progress(completed: int, coordinator) -> None:
        if args.kill_after and completed == args.kill_after and not killed:
            busy = coordinator.busy_workers()
            if busy:
                coordinator.kill_worker(busy[0])
                killed.append(busy[0])
                print(f"[fabric] killed worker {busy[0]} "
                      f"after {completed} evaluations")

    with build_service(args.shards) as svc:
        _, key = svc.register_user("fabric-cli", "fabric@gptunecrowd.local")
        tuner = FabricTuner(
            problem,
            options,
            fabric,
            crowd=svc.client,
            api_key=key,
            machine_configuration={"machine": args.machine or "local"},
            on_progress=on_progress,
        )
        import time

        t0 = time.perf_counter()
        result = tuner.tune(task, args.samples, seed=args.seed)
        wall = time.perf_counter() - t0
        gauges = (result.perf or {}).get("gauges", {})
        print(f"fabric: {args.procs} process(es), {args.samples} evaluations "
              f"in {wall:.2f}s")
        print(f"best output: {result.best_output:.6g}  "
              f"best config: {result.best_config}")
        util = gauges.get("fabric_worker_utilization", {}).get("last", 0.0)
        print(f"worker utilization: {util:.0%}  "
              f"re-dispatches: {tuner._last_redispatches}  "
              f"workers killed: {len(killed)}")
        print(f"streamed to crowd service: {tuner.streamer.n_uploaded} "
              f"records across {args.shards} shard(s) "
              f"({len(tuner.streamer.errors)} errors)")
        if args.data_dir:
            queue = DurableJobQueue(args.data_dir)
            print(f"durable queue: {queue.n_done}/{queue.n_jobs} jobs "
                  f"completed on disk under {args.data_dir}")
            queue.close()
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    del args
    rows = pool_table()
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{width}}  [{r['first_autotuner']:<11}]  {r['description']}")
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    del args
    print("applications:", ", ".join(sorted(_APPS)))
    print("machines:    ", ", ".join(sorted(MACHINE_PRESETS)))
    print("tla:         ", ", ".join(sorted(STRATEGY_REGISTRY)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gptunecrowd", description="GPTuneCrowd reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="tune an application")
    p_tune.add_argument("--app", required=True, choices=sorted(_APPS))
    p_tune.add_argument("--machine", choices=sorted(MACHINE_PRESETS))
    p_tune.add_argument("--nodes", type=int, default=8)
    p_tune.add_argument("--task", help="task parameters as JSON")
    p_tune.add_argument("--samples", type=int, default=10)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--n-initial", type=int, default=2)
    p_tune.add_argument("--workers", type=int, default=1,
                        help="evaluation worker processes (>1 runs on the fabric)")
    p_tune.add_argument("--batch", type=int, default=1,
                        help="configurations proposed per batch (fabric)")
    p_tune.add_argument("--lie", default="cl-min",
                        choices=["cl-min", "cl-mean", "cl-max", "kb"],
                        help="fantasy strategy for in-flight evaluations")
    p_tune.add_argument("--surrogate", default="auto",
                        choices=SURROGATE_KINDS,
                        help="surrogate policy: auto switches dense->sparse "
                             "past repro.core.sparse.N_DENSE_MAX observations")
    p_tune.add_argument("--tla", choices=sorted(STRATEGY_REGISTRY))
    p_tune.add_argument("--source-task", help="source task as JSON (with --tla)")
    p_tune.add_argument("--source-samples", type=int, default=50)
    p_tune.set_defaults(func=_cmd_tune)

    p_sa = sub.add_parser("sensitivity", help="Sobol sensitivity analysis")
    p_sa.add_argument("--app", required=True, choices=sorted(_APPS))
    p_sa.add_argument("--machine", choices=sorted(MACHINE_PRESETS))
    p_sa.add_argument("--nodes", type=int, default=1)
    p_sa.add_argument("--task", help="task parameters as JSON")
    p_sa.add_argument("--samples", type=int, default=300)
    p_sa.add_argument("--n-base", type=int, default=512)
    p_sa.add_argument("--seed", type=int, default=0)
    p_sa.set_defaults(func=_cmd_sensitivity)

    p_var = sub.add_parser("variability", help="repeat-noise diagnosis")
    p_var.add_argument("--app", required=True, choices=sorted(_APPS))
    p_var.add_argument("--machine", choices=sorted(MACHINE_PRESETS))
    p_var.add_argument("--nodes", type=int, default=1)
    p_var.add_argument("--task", help="task parameters as JSON")
    p_var.add_argument("--configs", type=int, default=6)
    p_var.add_argument("--repeats", type=int, default=8)
    p_var.add_argument("--seed", type=int, default=0)
    p_var.set_defaults(func=_cmd_variability)

    p_band = sub.add_parser("bandit", help="multi-fidelity (GPTuneBand) tuning")
    p_band.add_argument("--app", required=True, choices=sorted(_APPS))
    p_band.add_argument("--machine", choices=sorted(MACHINE_PRESETS))
    p_band.add_argument("--nodes", type=int, default=8)
    p_band.add_argument("--task", help="task parameters as JSON")
    p_band.add_argument("--budget", type=float, default=8.0,
                        help="budget in full-evaluation equivalents")
    p_band.add_argument("--bracket-size", type=int, default=9)
    p_band.add_argument("--rungs", type=int, default=3)
    p_band.add_argument("--seed", type=int, default=0)
    p_band.set_defaults(func=_cmd_bandit)

    p_svc = sub.add_parser("service", help="demo the sharded crowd service")
    p_svc.add_argument("--app", default="demo", choices=sorted(_APPS))
    p_svc.add_argument("--machine", choices=sorted(MACHINE_PRESETS))
    p_svc.add_argument("--nodes", type=int, default=1)
    p_svc.add_argument("--task", help="task parameters as JSON")
    p_svc.add_argument("--shards", type=int, default=4)
    p_svc.add_argument("--replication", type=int, default=2)
    p_svc.add_argument("--write-quorum", type=int, default=1,
                       help="replica acks required before an upload succeeds")
    p_svc.add_argument("--read-quorum", type=int, default=1,
                       help="replicas consulted (and read-repaired) per pinned read")
    p_svc.add_argument("--uploads", type=int, default=32)
    p_svc.add_argument("--data-dir", help="persist shard WALs/snapshots here")
    p_svc.add_argument("--registry", action="store_true",
                       help="attach the frozen surrogate-model registry "
                            "and demo server-side prediction")
    p_svc.add_argument("--seed", type=int, default=0)
    p_svc.set_defaults(func=_cmd_service)

    p_fab = sub.add_parser("fabric", help="demo the multi-process tuning fabric")
    p_fab.add_argument("--app", default="demo", choices=sorted(_APPS))
    p_fab.add_argument("--machine", choices=sorted(MACHINE_PRESETS))
    p_fab.add_argument("--nodes", type=int, default=1)
    p_fab.add_argument("--task", help="task parameters as JSON")
    p_fab.add_argument("--samples", type=int, default=16)
    p_fab.add_argument("--seed", type=int, default=0)
    p_fab.add_argument("--n-initial", type=int, default=3)
    p_fab.add_argument("--procs", type=int, default=4,
                       help="worker processes in the fabric")
    p_fab.add_argument("--latency-s", type=float, default=0.05,
                       help="simulated seconds per evaluation")
    p_fab.add_argument("--lease-s", type=float, default=30.0,
                       help="lease before a straggler's job re-dispatches")
    p_fab.add_argument("--kill-after", type=int, default=0,
                       help="hard-kill one busy worker after N completions "
                            "(crash demo; 0 = no kill)")
    p_fab.add_argument("--data-dir",
                       help="durable job-queue directory (WAL + snapshots)")
    p_fab.add_argument("--shards", type=int, default=2,
                       help="crowd-service shards behind the streamed uploads")
    p_fab.set_defaults(func=_cmd_fabric)

    p_pool = sub.add_parser("pool", help="print the TLA pool (Table I)")
    p_pool.set_defaults(func=_cmd_pool)

    p_apps = sub.add_parser("apps", help="list apps, machines, strategies")
    p_apps.set_defaults(func=_cmd_apps)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
