"""The crowd-tuning pipeline timed end to end: one command, five workloads.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what ``BENCHMARK.json``'s
    command does): one warm-up, one set-up, one measured pass, untraced
    or with the span wrappers on.  Prints every metric by name and unit,
    checks the outputs, and ends with one JSON object on the last line:
    the gated end-to-end metrics with ``--trace 0``, the other
    end-to-end metrics and every per-layer metric with ``--trace 1``.
    Exits non-zero when an output check fails.

``python3 benchmarks/e2e/run.py [--seed N] [--smoke] [--out FILE]``
    The whole suite: every workload in fresh subprocesses, ``REPEATS``
    untraced runs plus one traced run each; medians and ranges of the
    end-to-end metrics, the tracing overhead, and provenance are written
    to ``results/`` for ``compare.py``.

All files go under this directory's ``work/`` and ``results/``; data
directories are removed on exit, also after a failed check.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from metrics import (
    END_TO_END,
    GATED,
    LAYER,
    READ_ROUTES,
    RUN_SECONDS,
    UNGATED,
    WORKLOAD_NAMES,
    median,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"
WORK = HERE / "work"

#: suite: untraced runs per workload
REPEATS = 3
#: limits past which a traced run is flagged
LOADGEN_LIMIT = 0.05
TRACE_OVERHEAD_LIMIT = 0.10

#: single-threaded BLAS (nproc is 2 and the fabric forks two workers) and
#: a fixed hash seed, so set/dict iteration order repeats run to run
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_environment() -> None:
    """Re-exec once with the pinned environment (it must precede numpy)."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="every generated input follows it")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="measurement budget; scales the operation counts")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="all sizes divided by ten")
    parser.add_argument("--out", type=Path, default=None, help="suite: result file")
    return parser.parse_args(argv)


# -- one workload in this process ------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def user_metrics(m: dict[str, Any], log: list, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics this workload has, from the load generator's clock."""
    attempted = m["evaluations"] + len(log)
    failed = m["lost"] + sum(1 for _, _, ok, _ in log if not ok)
    return {
        "setup_s": setup_s,
        "wall_s": m["wall_s"],
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": failed / attempted,
        **m["user"],
        "attempted": attempted,
        "failed": failed,
    }


def layer_metrics(
    m: dict[str, Any], log: list, stats: dict[str, Any], spans: dict[str, dict[str, float]],
    replica_writes: int,
) -> dict[str, float | None]:
    """Every per-layer metric of a traced pass; ``None`` where it has no reading.

    ``spans`` is :func:`spans.summarize` of the pass's span log: a span
    name that never opened is an idle layer and reads 0.  A ``perf``
    counter or timer absent from the snapshot never fired or was renamed
    since; the two cannot be told apart from outside, so it reads
    ``None``, not 0.
    """
    from spans import route_seconds

    counter = stats["counters"].get
    timers = stats["timers"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    def timer(last: str) -> float | None:
        # the program's own timers nest by call path; sum by last component
        found = [t["total_s"] for name, t in timers.items() if name.split(".")[-1] == last]
        return sum(found) if found else None

    uploads = sorted(route_seconds(log, "upload"))
    hits, misses = counter("service_cache_hits", 0), counter("service_cache_misses", 0)
    out = {
        "tla.prepare_s": span("tla.prepare", "total_s"),
        "tla.model_s": span("tla.model", "total_s"),
        "tla.model_calls": span("tla.model", "count"),
        "tla.notify_s": span("tla.notify", "total_s"),
        "core.predict_s": span("core.predict", "total_s"),
        "core.predict_calls": span("core.predict", "count"),
        "core.acquisition_evals": counter("acquisition_evaluations"),
        "core.loop_self_s": span("core.tune", "self_s"),
        "core.gp_fits": counter("gp_fits"),
        "core.gp_incremental_updates": counter("gp_incremental_updates"),
        "core.lcm_fits": counter("lcm_fits"),
        "core.sparse_fits": counter("sparse_fits"),
        "engine.fantasy_updates": counter("fantasy_updates"),
        "perf.surrogate_s": timer("surrogate"),
        "perf.search_s": timer("search"),
        "perf.propose_s": timer("propose"),
        "perf.gp_mle_s": timer("gp_mle"),
        "perf.lcm_mle_s": timer("lcm_mle"),
        "perf.registry_build_s": timer("registry_build"),
        "crowd.store_columnar_queries": counter("store_columnar_queries"),
        "crowd.store_row_fallbacks": counter("store_row_fallbacks"),
        "fabric.redispatches": counter("fabric_redispatches"),
        "fabric.jobs_completed": counter("fabric_jobs_completed"),
        "service.upload_s": sum(uploads),
        "service.upload_calls": len(uploads),
        "service.router_self_s": span("service.request", "self_s"),
        "service.shard_busy_s": span("service.shard", "total_s"),
        "service.shard_requests": span("service.shard", "count"),
        "service.replica_writes": replica_writes,
        "service.wal_appends": counter("wal_appends"),
        "service.wal_fsyncs": counter("wal_fsyncs"),
        "service.wal_snapshots": counter("wal_snapshots"),
        "service.upload_top1pct_s": sum(uploads[-max(len(uploads) // 100, 1):]),
        "service.cache_hit_rate": hits / (hits + misses) if hits + misses else None,
        "service.cache_invalidations": counter("service_cache_invalidations"),
        "registry.builds": counter("registry_builds"),
        "registry.build_request_s": sum(s for _, s, _, built in log if built),
        "registry.hits": counter("registry_hits"),
        "registry.stale_served": counter("registry_stale_served"),
        "registry.predict_batches": counter("registry_predict_batches"),
        # the benchmark's own grouping spans: their self time is the load generator's
        "bench.loadgen_self_frac": sum(
            span(name, "self_s") for name in ("workload", "session", "next_user", "op")
        ) / m["wall_s"],
    }
    for route in READ_ROUTES:
        seconds = route_seconds(log, route)
        out[f"service.{route}_p50_ms"] = 1e3 * median(seconds) if seconds else None
        out[f"service.{route}_s"] = sum(seconds)
    out.update(m["layer"])
    return {metric.name: out.get(metric.name) for metric in LAYER}


def print_metrics(title: str, values: dict[str, Any], metrics) -> None:
    print(f"\n{title}")
    for metric in metrics:
        value = values.get(metric.name)
        if value is None:
            print(f"  {metric.name:<34} {'null':>14}")
        else:
            print(f"  {metric.name:<34} {value:>14.6g} {metric.unit}")


def run_one(args: argparse.Namespace) -> int:
    pin_environment()
    sys.path.insert(0, str(REPO / "src"))
    import workloads as wl
    from repro.core import perf
    from spans import Tracer, route_seconds, summarize

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    shrink = 0.1 if args.smoke else 1.0
    sizes = wl.Sizes(ops=shrink * args.seconds / RUN_SECONDS, setup=shrink)
    workload = wl.WORKLOADS[args.workload](args.seed, sizes)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  sizes {json.dumps(workload.describe_sizes())}")

    tracer = Tracer() if args.trace else None
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        t0 = time.perf_counter()
        wl.warm_up(work)
        dep = wl.Deployment(work)
        try:
            workload.setup(dep)
            setup_s = time.perf_counter() - t0
            dep.begin_measuring(tracer)
            with perf.collect(dep.stats):
                m = workload.measure(dep)
            log = dep.measured_log()
            user = user_metrics(m, log, setup_s)
            m["layer"]["service.disk_bytes_per_record"] = (
                dep.disk_bytes() / max(dep.svc.total_records(), 1)
            )
            stats, replica_writes = dep.stats.snapshot(), dep.replica_writes[0]
            problems = workload.check(dep)
        finally:
            dep.close()
    finally:
        # leave nothing behind, whatever happened above
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    attempted, failed = user.pop("attempted"), user.pop("failed")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    print_metrics("end-to-end (wrappers on: untraced runs are the reference)" if tracer
                  else "end-to-end", user, END_TO_END)
    for route in ("upload", *READ_ROUTES):
        latencies = [1e3 * s for s in route_seconds(log, route)]
        if latencies:
            q, value, beyond = tail_percentile(latencies)
            print(f"  {route + ' latency':<34} p50 {median(latencies):.3f} ms, "
                  f"p{q:g} {value:.3f} ms ({len(latencies)} samples, {beyond} beyond)")

    layer: dict[str, float | None] = {}
    if tracer is not None:
        span_rows = summarize(tracer.spans)
        layer = layer_metrics(m, log, stats, span_rows, replica_writes)
        print_metrics("per-layer", layer, LAYER)
        print("\nspans                          count      total_s       self_s")
        for name, row in sorted(span_rows.items()):
            print(f"  {name:<26} {row['count']:>7d} {row['total_s']:>12.4f} {row['self_s']:>12.4f}")
        if layer["bench.loadgen_self_frac"] > LOADGEN_LIMIT:
            print(f"  FLAG bench.loadgen_self_frac = {layer['bench.loadgen_self_frac']:.3f} "
                  f"exceeds {LOADGEN_LIMIT}")
        RESULTS.mkdir(parents=True, exist_ok=True)
        trace_file = RESULTS / f"trace-{workload.name}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, **tracer.to_json()}
        ))
        print(f"  spans written to {trace_file.relative_to(REPO)}")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("output checks: " + ("all passed" if not problems else f"{len(problems)} failed"))

    # second-to-last line: everything, for the suite runner
    print("detail " + json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "sizes": workload.describe_sizes(),
        "user": user,
        "layer": layer,
        "problems": problems,
    }))
    # last line: the benchmark contract's, which wants a number for every
    # declared metric -- one this workload does not have reads 0 there only
    values = {**layer, **user}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": float(values.get(metric.name) or 0.0), "unit": metric.unit}
            for metric in ([*UNGATED, *LAYER] if args.trace else GATED)
        },
    }))
    return 0 if not problems else 1


# -- the whole suite -----------------------------------------------------------------

def provenance(args: argparse.Namespace) -> dict[str, Any]:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "repeats": REPEATS,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": PINNED_ENV,
    }


def run_child(workload: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        raise RuntimeError(f"{workload} (trace {trace}) printed no result:\n{done.stderr[-2000:]}")
    return json.loads(lines[-2][len("detail "):])


def run_suite(args: argparse.Namespace) -> int:
    result: dict[str, Any] = {"provenance": provenance(args), "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        runs = [run_child(name, args, 0) for _ in range(REPEATS)]
        traced = run_child(name, args, 1)
        problems = [p for run in [*runs, traced] for p in run["problems"]]
        ok = ok and not problems
        # tracing overhead: the traced run against the untraced runs, each in its own process
        untraced_wall = median([run["user"]["wall_s"] for run in runs])
        overhead = (traced["user"]["wall_s"] - untraced_wall) / untraced_wall
        result["workloads"][name] = {
            "sizes": runs[0]["sizes"],
            "runs": [run["user"] for run in runs],
            "layer": {**traced["layer"], "bench.trace_overhead_frac": overhead},
            "problems": problems,
        }
        print(f"\n{name}  ({REPEATS} untraced runs; median, min..max)")
        for metric in END_TO_END:
            values = [run["user"][metric.name] for run in runs if metric.name in run["user"]]
            if values:
                print(f"  {metric.name:<26} {median(values):>12.6g} {metric.unit:<9}"
                      f" {min(values):.6g} .. {max(values):.6g}  (n={len(values)})")
        print(f"  {'bench.trace_overhead_frac':<26} {overhead:>12.6g} fraction  (1 traced run)"
              + (f"  FLAG exceeds {TRACE_OVERHEAD_LIMIT}" if overhead > TRACE_OVERHEAD_LIMIT else ""))
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = args.out or RESULTS / ("e2e-smoke.json" if args.smoke else "e2e.json")
    out.write_text(json.dumps(result, indent=1))
    print(f"\nresults written to {out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
