"""Metric declarations and the small statistics every report uses.

One table per metric family, so the runner, ``compare.py``, the tests
and ``BENCHMARK.json`` cannot drift apart (``test_e2e.py`` checks the
JSON file against these tables).

``END_TO_END`` are the issue's thirteen user-visible metrics, each with
its regression bound and the workloads that report it; the suite
measures them in untraced runs and ``compare.py`` judges every
(workload, metric) pair.  ``BENCHMARK.json`` wants every ``end_to_end``
metric from every workload, never 0, and steady over ten seeds, so it can
gate only the ones in ``GATED``; the rest (``UNGATED``) lead its
``per_layer`` list.  ``LAYER`` are the per-layer metrics of a traced run,
each with the end-to-end metric it should move.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "END_TO_END",
    "GATED",
    "LAYER",
    "READ_ROUTES",
    "RUN_SECONDS",
    "UNGATED",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "Metric",
    "median",
    "percentile",
    "tail_percentile",
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the reference median by which the metric may worsen
    bound: float | None = None
    #: workloads that report it (empty = all five)
    on: tuple[str, ...] = ()
    #: what it is (USER) / which end-to-end metric it should move (LAYER)
    note: str = ""


#: workload name -> the one-sentence reason it exists
WORKLOADS = {
    "tla_pipeline": (
        "The paper's Fig. 1 loop: consult the crowd, tune with five TLA-pool "
        "members, stream back, serve the next user; surrogate fits and "
        "acquisition search dominate."
    ),
    "fabric_notla": (
        "Async engine, 2-process fabric, constant-liar batches, incremental GP "
        "on a small growing history: the one place dispatch/lease/queue cost "
        "and proposal-vs-evaluation overlap show."
    ),
    "crowd_history": (
        "The same tuner consulting one task that already holds 1100 crowd "
        "records, past n_dense_max: one huge history instead of many small "
        "ones, so the sparse surrogate does the work."
    ),
    "crowd_ingest": (
        "Write path only, no problem registered: router, quorum replication, "
        "shard, WAL fsync, snapshots, column maintenance, then a restart from "
        "disk; shows a read speed-up paid for by slower inserts."
    ),
    "crowd_serve": (
        "Read path under write interference: task-pinned keys fit the router "
        "cache, SQL and fresh-probe predictions exceed it, and every write "
        "invalidates and may trigger a synchronous registry rebuild."
    ),
}
WORKLOAD_NAMES = tuple(WORKLOADS)
#: nominal ``--seconds`` (``BENCHMARK.json``'s ``run_seconds``): the
#: measured operation counts in ``workloads.py`` are sized for it
RUN_SECONDS = 15
TUNING = ("tla_pipeline", "fabric_notla", "crowd_history")
#: routes pooled into the read latencies, and reported one by one
READ_ROUTES = ("query", "query_sql", "leaderboard", "predict", "model_meta")

END_TO_END = [
    Metric("setup_s", "s", "lower", 0.15,
           note="process warm-up, service build, seeding, registry warm-up"),
    Metric("wall_s", "s", "lower", 0.10,
           note="measured phase wall-clock for the fixed operation count"),
    Metric("overhead_ms_per_eval", "ms", "lower", 0.10, TUNING,
           "(wall - evaluation time on the critical path) / evaluations"),
    Metric("worker_utilization", "fraction", "higher", 0.10, ("fabric_notla",),
           "sum of evaluation latency_s / (procs x wall)"),
    Metric("best_ratio", "ratio", "lower", 0.02, ("tla_pipeline",),
           "geometric mean over sessions of best output / reference minimum"),
    Metric("next_user_s", "s", "lower", 0.10, ("tla_pipeline",),
           "user C's predict + sensitivity over the tuned tasks"),
    Metric("upload_p50_ms", "ms", "lower", 0.10, ("crowd_ingest", "crowd_serve"),
           "median upload latency"),
    Metric("upload_p999_ms", "ms", "lower", 0.10, ("crowd_ingest",),
           "p99.9 upload latency (ten samples beyond it at full size)"),
    Metric("read_p50_ms", "ms", "lower", 0.10, ("crowd_serve",),
           "median latency, all read routes pooled"),
    Metric("read_p99_ms", "ms", "lower", 0.10, ("crowd_serve",),
           "p99 latency, all read routes pooled"),
    Metric("recover_s", "s", "lower", 0.10, ("crowd_ingest",),
           "restart all shards from disk until the first successful read"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           note="ru_maxrss of the workload process plus its largest child"),
    Metric("failed_frac", "fraction", "lower", 0.0,
           note="operations failed / attempted (absolute bound 0)"),
]

#: reported by all five workloads, never 0, and inside their bound over ten
#: seeds on every one of them; ``wall_s`` is not (README, "Latest numbers")
GATED_NAMES = ("setup_s", "peak_rss_mb")
GATED = [m for m in END_TO_END if m.name in GATED_NAMES]
UNGATED = [m for m in END_TO_END if m.name not in GATED_NAMES]


def _layer(name: str, unit: str, moves: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, note=moves)


LAYER = [
    _layer("apps.evaluate_s", "s", "wall_s only, never overhead_ms_per_eval"),
    _layer("apps.evaluations", "count", "wall_s only", "higher"),
    _layer("tla.prepare_s", "s", "overhead_ms_per_eval, wall_s on tla_pipeline"),
    _layer("tla.model_s", "s", "overhead_ms_per_eval, wall_s on tla_pipeline"),
    _layer("tla.model_calls", "count", "overhead_ms_per_eval on tla_pipeline"),
    _layer("tla.notify_s", "s", "overhead_ms_per_eval on tla_pipeline"),
    _layer("core.predict_s", "s", "overhead_ms_per_eval on tla_pipeline (search inner loop)"),
    _layer("core.predict_calls", "count", "overhead_ms_per_eval on tla_pipeline"),
    _layer("core.acquisition_evals", "count", "overhead_ms_per_eval on the tuning workloads"),
    _layer("core.loop_self_s", "s", "overhead_ms_per_eval on the tuning workloads"),
    _layer("core.gp_fits", "count", "wall_s on tla_pipeline, fabric_notla"),
    _layer("core.gp_incremental_updates", "count", "wall_s on fabric_notla"),
    _layer("core.lcm_fits", "count", "wall_s on tla_pipeline"),
    _layer("core.sparse_fits", "count", "wall_s on crowd_history"),
    _layer("engine.fantasy_updates", "count", "wall_s on fabric_notla, crowd_history"),
    _layer("perf.surrogate_s", "s", "splits core.loop_self_s (program's own timer)"),
    _layer("perf.search_s", "s", "splits core.loop_self_s (program's own timer)"),
    _layer("perf.propose_s", "s", "splits core.loop_self_s (program's own timer)"),
    _layer("perf.gp_mle_s", "s", "splits core.loop_self_s (program's own timer)"),
    _layer("perf.lcm_mle_s", "s", "splits tla.model_s (program's own timer)"),
    _layer("perf.registry_build_s", "s", "splits registry.build_request_s (program's own timer)"),
    _layer("crowd.consult_s", "s", "wall_s on tla_pipeline, crowd_history"),
    _layer("crowd.consult_records", "count", "wall_s on tla_pipeline, crowd_history"),
    _layer("crowd.store_columnar_queries", "count", "read_p50_ms on crowd_serve", "higher"),
    _layer("crowd.store_row_fallbacks", "count", "read_p50_ms on crowd_serve"),
    _layer("sensitivity.analyze_s", "s", "next_user_s"),
    _layer("fabric.first_result_s", "s", "wall_s, worker_utilization on fabric_notla"),
    _layer("fabric.redispatches", "count", "wall_s on fabric_notla"),
    _layer("fabric.jobs_completed", "count", "wall_s on fabric_notla", "higher"),
    _layer("fabric.queue_bytes", "bytes", "wall_s on fabric_notla"),
    _layer("service.upload_s", "s", "overhead_ms_per_eval on the tuning workloads"),
    _layer("service.upload_calls", "count", "overhead_ms_per_eval on the tuning workloads"),
    _layer("service.router_self_s", "s", "upload_p50_ms, read_p50_ms"),
    _layer("service.shard_busy_s", "s", "upload_p50_ms, read_p50_ms"),
    _layer("service.shard_requests", "count", "upload_p50_ms, read_p50_ms"),
    _layer("service.replica_writes", "count", "upload_p50_ms"),
    _layer("service.wal_appends", "count", "upload_p50_ms on crowd_ingest"),
    _layer("service.wal_fsyncs", "count", "upload_p50_ms on crowd_ingest"),
    _layer("service.wal_snapshots", "count", "upload_p999_ms, recover_s on crowd_ingest"),
    _layer("service.disk_bytes_per_record", "bytes", "recover_s on crowd_ingest"),
    _layer("service.upload_top1pct_s", "s", "upload_p999_ms, wall_s on crowd_ingest"),
    _layer("service.recover_records_per_s", "1/s", "recover_s", "higher"),
    _layer("service.cache_hit_rate", "fraction", "read_p50_ms on crowd_serve", "higher"),
    _layer("service.cache_invalidations", "count", "read_p50_ms on crowd_serve"),
    *[_layer(f"service.{r}_p50_ms", "ms", "read_p50_ms, read_p99_ms") for r in READ_ROUTES],
    *[_layer(f"service.{r}_s", "s", "wall_s on crowd_serve") for r in READ_ROUTES],
    _layer("registry.builds", "count", "wall_s on crowd_serve, next_user_s"),
    _layer("registry.build_request_s", "s", "upload_p50_ms, wall_s on crowd_serve"),
    _layer("registry.hits", "count", "read_p50_ms on crowd_serve", "higher"),
    _layer("registry.stale_served", "count", "read_p50_ms on crowd_serve"),
    _layer("registry.predict_batches", "count", "read_p50_ms on crowd_serve", "higher"),
    _layer("bench.loadgen_self_frac", "fraction", "must stay <= 0.05 on the service workloads"),
]


# -- statistics ---------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _rank(q: float, n: int) -> int:
    """1-based rank of the ``q``-th percentile among ``n`` sorted samples."""
    # the epsilon keeps 99.9 % of 11 000 at 10 989, not one float ulp above it
    return max(math.ceil(q * n / 100.0 - 1e-9), 1)


def percentile(values: Sequence[float], q: float) -> float:
    """The smallest sample with at least ``q`` percent of samples at or below it."""
    ordered = sorted(values)
    return float(ordered[_rank(q, len(ordered)) - 1])


def tail_percentile(
    values: Sequence[float], ladder: Sequence[float] = (99.9, 99.0, 90.0, 50.0)
) -> tuple[float, float, int]:
    """The highest percentile of ``ladder`` with ten samples beyond it.

    Returns ``(q, value, samples_beyond)``; falls back to the lowest rung
    when even that has fewer than ten samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in ladder:
        rank = _rank(q, n)
        if n - rank >= 10 or q == ladder[-1]:
            return q, float(ordered[rank - 1]), n - rank
    raise ValueError("empty ladder")

