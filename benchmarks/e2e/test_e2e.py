"""Tests of the benchmark's own machinery: ``pytest benchmarks/e2e``.

The arithmetic (span self time, percentile selection, compare verdicts)
is tested on synthetic data; each workload then makes one ``--smoke``
pass through the real command line and must emit every declared metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from compare import compare, verdict
from metrics import (
    END_TO_END,
    GATED,
    LAYER,
    RUN_SECONDS,
    UNGATED,
    WORKLOAD_NAMES,
    WORKLOADS,
    Metric,
    percentile,
    tail_percentile,
)
from run import layer_metrics
from spans import Span, Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


# -- span arithmetic -----------------------------------------------------------

def test_self_time_is_duration_minus_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 6.0, 0, None),  # overlaps a: union is [1, 6]
        Span("c", 9.0, 12.0, 0, None),  # clipped to the parent: [9, 10]
        Span("leaf", 1.5, 2.0, 1, None),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 3.0, 3.0, 0.5])
    rows = summarize(spans)
    assert rows["root"] == {"count": 1, "total_s": 10.0, "self_s": pytest.approx(4.0)}
    assert rows["a"]["self_s"] == pytest.approx(2.5)


def test_self_times_of_a_layer_sum_to_the_root_duration():
    # sequential nesting: nothing is counted twice, nothing is lost
    spans = [
        Span("request", 0.0, 1.0, None, "r1"),
        Span("router", 0.1, 0.9, 0, "r1"),
        Span("shard", 0.2, 0.5, 1, "r1"),
        Span("shard", 0.5, 0.8, 1, "r1"),
    ]
    assert sum(self_times(spans)) == pytest.approx(1.0)


def test_tracer_links_parents_and_inherits_request_ids():
    tracer = Tracer()
    with tracer.span("request", rid="op-7") as request:
        with tracer.span("router") as router:
            seen = []

            def pool_thread():  # a fan-out thread has nothing open of its own
                with tracer.span("shard") as shard:
                    seen.append(shard)

            worker = threading.Thread(target=pool_thread)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    shard = tracer.spans[seen[0]]
    assert tracer.spans[router].parent == request
    assert shard.parent == router and shard.rid == "op-7"
    assert tracer.spans[request].end >= shard.end >= shard.start
    assert tracer.to_json()["spans"][request][0] == "request"


# -- percentiles ---------------------------------------------------------------

def test_percentile_is_a_sample():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([5.0], 99.9) == 5.0


@pytest.mark.parametrize(
    "n, expected_q, expected_beyond",
    [
        (11_000, 99.9, 11),
        (10_000, 99.9, 10),  # exactly ten beyond is enough
        (3_000, 99.0, 30),
        (150, 90.0, 15),
        (40, 50.0, 20),
        (12, 50.0, 6),  # nothing has ten beyond: lowest rung
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_q, expected_beyond):
    q, value, beyond = tail_percentile([float(i) for i in range(n)])
    assert (q, beyond) == (expected_q, expected_beyond)
    assert value == float(n - beyond - 1)


# -- compare -------------------------------------------------------------------

LOWER = Metric("wall_s", "s", "lower", 0.10)
HIGHER = Metric("worker_utilization", "fraction", "higher", 0.10)


@pytest.mark.parametrize(
    "metric, a, b, expected",
    [
        (LOWER, [10.0, 10.1, 10.2], [10.3, 10.4, 10.2], "within bound"),
        (LOWER, [10.0, 10.1, 10.2], [11.5, 11.6, 11.4], "worse"),
        (LOWER, [10.0, 10.1, 10.2], [9.0, 9.1, 9.2], "better"),
        (LOWER, [10.0, 12.0, 8.0], [10.5, 9.0, 12.5], "unresolved"),
        # wide spread, yet every run of B beats every run of A
        (LOWER, [10.0, 12.0, 8.0], [5.0, 6.0, 7.0], "better"),
        (HIGHER, [0.40, 0.41, 0.42], [0.30, 0.31, 0.32], "worse"),
        (HIGHER, [0.40, 0.41, 0.42], [0.50, 0.51, 0.52], "better"),
        (Metric("failed_frac", "fraction", "lower", 0.0), [0.0, 0.0], [0.0, 0.01], "worse"),
        (Metric("failed_frac", "fraction", "lower", 0.0), [0.0, 0.0], [0.0, 0.0], "within bound"),
    ],
)
def test_verdicts(metric, a, b, expected):
    assert verdict(metric, a, b) == expected


def test_compare_rows_cover_every_reported_pair():
    def result(wall):
        return {
            "provenance": {"commit": None},
            "workloads": {
                "crowd_ingest": {
                    "runs": [
                        {"wall_s": w, "recover_s": 1.5, "failed_frac": 0.0} for w in wall
                    ]
                }
            },
        }

    rows = compare(result([19.0, 19.1, 19.2]), result([19.1, 19.0, 19.3]))
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("wall_s", "within bound"),
        ("recover_s", "within bound"),
        ("failed_frac", "within bound"),
    ]


# -- BENCHMARK.json agrees with the tables ---------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"] and spec["run_seconds"] == RUN_SECONDS
    assert spec["workloads"] == [{"name": n, "why": why} for n, why in WORKLOADS.items()]
    assert all(len(why) <= 200 for why in WORKLOADS.values())
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in GATED
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in [*UNGATED, *LAYER]
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in names[: len(GATED)]
    # only what all five workloads report can be gated
    assert all(not m.on for m in GATED) and len(END_TO_END) == 13


# -- a reading that is not there is null, not 0 ------------------------------------

def test_missing_counters_and_unused_routes_read_none():
    layer = layer_metrics(
        {"wall_s": 2.0, "layer": {"apps.evaluations": 4}},
        [("upload", 0.002, True, False), ("upload", 0.004, True, True)],
        {"counters": {"gp_fits": 3}, "timers": {"tune.surrogate.gp_mle": {"total_s": 0.5}}},
        {"workload": {"count": 1, "total_s": 2.0, "self_s": 0.02}},
        replica_writes=4,
    )
    assert list(layer) == [m.name for m in LAYER]
    assert layer["core.gp_fits"] == 3 and layer["perf.gp_mle_s"] == 0.5
    # renamed since, or never fired: the two look the same from outside
    assert layer["core.lcm_fits"] is None and layer["perf.lcm_mle_s"] is None
    assert layer["service.cache_hit_rate"] is None and layer["service.query_p50_ms"] is None
    assert layer["fabric.queue_bytes"] is None  # only a fabric workload knows it
    # the benchmark's own spans and clock: an idle layer is a true 0
    assert layer["tla.model_s"] == 0.0 and layer["service.query_s"] == 0
    assert layer["service.upload_calls"] == 2 and layer["registry.build_request_s"] == 0.004
    assert layer["bench.loadgen_self_frac"] == pytest.approx(0.01)


# -- one smoke pass of each workload through the command line ----------------------

def run_cli(*args: str) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("detail ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_pass_emits_every_declared_metric(workload):
    final, detail = run_cli("--workload", workload, "--smoke", "--seed", "3", "--trace", "1")
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert list(final["metrics"]) == [m.name for m in [*UNGATED, *LAYER]]
    assert all(isinstance(v["value"], float) for v in final["metrics"].values())
    reported = {m.name for m in END_TO_END if not m.on or workload in m.on}
    assert set(detail["user"]) == reported
    assert detail["problems"] == []
    assert list(detail["layer"]) == [m.name for m in LAYER]
    assert all(v is None or v >= 0 for v in detail["layer"].values())
    trace = json.loads((HERE / "results" / f"trace-{workload}.json").read_text())
    assert trace["columns"] == ["name", "start", "end", "parent", "rid"] and trace["spans"]
    assert not (HERE / "work").exists()


def test_untraced_run_emits_the_gated_metrics():
    final, _ = run_cli("--workload", "crowd_serve", "--smoke", "--trace", "0")
    assert list(final["metrics"]) == [m.name for m in GATED]
    assert all(v["value"] > 0 for v in final["metrics"].values())
    assert {v["unit"] for v in final["metrics"].values()} == {m.unit for m in GATED}


def test_unknown_workload_is_refused():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and "unknown workload" in done.stderr
