"""What a problem-wide aggregate costs, counted not timed.

The router used to pull every record of the problem from every shard
(3 200 records x 2 replicas, 14-16 MB of transient documents per call on
the end-to-end benchmark's ``crowd_serve`` store) to print 64 rows.  Now
each shard reduces its own columns and ships one partial row per task:
the bounds below are on traced bytes, rows shipped and columns built —
no clock, no RSS.
"""

from __future__ import annotations

import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from repro.service import build_service

RECORDS, TASKS = 3200, 64
PROBLEM = "PDGEQRF"
MACHINES = [
    {"machine_name": "Cori", "partition": "haswell", "nodes": 8, "cores": 32},
    {"machine_name": "Cori", "partition": "knl", "nodes": 4, "cores": 68},
    {"machine_name": "Perlmutter", "partition": "cpu", "nodes": 2, "cores": 128},
]
SOFTWARE = {"scalapack": {"version_split": [2, 1, 0]}, "gcc": {"version_split": [11, 2, 0]}}
#: the columns uploads and task-pinned queries build (as at the parent of
#: the grouped reduction): no whole ``task_parameters``, no machine block
INGEST_COLUMNS = {
    "accessibility", "output", "owner", "problem_name", "timestamp", "uid",
    "task_parameters.m", "task_parameters.n",
}  # fmt: skip


def upload(key: str, i: int, rng: np.random.Generator) -> dict:
    """One record shaped like the end-to-end benchmark's."""
    t = int(rng.integers(TASKS))
    return {
        "route": "upload",
        "api_key": key,
        "problem_name": PROBLEM,
        "task_parameters": {"m": 2000 + 50 * t, "n": 2000 + 30 * t},
        "tuning_parameters": {
            "mb": int(rng.integers(1, 16)),
            "nb": int(rng.integers(1, 16)),
            "npernode": int(rng.integers(1, 6)),
            "p": int(rng.integers(1, 32)),
        },
        "output": None if rng.random() < 0.05 else float(rng.uniform(0.5, 9.0)),
        "machine_configuration": dict(MACHINES[i % len(MACHINES)]),
        "software_configuration": dict(SOFTWARE),
    }


@pytest.fixture(scope="module")
def served():
    """4 shards, replication 2; ``(service, api key)``."""
    rng = np.random.default_rng(0)
    with build_service(4, replication=2) as svc:
        key = svc.register_user("alice", "alice@lab.gov")[1]
        for i in range(RECORDS):
            assert svc.client.handle(upload(key, i, rng))["ok"]
        yield svc, key


def columns(svc) -> dict[str, set[str]]:
    return {
        name: set(shard.repository.store["performance_records"]._columnar._columns)
        for name, shard in svc.shards.items()
    }


def walk(value):
    yield value
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for member in value:
            yield from walk(member)


class TestAggregateCost:
    def test_an_ingest_shaped_run_builds_no_summary_column(self):
        """Columns are built on first use: a deployment never asked for
        an aggregate pays nothing for the reduction."""
        rng = np.random.default_rng(1)
        with build_service(4, replication=2) as svc:
            key = svc.register_user("alice", "alice@lab.gov")[1]
            for i in range(256):
                assert svc.client.handle(upload(key, i, rng))["ok"]
            for t in range(TASKS):
                task = {"m": 2000 + 50 * t, "n": 2000 + 30 * t}
                response = svc.client.handle(
                    {"route": "query", "api_key": key, "problem_name": PROBLEM,
                     "task_parameters": task}
                )
                assert response["ok"]
            built = columns(svc)
            assert set().union(*built.values()) == INGEST_COLUMNS
            request = {"route": "leaderboard", "api_key": key, "problem_name": PROBLEM}
            assert svc.client.handle(request)["ok"]
            # the reduction adds the whole task only
            assert set().union(*columns(svc).values()) == INGEST_COLUMNS | {
                "task_parameters"
            }  # fmt: skip

    @pytest.mark.parametrize("route", ["leaderboard", "contributors"])
    def test_an_aggregate_allocates_under_a_megabyte(self, served, route):
        svc, key = served
        request = {"route": route, "api_key": key, "problem_name": PROBLEM}
        assert svc.router.handle(request)["ok"]  # columns and pool exist
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            response = svc.router.handle(request)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert response["ok"]
        assert peak <= 1 << 20, f"{route}: {peak / 1024:.0f} KB traced (parent: 14-16 MB)"

    def test_shards_ship_partial_rows_not_records(self, served):
        svc, key = served
        shipped: list[tuple[str, dict]] = []
        targets = {name: t.target for name, t in svc.transports.items()}

        def spy(target):
            def handle(request):
                response = target(request)
                shipped.append((request.get("route"), response))
                return response

            return handle

        for name, transport in svc.transports.items():
            transport.target = spy(targets[name])
        try:
            response = svc.router.handle(
                {"route": "leaderboard", "api_key": key, "problem_name": PROBLEM}
            )
        finally:
            for name, transport in svc.transports.items():
                transport.target = targets[name]
        assert response["ok"] and len(response["rows"]) == TASKS
        assert [route for route, _ in shipped] == ["summary"] * 4
        assert sum(len(r["tasks"]) for _, r in shipped) <= 2 * TASKS
        for _, shard_response in shipped:
            assert "records" not in shard_response
            for node in walk(shard_response):
                if isinstance(node, Mapping):  # nothing shaped like a record
                    assert not {"_id", "uid", "machine_configuration"} & set(node)
