"""The router's aggregate merge is exact.

``leaderboard`` / ``contributors`` on the sharded service merge one
partial row per task and shard (:meth:`ColumnarView.task_summary`,
agreed by witness) and re-read as documents only the tasks whose
holders diverge.  Whatever the placement and whatever diverged, the
answer is the aggregate of the deduplicated union: over
Hypothesis-generated upload sequences and divergence — writes a lossy
link kept from a replica, an outage healed on revive, a replica
restarted from an old image, a shard joined without cleanup — the
router, the document-loop oracle (:mod:`tests.crowd.views_oracle`) and
a single ``CrowdShard`` fed the same stamped records answer the same
bytes for every user.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import perf
from repro.crowd.records import Accessibility
from repro.service import CrowdShard, RouterOptions, build_service
from repro.service.shard import oldest_wins

from ..crowd import views_oracle
from .links import lossy

PROBLEMS = ["p", "q"]
#: near-equal tasks: ``==`` but not one task (1 / 1.0 / True), one task
#: under two key orders, a task that extends another, the empty task
TASKS = [
    {"t": 1},
    {"t": 1.0},
    {"t": True},
    {"t": 2},
    {"a": 1, "b": 2},
    {"b": 2, "a": 1},
    {"a": 1},
    {},
]
USERS = {"alice": ["g1"], "bob": ["g1"], "carol": []}
ACCESS = [None, {"level": "private"}, {"level": "group", "groups": ["g1"]}]
#: failures and ties included
OUTPUTS = [None, 1.0, 2.0, 2.0, 3.5, 2]
MACHINES = [{}, {"machine_name": "Cori", "partition": "knl"}, {"machine_name": "Cori"}]

uploads = st.tuples(
    st.just("upload"),
    st.sampled_from(["p", "p", "p", "q"]),
    st.sampled_from(TASKS),
    st.sampled_from(sorted(USERS)),
    st.sampled_from(ACCESS),
    st.sampled_from(OUTPUTS),
    st.sampled_from(MACHINES),
)
shard_index = st.integers(0, 3)
missed = st.lists(uploads, min_size=1, max_size=6)
#: each divergence comes with the writes that make it one: uploads a lossy
#: link drops, uploads a down shard misses until its revive round, uploads
#: an old image lacks, uploads placed by the new ring
operations = st.one_of(
    uploads,
    st.tuples(st.just("lossy"), shard_index, missed),
    st.tuples(st.just("outage"), shard_index, missed),
    st.tuples(st.just("stale"), shard_index, missed),
    st.tuples(st.just("join"), missed),
)


class Cluster:
    """A durable service driven by generated operations."""

    def __init__(self, root: Path, n_shards: int, replication: int) -> None:
        self.root = root
        self.svc = build_service(
            n_shards,
            data_dir=root / "service",
            fsync_every=10_000,
            options=RouterOptions(replication=replication),
        )
        self.keys = {}
        for user, groups in USERS.items():
            self.keys[user] = self.svc.register_user(user, f"{user}@lab.gov")[1]
            for group in groups:
                self.svc.users.add_to_group(user, group)

    def shard(self, index: int) -> str:
        names = sorted(self.svc.shards)
        return names[index % len(names)]

    def apply(self, op: tuple) -> None:
        svc = self.svc
        if op[0] == "upload":
            _, problem, task, user, access, output, machine = op
            svc.client.handle(  # refused when every replica is down: not stored
                {
                    "route": "upload",
                    "api_key": self.keys[user],
                    "problem_name": problem,
                    "task_parameters": dict(task),
                    "tuning_parameters": {"x": output},
                    "output": output,
                    "accessibility": access,
                    "machine_configuration": dict(machine),
                }
            )
        elif op[0] == "lossy":
            # a write the replica misses stays missed until healed
            with lossy(svc.transports[self.shard(op[1])]):
                for upload in op[2]:
                    self.apply(upload)
        elif op[0] == "outage":
            name = self.shard(op[1])
            svc.kill_shard(name)
            for upload in op[2]:
                self.apply(upload)
            svc.revive_shard(name)
        elif op[0] == "stale":
            # the node comes back as its disk was before the writes
            name = self.shard(op[1])
            data_dir = svc.shards[name].data_dir
            image = self.root / "image"
            shutil.copytree(data_dir, image)
            for upload in op[2]:
                self.apply(upload)
            svc.shards[name].close()
            shutil.rmtree(data_dir)
            shutil.move(image, data_dir)
            svc.restart_shard(name)
        elif op[0] == "join":
            # new owners for some tasks; the old copies stay where they are
            if len(svc.shards) < 6:
                data_dir = self.root / "service" / f"joined-{len(svc.shards)}"
                svc.add_shard(data_dir=data_dir, rebalance=False)
            for upload in op[1]:
                self.apply(upload)

    def union(self) -> list[dict]:
        """Every stored record once: the oldest copy per uid."""
        docs = [
            {k: v for k, v in doc.items() if k != "_id"}
            for name in sorted(self.svc.shards)
            for doc in self.svc.shards[name].repository.store["performance_records"].find({})
        ]
        return list(oldest_wins(docs).values())

    def single_server(self, docs: list[dict]) -> CrowdShard:
        """One ``CrowdShard`` holding ``docs`` under their router stamps."""
        server = CrowdShard("oracle", users=self.svc.users)
        for doc in sorted(docs, key=views_oracle.stamp):
            response = server.handle(
                {**doc, "route": "upload", "api_key": self.keys[doc["owner"]]}
            )
            assert response["ok"], response
        return server

    def visible(self, docs: list[dict], user: str, problem: str) -> list[dict]:
        return [
            d
            for d in docs
            if d["problem_name"] == problem
            and Accessibility.from_dict(d["accessibility"]).visible_to(
                user, d["owner"], USERS[user]
            )
        ]


def divergent_tasks() -> int:
    return perf.snapshot()["counters"].get("service_summary_divergent_tasks", 0)


def assert_exact(cluster: Cluster) -> None:
    docs = cluster.union()
    server = cluster.single_server(docs)
    for user, key in cluster.keys.items():
        for problem in PROBLEMS:
            seen = cluster.visible(docs, user, problem)
            want = {
                "leaderboard": {
                    "ok": True,
                    "rows": [
                        r.to_response() for r in views_oracle.leaderboard_from_docs(seen)
                    ],
                },
                "contributors": {
                    "ok": True,
                    "contributors": views_oracle.contributor_stats_from_docs(seen),
                },
            }
            for route, oracle in want.items():
                request = {"route": route, "api_key": key, "problem_name": problem}
                routed = cluster.svc.router.handle(request)
                assert routed == oracle, (route, user, problem)
                assert json.dumps(routed) == json.dumps(oracle)
                assert json.dumps(routed) == json.dumps(server.handle(request))


class TestMergeIsExact:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.lists(operations, min_size=1, max_size=12),
    )
    def test_router_equals_oracle_equals_single_server(self, n_shards, replication, ops):
        with tempfile.TemporaryDirectory() as root:
            cluster = Cluster(Path(root), n_shards, replication)
            with cluster.svc:
                for op in ops:
                    cluster.apply(op)
                assert_exact(cluster)

                # healed, the owners agree; copies a join left behind on
                # former owners go with the cleanup rounds
                cluster.svc.router.anti_entropy_round()
                assert_exact(cluster)
                cluster.svc.router.rebalance()
                before = divergent_tasks()
                assert_exact(cluster)
                assert divergent_tasks() == before

    def test_unstamped_records_are_read_as_documents(self):
        """Records from outside the router (``uid`` 0) are not identified
        by ``(uid, timestamp)``: two shards holding *different* ones with
        one timestamp would show equal witnesses, so such a task carries
        none and both records count."""
        with build_service(2, replication=2) as svc:
            key = svc.register_user("carol", "carol@lab.gov")[1]
            for n, name in enumerate(sorted(svc.shards)):
                doc = {
                    "uid": 0,
                    "problem_name": "p",
                    "task_parameters": {"t": 1},
                    "tuning_parameters": {"n": n},
                    "output": float(n),
                    "owner": "carol",
                    "accessibility": {"level": "public", "groups": []},
                    "timestamp": 5.0,
                }
                applied = svc.shards[name].handle({"route": "replicate", "records": [doc]})
                assert applied["applied"] == 1
            before = divergent_tasks()
            response = svc.router.handle(
                {"route": "leaderboard", "api_key": key, "problem_name": "p"}
            )
            (row,) = response["rows"]
            assert (row["n_samples"], row["best_output"]) == (2, 0.0)
            assert divergent_tasks() == before + 1
