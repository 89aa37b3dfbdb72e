"""Router semantics: replication, pinned reads, fan-out merge,
read-after-write, throttling, and degraded-mode behavior."""

from __future__ import annotations

import contextlib
import json
import random
import tempfile
from pathlib import Path

import pytest

from repro.core import GaussianProcess, perf
from repro.core.gp import GPFitError
from repro.crowd.users import UserRegistry
from repro.registry import RegistryOptions
from repro.service import (
    CrowdRouter,
    CrowdShard,
    RouterOptions,
    build_service,
)

from . import golden_transcript


def _upload(endpoint, key, i, problem="demo", task=None):
    return endpoint.handle(
        {
            "route": "upload",
            "api_key": key,
            "problem_name": problem,
            "task_parameters": task if task is not None else {"t": i % 5},
            "tuning_parameters": {"x": i},
            "output": float(i),
        }
    )


@pytest.fixture()
def svc():
    service = build_service(4, replication=2)
    yield service
    service.close()


@pytest.fixture()
def key(svc):
    return svc.register_user("alice", "alice@lab.gov")[1]


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _manual_router(**options):
    """Router over bare shards with an injectable clock."""
    users = UserRegistry()
    users.register("alice", "alice@lab.gov")
    api_key = users.issue_api_key("alice")
    shards = {f"s{i}": CrowdShard(f"s{i}", None, users=users) for i in range(3)}
    clock = _Clock()
    router = CrowdRouter(shards, RouterOptions(**options), clock=clock)
    return router, api_key, clock


_UPLOAD = {
    "route": "upload",
    "problem_name": "demo",
    "task_parameters": {"t": 1},
    "tuning_parameters": {"x": 1},
    "output": 1.0,
}
#: id -> (request without its api_key, expected error) — every one of
#: them used to escape at least one dispatcher's ``handle`` as an exception
_MALFORMED = {
    **{
        f"{route}-{kind}": (
            {"route": route, "problem_name": "demo", "task_parameters": task,
             "configurations": [{"x": 1}]},
            "bad_request",
        )
        for route in ("query", "predict", "model_meta", "sensitivity")
        for kind, task in (("int", 5), ("list", [1, 2]), ("str", "ab"))
    },
    # without a problem the router used to aggregate every problem together
    "leaderboard-no-problem": ({"route": "leaderboard"}, "bad_request"),
    "contributors-no-problem": ({"route": "contributors"}, "bad_request"),
    "idempotency-key": ({**_UPLOAD, "idempotency_key": ["k"]}, "bad_request"),
    # a token is [client id, n], the uid it names exact below 2**53
    "idempotency-key-str": ({**_UPLOAD, "idempotency_key": "k1"}, "bad_request"),
    "idempotency-key-client": ({**_UPLOAD, "idempotency_key": [2**21, 1]}, "bad_request"),
    "idempotency-key-n": ({**_UPLOAD, "idempotency_key": [1, 2**32]}, "bad_request"),
    "list-route": ({**_UPLOAD, "route": ["upload"]}, "bad_request"),
    "upload-api-key": ({**_UPLOAD, "api_key": ["k"]}, "auth"),
    "whoami-api-key": ({"route": "whoami", "api_key": {"k": 1}}, "auth"),
    # a meta-description block, or an entry of one, that is not an object
    **{
        case: (
            {"route": "query", "problem_name": "demo", block: value},
            "bad_request",
        )
        for case, block, value in (
            ("space-int", "problem_space", 1),
            ("space-list", "problem_space", [1]),
            ("space-str", "problem_space", "x"),
            ("space-input-entry", "problem_space", {"input_space": [1]}),
            ("space-param-entry", "problem_space", {"parameter_space": ["x"]}),
            ("config-str", "configuration_space", "x"),
            ("config-list", "configuration_space", [1, 2]),
            ("config-machine-entry", "configuration_space", {"machine_configurations": [1]}),
            ("config-machine-str", "configuration_space", {"machine_configurations": "ab"}),
            ("config-sw-entry", "configuration_space", {"software_configurations": [1]}),
        )
    },
}


@contextlib.contextmanager
def _dispatchers():
    """The protocol's front ends, one key: a standalone durable node (a
    single-server deployment, journaling every write), an in-memory
    shard, and a router over two shards."""
    users = UserRegistry()
    users.register("alice", "alice@lab.gov")
    api_key = users.issue_api_key("alice")
    with tempfile.TemporaryDirectory() as data_dir:
        server = CrowdShard("node", data_dir, users=users, registry=RegistryOptions())
        shard = CrowdShard("s0", None, users=users, registry=RegistryOptions())
        with build_service(2, users=users, registry=RegistryOptions()) as svc:
            yield api_key, {"server": server, "shard": shard, "router": svc.router}
        shard.close()
        server.close()


@pytest.fixture(scope="module")
def dispatchers():
    with _dispatchers() as shared:
        yield shared


class TestMalformedQueries:
    @pytest.mark.parametrize("endpoint", ["server", "shard", "router"])
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_handle_never_raises(self, dispatchers, case, endpoint):
        api_key, endpoints = dispatchers
        request_, error = _MALFORMED[case]
        response = endpoints[endpoint].handle({"api_key": api_key, **request_})
        assert response["ok"] is False and response["error"] == error, response

    @pytest.mark.parametrize("endpoint", ["server", "shard", "router"])
    def test_an_upload_whose_build_raises_is_still_answered(
        self, endpoint, monkeypatch
    ):
        with _dispatchers() as (api_key, endpoints):  # its own: it writes
            target = endpoints[endpoint]
            space = {"parameter_space": [
                {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 9.0}
            ]}
            assert target.handle(
                {"route": "register_problem", "api_key": api_key,
                 "problem_name": "demo", "problem_space": space}
            )["ok"]
            for i in range(2):
                assert _upload(target, api_key, i, task={"t": 1})["ok"]

            def boom(self, X, y):
                raise GPFitError("scripted")

            monkeypatch.setattr(GaussianProcess, "fit", boom)
            with perf.collect() as stats:
                response = _upload(target, api_key, 2, task={"t": 1})
            assert response["ok"], response
            assert stats.counters["registry_build_errors"] >= 1

    def test_bad_regex_is_bad_request_not_an_exception(self):
        # 2 shards x replication 2: every shard holds the record, so the
        # bad pattern meets a stored string wherever the query lands
        with build_service(2, replication=2) as svc:
            key = svc.register_user("alice", "alice@lab.gov")[1]
            assert _upload(svc.client, key, 0, task={"m": "text"})["ok"]
            for task in ({"m": {"$regex": "("}}, {"m": {"$in": "abc"}}):
                resp = svc.router.handle(
                    {
                        "route": "query",
                        "api_key": key,
                        "problem_name": "demo",
                        "task_parameters": task,
                    }
                )
                assert not resp["ok"] and resp["error"] == "bad_request"


class TestReplication:
    def test_each_record_stored_on_replication_shards(self, svc, key):
        for i in range(20):
            assert _upload(svc.client, key, i)["ok"]
        assert svc.total_records() == 40  # 20 records x replication=2

    def test_replicas_carry_identical_uid_and_timestamp(self, svc, key):
        _upload(svc.client, key, 0)
        docs = [
            d
            for shard in svc.shards.values()
            for d in shard.repository.store["performance_records"].find({})
        ]
        assert len(docs) == 2
        assert docs[0]["uid"] == docs[1]["uid"]
        assert docs[0]["timestamp"] == docs[1]["timestamp"]

    def test_fanout_query_dedups_replicas(self, svc, key):
        for i in range(15):
            _upload(svc.client, key, i)
        response = svc.client.handle(
            {"route": "query", "api_key": key, "problem_name": "demo"}
        )
        assert response["ok"]
        assert len(response["records"]) == 15
        uids = [r["uid"] for r in response["records"]]
        assert len(set(uids)) == 15

    def test_write_survives_one_dead_replica(self, svc, key):
        svc.kill_shard("shard-0")
        for i in range(20):
            assert _upload(svc.client, key, i)["ok"]
        response = svc.client.handle(
            {"route": "query", "api_key": key, "problem_name": "demo"}
        )
        assert len(response["records"]) == 20


class TestPinnedReads:
    def test_pinned_query_served_without_fanout(self, svc, key):
        for i in range(12):
            _upload(svc.client, key, i)
        before = {n: t.n_requests for n, t in svc.transports.items()}
        response = svc.client.handle(
            {
                "route": "query",
                "api_key": key,
                "problem_name": "demo",
                "task_parameters": {"t": 2},
            }
        )
        assert response["ok"]
        assert len(response["records"]) == sum(1 for i in range(12) if i % 5 == 2)
        touched = [
            n for n, t in svc.transports.items() if t.n_requests > before[n]
        ]
        assert len(touched) == 1  # single owning shard, no fan-out

    def test_pinned_query_falls_back_to_replica(self, svc, key):
        for i in range(12):
            _upload(svc.client, key, i)
        task = {"t": 3}
        expected = sum(1 for i in range(12) if i % 5 == 3)
        # kill shards until the primary for this task is certainly dead,
        # keeping one replica alive (replication=2 tolerates 1 failure)
        from repro.service.shard import shard_key

        prefs = svc.router.ring.preference(shard_key("demo", task), 2)
        svc.kill_shard(prefs[0])
        response = svc.client.handle(
            {
                "route": "query",
                "api_key": key,
                "problem_name": "demo",
                "task_parameters": task,
            }
        )
        assert response["ok"]
        assert len(response["records"]) == expected

    def test_pinned_query_unavailable_when_all_replicas_dead(self, svc, key):
        _upload(svc.client, key, 0, task={"t": 0})
        for name in svc.transports:
            svc.kill_shard(name)
        response = svc.router.handle(
            {
                "route": "query",
                "api_key": key,
                "problem_name": "demo",
                "task_parameters": {"t": 0},
            }
        )
        assert response == {
            "ok": False,
            "error": "unavailable",
            "message": response["message"],
        }


class TestMerges:
    def test_query_sql_merge_respects_global_order_and_limit(self, svc, key):
        for i in range(10):
            _upload(svc.client, key, i)
        response = svc.client.handle(
            {
                "route": "query_sql",
                "api_key": key,
                "sql": (
                    "SELECT * WHERE problem_name = 'demo' "
                    "ORDER BY output DESC LIMIT 4"
                ),
            }
        )
        assert response["ok"]
        outputs = [r["output"] for r in response["records"]]
        assert outputs == [9.0, 8.0, 7.0, 6.0]

    def test_problems_is_a_union_over_shards(self, svc, key):
        for i, problem in enumerate(["alpha", "beta", "gamma", "alpha"]):
            _upload(svc.client, key, i, problem=problem, task={"t": i})
        response = svc.client.handle({"route": "problems", "api_key": key})
        assert response == {"ok": True, "problems": ["alpha", "beta", "gamma"]}

    def test_leaderboard_not_skewed_by_replication(self, svc, key):
        for i in range(9):
            _upload(svc.client, key, i)
        response = svc.client.handle(
            {"route": "leaderboard", "api_key": key, "problem_name": "demo"}
        )
        assert response["ok"]
        total = sum(row["n_samples"] for row in response["rows"])
        assert total == 9  # replicas deduplicated before aggregation

    def test_contributors_counts_each_record_once(self, svc, key):
        for i in range(7):
            _upload(svc.client, key, i)
        response = svc.client.handle(
            {"route": "contributors", "api_key": key, "problem_name": "demo"}
        )
        assert response["ok"]
        (row,) = response["contributors"]
        assert row["user"] == "alice"
        assert row["samples"] == 7

    @pytest.mark.parametrize("route", ["leaderboard", "contributors"])
    @pytest.mark.parametrize("name", [{}, {"problem_name": ""}, {"problem_name": 5},
                                      {"problem_name": ["demo"]}],
                             ids=["missing", "empty", "int", "list"])
    def test_aggregates_need_a_problem_name_like_the_server(self, svc, key, route, name):
        # equal tasks of two problems: merged into one row when the router
        # read a missing name as "every problem"
        _upload(svc.client, key, 0, problem="p", task={"t": 1})
        _upload(svc.client, key, 1, problem="q", task={"t": 1})
        request = {"route": route, "api_key": key, **name}
        response = svc.router.handle(request)
        assert response["error"] == "bad_request"
        node = next(iter(svc.shards.values()))
        assert response == node.handle(request)

    @pytest.mark.parametrize("output", ["fast", [1, 2], True, float("nan"), float("inf")],
                             ids=repr)
    def test_a_non_result_is_refused_before_any_replica_stores_it(self, svc, key, output):
        assert _upload(svc.client, key, 0)["ok"]
        before = svc.total_records()
        response = svc.client.handle({**_UPLOAD, "api_key": key, "output": output})
        assert response["error"] == "bad_request" and "output" in response["message"]
        assert svc.total_records() == before
        for route in ("leaderboard", "contributors"):
            assert svc.client.handle(
                {"route": route, "api_key": key, "problem_name": "demo"}
            )["ok"]

    def test_a_stored_non_result_counts_as_a_failure(self, svc, key):
        """Replicas restored from a journal that predates the upload
        check: the poisoned record is a failed run, not an error."""
        for i in range(3):
            assert _upload(svc.client, key, i, task={"t": 1})["ok"]
        for shard in svc.shards.values():
            store = shard.repository.store
            for doc in store["performance_records"].find({"output": 0.0}):
                store.apply_op(
                    {
                        "op": "insert",
                        "c": "performance_records",
                        "doc": {**doc, "_id": 99, "uid": 99, "timestamp": 99.0,
                                "output": "fast"},
                    }
                )
        request = {"api_key": key, "problem_name": "demo"}
        (row,) = svc.client.handle({"route": "leaderboard", **request})["rows"]
        assert (row["n_samples"], row["n_failures"], row["best_output"]) == (4, 1, 0.0)
        (entry,) = svc.client.handle({"route": "contributors", **request})["contributors"]
        assert entry == {"user": "alice", "samples": 4, "failures": 1, "best": 0.0}

    def test_browse_html_is_rejected(self, svc, key):
        response = svc.client.handle({"route": "browse_html", "api_key": key})
        assert response["ok"] is False and response["error"] == "not_found"

    def test_unknown_route(self, svc, key):
        assert svc.client.handle({"route": "nope"})["error"] == "not_found"

    def test_summary_is_a_shard_level_route(self, svc, key):
        request = {"route": "summary", "api_key": key, "problem_name": "demo"}
        shard = next(iter(svc.shards.values()))
        assert shard.handle(request) == {"ok": True, "tasks": []}
        assert shard.handle({**request, "api_key": "nope"})["error"] == "auth"
        assert "summary" not in shard.routes()
        assert "summary" not in svc.router.routes()
        assert svc.router.handle(request)["error"] == "not_found"

    def test_both_front_ends_serve_one_route_set(self, svc, key):
        """A route added to (or removed from) only one front end shows
        here."""
        node = CrowdShard("node")
        assert set(svc.router.routes()) == set(node.routes())
        for route in ("upload_model", "query_models", "browse_html"):
            request = {"route": route, "api_key": key, "problem_name": "demo"}
            for front in (svc.router, node):
                assert front.handle(request)["error"] == "not_found"


_SQL = "SELECT * WHERE problem_name = 'demo'"
#: id -> (a read of task {"t": 1}, what an upload to that task raises by 1)
_READS_AFTER_WRITE = {
    "pinned-query": (
        {"route": "query", "problem_name": "demo", "task_parameters": {"t": 1}},
        lambda r: len(r["records"]),
    ),
    "fanout-query": (
        {"route": "query", "problem_name": "demo"},
        lambda r: len(r["records"]),
    ),
    "query-sql": ({"route": "query_sql", "sql": _SQL}, lambda r: len(r["records"])),
    "leaderboard": (
        {"route": "leaderboard", "problem_name": "demo"},
        lambda r: sum(row["n_samples"] for row in r["rows"]),
    ),
    "predict": (
        {"route": "predict", "problem_name": "demo", "task_parameters": {"t": 1},
         "configurations": [{"x": 0.5}]},
        lambda r: r["data_version"],
    ),
}


class TestReadAfterWrite:
    @pytest.mark.parametrize("read", sorted(_READS_AFTER_WRITE))
    def test_read_sees_acked_upload(self, read):
        """The router answers every read from its shards, so a read sees
        each upload acknowledged before it."""
        request, measure = _READS_AFTER_WRITE[read]
        with build_service(4, replication=2, registry=RegistryOptions()) as svc:
            key = svc.register_user("alice", "alice@lab.gov")[1]
            space = {
                "input_space": [
                    {"name": "t", "type": "real", "lower_bound": 0, "upper_bound": 9}
                ],
                "parameter_space": [
                    {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 9.0}
                ],
            }
            assert svc.client.handle(
                {"route": "register_problem", "api_key": key, "problem_name": "demo",
                 "problem_space": space}
            )["ok"]
            for i in range(5):
                assert _upload(svc.client, key, i, task={"t": 1})["ok"]
            request = {"api_key": key, **request}
            before = svc.client.handle(request)
            assert before["ok"], before
            assert _upload(svc.client, key, 5, task={"t": 1})["ok"]
            after = svc.client.handle(request)
            assert measure(after) == measure(before) + 1

    def test_a_mutated_response_leaves_the_next_read_alone(self, svc, key):
        _upload(svc.client, key, 0)
        request = {"route": "query", "api_key": key, "problem_name": "demo"}
        first = svc.client.handle(request)
        first["records"][0]["output"] = -1.0
        second = svc.client.handle(request)
        assert second["records"][0]["output"] == 0.0


class TestThrottling:
    def test_over_rate_requests_get_retry_after(self):
        router, api_key, clock = _manual_router(
            replication=1, rate_limit=1.0, burst=3
        )
        request = {"route": "problems", "api_key": api_key}
        for _ in range(3):
            assert router.handle(request)["ok"]
        response = router.handle(request)
        assert response["ok"] is False
        assert response["error"] == "throttled"
        assert response["retry_after"] > 0
        # tokens refill with the clock
        clock.now += response["retry_after"] + 0.001
        assert router.handle(request)["ok"]
        router.close()

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"rate_limit": 0.0, "burst": 2}, "rate_limit"),
            ({"rate_limit": -1.0}, "rate_limit"),
            ({"rate_limit": 1.0, "burst": 0}, "burst"),
        ],
        ids=["zero-rate", "negative-rate", "zero-burst"],
    )
    def test_a_bucket_that_cannot_refill_is_refused(self, options, field):
        """A zero rate would divide by zero in ``handle`` once the burst is
        spent; a zero burst would throttle every request forever."""
        with pytest.raises(ValueError, match=field):
            RouterOptions(**options)
        assert RouterOptions(rate_limit=None, burst=1).rate_limit is None

    def test_keys_are_throttled_independently(self):
        router, api_key, _ = _manual_router(replication=1, rate_limit=1.0, burst=1)
        assert router.handle({"route": "problems", "api_key": api_key})["ok"]
        assert (
            router.handle({"route": "problems", "api_key": api_key})["error"]
            == "throttled"
        )
        # a different key has its own bucket (fails auth, not throttle)
        other = router.handle({"route": "problems", "api_key": "nope"})
        assert other["error"] == "auth"
        router.close()


#: throttled positions of :func:`_throttle_schedule` (recorded before
#: refilled buckets were swept: sweeping must not change a single answer)
_THROTTLED_AT = [
    14, 15, 47, 58, 59, 105, 163, 169, 185, 186, 187, 234, 258, 352, 373,
    420, 421, 441, 464, 470, 551,
]


def _throttle_schedule(router, clock):
    """600 requests from four returning keys and many one-off keys, the
    clock advancing by seeded steps; returns the throttled positions."""
    rng = random.Random(7)
    throttled = []
    for i in range(600):
        clock.now += rng.choice([0.0, 0.0, 0.0, 0.05, 0.1, 0.5, 2.0])
        key = f"k{rng.randrange(4)}" if rng.random() < 0.8 else f"once{i}"
        response = router.handle({"route": "problems", "api_key": key})
        if response.get("error") == "throttled":
            throttled.append(i)
    return throttled


class TestBucketSweep:
    def test_made_up_keys_do_not_grow_the_buckets_forever(self):
        router, api_key, clock = _manual_router(replication=1, rate_limit=1.0, burst=3)
        active = {"route": "problems", "api_key": api_key}
        assert router.handle(active)["ok"]
        for i in range(10_000):
            router.handle({"route": "whoami", "api_key": f"made-up-{i}"})
        assert len(router._buckets) == 10_001  # none has refilled yet
        clock.now += 3.0  # burst / rate: every idle bucket is full again
        assert router.handle(active)["ok"]
        assert router.handle({"route": "whoami", "api_key": "newcomer"})["error"] == "auth"
        assert set(router._buckets) == {api_key, "newcomer"}
        router.close()

    def test_sweeping_changes_no_answer(self):
        router, _, clock = _manual_router(replication=1, rate_limit=2.0, burst=3)
        assert _throttle_schedule(router, clock) == _THROTTLED_AT
        router.close()


class TestAccounts:
    def test_account_routes_live_on_admin_shard(self, svc):
        username, api_key = svc.register_user("bob", "bob@lab.gov")
        assert username == "bob"
        who = svc.client.handle({"route": "whoami", "api_key": api_key})
        assert who["ok"] and who["username"] == "bob"
        # shared registry: the key authenticates on every shard
        for shard in svc.shards.values():
            assert shard.repository.users.authenticate(api_key).username == "bob"

    def test_validation(self):
        with pytest.raises(ValueError):
            CrowdRouter({})
        with pytest.raises(ValueError):
            RouterOptions(replication=0)
        with pytest.raises(ValueError):
            build_service(0)

    @pytest.mark.parametrize(
        "shorthand",
        [
            {"replication": 1},
            {"write_quorum": 2},
            {"read_quorum": 2},
            {"anti_entropy_interval_s": 0.5},
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_build_service_has_one_way_to_say_replication(self, shorthand):
        """``options=`` used to win silently over the keyword beside it."""
        (name,) = shorthand
        with pytest.raises(ValueError, match=name):
            build_service(2, options=RouterOptions(), **shorthand)
        with build_service(2, **shorthand) as svc:
            assert getattr(svc.router.options, name) == shorthand[name]
        with build_service(2, replication=2, options=RouterOptions()) as svc:
            assert svc.router.options.replication == 2


class TestGoldenTranscript:
    def test_every_response_equals_the_parents(self):
        """Every response of a fixed ~70-step script (all routes, quorum
        failures, outages, hint replay, anti-entropy, membership) and
        the final ``service_*`` counters equal the pinned ones (see
        :mod:`tests.service.golden_transcript` for their provenance)."""
        golden = json.loads(
            Path(golden_transcript.__file__).with_suffix(".json").read_text()
        )
        observed = golden_transcript.run_script()
        for i, (line, expected) in enumerate(zip(observed["lines"], golden["lines"])):
            assert line == expected, f"step {i} diverged"
        assert len(observed["lines"]) == len(golden["lines"])
        assert observed["counters"] == golden["counters"]
