"""The public routes of one crowd node, served by a memory-only
:class:`CrowdShard`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import task_key
from repro.service import CrowdShard


@pytest.fixture
def server():
    return CrowdShard("node")


@pytest.fixture
def key(server):
    resp = server.handle(
        {"route": "register", "username": "alice", "email": "a@lab.gov"}
    )
    assert resp["ok"]
    return resp["api_key"]


def _upload(server, key, out=1.0, task=None, cfg=None, **extra):
    req = {
        "route": "upload",
        "api_key": key,
        "problem_name": "p",
        "task_parameters": task or {"m": 1},
        "tuning_parameters": cfg or {"x": 0.5},
        "output": out,
    }
    req.update(extra)
    return server.handle(req)


class TestDispatch:
    def test_unknown_route(self, server):
        resp = server.handle({"route": "teleport"})
        assert not resp["ok"] and resp["error"] == "not_found"

    def test_non_mapping_request(self, server):
        resp = server.handle("garbage")
        assert not resp["ok"] and resp["error"] == "bad_request"

    def test_missing_fields_are_bad_request(self, server, key):
        resp = server.handle({"route": "upload", "api_key": key})
        assert not resp["ok"] and resp["error"] == "bad_request"

    def test_bad_key_is_auth_error(self, server):
        resp = server.handle({"route": "problems", "api_key": "nope"})
        assert not resp["ok"] and resp["error"] == "auth"

    def test_never_raises(self, server):
        for req in ({}, {"route": None}, {"route": "query"}, 42, None):
            resp = server.handle(req)  # type: ignore[arg-type]
            assert resp["ok"] is False

    def test_routes_listing(self, server):
        assert "upload" in server.routes() and "register" in server.routes()


class TestAccountRoutes:
    def test_register_and_reuse_key(self, server):
        resp = server.handle(
            {"route": "register", "username": "bob", "email": "b@lab.gov"}
        )
        assert resp["ok"]
        probe = server.handle({"route": "problems", "api_key": resp["api_key"]})
        assert probe["ok"] and probe["problems"] == []

    def test_duplicate_registration(self, server, key):
        resp = server.handle(
            {"route": "register", "username": "alice", "email": "x@lab.gov"}
        )
        assert not resp["ok"] and resp["error"] == "bad_request"

    def test_issue_additional_key(self, server, key):
        resp = server.handle({"route": "issue_key", "api_key": key})
        assert resp["ok"]
        assert server.handle({"route": "problems", "api_key": resp["api_key"]})["ok"]


class TestRecordRoutes:
    def test_upload_and_query(self, server, key):
        assert _upload(server, key, out=3.0)["ok"]
        assert _upload(server, key, out=1.5, cfg={"x": 0.7})["ok"]
        resp = server.handle(
            {"route": "query", "api_key": key, "problem_name": "p"}
        )
        assert resp["ok"] and len(resp["records"]) == 2

    def test_query_sql(self, server, key):
        for out in (3.0, 1.0, 2.0):
            _upload(server, key, out=out, cfg={"x": out})
        resp = server.handle(
            {
                "route": "query_sql",
                "api_key": key,
                "sql": "SELECT * WHERE output < 2.5 ORDER BY output",
            }
        )
        assert [r["output"] for r in resp["records"]] == [1.0, 2.0]

    def test_read_answers_are_stored_documents_without_node_ids(self, server, key):
        """``query`` and ``query_sql`` answer the stored documents, with
        the record schema's keys in sorted order (the journal's, so a
        restart answers the same bytes), as plain mutable dicts, and never
        with the node-local ``_id`` (the router merges answers without
        one)."""
        from repro.crowd import PerformanceRecord

        _upload(server, key, out=3.0, machine_configuration={"machine_name": "cori"})
        _upload(server, key, out=None, cfg={"x": 0.7})
        stored = server.repository.store["performance_records"].find({})
        schema = list(PerformanceRecord("p", {}, {}, None).to_doc())
        for request in (
            {"route": "query", "api_key": key, "require_success": False},
            {"route": "query_sql", "api_key": key, "sql": "SELECT *"},
        ):
            records = server.handle(request)["records"]
            assert all("_id" not in r and list(r) == sorted(schema) for r in records)
            assert records == [{k: v for k, v in d.items() if k != "_id"} for d in stored]
            assert type(records[0]["machine_configuration"]) is dict

    def test_sql_syntax_error_is_bad_request(self, server, key):
        resp = server.handle(
            {"route": "query_sql", "api_key": key, "sql": "DROP TABLE users"}
        )
        assert not resp["ok"] and resp["error"] == "bad_request"

    def test_problems_listing(self, server, key):
        _upload(server, key)
        resp = server.handle({"route": "problems", "api_key": key})
        assert resp["problems"] == ["p"]


class TestMalformedQueries:
    """A malformed filter is ``bad_request`` whatever the store holds —
    never an exception, never an empty result that depends on the data."""

    @pytest.fixture
    def servers(self):
        """(server, key) x3: empty store / no row reaches the bad
        clause / a row does."""
        out = []
        for uploads in ([], ["other"], ["other", "p"]):
            server = CrowdShard("node")
            key = server.handle(
                {"route": "register", "username": "alice", "email": "a@lab.gov"}
            )["api_key"]
            for problem in uploads:
                _upload(server, key, task={"m": "text"}, problem_name=problem)
            out.append((server, key))
        return out

    @pytest.mark.parametrize(
        "task_parameters",
        [{"m": {"$regex": "("}}, {"m": {"$in": 5}}, {"m": {"$bogus": 1}}],
    )
    def test_client_supplied_operator_documents(self, servers, task_parameters):
        for server, key in servers:
            resp = server.handle(
                {
                    "route": "query",
                    "api_key": key,
                    "problem_name": "p",
                    "task_parameters": task_parameters,
                }
            )
            assert not resp["ok"] and resp["error"] == "bad_request"

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "m", "lower_bound": {"$regex": "("}},
            {"name": "m", "categories": [{"$regex": "("}]},
        ],
    )
    def test_operator_documents_under_bounds_are_plain_values(self, servers, entry):
        # bounds and categories are comparison *arguments*: a document
        # there is a value no stored scalar equals, never a pattern
        for server, key in servers:
            resp = server.handle(
                {
                    "route": "query",
                    "api_key": key,
                    "problem_name": "p",
                    "problem_space": {"input_space": [entry]},
                }
            )
            assert resp == {"ok": True, "records": []}

    def test_non_list_categories(self, servers):
        for server, key in servers:
            resp = server.handle(
                {
                    "route": "query",
                    "api_key": key,
                    "problem_space": {"input_space": [{"name": "m", "categories": 5}]},
                }
            )
            assert not resp["ok"] and resp["error"] == "bad_request"


class TestModelRoutes:
    @pytest.mark.parametrize("tag", ["partitioned", "sparce"])
    def test_unknown_snapshot_tag_is_bad_request_naming_it(self, tag):
        """A snapshot whose ``"type"`` this build does not load (one a peer
        built with a removed kind, or a typo) is refused by name when the
        registry serves it — not read as a dense document (``'X'``)."""
        from repro.registry import RegistryEntry, RegistryOptions

        server = CrowdShard("node", registry=RegistryOptions())
        key = server.handle(
            {"route": "register", "username": "alice", "email": "a@lab.gov"}
        )["api_key"]
        model = {"type": tag, "kernel": "rbf", "leaves": []}
        space = {"parameter_space": [
            {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
        ]}
        assert server.handle(
            {"route": "register_problem", "api_key": key, "problem_name": "p",
             "problem_space": space}
        )["ok"]
        entry = RegistryEntry(
            problem_name="p", task_parameters={"m": 1}, task_key=repr(task_key({"m": 1})),
            data_version=3, n_samples=3, kernel="rbf", seed=0, model=model,
            timestamp=1.0,
        )
        assert server.registry.apply_entry(entry.to_doc())  # as replication does
        served = server.handle(
            {
                "route": "predict",
                "api_key": key,
                "problem_name": "p",
                "task_parameters": {"m": 1},
                "configurations": [{"x": 0.5}],
            }
        )
        assert served["error"] == "bad_request" and repr(tag) in served["message"]


class TestBrowseRoutes:
    def test_leaderboard_route(self, server, key):
        _upload(server, key, out=5.0)
        _upload(server, key, out=2.0, cfg={"x": 0.9})
        resp = server.handle(
            {"route": "leaderboard", "api_key": key, "problem_name": "p"}
        )
        assert resp["ok"]
        assert resp["rows"][0]["best_output"] == 2.0

    def test_contributors_route(self, server, key):
        _upload(server, key)
        resp = server.handle(
            {"route": "contributors", "api_key": key, "problem_name": "p"}
        )
        assert resp["contributors"][0]["user"] == "alice"

    @pytest.mark.parametrize("route", ["leaderboard", "contributors"])
    @pytest.mark.parametrize("name", [{}, {"problem_name": ""}, {"problem_name": 5},
                                      {"problem_name": ["p"]}, {"problem_name": None}],
                             ids=["missing", "empty", "int", "list", "null"])
    def test_browse_routes_need_a_problem_name(self, server, key, route, name):
        _upload(server, key)
        resp = server.handle({"route": route, "api_key": key, **name})
        assert resp == {
            "ok": False,
            "error": "bad_request",
            "message": "problem_name must be a non-empty string",
        }


#: not a failed run (``None``) and not a finite number
NON_RESULTS = ["fast", [1, 2], {"v": 1}, True, float("nan"), float("inf"),
               -float("inf"), 10**400]


class TestPoisonedOutput:
    """One record must not take a route down for a whole problem."""

    @pytest.mark.parametrize("output", NON_RESULTS, ids=lambda v: repr(v)[:8])
    def test_upload_refuses_a_non_result(self, server, key, output):
        assert _upload(server, key, out=3.0)["ok"]
        resp = _upload(server, key, out=output)
        assert not resp["ok"] and resp["error"] == "bad_request"
        assert "output" in resp["message"]
        assert server.repository.count() == 1
        for route in ("leaderboard", "contributors"):
            assert server.handle(
                {"route": route, "api_key": key, "problem_name": "p"}
            )["ok"]

    def test_finite_numbers_and_failures_are_accepted(self, server, key):
        for output in (None, 0, -2, 1.5, np.float64(2.5)):
            assert _upload(server, key, out=output)["ok"], output
        assert server.repository.count() == 5

    def test_library_uploads_are_checked_too(self, server, key):
        from repro.crowd import PerformanceRecord

        def record(output):
            return PerformanceRecord("p", {"m": 1}, {"x": 1}, output)

        repo = server.repository
        with pytest.raises(ValueError, match="output"):
            repo.owned(record("fast").to_doc(), repo.users.authenticate(key))
        with pytest.raises(ValueError, match="output"):
            repo.upload_many([record(1.0), record(float("nan"))], key)
        assert repo.count() == 0

    @pytest.mark.parametrize("output", ["fast", [1, 2], float("nan"), float("inf")],
                             ids=repr)
    def test_a_stored_non_result_counts_as_a_failure(self, server, key, output):
        """A journal written before the check existed: the record comes
        back through ``apply_op`` and reads as a failed run."""
        _upload(server, key, out=3.0)
        _upload(server, key, out=None, cfg={"x": 0.1})
        (doc,) = server.repository.store["performance_records"].find({"output": 3.0})
        server.repository.store.apply_op(
            {
                "op": "insert",
                "c": "performance_records",
                "doc": {**doc, "_id": 99, "uid": 99, "timestamp": 9.0, "output": output},
            }
        )
        request = {"api_key": key, "problem_name": "p"}
        (row,) = server.handle({"route": "leaderboard", **request})["rows"]
        assert (row["n_samples"], row["n_failures"], row["best_output"]) == (3, 2, 3.0)
        (entry,) = server.handle({"route": "contributors", **request})["contributors"]
        assert entry == {"user": "alice", "samples": 3, "failures": 2, "best": 3.0}
