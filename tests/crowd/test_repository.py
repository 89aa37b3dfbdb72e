"""The crowd node's record semantics — auth, access control, queries —
through the one client path (a `RemoteRepository` over a `CrowdShard`)."""

from __future__ import annotations

import pytest

from repro.core.problem import Evaluation
from repro.crowd import Accessibility, AuthError, PerformanceRecord
from repro.service import CrowdShard, RemoteRepository
from tests.conftest import register


@pytest.fixture
def node():
    return CrowdShard("node")


@pytest.fixture
def repo(node):
    return RemoteRepository(node)


@pytest.fixture
def users(node):
    return {name: register(node.repository.users, name) for name in ("alice", "bob")}


def _up(
    repo, key, output=1.0, problem="demo", access=None, machine=None, software=None, task=None
):
    """Upload one record as ``key``; its uid."""
    evaluation = Evaluation(task or {"t": 1}, {"x": 0.5}, output)
    return repo.upload(key, problem, evaluation, machine or {}, software or {}, access)


class TestUpload:
    def test_requires_valid_key(self, repo, users):
        with pytest.raises(AuthError):
            _up(repo, "bad-key")

    def test_owner_forced_to_uploader(self, node, repo, users):
        request = {
            "route": "upload",
            "api_key": users["alice"],
            "problem_name": "demo",
            "task_parameters": {"t": 1},
            "tuning_parameters": {"x": 0.5},
            "output": 1.0,
            "owner": "mallory",
        }
        assert node.handle(request)["ok"]
        stored = repo.query(users["alice"], problem_name="demo")
        assert stored[0].owner == "alice"

    def test_machine_name_normalized(self, repo, users):
        _up(repo, users["alice"], machine={"machine_name": "cori-haswell", "nodes": 4})
        stored = repo.query(users["alice"], problem_name="demo")[0]
        assert stored.machine_configuration["machine_name"] == "Cori"

    def test_software_names_normalized(self, repo, users):
        _up(repo, users["alice"], software={"SuperLU_DIST": {"version_split": [7, 2, 0]}})
        stored = repo.query(users["alice"], problem_name="demo")[0]
        assert "superlu-dist" in stored.software_configuration

    def test_timestamps_monotonic(self, repo, users):
        _up(repo, users["alice"])
        _up(repo, users["alice"])
        recs = repo.query(users["alice"], problem_name="demo")
        assert recs[0].timestamp < recs[1].timestamp

    def test_upload_many(self, node, users):
        """The storage layer's batch write: one op for many records."""
        records = [PerformanceRecord("demo", {"t": 1}, {"x": 0.5}, 1.0) for _ in range(3)]
        ids = node.repository.upload_many(records, users["alice"])
        assert len(ids) == 3 and node.count() == 3


class TestAccessControl:
    def test_public_records_visible_to_others(self, repo, users):
        _up(repo, users["alice"])
        assert len(repo.query(users["bob"], problem_name="demo")) == 1

    def test_private_records_hidden(self, repo, users):
        _up(repo, users["alice"], access=Accessibility("private"))
        assert repo.query(users["bob"], problem_name="demo") == []
        assert len(repo.query(users["alice"], problem_name="demo")) == 1

    def test_group_records(self, node, repo, users):
        _up(repo, users["alice"], access=Accessibility("group", groups=["ecp"]))
        assert repo.query(users["bob"], problem_name="demo") == []
        node.repository.users.add_to_group("bob", "ecp")
        assert len(repo.query(users["bob"], problem_name="demo")) == 1

    def test_problems_listing_respects_access(self, repo, users):
        _up(repo, users["alice"], problem="open")
        _up(repo, users["alice"], problem="hidden", access=Accessibility("private"))
        assert repo.problems(users["bob"]) == ["open"]
        assert repo.problems(users["alice"]) == ["hidden", "open"]


class TestMalformedStoredAccessibility:
    """A stored ``accessibility`` block that fails validation breaks
    exactly the reads whose filter reaches it."""

    @staticmethod
    def _store_bad(node, problem):
        node.repository.store["performance_records"].insert(
            {
                "uid": 999,
                "problem_name": problem,
                "task_parameters": {"t": 1},
                "tuning_parameters": {"x": 0.9},
                "output": 9.0,
                "owner": "alice",
                "accessibility": {"level": "bogus"},
                "timestamp": 99.0,
            }
        )

    def test_unmatched_record_leaves_reads_unaffected(self, node, repo, users):
        for out in (1.0, 2.0):
            _up(repo, users["alice"], out)
        self._store_bad(node, "other")
        assert len(repo.query(users["bob"], problem_name="demo")) == 2
        sql = "SELECT * WHERE problem_name = 'demo' ORDER BY output DESC"
        assert [r.output for r in repo.query_sql(users["bob"], sql)] == [2.0, 1.0]

    def test_matched_record_raises_the_validation_error(self, node, repo, users):
        _up(repo, users["alice"], 1.0)
        self._store_bad(node, "demo")
        with pytest.raises(ValueError, match="accessibility level"):
            node.repository.query_docs(users["bob"], problem_name="demo")
        # the node answers the read with the reason, as a bad request
        with pytest.raises(RuntimeError, match="bad_request.*accessibility level"):
            repo.query_sql(users["bob"], "SELECT * WHERE problem_name = 'demo'")
        # the owner grant admits the record without reading its policy
        assert len(node.repository.query_docs(users["alice"], problem_name="demo")) == 2


class TestQuery:
    def test_failures_excluded_by_default(self, repo, users):
        _up(repo, users["alice"], output=None)
        _up(repo, users["alice"], output=2.0)
        assert len(repo.query(users["bob"], problem_name="demo")) == 1
        both = repo.query(users["bob"], problem_name="demo", require_success=False)
        assert len(both) == 2

    def test_task_range_restriction(self, repo, users):
        for t in (1, 5, 9):
            _up(repo, users["alice"], task={"t": t})
        ps = {"input_space": [{"name": "t", "lower_bound": 2, "upper_bound": 8}]}
        found = repo.query(users["bob"], problem_name="demo", problem_space=ps)
        assert [r.task_parameters["t"] for r in found] == [5]

    def test_machine_restriction(self, repo, users):
        for partition in ("haswell", "knl"):
            machine = {"machine_name": "Cori", "partition": partition, "nodes": 8}
            _up(repo, users["alice"], machine=machine)
        cs = {"machine_configurations": [{"Cori": {"haswell": {}}}]}
        found = repo.query(users["bob"], problem_name="demo", configuration_space=cs)
        assert len(found) == 1
        assert found[0].machine_configuration["partition"] == "haswell"

    def test_user_restriction(self, repo, users):
        _up(repo, users["alice"])
        _up(repo, users["bob"])
        cs = {"user_configurations": ["alice"]}
        found = repo.query(users["bob"], problem_name="demo", configuration_space=cs)
        assert [r.owner for r in found] == ["alice"]

    def test_limit(self, repo, users):
        for _ in range(5):
            _up(repo, users["alice"])
        assert len(repo.query(users["bob"], problem_name="demo", limit=2)) == 2

    def test_sql_front_end(self, repo, users):
        for out in (3.0, 1.0, 2.0):
            _up(repo, users["alice"], output=out)
        found = repo.query_sql(
            users["bob"], "SELECT * WHERE output >= 2 ORDER BY output DESC"
        )
        assert [r.output for r in found] == [3.0, 2.0]

    def test_sql_respects_access(self, repo, users):
        _up(repo, users["alice"], access=Accessibility("private"))
        assert repo.query_sql(users["bob"], "SELECT *") == []


class TestDeleteAndPersistence:
    def test_save_and_load_records(self, node, users, tmp_path):
        """A durable node's ``data_dir`` is its save: a restart loads
        every record it acknowledged."""
        with CrowdShard("disk", tmp_path, users=node.repository.users) as disk:
            for _ in range(2):
                _up(RemoteRepository(disk), users["alice"])
        with CrowdShard("disk", tmp_path, users=node.repository.users) as disk:
            assert disk.count() == 2
            assert len(RemoteRepository(disk).query(users["bob"], problem_name="demo")) == 2
