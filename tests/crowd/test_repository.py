"""Tests for the crowd repository: auth, access control, queries."""

from __future__ import annotations

import pytest

from repro.crowd import (
    Accessibility,
    AuthError,
    CrowdRepository,
    PerformanceRecord,
)


@pytest.fixture
def repo():
    return CrowdRepository()


@pytest.fixture
def users(repo):
    _, key_a = repo.register_user("alice", "alice@lab.gov")
    _, key_b = repo.register_user("bob", "bob@lab.gov")
    return {"alice": key_a, "bob": key_b}


def _rec(output=1.0, problem="demo", access=None, machine=None, software=None, task=None):
    return PerformanceRecord(
        problem_name=problem,
        task_parameters=task or {"t": 1},
        tuning_parameters={"x": 0.5},
        output=output,
        machine_configuration=machine or {},
        software_configuration=software or {},
        accessibility=access or Accessibility(),
    )


class TestUpload:
    def test_requires_valid_key(self, repo, users):
        with pytest.raises(AuthError):
            repo.upload(_rec(), "bad-key")

    def test_owner_forced_to_uploader(self, repo, users):
        rec = _rec()
        rec.owner = "mallory"
        repo.upload(rec, users["alice"])
        stored = repo.query(users["alice"], problem_name="demo")
        assert stored[0].owner == "alice"

    def test_machine_name_normalized(self, repo, users):
        rec = _rec(machine={"machine_name": "cori-haswell", "nodes": 4})
        repo.upload(rec, users["alice"])
        stored = repo.query(users["alice"], problem_name="demo")[0]
        assert stored.machine_configuration["machine_name"] == "Cori"

    def test_software_names_normalized(self, repo, users):
        rec = _rec(software={"SuperLU_DIST": {"version_split": [7, 2, 0]}})
        repo.upload(rec, users["alice"])
        stored = repo.query(users["alice"], problem_name="demo")[0]
        assert "superlu-dist" in stored.software_configuration

    def test_timestamps_monotonic(self, repo, users):
        repo.upload(_rec(), users["alice"])
        repo.upload(_rec(), users["alice"])
        recs = repo.query(users["alice"], problem_name="demo")
        assert recs[0].timestamp < recs[1].timestamp

    def test_upload_many(self, repo, users):
        ids = repo.upload_many([_rec(), _rec(), _rec()], users["alice"])
        assert len(ids) == 3 and repo.count() == 3


class TestAccessControl:
    def test_public_records_visible_to_others(self, repo, users):
        repo.upload(_rec(), users["alice"])
        assert len(repo.query(users["bob"], problem_name="demo")) == 1

    def test_private_records_hidden(self, repo, users):
        repo.upload(_rec(access=Accessibility("private")), users["alice"])
        assert repo.query(users["bob"], problem_name="demo") == []
        assert len(repo.query(users["alice"], problem_name="demo")) == 1

    def test_group_records(self, repo, users):
        repo.upload(
            _rec(access=Accessibility("group", groups=["ecp"])), users["alice"]
        )
        assert repo.query(users["bob"], problem_name="demo") == []
        repo.users.add_to_group("bob", "ecp")
        assert len(repo.query(users["bob"], problem_name="demo")) == 1

    def test_problems_listing_respects_access(self, repo, users):
        repo.upload(_rec(problem="open"), users["alice"])
        repo.upload(
            _rec(problem="hidden", access=Accessibility("private")), users["alice"]
        )
        assert repo.problems(users["bob"]) == ["open"]
        assert repo.problems(users["alice"]) == ["hidden", "open"]


class TestMalformedStoredAccessibility:
    """A stored ``accessibility`` block that fails validation breaks
    exactly the reads whose filter reaches it."""

    @staticmethod
    def _store_bad(repo, problem):
        repo.store["performance_records"].insert(
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

    def test_unmatched_record_leaves_reads_unaffected(self, repo, users):
        for out in (1.0, 2.0):
            repo.upload(_rec(out), users["alice"])
        self._store_bad(repo, "other")
        assert len(repo.query(users["bob"], problem_name="demo")) == 2
        sql = "SELECT * WHERE problem_name = 'demo' ORDER BY output DESC"
        assert [r.output for r in repo.query_sql(users["bob"], sql)] == [2.0, 1.0]

    def test_matched_record_raises_the_validation_error(self, repo, users):
        repo.upload(_rec(1.0), users["alice"])
        self._store_bad(repo, "demo")
        with pytest.raises(ValueError, match="accessibility level"):
            repo.query_docs(users["bob"], problem_name="demo")
        with pytest.raises(ValueError, match="accessibility level"):
            repo.query_sql(users["bob"], "SELECT * WHERE problem_name = 'demo'")
        # the owner grant admits the record without reading its policy
        assert len(repo.query_docs(users["alice"], problem_name="demo")) == 2


class TestQuery:
    def test_failures_excluded_by_default(self, repo, users):
        repo.upload(_rec(output=None), users["alice"])
        repo.upload(_rec(output=2.0), users["alice"])
        assert len(repo.query(users["bob"], problem_name="demo")) == 1
        both = repo.query(users["bob"], problem_name="demo", require_success=False)
        assert len(both) == 2

    def test_task_range_restriction(self, repo, users):
        for t in (1, 5, 9):
            repo.upload(_rec(task={"t": t}), users["alice"])
        ps = {"input_space": [{"name": "t", "lower_bound": 2, "upper_bound": 8}]}
        found = repo.query(users["bob"], problem_name="demo", problem_space=ps)
        assert [r.task_parameters["t"] for r in found] == [5]

    def test_machine_restriction(self, repo, users):
        repo.upload(
            _rec(machine={"machine_name": "Cori", "partition": "haswell", "nodes": 8}),
            users["alice"],
        )
        repo.upload(
            _rec(machine={"machine_name": "Cori", "partition": "knl", "nodes": 8}),
            users["alice"],
        )
        cs = {"machine_configurations": [{"Cori": {"haswell": {}}}]}
        found = repo.query(users["bob"], problem_name="demo", configuration_space=cs)
        assert len(found) == 1
        assert found[0].machine_configuration["partition"] == "haswell"

    def test_user_restriction(self, repo, users):
        repo.upload(_rec(), users["alice"])
        repo.upload(_rec(), users["bob"])
        cs = {"user_configurations": ["alice"]}
        found = repo.query(users["bob"], problem_name="demo", configuration_space=cs)
        assert [r.owner for r in found] == ["alice"]

    def test_limit(self, repo, users):
        repo.upload_many([_rec() for _ in range(5)], users["alice"])
        assert len(repo.query(users["bob"], problem_name="demo", limit=2)) == 2

    def test_sql_front_end(self, repo, users):
        for out in (3.0, 1.0, 2.0):
            repo.upload(_rec(output=out), users["alice"])
        found = repo.query_sql(
            users["bob"], "SELECT * WHERE output >= 2 ORDER BY output DESC"
        )
        assert [r.output for r in found] == [3.0, 2.0]

    def test_sql_respects_access(self, repo, users):
        repo.upload(_rec(access=Accessibility("private")), users["alice"])
        assert repo.query_sql(users["bob"], "SELECT *") == []


class TestDeleteAndPersistence:
    def test_delete_own_only(self, repo, users):
        repo.upload(_rec(), users["alice"])
        repo.upload(_rec(), users["bob"])
        assert repo.delete_own(users["alice"], "demo") == 1
        remaining = repo.query(users["alice"], problem_name="demo")
        assert [r.owner for r in remaining] == ["bob"]

    def test_save_and_load_records(self, repo, users, tmp_path):
        repo.upload_many([_rec(), _rec()], users["alice"])
        path = tmp_path / "repo.json"
        repo.save(path)
        other = CrowdRepository()
        assert other.load_records(path) == 2
        assert other.count() == 2
