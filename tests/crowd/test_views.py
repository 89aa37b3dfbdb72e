"""Tests for the repository browse views."""

from __future__ import annotations

import pytest

from repro.crowd import Accessibility, CrowdRepository, PerformanceRecord
from repro.crowd.views import contributor_stats, leaderboard
from tests.conftest import register

from . import views_oracle


@pytest.fixture
def repo_with_data():
    repo = CrowdRepository()
    key_a = register(repo.users, "alice")
    key_b = register(repo.users, "bob")

    def rec(task, cfg, out, machine=None, access=None):
        return PerformanceRecord(
            problem_name="p",
            task_parameters=task,
            tuning_parameters=cfg,
            output=out,
            machine_configuration=machine or {"machine_name": "Cori", "partition": "haswell"},
            accessibility=access or Accessibility(),
        )

    # task A: alice has 3 samples (one failure), bob has the best
    repo.upload_many([rec({"m": 1}, {"x": 1}, 5.0)], key_a)
    repo.upload_many([rec({"m": 1}, {"x": 2}, None)], key_a)
    repo.upload_many([rec({"m": 1}, {"x": 3}, 7.0)], key_a)
    repo.upload_many([rec({"m": 1}, {"x": 4}, 3.0)], key_b)
    # task B: alice only, on KNL
    knl = {"machine_name": "Cori", "partition": "knl"}
    repo.upload_many([rec({"m": 2}, {"x": 5}, 11.0, machine=knl)], key_a)
    # a private record bob can't see
    repo.upload_many([rec({"m": 3}, {"x": 6}, 1.0, access=Accessibility("private"))], key_a)
    return repo, key_a, key_b


class TestLeaderboard:
    def test_best_per_task(self, repo_with_data):
        repo, key_a, _ = repo_with_data
        rows = leaderboard(repo, key_a, "p")
        by_task = {tuple(r.task_parameters.items()): r for r in rows}
        row_a = by_task[(("m", 1),)]
        assert row_a.best_output == 3.0
        assert row_a.best_owner == "bob"
        assert row_a.n_samples == 4
        assert row_a.n_failures == 1
        assert row_a.contributors == ["alice", "bob"]

    def test_sorted_by_samples(self, repo_with_data):
        repo, key_a, _ = repo_with_data
        rows = leaderboard(repo, key_a, "p")
        assert rows[0].n_samples >= rows[-1].n_samples

    def test_access_control(self, repo_with_data):
        repo, key_a, key_b = repo_with_data
        tasks_a = {tuple(r.task_parameters.items()) for r in leaderboard(repo, key_a, "p")}
        tasks_b = {tuple(r.task_parameters.items()) for r in leaderboard(repo, key_b, "p")}
        assert (("m", 3),) in tasks_a
        assert (("m", 3),) not in tasks_b

    def test_empty_problem(self, repo_with_data):
        repo, key_a, _ = repo_with_data
        assert leaderboard(repo, key_a, "nothing") == []


class TestStats:
    def test_contributor_stats(self, repo_with_data):
        repo, key_a, _ = repo_with_data
        stats = {e["user"]: e for e in contributor_stats(repo, key_a, "p")}
        assert stats["alice"]["samples"] == 5
        assert stats["alice"]["failures"] == 1
        assert stats["alice"]["best"] == 1.0
        assert stats["bob"]["samples"] == 1 and stats["bob"]["best"] == 3.0


class TestSummary:
    """The views are projections of one grouped reduction; the document
    loops they replaced are the oracle."""

    def test_views_equal_the_document_loops(self, repo_with_data):
        repo, key_a, key_b = repo_with_data
        for key in (key_a, key_b):
            docs = repo.query_docs(key, problem_name="p", require_success=False)
            assert leaderboard(repo, key, "p") == views_oracle.leaderboard_from_docs(docs)
            assert contributor_stats(repo, key, "p") == (
                views_oracle.contributor_stats_from_docs(docs)
            )

    def test_ties_go_to_the_earliest_record(self, repo_with_data):
        repo, key_a, key_b = repo_with_data
        for key, x in ((key_b, 7), (key_a, 8)):
            repo.upload_many([PerformanceRecord("p", {"m": 1}, {"x": x}, 3.0)], key)
        row = next(r for r in leaderboard(repo, key_a, "p") if r.task_parameters == {"m": 1})
        assert (row.best_output, row.best_configuration, row.n_samples) == (3.0, {"x": 4}, 6)

    def test_near_equal_tasks_are_separate_rows(self, repo_with_data):
        repo, key_a, _ = repo_with_data
        repo.upload_many([PerformanceRecord("p", {"m": 1.0}, {"x": 9}, 0.5)], key_a)
        repo.upload_many([PerformanceRecord("p", {"m": True}, {"x": 10}, 0.25)], key_a)
        best = {repr(r.task_parameters): r.best_output for r in leaderboard(repo, key_a, "p")}
        assert best["{'m': 1}"] == 3.0 and best["{'m': 1.0}"] == 0.5
        assert best["{'m': True}"] == 0.25

    def test_an_invisible_record_contributes_nothing(self, repo_with_data):
        repo, key_a, key_b = repo_with_data
        before = repo.task_summary(key_b, "p")
        # alice's private record would be task m=1's best and a new owner
        private = PerformanceRecord(
            "p", {"m": 1}, {"x": 0}, 0.01, accessibility=Accessibility("private")
        )
        repo.upload_many([private], key_a)
        assert repo.task_summary(key_b, "p") == before
        mine = {repr(t["task_parameters"]): t for t in repo.task_summary(key_a, "p")}
        theirs = {repr(t["task_parameters"]): t for t in before}
        assert mine["{'m': 1}"]["witness"] != theirs["{'m': 1}"]["witness"]
        assert mine["{'m': 1}"]["best"]["output"] == 0.01

    def test_summary_needs_a_problem_name(self, repo_with_data):
        repo, key_a, _ = repo_with_data
        for name in ("", None, 5):
            with pytest.raises(ValueError, match="problem_name"):
                leaderboard(repo, key_a, name)
