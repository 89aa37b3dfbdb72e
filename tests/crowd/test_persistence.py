"""Full-repository persistence: records across save/load."""

from __future__ import annotations

import pytest

from repro.crowd import CrowdRepository, PerformanceRecord


@pytest.fixture
def populated(tmp_path):
    repo = CrowdRepository()
    _, key = repo.register_user("alice", "a@lab.gov")
    for i in range(5):
        repo.upload(
            PerformanceRecord(
                problem_name="p",
                task_parameters={"m": 1},
                tuning_parameters={"x": i / 10},
                output=float(i),
            ),
            key,
        )
    path = tmp_path / "dump.json"
    repo.save(path)
    return path


class TestMergeFrom:
    def test_merges_all_collections(self, populated):
        fresh = CrowdRepository()
        merged = fresh.merge_from(populated)
        assert merged["performance_records"] == 5
        assert fresh.count() == 5

    def test_federating_two_sites(self, populated, tmp_path):
        """Merging dumps from two repositories accumulates both."""
        site_b = CrowdRepository()
        _, key_b = site_b.register_user("carol", "c@lab.gov")
        site_b.upload(
            PerformanceRecord(
                problem_name="q",
                task_parameters={"m": 2},
                tuning_parameters={"x": 0.9},
                output=7.0,
            ),
            key_b,
        )
        path_b = tmp_path / "site_b.json"
        site_b.save(path_b)

        combined = CrowdRepository()
        combined.merge_from(populated)
        combined.merge_from(path_b)
        _, key = combined.register_user("dan", "d@lab.gov")
        assert set(combined.problems(key)) == {"p", "q"}

    def test_load_records_still_works(self, populated):
        fresh = CrowdRepository()
        assert fresh.load_records(populated) == 5
