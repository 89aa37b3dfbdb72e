"""Tests for the performance-record schema and accessibility."""

from __future__ import annotations

import pytest

from repro.crowd.records import Accessibility, PerformanceRecord


class TestAccessibility:
    def test_levels_validated(self):
        with pytest.raises(ValueError):
            Accessibility("secret")

    def test_group_needs_groups(self):
        with pytest.raises(ValueError):
            Accessibility("group")

    def test_public_visible_to_all(self):
        a = Accessibility("public")
        assert a.visible_to("anyone", "owner", [])

    def test_private_only_owner(self):
        a = Accessibility("private")
        assert a.visible_to("owner", "owner", [])
        assert not a.visible_to("other", "owner", ["g1"])

    def test_group_visibility(self):
        a = Accessibility("group", groups=["ecp"])
        assert a.visible_to("member", "owner", ["ecp", "other"])
        assert not a.visible_to("outsider", "owner", ["other"])
        assert a.visible_to("owner", "owner", [])  # owner always sees

    def test_roundtrip(self):
        a = Accessibility("group", groups=["x"])
        b = Accessibility.from_dict(a.to_dict())
        assert b.level == "group" and b.groups == ["x"]

    def test_from_none_is_public(self):
        assert Accessibility.from_dict(None).level == "public"


class TestPerformanceRecord:
    def _rec(self, **kw):
        defaults = dict(
            problem_name="demo",
            task_parameters={"t": 1},
            tuning_parameters={"x": 0.5},
            output=1.5,
        )
        defaults.update(kw)
        return PerformanceRecord(**defaults)

    def test_needs_problem_name(self):
        with pytest.raises(ValueError):
            self._rec(problem_name="")

    def test_a_record_made_without_a_uid_is_unnamed(self):
        # the node that stores it names it (a token's uid, else a clock tick)
        assert self._rec().uid == 0
        assert self._rec(uid=7).uid == 7

    def test_failed_flag(self):
        assert self._rec(output=None).failed
        assert not self._rec(output=2.0).failed

    def test_doc_roundtrip(self):
        rec = self._rec(
            owner="alice",
            machine_configuration={"machine_name": "Cori", "nodes": 8},
            software_configuration={"gcc": {"version_split": [9, 3, 0]}},
            accessibility=Accessibility("group", groups=["ecp"]),
        )
        clone = PerformanceRecord.from_doc(rec.to_doc())
        assert clone.problem_name == "demo"
        assert clone.task_parameters == {"t": 1}
        assert clone.tuning_parameters == {"x": 0.5}
        assert clone.machine_configuration["nodes"] == 8
        assert clone.accessibility.level == "group"
        assert clone.uid == rec.uid

    def test_doc_is_jsonable(self):
        import json

        json.dumps(self._rec().to_doc())
