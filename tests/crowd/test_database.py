"""Tests for the document store (MongoDB substitute)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.database import Collection, DocumentStore, QuerySyntaxError


@pytest.fixture
def coll():
    c = Collection("records")
    c.insert_many(
        [
            {"name": "a", "value": 1, "meta": {"machine": "Cori", "nodes": 8}},
            {"name": "b", "value": 5, "meta": {"machine": "Cori", "nodes": 32}},
            {"name": "c", "value": 3, "meta": {"machine": "Summit", "nodes": 8}},
            {"name": "d", "value": None},
        ]
    )
    return c


class TestInsertFind:
    def test_ids_assigned_sequentially(self):
        c = Collection("x")
        assert c.insert({"a": 1}) == 1
        assert c.insert({"a": 2}) == 2

    def test_find_all(self, coll):
        assert len(coll.find()) == 4

    def test_equality_filter(self, coll):
        assert [d["name"] for d in coll.find({"value": 3})] == ["c"]

    def test_nested_path(self, coll):
        found = coll.find({"meta.machine": "Cori"})
        assert {d["name"] for d in found} == {"a", "b"}

    def test_range_operators(self, coll):
        assert {d["name"] for d in coll.find({"value": {"$gte": 3}})} == {"b", "c"}
        assert {d["name"] for d in coll.find({"value": {"$lt": 3}})} == {"a"}
        assert {d["name"] for d in coll.find({"value": {"$gt": 1, "$lte": 3}})} == {"c"}

    def test_in_nin(self, coll):
        assert {d["name"] for d in coll.find({"name": {"$in": ["a", "c"]}})} == {
            "a",
            "c",
        }
        assert {d["name"] for d in coll.find({"name": {"$nin": ["a", "b", "c"]}})} == {
            "d"
        }

    def test_ne_and_none(self, coll):
        assert {d["name"] for d in coll.find({"value": {"$ne": None}})} == {
            "a",
            "b",
            "c",
        }

    def test_exists(self, coll):
        assert {d["name"] for d in coll.find({"meta.nodes": {"$exists": True}})} == {
            "a",
            "b",
            "c",
        }

    def test_regex(self, coll):
        assert {d["name"] for d in coll.find({"meta.machine": {"$regex": "^Co"}})} == {
            "a",
            "b",
        }

    def test_and_or_not(self, coll):
        flt = {"$or": [{"value": 1}, {"meta.machine": "Summit"}]}
        assert {d["name"] for d in coll.find(flt)} == {"a", "c"}
        flt = {"$and": [{"meta.machine": "Cori"}, {"value": {"$gt": 2}}]}
        assert {d["name"] for d in coll.find(flt)} == {"b"}
        assert {d["name"] for d in coll.find({"$not": {"value": None}})} == {
            "a",
            "b",
            "c",
        }

    def test_sort_and_limit(self, coll):
        names = [d["name"] for d in coll.find({"value": {"$ne": None}}, sort="value")]
        assert names == ["a", "c", "b"]
        names = [
            d["name"]
            for d in coll.find({"value": {"$ne": None}}, sort="value", descending=True, limit=2)
        ]
        assert names == ["b", "c"]

    def test_find_one_and_count(self, coll):
        assert coll.find_one({"name": "b"})["value"] == 5
        assert coll.find_one({"name": "zzz"}) is None
        assert coll.count({"meta.machine": "Cori"}) == 2

    def test_type_mismatch_is_no_match(self, coll):
        assert coll.find({"name": {"$gt": 5}}) == []

    def test_bad_operator_raises(self, coll):
        with pytest.raises(QuerySyntaxError):
            coll.find({"value": {"$regexp": "x"}})
        with pytest.raises(QuerySyntaxError):
            coll.find({"$xor": [{"a": 1}]})
        with pytest.raises(QuerySyntaxError):
            coll.find({"$and": "not-a-list"})

    def test_returned_docs_are_copies(self, coll):
        doc = coll.find({"name": "a"})[0]
        doc["meta"]["machine"] = "Hacked"
        assert coll.find({"name": "a"})[0]["meta"]["machine"] == "Cori"

    def test_inserted_docs_are_copied(self):
        c = Collection("x")
        src = {"nested": {"v": 1}}
        c.insert(src)
        src["nested"]["v"] = 99
        assert c.find_one({})["nested"]["v"] == 1


class TestUpdateDelete:
    def test_update(self, coll):
        n = coll.update({"meta.machine": "Cori"}, {"value": 0})
        assert n == 2
        assert coll.count({"value": 0}) == 2

    def test_update_preserves_id(self, coll):
        before = coll.find_one({"name": "a"})["_id"]
        coll.update({"name": "a"}, {"_id": 999, "value": 7})
        doc = coll.find_one({"name": "a"})
        assert doc["_id"] == before and doc["value"] == 7

    def test_delete(self, coll):
        assert coll.delete({"value": None}) == 1
        assert len(coll.find()) == 3


class TestIndexes:
    """Results the hash indexes used to answer (the indexes are gone;
    what they returned is still the contract)."""

    def test_indexed_equality_matches_scan(self, coll):
        found = {d["name"] for d in coll.find({"meta.machine": "Cori"})}
        assert found == {
            d["name"] for d in coll.find() if d.get("meta", {}).get("machine") == "Cori"
        }

    def test_index_maintained_by_insert_update_delete(self):
        c = Collection("x")
        c.insert({"k": "a"})
        c.insert({"k": "b"})
        assert len(c.find({"k": "a"})) == 1
        c.update({"k": "a"}, {"k": "b"})
        assert len(c.find({"k": "b"})) == 2
        c.delete({"k": "b"})
        assert c.find({"k": "b"}) == []

    def test_index_with_operator_falls_back_to_scan(self, coll):
        assert {d["name"] for d in coll.find({"value": {"$gte": 3}})} == {"b", "c"}

    def test_count_uses_index(self):
        c = Collection("x")
        c.insert_many([{"k": "a", "v": i} for i in range(5)])
        c.insert_many([{"k": "b", "v": i} for i in range(3)])
        assert c.count({"k": "a"}) == 5
        assert c.count({"k": "a", "v": {"$lt": 2}}) == 2
        assert c.count({"k": "missing"}) == 0
        assert c.count() == 8

    def test_unsorted_find_with_limit_short_circuits(self):
        c = Collection("x")
        c.insert_many([{"v": i % 3} for i in range(50)])
        got = c.find({"v": 1}, limit=4)
        assert len(got) == 4
        assert all(d["v"] == 1 for d in got)
        assert c.find({"v": 1}, limit=0) == []
        assert c.find({"v": 1}, limit=-2) == []
        # sorted queries still see every match before limiting
        top = c.find({}, sort="v", descending=True, limit=2)
        assert [d["v"] for d in top] == [2, 2]


class TestStore:
    def test_collection_creation(self):
        store = DocumentStore()
        c1 = store.collection("a")
        assert store["a"] is c1
        assert "a" in store and "b" not in store
        assert store.collection_names() == ["a"]

    def test_invalid_names(self):
        store = DocumentStore()
        with pytest.raises(ValueError):
            store.collection("")
        with pytest.raises(ValueError):
            store.collection("a.b")

    def test_drop(self):
        store = DocumentStore()
        store.collection("a")
        store.drop("a")
        assert "a" not in store


class TestPropertyBased:
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]),
                st.integers(-10, 10),
                min_size=1,
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(-10, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_find_eq_matches_python_filter(self, docs, needle):
        c = Collection("x")
        c.insert_many(docs)
        got = {d["_id"] for d in c.find({"a": needle})}
        expect = {
            i + 1 for i, d in enumerate(docs) if d.get("a") == needle
        }
        assert got == expect

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_range_query_partition(self, values):
        """$lt and $gte partition every finite value set."""
        c = Collection("x")
        c.insert_many([{"v": v} for v in values])
        lo = c.count({"v": {"$lt": 0}})
        hi = c.count({"v": {"$gte": 0}})
        assert lo + hi == len(values)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "update", "query"]),
                st.one_of(
                    st.integers(-3, 3),
                    st.sampled_from([None, True, 1.0, 2.5, "1", float("nan")]),
                ),
            ),
            min_size=1,
            max_size=30,
        ),
        st.one_of(st.integers(-3, 3), st.sampled_from([None, True, 1.0, "1", float("nan")])),
    )
    @settings(max_examples=80, deadline=None)
    def test_contains_is_find_one_not_none(self, ops, needle):
        """``contains`` answers from the column's dictionary what a masked
        ``find_one`` answers, through inserts, and through the deletes and
        updates that rebuild the view."""
        c = Collection("x")
        for op, value in ops:
            if op == "insert":
                c.insert({"v": value, "w": [value]})
            elif op == "delete":
                c.delete({"v": value})
            elif op == "update":
                c.update({"v": value}, {"v": "changed"})
            else:
                c.find({"v": value})  # builds (or rebuilds) the column
            for probe in (value, needle):
                assert c.contains("v", probe) == (c.find_one({"v": probe}) is not None)
        present = c.find_one({"missing.path": None}) is not None
        assert c.contains("missing.path", None) == present
