"""Hash-consing is invisible: a store that shares sub-documents answers,
journals and compacts exactly like one that keeps private copies
(:mod:`tests.crowd.intern_oracle`), for documents built to collide —
``1`` / ``1.0`` / ``True`` / ``"1"``, permuted key orders, ``-0.0``,
``NaN``, nested empty containers, tuples beside lists."""

from __future__ import annotations

import copy
import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import perf
from repro.crowd import columnar
from repro.crowd.columnar import INTERN_MAX_DISTINCT
from repro.crowd.database import DocumentStore

from .intern_oracle import PrivateStore, replay, same

#: sub-documents that are ``==`` or ``hashable_key``-equal to a neighbour
#: without being the same value
SUBDOCS = [
    {"a": 1},
    {"a": 1.0},
    {"a": True},
    {"a": "1"},
    {"a": 1, "b": 2},
    {"b": 2, "a": 1},
    {"z": 0.0},
    {"z": -0.0},
    {"n": float("nan")},
    {},
    [],
    (),
    {"e": {}},
    {"e": []},
    [[]],
    [{}],
    [1, 2],
    (1, 2),
    [1.0, 2],
    {"t": (1, 2)},
    {"t": [1, 2]},
    {"deep": {"x": {"y": [1, {"w": None}]}}},
    {"deep": {"x": {"y": [1, {"w": 0}]}}},
]
FIELDS = ["m", "s", "t"]

scalars = st.one_of(
    st.integers(-2, 2),
    st.booleans(),
    st.none(),
    # strings, some spelling a sub-document's ``repr``
    st.sampled_from(["", "1", "a", "{'a': 1}", "[]", "()", "[1, 2]"]),
    st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
)
# deepcopy: equal values must not also be the same object going in
values = st.one_of(st.sampled_from(SUBDOCS).map(copy.deepcopy), scalars)
documents = st.builds(
    lambda k, fields: {"k": k, **dict(fields)},
    st.integers(0, 4),
    st.lists(st.tuples(st.sampled_from(FIELDS), values), max_size=3),
)
journaled = st.one_of(
    st.tuples(st.just("insert"), documents),
    st.tuples(st.just("insert_many"), st.lists(documents, min_size=1, max_size=4)),
    st.tuples(st.just("update"), st.integers(0, 4), documents),
    st.tuples(st.just("delete"), st.integers(0, 4)),
)
#: ``replay`` is a journaled document applied under its ``_id`` — the
#: replay path itself: it never journals
operations = st.one_of(
    journaled, st.tuples(st.just("replay"), st.integers(1, 12), documents)
)


def run(store: DocumentStore, ops) -> list[str]:
    """Apply ``ops`` to ``store["c"]``; returns the journal lines."""
    lines: list[str] = []
    store.set_observer(lambda op: lines.append(json.dumps(op, sort_keys=True)))
    coll = store["c"]
    for op in ops:
        if op[0] == "insert":
            coll.insert(op[1])
        elif op[0] == "insert_many":
            coll.insert_many(op[1])
        elif op[0] == "update":
            coll.update({"k": op[1]}, op[2])
        elif op[0] == "delete":
            coll.delete({"k": op[1]})
        else:
            doc = json.loads(json.dumps({**op[2], "_id": op[1]}))
            store.apply_op({"op": "insert", "c": "c", "doc": doc})
    store.set_observer(None)
    return lines


def assert_indistinguishable(store: DocumentStore, oracle: DocumentStore) -> None:
    for kwargs in ({}, {"sort": "k", "descending": True}, {"limit": 3}):
        for frozen in (True, False):
            got = store["c"].find({}, frozen=frozen, **kwargs)
            want = oracle["c"].find({}, frozen=frozen, **kwargs)
            assert same(got, want)
            assert json.dumps(got) == json.dumps(want)
    assert list(store.journal_lines()) == list(oracle.journal_lines())


class TestInterningIsInvisible:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(operations, max_size=12))
    def test_any_op_sequence_reads_journals_and_images_alike(self, ops):
        store, oracle = DocumentStore(), PrivateStore()
        assert run(store, ops) == run(oracle, copy.deepcopy(ops))
        assert_indistinguishable(store, oracle)

        # compacted, and restarted from the compacted journal
        lines = list(store.journal_lines())
        assert lines == list(oracle.journal_lines())
        reloaded = replay(DocumentStore(), lines)
        assert_indistinguishable(reloaded, replay(PrivateStore(), lines))
        assert list(reloaded.journal_lines()) == lines

    @settings(max_examples=100, deadline=None)
    @given(st.lists(journaled, max_size=12))
    def test_replaying_the_journal_rebuilds_the_same_store(self, ops):
        store = DocumentStore()
        lines = run(store, ops)
        replayed = replay(DocumentStore(), lines)
        assert_indistinguishable(replayed, replay(PrivateStore(), lines))
        assert list(replayed.journal_lines()) == list(store.journal_lines())

    def test_near_equal_values_never_share(self):
        coll = DocumentStore()["c"]
        coll.insert_many([{"m": copy.deepcopy(sub)} for sub in SUBDOCS])
        stored = [doc["m"] for doc in coll.find({}, frozen=True)]
        assert len({id(value) for value in stored}) == len(SUBDOCS)
        assert all(same(columnar.thaw(got), sub) for got, sub in zip(stored, SUBDOCS))


class TestSharing:
    def test_a_string_and_a_container_spelled_alike_never_share(self):
        values = [{"a": 1}, "{'a': 1}", [1, 2], "[1, 2]", (), "()", "()"]
        for order in (values, values[::-1]):
            store = DocumentStore()
            lines = run(store, [("insert", {"k": 0, "f": copy.deepcopy(v)}) for v in order])
            replayed = replay(DocumentStore(), lines)
            compacted = replay(DocumentStore(), store.journal_lines())
            for built in (store, compacted, replayed):
                got = [doc["f"] for doc in built["c"].find({}, frozen=True)]
                want = order if built is store else json.loads(json.dumps(order))
                assert all(same(columnar.thaw(g), w) for g, w in zip(got, want))
                twins = [g for g in got if type(g) is str and g == "()"]
                assert len(twins) == 2 and twins[0] is twins[1]

    def test_equal_sub_documents_are_one_object(self):
        store = DocumentStore()
        with perf.collect() as stats:
            store["c"].insert_many(
                [{"i": i, "m": {"name": "cori", "nodes": {"n": 8}}} for i in range(5)]
            )
            store["c"].update({"i": 0}, {"m": {"name": "cori", "nodes": {"n": 8}}})
            store.apply_op(
                {"op": "insert", "c": "c",
                 "doc": {"_id": 9, "i": 9, "m": {"name": "cori", "nodes": {"n": 8}}}}
            )
        docs = store["c"].find({}, frozen=True)
        assert len(docs) == 6 and len({id(doc["m"]) for doc in docs}) == 1
        assert stats.counters["store_interned_values"] == 6
        # per collection, not per process: a shard shares nothing with a peer
        other = DocumentStore()["c"]
        other.insert({"m": {"name": "cori", "nodes": {"n": 8}}})
        assert other.find_one({}, frozen=True)["m"] is not docs[0]["m"]

    def test_a_mutated_copy_leaves_its_siblings_alone(self):
        coll = DocumentStore()["c"]
        coll.insert_many([{"i": i, "m": {"nodes": {"n": 8}, "tags": ["x"]}} for i in range(3)])
        first, second, third = coll.find({}, sort="i")
        first["m"]["nodes"]["n"] = 99
        first["m"]["tags"].append("y")
        copy.deepcopy(coll.find_one({"i": 1}, frozen=True))["m"]["nodes"]["n"] = 77
        assert second["m"] == third["m"] == {"nodes": {"n": 8}, "tags": ["x"]}
        assert all(
            doc["m"] == {"nodes": {"n": 8}, "tags": ["x"]} for doc in coll.find({})
        )
        with pytest.raises(TypeError):
            coll.find_one({}, frozen=True)["m"]["nodes"]["n"] = 1

    def test_a_high_cardinality_field_stops_being_interned(self):
        coll = DocumentStore()["c"]
        n = INTERN_MAX_DISTINCT + 50
        with perf.collect() as stats:
            coll.insert_many([{"hc": {"v": i}, "lc": {"v": i % 3}} for i in range(n)])
            coll.insert_many([{"hc": {"v": 0}, "lc": {"v": 0}} for _ in range(2)])
        assert stats.counters["store_intern_overflows"] == 1
        tables = coll._interner._tables
        assert tables["hc"] is None and len(tables["lc"]) == 3
        late_a, late_b = coll.find({"_id": {"$gt": n}}, frozen=True)
        assert late_a["hc"] == late_b["hc"] and late_a["hc"] is not late_b["hc"]
        assert late_a["lc"] is late_b["lc"]
        assert coll.count({}) == n + 2

    def test_big_deep_and_foreign_values_are_stored_privately(self):
        class Odd(dict):
            pass

        coll = DocumentStore()["c"]
        big = {"row": list(range(columnar.INTERN_MAX_NODES))}
        deep = {"a": {"b": {"c": {"d": {"e": 1}}}}}
        long_text = {"s": "x" * (16 * columnar.INTERN_MAX_NODES)}
        for value in (big, deep, long_text, Odd(a=1), {1: "int key"}, {"o": object}):
            coll.insert_many([{"f": value}, {"f": value}])
            a, b = coll.find({}, frozen=True)[-2:]
            assert a["f"] == b["f"] and a["f"] is not b["f"]

        class Liar:
            def __repr__(self) -> str:
                return "1.0"

        # spelled like a stored value, but its repr does not identify it
        coll.insert_many([{"g": {"x": 1.0}}, {"g": {"x": Liar()}}])
        assert type(coll.find({}, frozen=True)[-1]["g"]["x"]) is Liar

    def test_concurrent_inserts_lose_nothing(self):
        coll = DocumentStore()["c"]
        subs = [{"name": "cori", "nodes": {"n": n}} for n in range(4)]

        def writer(t: int) -> None:
            for i in range(400):
                coll.insert({"t": t, "i": i, "m": copy.deepcopy(subs[i % 4])})

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        docs = coll.find({}, frozen=True)
        assert sorted((d["t"], d["i"]) for d in docs) == [
            (t, i) for t in range(2) for i in range(400)
        ]
        assert sorted(d["_id"] for d in docs) == list(range(1, 801))
        assert all(d["m"] == subs[d["i"] % 4] for d in docs)
        assert len({id(d["m"]) for d in docs}) == 4
