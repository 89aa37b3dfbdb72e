"""Columnar record plane: frozen views, row-oracle parity, batching.

The columnar compiler is the store's only query engine; it must agree
with the reference row interpreter (``row_oracle``) on every well-formed
filter and reject every malformed one whatever the collection holds.
The frozen zero-copy views must be immutable-but-compatible stand-ins
for deep copies, and batched journaling must replay exactly like the
historical one-op-per-insert form.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import threading

import pytest

from repro.crowd.columnar import (
    MAX_COLUMNS,
    ColumnarView,
    FrozenDict,
    FrozenList,
    freeze,
    thaw,
)
from repro.crowd.database import Collection, DocumentStore, QuerySyntaxError

from . import row_oracle


# ---------------------------------------------------------------------------
# frozen documents
# ---------------------------------------------------------------------------


class TestFrozen:
    def test_freeze_builds_frozen_containers(self):
        doc = {"a": 1, "b": {"c": [1, 2, {"d": 3}]}, "t": (1, [2])}
        frozen = freeze(doc)
        assert isinstance(frozen, FrozenDict)
        assert isinstance(frozen["b"], FrozenDict)
        assert isinstance(frozen["b"]["c"], FrozenList)
        assert isinstance(frozen["b"]["c"][2], FrozenDict)
        assert isinstance(frozen["t"], tuple)
        assert isinstance(frozen["t"][1], FrozenList)

    def test_frozen_equals_plain_and_serializes(self):
        doc = {"a": 1, "b": {"c": [1, 2]}}
        frozen = freeze(doc)
        assert frozen == doc
        assert json.dumps(frozen, sort_keys=True) == json.dumps(doc, sort_keys=True)
        assert repr(frozen) == repr(doc)

    def test_dict_mutators_raise(self):
        frozen = freeze({"a": 1, "b": [1, 2]})
        with pytest.raises(TypeError):
            frozen["a"] = 2
        with pytest.raises(TypeError):
            del frozen["a"]
        with pytest.raises(TypeError):
            frozen.pop("a")
        with pytest.raises(TypeError):
            frozen.update({"x": 1})
        with pytest.raises(TypeError):
            frozen.setdefault("y", 0)
        with pytest.raises(TypeError):
            frozen.clear()

    def test_list_mutators_raise(self):
        frozen = freeze({"b": [1, 2]})["b"]
        with pytest.raises(TypeError):
            frozen[0] = 9
        with pytest.raises(TypeError):
            frozen.append(3)
        with pytest.raises(TypeError):
            frozen.extend([3])
        with pytest.raises(TypeError):
            frozen.sort()
        with pytest.raises(TypeError):
            frozen.reverse()
        with pytest.raises(TypeError):
            frozen.pop()

    def test_deepcopy_of_frozen_is_plain_and_mutable(self):
        frozen = freeze({"a": {"b": [1, 2]}})
        dup = copy.deepcopy(frozen)
        assert type(dup) is dict
        assert type(dup["a"]) is dict
        assert type(dup["a"]["b"]) is list
        dup["a"]["b"].append(3)  # the legacy mutable-copy contract
        assert frozen["a"]["b"] == [1, 2]

    def test_thaw_roundtrip(self):
        doc = {"a": 1, "b": {"c": [1, {"d": 2}]}, "t": (1, 2)}
        thawed = thaw(freeze(doc))
        assert thawed == doc
        assert type(thawed) is dict
        assert type(thawed["b"]["c"]) is list
        assert type(thawed["b"]["c"][1]) is dict
        assert type(thawed["t"]) is tuple

    def test_freeze_is_idempotent(self):
        frozen = freeze({"a": [1]})
        assert freeze(frozen) is frozen


# ---------------------------------------------------------------------------
# collection semantics under the columnar plane
# ---------------------------------------------------------------------------


class _Rows:
    """The oracle's half of a pair: the same mutations as a
    :class:`Collection`, every read row-interpreted."""

    def __init__(self) -> None:
        self.docs: dict[int, dict] = {}
        self.next_id = 1

    def insert(self, doc):
        self.restore({**doc, "_id": self.next_id})

    def restore(self, doc):
        self.docs[doc["_id"]] = copy.deepcopy(doc)
        self.next_id = max(self.next_id, doc["_id"] + 1)

    def find(self, flt=None, **kwargs):
        ordered = [self.docs[i] for i in sorted(self.docs)]
        return row_oracle.find(ordered, flt, **kwargs)

    def count(self, flt=None):
        return len(self.find(flt))

    def update(self, flt, changes):
        hit = self.find(flt)
        for d in hit:
            self.docs[d["_id"]] = {**d, **changes, "_id": d["_id"]}
        return len(hit)

    def delete(self, flt):
        hit = self.find(flt)
        for d in hit:
            del self.docs[d["_id"]]
        return len(hit)


def _pair(docs, store=None):
    """(collection ``c`` of ``store``, row oracle) holding identical
    documents."""
    fast, slow = (store or DocumentStore())["c"], _Rows()
    for d in docs:
        fast.insert(d)
        slow.insert(d)
    return fast, slow


class TestCollectionFrozenReads:
    def test_default_find_returns_mutable_copies(self):
        coll = Collection("c")
        coll.insert({"a": {"b": [1]}})
        out = coll.find({})[0]
        out["a"]["b"].append(2)
        assert coll.find({})[0]["a"]["b"] == [1]

    def test_frozen_find_returns_immutable_views(self):
        coll = Collection("c")
        coll.insert({"a": {"b": [1]}})
        out = coll.find({}, frozen=True)[0]
        assert isinstance(out, FrozenDict)
        with pytest.raises(TypeError):
            out["a"] = 1
        with pytest.raises(TypeError):
            out["a"]["b"].append(2)

    def test_frozen_find_is_zero_copy(self):
        coll = Collection("c")
        coll.insert({"a": 1})
        first = coll.find({}, frozen=True)[0]
        second = coll.find({}, frozen=True)[0]
        assert first is second  # the stored object itself

    def test_insert_does_not_alias_caller_doc(self):
        coll = Collection("c")
        doc = {"a": {"b": [1]}}
        coll.insert(doc)
        doc["a"]["b"].append(2)
        assert coll.find({})[0]["a"]["b"] == [1]


class TestInsertManyBatching:
    def test_insert_many_assigns_sequential_ids(self):
        coll = Collection("c")
        assert coll.insert_many([{"a": 1}, {"a": 2}, {"a": 3}]) == [1, 2, 3]
        assert coll.insert({"a": 4}) == 4

    def test_insert_many_emits_one_batched_op(self):
        store = DocumentStore()
        ops = []
        store.set_observer(ops.append)
        store["c"].insert_many([{"a": 1}, {"a": 2}])
        assert len(ops) == 1
        assert ops[0]["op"] == "insert_many"
        assert [d["a"] for d in ops[0]["docs"]] == [1, 2]
        assert [d["_id"] for d in ops[0]["docs"]] == [1, 2]

    def test_insert_many_empty_is_silent(self):
        store = DocumentStore()
        ops = []
        store.set_observer(ops.append)
        assert store["c"].insert_many([]) == []
        assert ops == []

    def test_apply_op_replays_both_insert_forms(self):
        src = DocumentStore()
        ops = []
        src.set_observer(ops.append)
        src["c"].insert({"a": 1})  # historical one-doc form
        src["c"].insert_many([{"a": 2}, {"a": 3}])  # batched form
        replayed = DocumentStore()
        for op in json.loads(json.dumps(ops)):  # as the WAL would ship them
            replayed.apply_op(op)
        assert replayed["c"].find({}) == src["c"].find({})

    def test_batched_op_journal_is_json_safe(self):
        store = DocumentStore()
        ops = []
        store.set_observer(ops.append)
        store["c"].insert_many([{"a": {"nested": [1, 2]}}])
        json.dumps(ops[0], sort_keys=True)  # FrozenDict/FrozenList are dict/list


# ---------------------------------------------------------------------------
# row-oracle parity
# ---------------------------------------------------------------------------

_OWNERS = ["alice", "bob", "carol"]
_PROBLEMS = ["p1", "p2", None]


def _random_doc(rng: random.Random) -> dict:
    doc = {
        "problem_name": rng.choice(_PROBLEMS),
        "owner": rng.choice(_OWNERS),
        "output": rng.choice([None, rng.uniform(-5, 5), rng.randint(-3, 3), True]),
        "timestamp": rng.choice([rng.uniform(0, 100), rng.randint(0, 100), None]),
        "task_parameters": {"n": rng.randint(1, 3)},
        "tags": [rng.choice("xyz") for _ in range(rng.randint(0, 2))],
    }
    if rng.random() < 0.3:
        doc["extra"] = rng.choice(["s", 1, 1.0, True, {"k": 1}, [1, 2]])
    if doc["problem_name"] is None:
        del doc["problem_name"]
    return doc


_FILTERS = [
    {},
    {"owner": "alice"},
    {"owner": {"$eq": "bob"}},
    {"owner": {"$ne": "alice"}},
    {"output": None},
    {"output": {"$exists": True}},
    {"output": {"$exists": False}},
    {"output": {"$gt": 0}},
    {"output": {"$gte": -1, "$lt": 2}},
    {"timestamp": {"$lte": 50}},
    {"timestamp": {"$gt": 25.5, "$lt": 75.0}},
    {"owner": {"$in": ["alice", "carol"]}},
    {"owner": {"$nin": ["bob"]}},
    {"owner": {"$regex": "^a"}},
    {"task_parameters.n": 2},
    {"task_parameters.n": {"$gte": 2}},
    {"missing.path": None},
    {"extra": 1},
    {"extra": {"k": 1}},
    {"tags": ["x"]},
    {"$and": [{"owner": "alice"}, {"output": {"$exists": True}}]},
    {"$or": [{"owner": "bob"}, {"timestamp": {"$gt": 90}}]},
    {"$not": {"owner": "alice"}},
    {"$and": [{"$or": [{"owner": "alice"}, {"owner": "bob"}]}, {"output": {"$lt": 0}}]},
    {"output": True},
    {"output": 1},
]

_SORTS = [None, "timestamp", "output", "owner", "extra", "task_parameters.n"]
_LIMITS = [None, 0, 1, 3, 100]


class TestRowColumnParity:
    def test_randomized_parity_grid(self):
        rng = random.Random(1234)
        fast, slow = _pair([_random_doc(rng) for _ in range(150)])
        checked = 0
        for flt in _FILTERS:
            for sort in _SORTS:
                for descending in (False, True):
                    for limit in _LIMITS:
                        got = fast.find(
                            flt, sort=sort, descending=descending, limit=limit
                        )
                        want = slow.find(
                            flt, sort=sort, descending=descending, limit=limit
                        )
                        assert got == want, (flt, sort, descending, limit)
                        checked += 1
                    assert fast.count(flt) == slow.count(flt)
        assert checked == len(_FILTERS) * len(_SORTS) * 2 * len(_LIMITS)

    def test_parity_under_mutation_interleavings(self):
        rng = random.Random(99)
        store = DocumentStore()
        fast, slow = _pair([_random_doc(rng) for _ in range(60)], store)
        for step in range(40):
            roll = rng.random()
            if roll < 0.45:
                doc = _random_doc(rng)
                fast.insert(doc)
                slow.insert(doc)
            elif roll < 0.65:
                owner = rng.choice(_OWNERS)
                changes = {"output": rng.uniform(0, 1), "touched": step}
                assert fast.update({"owner": owner}, changes) == slow.update(
                    {"owner": owner}, changes
                )
            elif roll < 0.8:
                flt = {"timestamp": {"$gt": rng.uniform(0, 100)}}
                assert fast.delete(flt) == slow.delete(flt)
            else:
                # out-of-order replay: forces a dirty rebuild
                doc = _random_doc(rng)
                doc["_id"] = rng.randint(1, 300)
                store.apply_op({"op": "insert", "c": "c", "doc": doc})
                slow.restore(doc)
            flt = rng.choice(_FILTERS)
            sort = rng.choice(_SORTS)
            desc = rng.choice([False, True])
            limit = rng.choice(_LIMITS)
            assert fast.find(flt, sort=sort, descending=desc, limit=limit) == slow.find(
                flt, sort=sort, descending=desc, limit=limit
            ), (step, flt, sort, desc, limit)
            assert fast.count(flt) == slow.count(flt)

    def test_frozen_results_equal_mutable_results(self):
        rng = random.Random(7)
        fast, _ = _pair([_random_doc(rng) for _ in range(50)])
        for flt in _FILTERS[:8]:
            assert fast.find(flt, sort="timestamp", frozen=True) == fast.find(
                flt, sort="timestamp"
            )

    def test_indexed_field_parity(self):
        fast, slow = _pair(
            [{"k": v, "King": i} for i, v in enumerate(["a", "b", "a", "c"])]
        )
        for flt in ({"k": "a"}, {"k": "zzz"}, {"$and": [{"k": "a"}, {"King": 0}]}):
            assert fast.find(flt) == slow.find(flt)

    def test_sort_stability_matches_row_path(self):
        docs = [{"v": 1, "tag": i} for i in range(5)]
        docs += [{"v": None, "tag": i} for i in range(5, 8)]
        docs += [{"v": 1.0, "tag": i} for i in range(8, 11)]
        fast, slow = _pair(docs)
        for desc in (False, True):
            assert fast.find({}, sort="v", descending=desc) == slow.find(
                {}, sort="v", descending=desc
            )

    def test_mixed_type_sort_parity(self):
        docs = [
            {"v": x}
            for x in [3, "b", None, 2.5, "a", True, False, {"z": 1}, [1], 3.0, None]
        ]
        fast, slow = _pair(docs)
        for desc in (False, True):
            assert fast.find({}, sort="v", descending=desc) == slow.find(
                {}, sort="v", descending=desc
            )

    def test_bad_operator_still_raises(self):
        fast, _ = _pair([{"a": 1}])
        with pytest.raises(QuerySyntaxError):
            fast.find({"a": {"$regexp": "x"}})
        with pytest.raises(QuerySyntaxError):
            fast.find({"$xor": [{"a": 1}]})
        with pytest.raises(QuerySyntaxError):
            fast.find({"$and": "not-a-list"})

    def test_unsupported_shapes_fall_back_not_crash(self):
        # shapes the float/code fast paths cannot take — huge ints past
        # float64 exactness, NaN arguments — go per distinct value
        fast, slow = _pair(
            [{"v": 2**60}, {"v": 2**60 + 1}, {"v": 1}, {"v": float("nan")}]
        )
        for flt in (
            {"v": {"$gt": 2**60}},
            {"v": {"$gte": 2**53 + 1}},
            {"v": float("nan")},
            {"v": {"$in": [float("nan"), 1]}},
        ):
            assert fast.find(flt) == slow.find(flt)

    def test_long_in_list_parity(self):
        fast, slow = _pair([{"v": i % 150} for i in range(300)])
        wanted = list(range(0, 150, 2)) + ["x", None, 3.0]
        for op in ("$in", "$nin"):
            assert fast.find({"v": {op: wanted}}) == slow.find({"v": {op: wanted}})

    def test_paths_past_the_column_cache_still_answer(self):
        fast, slow = _pair([{f"f{j}": i % (j + 2) for j in range(70)} for i in range(20)])
        for j in range(70):  # 70 > MAX_COLUMNS: the tail is transient
            flt = {f"f{j}": {"$gte": 1}}
            assert fast.find(flt, sort=f"f{69 - j}") == slow.find(flt, sort=f"f{69 - j}")
        assert len(fast._columnar._columns) == MAX_COLUMNS


#: filters the compiler must reject whatever the collection holds
_MALFORMED = [
    {"a": {"$regexp": "x"}},
    {"a": {"$gt": 1, "plain": 2}},
    {"$xor": [{"a": 1}]},
    {1: 2},
    {"$and": "not-a-list"},
    {"$and": []},
    {"$or": [{"a": 1}, "not-a-filter"]},
    {"$not": [{"a": 1}]},
    {"a": {"$in": 5}},
    {"a": {"$in": "abc"}},
    {"a": {"$nin": {"b": 1}}},
    {"a": {"$regex": "("}},
    {"a": {"$regex": 5}},
    {"b": 1, "$and": [{"a": {"$regex": "("}}]},
    {"$or": [{"b": 1}, {"$not": {"a": {"$in": None}}}]},
]


class TestMalformedFilters:
    """Malformed is a property of the filter, not of the stored rows."""

    @pytest.mark.parametrize("flt", _MALFORMED, ids=repr)
    def test_rejected_independent_of_the_data(self, flt):
        empty = Collection("c")
        unreached = Collection("c")  # no row gets past ``b`` / has ``a``
        unreached.insert_many([{"b": 2}, {"b": 3}])
        reached = Collection("c")
        reached.insert_many([{"a": "text", "b": 1}, {"a": 5, "b": 1}])
        for coll in (empty, unreached, reached):
            for call in (coll.find, coll.count, coll.delete):
                with pytest.raises(QuerySyntaxError):
                    call(flt)
            with pytest.raises(QuerySyntaxError):
                coll.update(flt, {"touched": True})
            with pytest.raises(QuerySyntaxError):
                coll.find_one(flt)
        assert len(reached) == 2 and reached.count({"touched": True}) == 0

    def test_non_mapping_filter(self):
        coll = Collection("c")
        coll.insert({"a": 1})
        with pytest.raises(QuerySyntaxError):
            coll.find(["a"])
        # "no filter" means everything only for reads
        for nothing in (None, 0, []):
            with pytest.raises(QuerySyntaxError):
                coll.delete(nothing)
            with pytest.raises(QuerySyntaxError):
                coll.update(nothing, {"a": 2})
        assert coll.find() == [{"_id": 1, "a": 1}]

    def test_in_takes_lists_and_tuples(self):
        coll = Collection("c")
        coll.insert_many([{"a": "abc"}, {"a": "b"}, {"a": 5}])
        assert [d["a"] for d in coll.find({"a": {"$in": ["b", 5]}})] == ["b", 5]
        assert [d["a"] for d in coll.find({"a": {"$nin": ("b", 5)}})] == ["abc"]


# ---------------------------------------------------------------------------
# concurrency: incremental maintenance under writer/reader pressure
# ---------------------------------------------------------------------------


class TestConcurrentWritersVsReaders:
    def test_no_stale_or_torn_reads(self):
        coll = Collection("c")
        stop = threading.Event()
        errors: list[BaseException] = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def writer(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    for i in range(200):
                        roll = rng.random()
                        if roll < 0.6:
                            coll.insert({"owner": f"w{seed}", "n": i})
                        elif roll < 0.8:
                            coll.update({"owner": f"w{seed}"}, {"touched": i})
                        else:
                            coll.delete({"owner": f"w{seed}", "n": i - 10})
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            def reader() -> None:
                try:
                    while not stop.is_set():
                        frozen = coll.find({"owner": "w0"}, frozen=True)
                        for doc in frozen:
                            # torn read would show a half-written doc
                            assert doc["owner"] == "w0"
                            assert isinstance(doc["n"], int)
                        n = coll.count({"owner": {"$in": ["w0", "w1"]}})
                        assert n >= 0
                        both = coll.find(
                            {"owner": {"$in": ["w0", "w1"]}}, sort="n"
                        )
                        assert len(both) >= 0
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            writers = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for t in writers + readers:
                t.start()
            for t in writers:
                t.join()
            stop.set()
            for t in readers:
                t.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
        # final state visible and consistent: columnar count == row scan
        assert coll.count({"owner": "w1"}) == len(
            row_oracle.find(coll.find({}), {"owner": "w1"})
        )


# ---------------------------------------------------------------------------
# the view's incremental maintenance internals
# ---------------------------------------------------------------------------


class TestViewMaintenance:
    def test_in_order_inserts_append_without_rebuild(self):
        coll = Collection("c")
        coll.insert({"a": 1})
        assert coll.find({"a": 1})  # builds the column
        view = coll._columnar
        assert not view._dirty
        coll.insert({"a": 2})
        assert not view._dirty  # appended incrementally
        assert [d["a"] for d in coll.find({})] == [1, 2]

    def test_update_marks_dirty_and_rebuild_recovers(self):
        coll = Collection("c")
        coll.insert_many([{"a": 1}, {"a": 2}])
        assert coll.count({"a": 1}) == 1
        coll.update({"a": 1}, {"a": 9})
        assert coll._columnar._dirty
        assert coll.count({"a": 9}) == 1
        assert coll.count({"a": 1}) == 0

    def test_out_of_order_restore_keeps_id_order(self):
        store = DocumentStore()
        store.apply_op({"op": "insert", "c": "c", "doc": {"_id": 5, "a": "late"}})
        store.apply_op({"op": "insert", "c": "c", "doc": {"_id": 2, "a": "early"}})
        coll = store["c"]
        assert [d["_id"] for d in coll.find({})] == [2, 5]
        assert [d["_id"] for d in coll.find({}, frozen=True)] == [2, 5]

    def test_standalone_view_select(self):
        docs = {}
        view = ColumnarView(docs)
        docs[1] = freeze({"_id": 1, "v": 3})
        docs[2] = freeze({"_id": 2, "v": 1})
        view.ensure_clean()
        mask = view.filter_mask({"v": {"$gt": 0}})
        assert mask.sum() == 2
        out = view.select(mask, sort="v")
        assert [d["v"] for d in out] == [1, 3]
