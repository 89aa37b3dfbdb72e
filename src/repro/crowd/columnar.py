"""Columnar record plane: the document store's one query engine.

Every :class:`~repro.crowd.database.Collection` answers ``find`` /
``count`` / ``update`` / ``delete`` through the :class:`ColumnarView` it
owns: a filter document compiles to one boolean row mask, a mask
materializes through :meth:`ColumnarView.select`.  There is no second
interpreter and no index to keep in step with it.

**Frozen documents** (:class:`FrozenDict` / :class:`FrozenList`).
Collections store every document deep-frozen.  Read-only callers can
then receive the *stored* objects directly (``find(..., frozen=True)``)
— zero copies, and any attempted mutation raises ``TypeError`` instead
of silently corrupting shared state.  Other callers get mutable deep
copies: :func:`thaw` rebuilds plain dicts/lists (much faster than
``copy.deepcopy``), and both frozen classes define ``__reduce__`` so
``copy.deepcopy``/``pickle`` of a frozen view also yields plain mutable
objects.  The store holds JSON-shaped documents; non-JSON leaf objects
(arrays, sets) pass through both :func:`freeze` and :func:`thaw` by
reference, exactly as callers that insert them must already expect.

**Hash-consed fields** (:class:`Interner`).  A crowd record carries its
whole environment on every sample; each collection keeps one frozen
object per distinct small container or short string field value and
hands it to every later document with an equal one — equal meaning
type- and order-exact (``repr``; a string is keyed by itself and never
shares with a container spelled alike), never :func:`hashable_key`'s
canonical JSON, which would serve a reader another record's key order.
Tables are per field name and bounded (``INTERN_MAX_DISTINCT`` values,
then the field falls back to private copies; values past
``INTERN_MAX_NODES`` / ``INTERN_MAX_DEPTH`` are never eligible).  On the end-to-end
benchmark's records this takes a stored record from 3.3 KB to 0.8 KB.

**ColumnarView**: a numpy-backed dictionary-encoded column per queried
dotted path, built lazily on the first read and maintained
incrementally from the collection's mutation flow (inserts append in
``_id`` order; updates/deletes/out-of-order restores mark the view dirty
and the next read rebuilds).  Each column interns distinct values under
:func:`hashable_key`, so ``1``/``1.0``/``True`` share a code exactly
like they compare ``==``, and keeps a parallel ``float64`` array for
range comparisons.  At most ``MAX_COLUMNS`` columns are cached per
view; a path past the bound gets a transient column built for the one
query.

The filter compiler is total over the Mongo subset the store speaks:

* equality / ``$eq`` / ``$ne`` on scalars — one code lookup + one
  vector compare,
* ``$gt``/``$gte``/``$lt``/``$lte`` with numeric arguments — float
  column compare when every stored value and the argument are
  float64-exact (``NaN`` slots compare ``False``: ``None`` and
  non-numeric values never satisfy a range),
* ``$in``/``$nin`` over scalar lists — one code-set membership test,
* ``$exists`` — a compare against the interned ``None`` code (missing
  paths intern as ``None``, same as :func:`get_path`),
* ``$and`` / ``$or`` / ``$not`` — recursive mask combination,
* everything else (``$regex``, container arguments, mixed-type or
  beyond-2**53 range comparisons) — the plain Python comparison
  evaluated once per *distinct* value and broadcast through the code
  array; sound because ``==``-equal JSON values give identical results,
  and never more work than one pass over the rows.

Malformed filters — a non-mapping filter, a non-string key, an unknown
operator, ``$and``/``$or`` that is not a non-empty list of mappings,
``$not`` of a non-mapping, ``$in``/``$nin`` of a non-list, a ``$regex``
that does not compile — raise :class:`QuerySyntaxError` from the
compiler, whatever the collection holds: an empty collection rejects
the same filters a full one does.

Callers that compose their own predicates (record visibility, registry
eligibility) use :meth:`ColumnarView.path_eq_mask` and
:meth:`ColumnarView.path_value_mask`; the latter takes ``within=mask``
so a caller-supplied function — which may raise on a malformed stored
block — runs only on the distinct values that occur under ``mask``,
i.e. only on documents the preceding predicates selected.

Sorting uses a stable argsort: all-numeric columns through one
``np.lexsort`` (``None`` ranks first, as :func:`sort_key` orders), any
other column through per-distinct-value ranks computed with
:func:`sort_key` — equal sort keys share a rank so ties break by row
(ascending ``_id``) order, identical to ``list.sort`` over the rows.

**The grouped reduction** (:meth:`ColumnarView.task_summary`): the
browse aggregates — leaderboard and contributor stats — are one
reduction over the columns under a row mask, one partial row per task,
so an aggregate costs a sort of the selected rows and materializes only
the best record of each task.  Groups are the
``task_parameters`` codes folded by :func:`~repro.core.problem.task_key`
(type-exact ``repr``: ``{"t": 1}`` and ``{"t": 1.0}`` are two tasks,
while ``None`` / ``{}`` / a missing block are one), not the column's own
:func:`hashable_key` classes; an ``output`` that is not a finite number
(``None``, a string, ``NaN``) is a failure and never a best; ties go to
the earliest ``(timestamp, uid)``.

Concurrency: every query runs under the owning collection's lock, so
incremental column maintenance can never yield stale or torn reads —
pinned by the writers-vs-readers stress test.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from collections.abc import Mapping, Sequence
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from ..core import perf
from ..core.problem import task_key

__all__ = [
    "FrozenDict",
    "thaw",
    "Interner",
    "KeyMemo",
    "ColumnarView",
    "QuerySyntaxError",
    "get_path",
    "sort_key",
]


# ---------------------------------------------------------------------------
# value semantics (shared with the router's cross-shard merges)
# ---------------------------------------------------------------------------

class QuerySyntaxError(ValueError):
    """Raised for malformed filter documents."""


def get_path(doc: Mapping[str, Any], path: str) -> Any:
    """Resolve a dotted path; missing segments yield ``None``."""
    cur: Any = doc
    for part in path.split("."):
        if (type(cur) is FrozenDict or isinstance(cur, Mapping)) and part in cur:
            cur = cur[part]
        else:
            return None
    return cur


def hashable_key(value: Any) -> Any:
    """The store's interning/index key: containers by canonical JSON."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, default=str)
    return value


def sort_key(value: Any) -> tuple:
    """Total order across mixed types (None < numbers < strings < other)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, str(value))


# ---------------------------------------------------------------------------
# frozen documents
# ---------------------------------------------------------------------------

def _read_only(self, *args, **kwargs):
    raise TypeError(
        "frozen document view is read-only; ask for a mutable copy "
        "(find(..., frozen=False)) or thaw() it first"
    )


class FrozenDict(dict):
    """An immutable dict view of a stored document (still a ``dict``:
    ``json.dumps``, ``isinstance`` checks and read access all work)."""

    __slots__ = ()

    __setitem__ = _read_only
    __delitem__ = _read_only
    __ior__ = _read_only
    clear = _read_only
    pop = _read_only
    popitem = _read_only
    setdefault = _read_only
    update = _read_only

    def __reduce__(self):
        # deepcopy/pickle reconstruct through this, so a deep copy of a
        # frozen view is a plain *mutable* dict — the legacy contract of
        # documents leaving the store
        return (dict, (list(self.items()),))


class FrozenList(list):
    """An immutable list view (still a ``list`` for serialization)."""

    __slots__ = ()

    __setitem__ = _read_only
    __delitem__ = _read_only
    __iadd__ = _read_only
    __imul__ = _read_only
    append = _read_only
    extend = _read_only
    insert = _read_only
    pop = _read_only
    remove = _read_only
    clear = _read_only
    sort = _read_only
    reverse = _read_only

    def __reduce__(self):
        return (list, (list(self),))


def freeze(value: Any) -> Any:
    """Deep-freeze a JSON-shaped value (rebuilds every container, so the
    result shares nothing mutable with the input).  Already-frozen
    containers are returned as-is — they are immutable all the way down.
    String keys are ``sys.intern``ed: a document decoded on its own (one
    journal line, one request body) arrives with private copies of every
    key string, which would otherwise outweigh its values.
    """
    t = type(value)
    if t is FrozenDict or t is FrozenList or t is str or t in _NUMERIC:
        return value
    if isinstance(value, dict):
        return FrozenDict(
            (sys.intern(k) if type(k) is str else k, freeze(v))
            for k, v in value.items()
        )
    if isinstance(value, list):
        return FrozenList(freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(freeze(v) for v in value)
    return value


def thaw(value: Any) -> Any:
    """Fast deep copy of a JSON-shaped value into plain mutable objects
    (what ``copy.deepcopy`` produced on the legacy read path)."""
    if isinstance(value, dict):
        return {k: thaw(v) for k, v in value.items()}
    if isinstance(value, list):
        return [thaw(v) for v in value]
    if isinstance(value, tuple):
        return tuple(thaw(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# hash-consed fields
# ---------------------------------------------------------------------------

#: distinct values one field's table may hold; a field that passes it is
#: not worth a dictionary (``tuning_parameters``) and stops being interned
INTERN_MAX_DISTINCT = 1024
#: an internable value weighs at most this many nodes (a container or a
#: leaf is one; a string — key or value — one more per 16 characters, an
#: integer per 64 bits) nested at most this many containers deep
INTERN_MAX_NODES = 64
INTERN_MAX_DEPTH = 4
#: bound on interned field names per collection
INTERN_MAX_FIELDS = 64

_TOO_BIG = INTERN_MAX_NODES + 1
#: field values stored as they are: numbers (most differ per record) and None
_NUMERIC = (int, float, bool, type(None))


def _node_count(value: Any, depth: int) -> int:
    """Weight of a tree built of exactly the JSON types (plain or frozen
    containers, tuples, string keys) at most ``depth`` containers deep;
    ``_TOO_BIG`` for anything else.  Only such a tree is identified by
    its ``repr``: an array's elides, a subclass may lie."""
    t = type(value)
    if t is str:
        return 1 + (len(value) >> 4)
    if t is int:
        return 1 + (value.bit_length() >> 6)
    if t is float or t is bool or value is None:
        return 1
    keyed = t is dict or t is FrozenDict
    if not (keyed or t is list or t is FrozenList or t is tuple):
        return _TOO_BIG
    if depth == 0 or len(value) >= INTERN_MAX_NODES:
        return _TOO_BIG
    n = 1
    for member in value.items() if keyed else value:
        if keyed:
            key, member = member
            if type(key) is not str:
                return _TOO_BIG
            n += len(key) >> 4
        n += _node_count(member, depth - 1)
        if n > INTERN_MAX_NODES:
            break
    return n


class Interner:
    """One collection's hash-consed field values.

    A crowd record carries its whole environment — machine, software,
    task, accessibility, problem name and owner — and ten thousand
    records carry the same few blocks and strings.  Per top-level field
    name, each distinct small container or short string value is frozen
    once and every later equal value of that field gets the same
    immutable object; sharing is sound because frozen values and strings
    cannot change and every way out of the store (:func:`thaw`,
    ``deepcopy``) builds a fresh plain copy.

    "Equal" is **type- and order-exact**: a container's table key is its
    ``repr``, which is the same for a plain container and its frozen
    twin (so a hit never builds the frozen copy) and separates ``1`` /
    ``1.0`` / ``True`` / ``"1"``, ``0.0`` / ``-0.0``, lists from tuples
    and one key order from another; a string's key is the string itself,
    and a hit of the other kind (a string spelling a container's
    ``repr``, or the reverse) is never shared.  :func:`hashable_key`'s
    sorted canonical JSON would hand a later record an earlier record's
    key order and change the bytes a reader is served.

    Bounded like any dictionary encoding: a value is eligible only when
    small and shallow (:func:`_node_count`), at most
    ``INTERN_MAX_FIELDS`` field names get a table, and a field whose
    table reaches ``INTERN_MAX_DISTINCT`` values drops it and is stored
    privately from then on (counter ``store_intern_overflows``).  Hits
    count as ``store_interned_values``.  Not thread-safe: the owning
    collection calls it under its lock.
    """

    __slots__ = ("_tables",)

    def __init__(self) -> None:
        #: field -> {key: the one frozen value}; None = overflowed
        self._tables: dict[str, dict[str, Any] | None] = {}

    def freeze_fields(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """``{field: freeze(value)}`` with eligible values shared: a
        container is weighed (and its types checked) before its ``repr``
        is made."""
        return self._freeze(doc, False)

    def freeze_decoded(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """:meth:`freeze_fields` for a document of a journal, built of
        exactly the JSON types (as a decoder or the
        store hands them out): the ``repr`` of such a value identifies
        it, so one equal to a table entry is that entry's twin and is
        shared without being walked; only a new value is weighed."""
        return self._freeze(doc, True)

    def _freeze(self, doc: Mapping[str, Any], decoded: bool) -> dict[str, Any]:
        out: dict[str, Any] = {}
        hits = 0
        for field, value in doc.items():
            if type(field) is str:
                field = sys.intern(field)
            t = type(value)
            if t in _NUMERIC:
                out[field] = value
                continue
            table = self._table(field)
            if table is None:
                out[field] = freeze(value)
                continue
            # a decoded container's repr identifies it: weighed only if new
            weighed = not decoded or t is str
            if weighed and _node_count(value, INTERN_MAX_DEPTH) > INTERN_MAX_NODES:
                out[field] = freeze(value)
                continue
            key = value if t is str else repr(value)
            shared = table.get(key)
            if shared is None:
                if not weighed and _node_count(value, INTERN_MAX_DEPTH) > INTERN_MAX_NODES:
                    shared = freeze(value)
                elif len(table) < INTERN_MAX_DISTINCT:
                    shared = table[key] = freeze(value)
                else:
                    self._tables[field] = None
                    perf.incr("store_intern_overflows")
                    shared = freeze(value)
            elif (type(shared) is str) is (t is str):
                hits += 1
            else:  # a string spelling a container's repr, or the reverse
                shared = freeze(value)
            out[field] = shared
        if hits:
            perf.incr("store_interned_values", hits)
        return out

    def _table(self, field: Any) -> dict[str, Any] | None:
        """The live table of one field (made on first use), else None."""
        try:
            return self._tables[field]
        except KeyError:
            if type(field) is not str or len(self._tables) >= INTERN_MAX_FIELDS:
                return None
            table = self._tables[field] = {}
            return table


class KeyMemo:
    """``fn(name, block)`` once per name and stored (shared) block *object*,
    held so its ``id`` stays its own until ``INTERN_MAX_DISTINCT`` entries."""

    def __init__(self, fn: Callable[[Any, Any], Any]) -> None:
        self._fn, self._memo = fn, {}

    def __call__(self, name: Any, block: Any) -> Any:
        hit = self._memo.get((name, id(block)))
        if hit is None:
            if len(self._memo) >= INTERN_MAX_DISTINCT:
                self._memo.clear()
            hit = self._memo[name, id(block)] = (block, self._fn(name, block))
        return hit[1]


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------

#: scalar types eligible for direct code-lookup equality
_SCALARS = (str, int, float, bool, type(None))
#: largest integer magnitude exactly representable in float64
_FLOAT_EXACT = 2 ** 53
#: bound on cached columns per view (distinct dotted paths ever queried)
MAX_COLUMNS = 64
_GROW = 256
#: range operators: float-column ufunc, exact per-value comparison
_RANGE = {
    "$gt": (np.greater, operator.gt),
    "$gte": (np.greater_equal, operator.ge),
    "$lt": (np.less, operator.lt),
    "$lte": (np.less_equal, operator.le),
}


def _float_exact(value: Any) -> bool:
    if isinstance(value, bool):
        return True
    if isinstance(value, int):
        return -_FLOAT_EXACT <= value <= _FLOAT_EXACT
    return isinstance(value, float) and value == value


def _as_float(value: Any) -> float:
    """A value's slot in a float column: numbers as float64, else NaN."""
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            return np.nan
    return np.nan


class _Column:
    """One dotted path, dictionary-encoded: ``codes`` index ``values``."""

    __slots__ = ("values", "lookup", "codes", "floats", "n", "numeric_ok", "none_code")

    def __init__(self) -> None:
        self.values: list[Any] = []  # code -> representative value
        self.lookup: dict[Any, int] = {}  # hashable_key(value) -> code
        self.codes = np.empty(_GROW, dtype=np.int32)
        self.floats = np.empty(_GROW, dtype=np.float64)
        self.n = 0
        #: every value is None or float64-exact numeric — range ops and
        #: sorts may use the float column verbatim
        self.numeric_ok = True
        self.none_code = -1

    @classmethod
    def of(cls, rows: Sequence[Mapping[str, Any]], path: str) -> "_Column":
        """The column of ``path`` over ``rows``: what appending each row's
        value builds, with each distinct container *object* keyed once —
        rows share their interned sub-documents, and every value stays
        alive in its row meanwhile, so its ``id`` names it — and the codes
        and floats written as two vectors."""
        col = cls()
        by_id: dict[int, int] = {}

        def code(value: Any) -> int:
            if not isinstance(value, (dict, list)):  # a scalar is its own key
                return col.lookup[value] if value in col.lookup else col._code(value)
            known = by_id.get(id(value))
            if known is None:
                known = by_id[id(value)] = col._code(value)
            return known

        values: Sequence[Any] = rows
        for part in path.split("."):  # get_path, one level at a time for all rows
            values = [v.get(part) if type(v) is FrozenDict else get_path(v, part) for v in values]
        n = len(rows)
        codes = np.fromiter(map(code, values), np.int32, n)
        size = _GROW  # the capacity appending would have reached
        while size < n:
            size *= 2
        col.codes = np.empty(size, dtype=np.int32)
        col.floats = np.empty(size, dtype=np.float64)
        col.codes[:n] = codes
        col.floats[:n] = np.array([_as_float(v) for v in col.values], dtype=np.float64)[codes]
        col.n = n
        return col

    def _code(self, value: Any) -> int:
        """``value``'s code, interned on first sight."""
        key = hashable_key(value)
        code = self.lookup.get(key)
        if code is None:
            code = self.lookup[key] = len(self.values)
            self.values.append(value)
            if value is None:
                self.none_code = code
            elif not _float_exact(value):
                self.numeric_ok = False
        return code

    def append(self, value: Any) -> None:
        code = self._code(value)
        if self.n == len(self.codes):
            self.codes = np.concatenate([self.codes, np.empty_like(self.codes)])
            self.floats = np.concatenate([self.floats, np.empty_like(self.floats)])
        self.codes[self.n] = code
        self.floats[self.n] = _as_float(self.values[code])
        self.n += 1

    # -- masks (all sized self.n) -------------------------------------------
    def percode_mask(
        self, fn: Callable[[Any], Any], within: np.ndarray | None = None
    ) -> np.ndarray:
        """``fn`` evaluated once per distinct value, broadcast to rows.

        Sound because interning groups exactly the ``==``-equal JSON
        values and every predicate evaluated here is a function of the
        ``==``-class of its input.  With ``within`` (a row mask), ``fn``
        runs only on the values occurring under it; rows outside it
        whose value occurs nowhere inside read ``False``.
        """
        codes = self.codes[: self.n]
        table = np.zeros(len(self.values), dtype=bool)
        if within is None:
            live: Any = range(len(self.values))
        else:
            seen = np.zeros(len(self.values), dtype=bool)
            seen[codes[within]] = True
            live = np.nonzero(seen)[0]
        table[live] = [bool(fn(self.values[code])) for code in live]
        return table[codes]

    def eq_mask(self, arg: Any) -> np.ndarray:
        """Rows whose value ``== arg``."""
        if not isinstance(arg, _SCALARS):
            return self.percode_mask(lambda v: v == arg)
        if isinstance(arg, float) and arg != arg:
            return np.zeros(self.n, dtype=bool)  # NaN equals nothing
        return self.codes[: self.n] == self.lookup.get(arg, -1)

    def in_mask(self, args: Sequence[Any]) -> np.ndarray:
        """Rows whose value is ``in args``."""
        if all(isinstance(a, _SCALARS) and a == a for a in args):
            wanted = [self.lookup[a] for a in args if a in self.lookup]
            return np.isin(self.codes[: self.n], wanted)
        return self.percode_mask(lambda v: v in args)

    def range_mask(self, op: str, arg: Any) -> np.ndarray:
        """Rows whose value is not ``None`` and satisfies ``value OP arg``
        (incomparable types never do)."""
        vector_op, value_op = _RANGE[op]
        if (
            self.numeric_ok
            and isinstance(arg, (int, float))
            and not isinstance(arg, bool)
            and _float_exact(arg)
        ):
            # NaN slots (None) compare False, like the per-value form
            return vector_op(self.floats[: self.n], float(arg))

        def check(value: Any) -> bool:
            try:
                return value is not None and value_op(value, arg)
            except TypeError:
                return False

        return self.percode_mask(check)

    def sort_ranks(self) -> np.ndarray:
        """Per-code ranks under :func:`sort_key`; equal keys share a rank
        so a stable argsort breaks ties by row order like ``list.sort``."""
        keys = [sort_key(v) for v in self.values]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        ranks = np.empty(max(len(keys), 1), dtype=np.int64)
        prev = None
        rank = 0
        for i, code in enumerate(order):
            if prev is None or keys[code] != prev:
                rank = i
                prev = keys[code]
            ranks[code] = rank
        return ranks


# ---------------------------------------------------------------------------
# the view
# ---------------------------------------------------------------------------

class ColumnarView:
    """Incremental columnar index over one collection's documents.

    Owned by a :class:`~repro.crowd.database.Collection`; every method
    here runs under that collection's lock (``Collection.find`` /
    ``Collection.columnar_snapshot`` acquire it), so readers always see
    a consistent row/column state.

    Rows are kept in ascending ``_id`` order — the canonical unsorted
    result order.  In-order inserts append; anything else
    (update, delete, out-of-order restore) marks the view dirty and the
    next read rebuilds rows and drops cached columns.
    """

    def __init__(self, docs: Mapping[int, Mapping[str, Any]]) -> None:
        self._docs = docs  # the owning collection's _id -> doc mapping
        self._rows: list[Mapping[str, Any]] = []
        self._columns: dict[str, _Column] = {}
        self._last_id = 0
        self._dirty = True

    # -- maintenance (collection lock held) ---------------------------------
    def mark_dirty(self) -> None:
        self._dirty = True

    def on_insert(self, _id: int, doc: Mapping[str, Any]) -> None:
        if self._dirty:
            return
        if _id <= self._last_id:
            self._dirty = True
            return
        self._rows.append(doc)
        self._last_id = _id
        for path, col in self._columns.items():
            col.append(get_path(doc, path))

    def ensure_clean(self) -> None:
        if not self._dirty:
            return
        ids = sorted(self._docs)
        self._rows = [self._docs[i] for i in ids]
        self._last_id = ids[-1] if ids else 0
        self._columns = {}
        self._dirty = False

    # -- columns ------------------------------------------------------------
    def _column(self, path: str) -> _Column:
        col = self._columns.get(path)
        if col is None:
            col = _Column.of(self._rows, path)
            if len(self._columns) < MAX_COLUMNS:
                self._columns[path] = col
        return col

    # -- filter compilation --------------------------------------------------
    def filter_mask(self, flt: Mapping[str, Any]) -> np.ndarray:
        """Boolean row mask for a Mongo-style filter document.

        Raises :class:`QuerySyntaxError` for a malformed filter; that
        verdict depends on the filter alone, never on the stored rows.
        """
        if not isinstance(flt, Mapping):
            raise QuerySyntaxError("a filter must be a mapping")
        mask = np.ones(len(self._rows), dtype=bool)
        for key, cond in flt.items():
            if not isinstance(key, str):
                raise QuerySyntaxError(f"filter keys must be strings, got {key!r}")
            if key == "$and":
                for sub in self._submasks(key, cond):
                    mask &= sub
            elif key == "$or":
                mask &= np.logical_or.reduce(self._submasks(key, cond))
            elif key == "$not":
                if not isinstance(cond, Mapping):
                    raise QuerySyntaxError("$not takes a filter document")
                mask &= ~self.filter_mask(cond)
            elif key.startswith("$"):
                raise QuerySyntaxError(f"unknown top-level operator {key!r}")
            else:
                col = self._column(key)
                if isinstance(cond, Mapping) and any(
                    isinstance(k, str) and k.startswith("$") for k in cond
                ):
                    for op, arg in cond.items():
                        mask &= self._op_mask(col, op, arg)
                else:
                    mask &= col.eq_mask(cond)
        return mask

    def _submasks(self, op: str, cond: Any) -> list[np.ndarray]:
        if (
            not isinstance(cond, (list, tuple))
            or not cond
            or not all(isinstance(sub, Mapping) for sub in cond)
        ):
            raise QuerySyntaxError(f"{op} takes a non-empty list of filters")
        return [self.filter_mask(sub) for sub in cond]

    def _op_mask(self, col: _Column, op: Any, arg: Any) -> np.ndarray:
        if op == "$eq":
            return col.eq_mask(arg)
        if op == "$ne":
            return ~col.eq_mask(arg)
        if op in _RANGE:
            return col.range_mask(op, arg)
        if op in ("$in", "$nin"):
            if not isinstance(arg, (list, tuple)):
                raise QuerySyntaxError(f"{op} takes a list of values")
            m = col.in_mask(arg)
            return ~m if op == "$nin" else m
        if op == "$exists":
            none = col.eq_mask(None)
            return ~none if arg else none
        if op == "$regex":
            try:
                pattern = re.compile(arg)
            except (re.error, TypeError) as exc:
                raise QuerySyntaxError(f"bad $regex {arg!r}: {exc}") from None
            return col.percode_mask(
                lambda v: isinstance(v, str) and pattern.search(v) is not None
            )
        raise QuerySyntaxError(f"unknown operator {op!r}")

    def holds(self, path: str, value: Any) -> bool:
        """Whether some row's ``path`` equals the scalar ``value`` (what a
        non-empty :meth:`path_eq_mask` means): one hit in the
        column's dictionary, no row mask — every code of a clean view's
        column is held by at least one row.  ``NaN`` equals nothing."""
        return value == value and value in self._column(path).lookup

    # -- extra masks for callers composing their own predicates --------------
    def path_eq_mask(self, path: str, value: Any) -> np.ndarray:
        """Equality mask on one dotted path."""
        return self._column(path).eq_mask(value)

    def path_value_mask(
        self,
        path: str,
        fn: Callable[[Any], Any],
        within: np.ndarray | None = None,
    ) -> np.ndarray:
        """``fn`` over the path's distinct values, broadcast to rows.

        ``fn`` must be a pure function of the value's ``==``-class; its
        exceptions propagate.  ``within`` restricts evaluation to the
        values occurring under that row mask, so a stored value only
        the caller's earlier predicates exclude is never handed to
        ``fn``; AND the result with ``within``.
        """
        return self._column(path).percode_mask(fn, within)

    # -- selection ------------------------------------------------------------
    def select(
        self,
        mask: np.ndarray,
        *,
        sort: str | None = None,
        descending: bool = False,
        limit: int | None = None,
        frozen: bool = False,
    ) -> list[dict[str, Any]]:
        """Materialize the masked rows: ascending ``_id``, or stably
        sorted by :func:`sort_key` of the ``sort`` path, then limited.

        ``frozen=True`` returns the stored frozen documents — zero
        copies; otherwise each row is thawed into a mutable dict.
        """
        idx = np.nonzero(mask)[0]
        if sort is not None and len(idx):
            idx = idx[self._sort_order(self._column(sort), idx, descending)]
        if limit is not None:
            idx = idx[: max(limit, 0)]
        rows = self._rows
        if frozen:
            return [rows[i] for i in idx]
        return [thaw(rows[i]) for i in idx]

    def _sort_order(
        self, col: _Column, idx: np.ndarray, descending: bool
    ) -> np.ndarray:
        codes = col.codes[: col.n][idx]
        if col.numeric_ok:
            isnone = (
                codes == col.none_code
                if col.none_code >= 0
                else np.zeros(len(codes), dtype=bool)
            )
            f = np.where(isnone, 0.0, col.floats[: col.n][idx])
            present = (~isnone).astype(np.int8)  # None sorts first ascending
            if descending:
                return np.lexsort((-f, -present))
            return np.lexsort((f, present))
        keys = col.sort_ranks()[codes]
        if descending:
            return np.argsort(-keys, kind="stable")
        return np.argsort(keys, kind="stable")

    def count(self, flt: Mapping[str, Any]) -> int:
        return int(np.count_nonzero(self.filter_mask(flt)))

    # -- the grouped reduction -------------------------------------------------
    def task_summary(self, mask: np.ndarray) -> list[dict[str, Any]]:
        """One partial row per task among the masked performance records.

        Each row holds everything the browse aggregates of those records
        need, JSON-shaped so a shard can ship it instead of the records:

        * ``task_parameters`` — the task, as its earliest record spells it,
        * ``samples`` / ``failures`` — record counts; a failure is an
          ``output`` that is not a finite number,
        * ``first`` — ``[timestamp, uid]`` of the earliest record,
        * ``best`` — the four fields of the lowest-output record that a
          leaderboard row shows (``None`` when every record failed); a
          tie goes to the earliest ``(timestamp, uid)``,
        * ``owners`` — ``[owner, samples, failures, best output or
          None, first]`` per owner,
        * ``witness`` — ``[samples, digest]`` with ``digest`` the sum
          mod 2**64 of a fixed integer mix of each record's ``(uid,
          timestamp)``: two replicas of a task that hold the same
          versions of the same records produce the same witness whatever
          their row order.  ``None`` when a record is unstamped
          (``uid`` 0), since those are not identified by their stamp.

        Missing or non-numeric ``timestamp`` / ``uid`` read as 0, the
        convention of the replication routes.
        """
        perf.incr("store_grouped_reductions")
        rows = np.nonzero(mask)[0]
        if not len(rows):
            return []

        def floats(path: str, missing: float) -> np.ndarray:
            column = self._column(path).floats[rows]
            column[~np.isfinite(column)] = missing
            return column

        value = floats("output", np.inf)  # inf: not a result
        ts = floats("timestamp", 0.0)
        uid = floats("uid", 0.0)

        def classes(path: str, name: Callable[[Any], Any]) -> tuple[np.ndarray, list]:
            """Per masked row the id of ``name(value)``, and the names."""
            column = self._column(path)
            codes = column.codes[rows]
            ids: dict[Any, int] = {}
            id_of_code = np.zeros(len(column.values), dtype=np.int64)
            for code in np.unique(codes):
                id_of_code[code] = ids.setdefault(name(column.values[code]), len(ids))
            return id_of_code[codes], list(ids)

        task, _ = classes("task_parameters", lambda v: task_key(v or {}))
        tasks = _reduce_groups(task, ts, uid, value)
        stamp = _mix64(uid.view(np.uint64) ^ _mix64(ts.view(np.uint64)))
        digest = np.add.reduceat(stamp[tasks.order], tasks.starts)
        unstamped = np.logical_or.reduceat((uid == 0.0)[tasks.order], tasks.starts)

        def within(path: str, name: Callable[[Any], Any]) -> list[list[list]]:
            """Per task (in ``tasks`` order) its ``[name, samples,
            failures, best, first]`` entries under ``path``."""
            sub, names = classes(path, name)
            groups = _reduce_groups(task * len(names) + sub, ts, uid, value)
            out: list[list[list]] = [[] for _ in tasks.ids]
            for gid, *entry in groups.entries():  # task ids are 0..n-1
                out[gid // len(names)].append([names[gid % len(names)], *entry])
            return out

        owners = within("owner", lambda v: "" if v is None else v)
        summary = []
        for i, (_, samples, failures, best, first) in enumerate(tasks.entries()):
            doc = self._rows[rows[tasks.best_row[i]]]
            summary.append(
                {
                    "task_parameters": self._rows[rows[tasks.first_row[i]]].get(
                        "task_parameters"
                    ),
                    "samples": samples,
                    "failures": failures,
                    "first": first,
                    "best": None
                    if best is None
                    else {
                        "task_parameters": doc.get("task_parameters"),
                        "tuning_parameters": doc.get("tuning_parameters"),
                        "output": best,
                        "owner": doc.get("owner", ""),
                    },
                    "owners": owners[i],
                    "witness": None if unstamped[i] else [samples, int(digest[i])],
                }
            )
        return summary


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a ``uint64`` array (wraps mod 2**64):
    a fixed mixing, the same in every process, unlike ``hash()``."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class _Groups(NamedTuple):
    """Rows reduced per distinct group id, ids ascending."""

    ids: np.ndarray
    samples: np.ndarray
    failures: np.ndarray
    #: lowest value per group (``inf``: none) and the row holding it
    best: np.ndarray
    best_row: np.ndarray
    #: the row with the earliest ``(timestamp, uid)``, and that stamp
    first_row: np.ndarray
    first: list[list[float]]
    #: the sort behind it: rows by ``(group, timestamp, uid)``, group starts
    order: np.ndarray
    starts: np.ndarray

    def entries(self) -> Iterator[tuple]:
        """``(id, samples, failures, best or None, first)`` per group, as
        plain Python values."""
        return zip(
            self.ids.tolist(),
            self.samples.tolist(),
            self.failures.tolist(),
            [b if b != np.inf else None for b in self.best.tolist()],
            self.first,
        )


def _reduce_groups(
    group: np.ndarray, ts: np.ndarray, uid: np.ndarray, value: np.ndarray
) -> _Groups:
    """One sort, then ``reduceat``: ``value`` is ``inf`` where a row holds
    no result, and the best row of a group is the first one, in
    ``(timestamp, uid)`` order, holding the group's minimum."""
    order = np.lexsort((uid, ts, group))
    g, v = group[order], value[order]
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    samples = np.diff(np.r_[starts, len(g)])
    best = np.minimum.reduceat(v, starts)
    at_best = np.where(v == np.repeat(best, samples), np.arange(len(g)), len(g))
    first_row = order[starts]
    return _Groups(
        ids=g[starts],
        samples=samples,
        failures=np.add.reduceat(np.isinf(v), starts, dtype=np.int64),
        best=best,
        best_row=order[np.minimum.reduceat(at_best, starts)],
        first_row=first_row,
        first=[list(stamp) for stamp in zip(ts[first_row].tolist(), uid[first_row].tolist())],
        order=order,
        starts=starts,
    )
