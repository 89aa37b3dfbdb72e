"""Reference row interpreter for the store's filter language.

The store once evaluated filters one dict at a time; the columnar
compiler (:mod:`repro.crowd.columnar`) is now its only engine.  This is
that interpreter kept as a test oracle.  Well-formed filters only.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from typing import Any

from repro.crowd.columnar import get_path, sort_key

COMPARATORS = {
    "$eq": lambda v, arg: v == arg,
    "$ne": lambda v, arg: v != arg,
    "$gt": lambda v, arg: v is not None and v > arg,
    "$gte": lambda v, arg: v is not None and v >= arg,
    "$lt": lambda v, arg: v is not None and v < arg,
    "$lte": lambda v, arg: v is not None and v <= arg,
    "$in": lambda v, arg: v in arg,
    "$nin": lambda v, arg: v not in arg,
    "$exists": lambda v, arg: (v is not None) == bool(arg),
    "$regex": lambda v, arg: isinstance(v, str) and re.search(arg, v) is not None,
}


def matches(doc: Mapping[str, Any], flt: Mapping[str, Any]) -> bool:
    """Evaluate a Mongo-style filter document against ``doc``."""
    for key, cond in flt.items():
        if key == "$and":
            if not all(matches(doc, sub) for sub in cond):
                return False
        elif key == "$or":
            if not any(matches(doc, sub) for sub in cond):
                return False
        elif key == "$not":
            if matches(doc, cond):
                return False
        else:
            value = get_path(doc, key)
            if isinstance(cond, Mapping) and any(k.startswith("$") for k in cond):
                for op, arg in cond.items():
                    try:
                        ok = COMPARATORS[op](value, arg)
                    except TypeError:  # incomparable types never match
                        ok = False
                    if not ok:
                        return False
            elif value != cond:
                return False
    return True


def find(
    docs: Iterable[Mapping[str, Any]],
    flt: Mapping[str, Any] | None = None,
    *,
    sort: str | None = None,
    descending: bool = False,
    limit: int | None = None,
) -> list[Mapping[str, Any]]:
    """Matching documents of ``docs`` (given in ascending ``_id`` order),
    stably sorted by :func:`sort_key` of the ``sort`` path, then limited."""
    out = [d for d in docs if matches(d, flt or {})]
    if sort is not None:
        out.sort(key=lambda d: sort_key(get_path(d, sort)), reverse=descending)
    return out if limit is None else out[: max(limit, 0)]
