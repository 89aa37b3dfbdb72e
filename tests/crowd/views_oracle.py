"""Reference browse aggregates, one Python loop over documents.

The views once aggregated record documents like this; they are now
projections of the store's grouped reduction
(:meth:`repro.crowd.columnar.ColumnarView.task_summary`), and the sharded
router merges per-shard partial rows instead of documents.  These are
the document loops kept as a test oracle, with the rules the reduction
pins written out: a result is a finite number, ties go to the earliest
``(timestamp, uid)``, rows are ordered by ``(-samples, earliest
record)``.  ``docs`` may come in any order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import Any

from repro.core.problem import task_key
from repro.crowd.columnar import thaw
from repro.crowd.views import LeaderboardRow


def result(doc: Mapping[str, Any]) -> float | None:
    """The record's output as a float; ``None`` for a failure (``None``,
    a non-number, ``NaN`` / ``inf``, an int no float holds)."""
    output = doc.get("output")
    if not isinstance(output, (int, float)):
        return None
    try:
        value = float(output)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def stamp(doc: Mapping[str, Any]) -> list[float]:
    return [float(doc.get("timestamp") or 0.0), float(doc.get("uid") or 0.0)]


def leaderboard_from_docs(docs: Iterable[Mapping[str, Any]]) -> list[LeaderboardRow]:
    groups: dict[tuple, list[Any]] = {}
    for d in sorted(docs, key=stamp):
        groups.setdefault(task_key(d.get("task_parameters") or {}), []).append(d)
    rows = []
    for group in groups.values():
        ok = [d for d in group if result(d) is not None]
        if not ok:
            continue
        best = min(ok, key=result)  # the first minimum, in stamp order
        rows.append(
            LeaderboardRow(
                task_parameters=thaw(dict(best.get("task_parameters") or {})),
                best_output=result(best),
                best_configuration=thaw(dict(best.get("tuning_parameters") or {})),
                best_owner=best.get("owner", ""),
                n_samples=len(group),
                n_failures=len(group) - len(ok),
                contributors=sorted({d.get("owner", "") for d in group}),
            )
        )
    # groups are in earliest-record order and the sort is stable
    rows.sort(key=lambda r: -r.n_samples)
    return rows


def contributor_stats_from_docs(docs: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    per_owner: dict[str, dict[str, Any]] = {}
    for d in sorted(docs, key=stamp):
        owner = d.get("owner", "")
        entry = per_owner.setdefault(
            owner, {"user": owner, "samples": 0, "failures": 0, "best": None}
        )
        entry["samples"] += 1
        value = result(d)
        if value is None:
            entry["failures"] += 1
        elif entry["best"] is None or value < entry["best"]:
            entry["best"] = value
    return sorted(per_owner.values(), key=lambda e: -e["samples"])
