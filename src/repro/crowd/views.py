"""Browse views over the shared repository (paper Sec. III).

The paper's database "provides useful web-based tools that help users
browse collected data".  The views are pure functions from repository
state to the rows the ``leaderboard`` and ``contributors`` routes answer:

* :func:`leaderboard` — best configurations per task of a problem,
* :func:`contributor_stats` — who uploaded what (the crowd's pulse).

Every view is a projection (``summary_*``) of one task summary —
:meth:`CrowdRepository.task_summary`, a grouped reduction over the
store's columns under the requesting user's visibility mask — so they
show exactly the records that user may see, cost one pass over the
columns, and build documents only for the rows they return.  The sharded
router projects the same summary, merged from its shards' partial rows.
Row order is pinned: most samples first, then the group whose earliest
record ``(timestamp, uid)`` is oldest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .columnar import thaw
from .repository import CrowdRepository

__all__ = [
    "LeaderboardRow",
    "leaderboard",
    "summary_leaderboard",
    "contributor_stats",
    "summary_contributors",
]


@dataclass
class LeaderboardRow:
    """Best known result for one task of a problem."""

    task_parameters: dict[str, Any]
    best_output: float
    best_configuration: dict[str, Any]
    best_owner: str
    n_samples: int
    n_failures: int
    contributors: list[str] = field(default_factory=list)

    def to_response(self) -> dict[str, Any]:
        """The row as the ``leaderboard`` route answers it."""
        return {
            "task_parameters": self.task_parameters,
            "best_output": self.best_output,
            "best_configuration": self.best_configuration,
            "best_owner": self.best_owner,
            "n_samples": self.n_samples,
            "n_failures": self.n_failures,
        }


def leaderboard(
    repo: CrowdRepository, api_key: str, problem: str
) -> list[LeaderboardRow]:
    """Per-task best results, most-sampled tasks first."""
    return summary_leaderboard(repo.task_summary(api_key, problem))


def summary_leaderboard(summary: list[Mapping[str, Any]]) -> list[LeaderboardRow]:
    """The leaderboard of a task summary: one row per task with a
    result, by ``(-n_samples, earliest record)``."""
    ranked = sorted(
        (task for task in summary if task["best"] is not None),
        key=lambda task: (-task["samples"], task["first"]),
    )
    return [
        LeaderboardRow(
            task_parameters=thaw(dict(task["best"]["task_parameters"] or {})),
            best_output=task["best"]["output"],
            best_configuration=thaw(dict(task["best"]["tuning_parameters"] or {})),
            best_owner=task["best"]["owner"],
            n_samples=task["samples"],
            n_failures=task["failures"],
            contributors=sorted({entry[0] for entry in task["owners"]}),
        )
        for task in ranked
    ]


def _totals(summary: list[Mapping[str, Any]]) -> list[tuple]:
    """``(owner, samples, failures, best)`` summed over the tasks'
    ``owners`` entries, by ``(-samples, earliest record)``."""
    totals: dict[str, list] = {}
    for task in summary:
        for name, samples, failures, best, first in task["owners"]:
            held = totals.setdefault(name, [0, 0, None, first])
            held[0] += samples
            held[1] += failures
            if best is not None and (held[2] is None or best < held[2]):
                held[2] = best
            held[3] = min(held[3], first)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1][0], kv[1][3]))
    return [(name, *held[:3]) for name, held in ranked]


def contributor_stats(
    repo: CrowdRepository, api_key: str, problem: str
) -> list[dict[str, Any]]:
    """Upload counts and best results per contributing user."""
    return summary_contributors(repo.task_summary(api_key, problem))


def summary_contributors(summary: list[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Contributor stats of a task summary, busiest user first."""
    return [
        {"user": user, "samples": samples, "failures": failures, "best": best}
        for user, samples, failures, best in _totals(summary)
    ]
