"""Browse views over the shared repository (paper Sec. III).

The paper's database "provides useful web-based tools that help users
browse collected data".  With no web server in this environment, the
views are pure functions from repository state to text and HTML
renderings — the exact content a web frontend would serve:

* :func:`leaderboard` — best configurations per task of a problem,
* :func:`contributor_stats` — who uploaded what (the crowd's pulse),
* :func:`machine_breakdown` — samples per machine/partition,
* :func:`render_text` / :func:`render_html` — terminal and web output.

Every view is a projection (``summary_*``) of one task summary —
:meth:`CrowdRepository.task_summary`, a grouped reduction over the
store's columns under the requesting user's visibility mask — so they
show exactly the records that user may see, cost one pass over the
columns, and build documents only for the rows they print.  The sharded
router projects the same summary, merged from its shards' partial rows.
Row order is pinned: most samples first, then the group whose earliest
record ``(timestamp, uid)`` is oldest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape
from typing import Any, Mapping

from .columnar import thaw
from .repository import CrowdRepository

__all__ = [
    "LeaderboardRow",
    "leaderboard",
    "summary_leaderboard",
    "contributor_stats",
    "summary_contributors",
    "machine_breakdown",
    "summary_machines",
    "render_text",
    "render_html",
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


def _totals(summary: list[Mapping[str, Any]], field: str) -> list[tuple]:
    """``(name, samples, failures, best)`` summed over the tasks' ``field``
    entries, by ``(-samples, earliest record)``."""
    totals: dict[str, list] = {}
    for task in summary:
        for name, samples, failures, best, first in task[field]:
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
        for user, samples, failures, best in _totals(summary, "owners")
    ]


def machine_breakdown(
    repo: CrowdRepository, api_key: str, problem: str
) -> dict[str, int]:
    """Samples per ``machine/partition`` tag."""
    return summary_machines(repo.task_summary(api_key, problem))


def summary_machines(summary: list[Mapping[str, Any]]) -> dict[str, int]:
    """Samples per machine tag of a task summary, busiest first."""
    return {tag: samples for tag, samples, _, _ in _totals(summary, "machines")}


def render_text(
    repo: CrowdRepository, api_key: str, problem: str, *, max_rows: int = 10
) -> str:
    """Terminal rendering of the problem's browse page."""
    summary = repo.task_summary(api_key, problem)
    rows = summary_leaderboard(summary)
    stats = summary_contributors(summary)
    machines = summary_machines(summary)
    lines = [f"=== {problem} ==="]
    lines.append(f"tasks: {len(rows)}   contributors: {len(stats)}")
    if machines:
        lines.append(
            "machines: " + ", ".join(f"{k} ({v})" for k, v in machines.items())
        )
    lines.append("")
    header = f"{'task':<34} {'best':>10} {'samples':>8} {'fails':>6}  by"
    lines += [header, "-" * len(header)]
    for row in rows[:max_rows]:
        task = str(row.task_parameters)
        if len(task) > 32:
            task = task[:29] + "..."
        lines.append(
            f"{task:<34} {row.best_output:>10.4g} {row.n_samples:>8} "
            f"{row.n_failures:>6}  {row.best_owner}"
        )
    return "\n".join(lines)


def render_html(
    repo: CrowdRepository, api_key: str, problem: str, *, max_rows: int = 50
) -> str:
    """A self-contained HTML browse page (what the web tools would serve).

    All user-provided strings are escaped — the crowd is untrusted input.
    """
    summary = repo.task_summary(api_key, problem)
    rows = summary_leaderboard(summary)
    stats = summary_contributors(summary)
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{escape(problem)} — GPTuneCrowd</title></head><body>",
        f"<h1>{escape(problem)}</h1>",
        f"<p>{len(rows)} task(s), {len(stats)} contributor(s)</p>",
        "<h2>Leaderboard</h2>",
        "<table border='1'><tr><th>task</th><th>best output</th>"
        "<th>best configuration</th><th>samples</th><th>by</th></tr>",
    ]
    for row in rows[:max_rows]:
        parts.append(
            "<tr>"
            f"<td>{escape(str(row.task_parameters))}</td>"
            f"<td>{row.best_output:.6g}</td>"
            f"<td>{escape(str(row.best_configuration))}</td>"
            f"<td>{row.n_samples}</td>"
            f"<td>{escape(row.best_owner)}</td>"
            "</tr>"
        )
    parts.append("</table><h2>Contributors</h2><ul>")
    for entry in stats:
        best = f"{entry['best']:.6g}" if entry["best"] is not None else "—"
        parts.append(
            f"<li>{escape(entry['user'])}: {entry['samples']} samples "
            f"({entry['failures']} failed), best {best}</li>"
        )
    parts.append("</ul></body></html>")
    return "".join(parts)
