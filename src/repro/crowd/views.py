"""Browse views over the shared repository (paper Sec. III).

The paper's database "provides useful web-based tools that help users
browse collected data".  With no web server in this environment, the
views are pure functions from repository state to text and HTML
renderings — the exact content a web frontend would serve:

* :func:`leaderboard` — best configurations per task of a problem,
* :func:`contributor_stats` — who uploaded what (the crowd's pulse),
* :func:`machine_breakdown` — samples per machine/partition,
* :func:`render_text` / :func:`render_html` — terminal and web output.

All views run through an authenticated query, so they show exactly the
records the requesting user may see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape
from typing import Any

from ..core.problem import task_key
from .columnar import thaw
from .repository import CrowdRepository

__all__ = [
    "LeaderboardRow",
    "leaderboard",
    "leaderboard_from_docs",
    "contributor_stats",
    "contributor_stats_from_docs",
    "machine_breakdown",
    "machine_breakdown_from_docs",
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


def _query_docs(repo: CrowdRepository, api_key: str, problem: str):
    """All visible raw documents for one problem — the store's frozen
    zero-copy views, read straight off the columnar plane.  Views
    aggregate documents directly; no per-row record construction."""
    return repo.query_docs(
        api_key, problem_name=problem, require_success=False, frozen=True
    )


def leaderboard(
    repo: CrowdRepository, api_key: str, problem: str
) -> list[LeaderboardRow]:
    """Per-task best results, most-sampled tasks first."""
    return leaderboard_from_docs(_query_docs(repo, api_key, problem))


def leaderboard_from_docs(docs: list[Any]) -> list[LeaderboardRow]:
    """The leaderboard computed from raw (possibly frozen) documents.

    This is the aggregation core, also called by the sharded router's
    cross-shard merge — which must aggregate over the *deduplicated*
    record set because replicated records appear on several shards.
    """
    groups: dict[tuple, list[Any]] = {}
    for d in docs:
        groups.setdefault(task_key(d.get("task_parameters") or {}), []).append(d)
    rows = []
    for group in groups.values():
        ok = [d for d in group if d.get("output") is not None]
        if not ok:
            continue
        best = min(ok, key=lambda d: d["output"])
        rows.append(
            LeaderboardRow(
                task_parameters=thaw(dict(best.get("task_parameters") or {})),
                best_output=float(best["output"]),
                best_configuration=thaw(dict(best.get("tuning_parameters") or {})),
                best_owner=best.get("owner", ""),
                n_samples=len(group),
                n_failures=sum(1 for d in group if d.get("output") is None),
                contributors=sorted({d.get("owner", "") for d in group}),
            )
        )
    rows.sort(key=lambda r: r.n_samples, reverse=True)
    return rows


def contributor_stats(
    repo: CrowdRepository, api_key: str, problem: str
) -> list[dict[str, Any]]:
    """Upload counts and best results per contributing user."""
    return contributor_stats_from_docs(_query_docs(repo, api_key, problem))


def contributor_stats_from_docs(docs: list[Any]) -> list[dict[str, Any]]:
    """Contributor stats from raw (possibly frozen) documents."""
    per_user: dict[str, dict[str, Any]] = {}
    for d in docs:
        owner = d.get("owner", "")
        entry = per_user.setdefault(
            owner, {"user": owner, "samples": 0, "failures": 0, "best": None}
        )
        entry["samples"] += 1
        output = d.get("output")
        if output is None:
            entry["failures"] += 1
        elif entry["best"] is None or output < entry["best"]:
            entry["best"] = float(output)
    return sorted(per_user.values(), key=lambda e: e["samples"], reverse=True)


def machine_breakdown(
    repo: CrowdRepository, api_key: str, problem: str
) -> dict[str, int]:
    """Samples per ``machine/partition`` tag."""
    return machine_breakdown_from_docs(_query_docs(repo, api_key, problem))


def machine_breakdown_from_docs(docs: list[Any]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for d in docs:
        mc = d.get("machine_configuration") or {}
        name = mc.get("machine_name", "unknown")
        partition = mc.get("partition", "")
        tag = f"{name}/{partition}" if partition else str(name)
        counts[tag] = counts.get(tag, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: -kv[1]))


def render_text(
    repo: CrowdRepository, api_key: str, problem: str, *, max_rows: int = 10
) -> str:
    """Terminal rendering of the problem's browse page."""
    rows = leaderboard(repo, api_key, problem)
    stats = contributor_stats(repo, api_key, problem)
    machines = machine_breakdown(repo, api_key, problem)
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
    rows = leaderboard(repo, api_key, problem)
    stats = contributor_stats(repo, api_key, problem)
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
