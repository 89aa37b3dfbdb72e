"""Compare two suite result files: ``python3 benchmarks/e2e/compare.py A.json B.json``.

One row per (workload, end-to-end metric), judging B against A with
the bound the benchmark fixed for the metric:

``better``
    every run of B reads better than every run of A, or B's median is
    better by more than the spread between A's own runs;
``within bound``
    B's median is no worse than A's by more than the bound;
``worse``
    B's median is worse than A's by more than the bound;
``unresolved``
    the run-to-run spread is wider than the bound, so neither of the two
    statements above can be made.

The spread is the wider of the two sides' min..max ranges as a share of
A's median (three repeats have no quartiles).  ``failed_frac`` has an
absolute bound of 0.  Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, Metric, median  # noqa: E402

__all__ = ["compare", "verdict"]


def verdict(metric: Metric, a: Sequence[float], b: Sequence[float]) -> str:
    """Judge B's runs of one metric against A's."""
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.bound == 0.0:  # absolute: any failure at all is worse
        return "worse" if sign * (median(b) - median(a)) > 0 else "within bound"
    base = abs(median(a))
    if base == 0.0:
        return "unresolved"
    worsening = sign * (median(b) - median(a)) / base
    spread = max(max(a) - min(a), max(b) - min(b)) / base
    if (max(b) < min(a)) if metric.better == "lower" else (min(b) > max(a)):
        return "better"
    if spread > metric.bound:
        return "unresolved"
    if worsening > metric.bound:
        return "worse"
    if -worsening > (max(a) - min(a)) / base:
        return "better"
    return "within bound"


def compare(result_a: dict, result_b: dict) -> list[dict]:
    rows = []
    for name, side_a in result_a["workloads"].items():
        side_b = result_b["workloads"].get(name)
        if side_b is None:
            continue
        for metric in END_TO_END:
            a = [run[metric.name] for run in side_a["runs"] if metric.name in run]
            b = [run[metric.name] for run in side_b["runs"] if metric.name in run]
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "a": median(a),
                    "b": median(b),
                    "bound": metric.bound,
                    "verdict": verdict(metric, a, b),
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    result_a, result_b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(result_a, result_b)
    print(f"A: {argv[0]}  commit {result_a['provenance'].get('commit')}")
    print(f"B: {argv[1]}  commit {result_b['provenance'].get('commit')}")
    print(f"{'workload':<14} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for row in rows:
        change = (row["b"] - row["a"]) / abs(row["a"]) if row["a"] else 0.0
        print(f"{row['workload']:<14} {row['metric']:<22} {row['a']:>12.5g} {row['b']:>12.5g} "
              f"{change:>+8.1%} {row['bound']:>6.2f}  {row['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "within bound", "worse", "unresolved")}
    print("  ".join(f"{v}: {n}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
