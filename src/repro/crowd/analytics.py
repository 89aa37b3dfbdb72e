"""Performance-variability analytics over crowd data.

The paper's conclusion lists "detecting/diagnosing performance
variability of performance samples (caused by system noise)" as future
work; this module implements it over the shared repository's records:

* :func:`group_repeats` — find configurations measured more than once
  (the crowd naturally produces repeats: different users, re-runs),
* :func:`variability_report` — per-configuration dispersion statistics
  (relative std, spread) plus a pooled noise estimate for the problem,
* :func:`detect_outliers` — samples inconsistent with their repeat group
  under a robust modified-z-score test (these are the "system noise"
  events — e.g. a run that shared its node with a noisy neighbor),
* :class:`VariabilityReport.suggest_noise_model` — the log-normal sigma
  a tuner should assume for this problem, closing the loop back into the
  GP's noise hyperparameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from ..core.problem import task_key
from .records import PerformanceRecord

__all__ = ["variability_report", "detect_outliers"]

#: consistency constant making MAD comparable to a standard deviation
_MAD_TO_SIGMA = 1.4826


def _config_key(record: PerformanceRecord) -> tuple:
    return (
        task_key(record.task_parameters),
        task_key(record.tuning_parameters),
    )


@dataclass
class RepeatGroup:
    """All successful measurements of one (task, configuration) pair."""

    task_parameters: dict[str, Any]
    tuning_parameters: dict[str, Any]
    outputs: list[float] = field(default_factory=list)
    uids: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.outputs)

    @property
    def mean(self) -> float:
        return float(np.mean(self.outputs))

    @property
    def median(self) -> float:
        return float(np.median(self.outputs))

    @property
    def std(self) -> float:
        return float(np.std(self.outputs, ddof=1)) if self.n > 1 else 0.0

    @property
    def relative_std(self) -> float:
        """Coefficient of variation (the usual HPC-noise metric)."""
        m = self.mean
        return self.std / m if m > 0 else 0.0

    @property
    def spread(self) -> float:
        """max/min ratio; > ~1.2 usually indicates a system-noise event."""
        lo = min(self.outputs)
        return max(self.outputs) / lo if lo > 0 else math.inf

    def modified_z_scores(self) -> np.ndarray:
        """Robust per-sample z-scores (median/MAD based)."""
        y = np.asarray(self.outputs, dtype=float)
        med = np.median(y)
        mad = np.median(np.abs(y - med))
        if mad <= 0:
            return np.zeros(self.n)
        return (y - med) / (_MAD_TO_SIGMA * mad)


def group_repeats(
    records: Iterable[PerformanceRecord], *, min_repeats: int = 2
) -> list[RepeatGroup]:
    """Group successful records by (task, configuration)."""
    groups: dict[tuple, RepeatGroup] = {}
    for rec in records:
        if rec.failed:
            continue
        key = _config_key(rec)
        if key not in groups:
            groups[key] = RepeatGroup(
                dict(rec.task_parameters), dict(rec.tuning_parameters)
            )
        groups[key].outputs.append(float(rec.output))
        groups[key].uids.append(rec.uid)
    return sorted(
        (g for g in groups.values() if g.n >= min_repeats),
        key=lambda g: g.n,
        reverse=True,
    )


@dataclass
class VariabilityReport:
    """Problem-level variability diagnosis."""

    problem_name: str
    n_records: int
    n_repeat_groups: int
    groups: list[RepeatGroup]
    pooled_relative_std: float
    noisy_groups: list[RepeatGroup]

    def suggest_noise_model(self) -> float:
        """Log-normal sigma for tuners: pooled CV of repeated configs.

        Runtimes with multiplicative noise satisfy
        ``std(log y) ~= CV`` for small CV, so the pooled relative std is
        directly usable as the simulator/GP noise scale.
        """
        return self.pooled_relative_std

    def summary(self) -> dict[str, Any]:
        return {
            "problem": self.problem_name,
            "records": self.n_records,
            "repeat_groups": self.n_repeat_groups,
            "pooled_relative_std": round(self.pooled_relative_std, 5),
            "noisy_groups": len(self.noisy_groups),
        }

    def table(self, max_rows: int = 10) -> str:
        header = f"{'config':<48} {'n':>3} {'median':>10} {'rel.std':>8} {'spread':>7}"
        lines = [header, "-" * len(header)]
        for g in self.groups[:max_rows]:
            cfg = str(g.tuning_parameters)
            if len(cfg) > 46:
                cfg = cfg[:43] + "..."
            lines.append(
                f"{cfg:<48} {g.n:>3} {g.median:>10.4g} "
                f"{g.relative_std:>8.3f} {g.spread:>7.3f}"
            )
        return "\n".join(lines)


def variability_report(
    records: Iterable[PerformanceRecord],
    *,
    problem_name: str = "",
    noisy_threshold: float = 0.15,
) -> VariabilityReport:
    """Diagnose run-to-run variability across a problem's crowd records.

    ``noisy_threshold`` flags repeat groups whose relative std exceeds it
    (15% is far above healthy dedicated-node jitter).
    """
    records = list(records)
    groups = group_repeats(records)
    if groups:
        # pooled CV: weight each group's variance contribution by df
        num = sum((g.n - 1) * g.relative_std**2 for g in groups)
        den = sum(g.n - 1 for g in groups)
        pooled = math.sqrt(num / den) if den > 0 else 0.0
    else:
        pooled = 0.0
    noisy = [g for g in groups if g.relative_std > noisy_threshold]
    return VariabilityReport(
        problem_name=problem_name,
        n_records=len(records),
        n_repeat_groups=len(groups),
        groups=groups,
        pooled_relative_std=pooled,
        noisy_groups=noisy,
    )


def detect_outliers(
    records: Iterable[PerformanceRecord], *, z_threshold: float = 3.5
) -> list[tuple[PerformanceRecord, float]]:
    """Samples inconsistent with their repeat group.

    Returns ``(record, modified_z)`` pairs with ``|z| > z_threshold``
    (3.5 is the standard Iglewicz-Hoaglin cutoff).  Only groups with at
    least 3 measurements can convict an outlier.
    """
    records = list(records)
    by_uid: Mapping[int, PerformanceRecord] = {r.uid: r for r in records}
    out: list[tuple[PerformanceRecord, float]] = []
    for group in group_repeats(records, min_repeats=3):
        z = group.modified_z_scores()
        for uid, zi in zip(group.uids, z):
            if abs(zi) > z_threshold:
                out.append((by_uid[uid], float(zi)))
    out.sort(key=lambda pair: -abs(pair[1]))
    return out
