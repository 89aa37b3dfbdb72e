"""Surrogate-based sensitivity analysis and search-space reduction (S19).

This is GPTuneCrowd's ``QuerySensitivityAnalysis`` workflow (paper
Sec. IV-B) as a reusable component:

1. fit a surrogate model to collected performance samples,
2. draw a Saltelli design over the tuning space's unit cube,
3. evaluate the *surrogate* on the design (cheap — no application runs),
4. compute Sobol' S1/ST indices with confidence intervals,
5. optionally *reduce* the tuning space: keep the most sensitive
   parameters and pin the rest to defaults (paper Sec. VI-D/E, Figures
   6-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.gp import Surrogate
from ..core.history import TaskData
from ..core.space import FixedSpace, Space
from ..core.sparse import make_surrogate, resolve_surrogate_kind
from .sobol import SobolIndices, sobol_analyze_function

__all__ = ["SensitivityAnalyzer", "SensitivityReport", "reduce_space"]


@dataclass
class SensitivityReport:
    """Analysis output: indices + the surrogate that produced them."""

    indices: SobolIndices
    space: Space
    surrogate: Surrogate
    n_samples: int

    def table(self) -> str:
        """A printable table in the layout of the paper's Table IV/V."""
        rows = self.indices.as_rows()
        header = f"{'Parameter':<20} {'S1':>7} {'S1.conf':>8} {'ST':>7} {'ST.conf':>8}"
        lines = [header, "-" * len(header)]
        for r in rows:
            lines.append(
                f"{r['parameter']:<20} {r['S1']:>7.2f} {r['S1_conf']:>8.2f} "
                f"{r['ST']:>7.2f} {r['ST_conf']:>8.2f}"
            )
        return "\n".join(lines)

    def sensitive_parameters(
        self, s1_threshold: float = 0.05, st_threshold: float = 0.2
    ) -> list[str]:
        return self.indices.select(s1_threshold, st_threshold)

    def top_k(self, k: int, by: str = "ST") -> list[str]:
        """The ``k`` most sensitive parameter names."""
        return self.indices.ranking(by)[:k]


class SensitivityAnalyzer:
    """Fits a surrogate on performance data and runs Sobol' analysis.

    Parameters
    ----------
    space:
        The tuning-parameter space the data was collected over.
    kernel:
        Surrogate kernel name (default RBF with ARD — the lengthscales
        themselves are an informal sensitivity signal; the Sobol indices
        are the principled one).
    """

    def __init__(
        self,
        space: Space,
        *,
        kernel: str = "rbf",
        gp_max_fun: int = 120,
        gp_restarts: int = 2,
    ) -> None:
        self.space = space
        self.kernel = kernel
        self.gp_max_fun = gp_max_fun
        self.gp_restarts = gp_restarts

    def fit_surrogate(self, data: TaskData, seed: int | None = None) -> Surrogate:
        """The surrogate of ``data``, dense or sparse by the ``"auto"`` policy."""
        gp = make_surrogate(
            resolve_surrogate_kind("auto", data.n),
            self.kernel,
            dim=self.space.dim,
            seed=seed,
            max_fun=self.gp_max_fun,
            n_restarts=self.gp_restarts,
        )
        return gp.fit(data.X, data.y)

    def analyze(
        self,
        data: TaskData,
        *,
        n_base: int = 1024,
        n_bootstrap: int = 100,
        seed: int | None = None,
    ) -> SensitivityReport:
        """Full pipeline: surrogate fit + Sobol analysis of its mean."""
        if data.dim != self.space.dim:
            raise ValueError(
                f"data dimension {data.dim} != space dimension {self.space.dim}"
            )
        gp = self.fit_surrogate(data, seed=seed)
        indices = sobol_analyze_function(
            gp.predict_mean,
            self.space.dim,
            n_base=n_base,
            names=self.space.names,
            n_bootstrap=n_bootstrap,
            seed=seed,
        )
        return SensitivityReport(
            indices=indices, space=self.space, surrogate=gp, n_samples=data.n
        )


def reduce_space(
    space: Space,
    keep: Sequence[str],
    defaults: Mapping[str, Any],
    *,
    rng: np.random.Generator | None = None,
) -> FixedSpace:
    """Build the reduced tuning space of the paper's Figures 6-7.

    ``keep`` lists the sensitive parameters to continue tuning.  Every
    other parameter is pinned: to its entry in ``defaults`` when known
    ("we use the default parameter values for LOOKAHEAD and NREL"), or to
    a random legal value when not ("random values for Px, Py, and Nproc
    (we do not know the default values)", Fig. 7 caption).
    """
    keep_set = set(keep)
    unknown = keep_set - set(space.names)
    if unknown:
        raise ValueError(f"cannot keep unknown parameters {sorted(unknown)}")
    pins: dict[str, Any] = {}
    for p in space.parameters:
        if p.name in keep_set:
            continue
        if p.name in defaults:
            pins[p.name] = defaults[p.name]
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            pins[p.name] = p.sample(rng)
    return space.fix(pins)
