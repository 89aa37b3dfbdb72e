"""Variance-based Sobol' sensitivity indices (system S18; SALib substitute).

Implements the estimators GPTuneCrowd's ``QuerySensitivityAnalysis``
reports (paper Sec. IV-B, Tables IV and V):

* first-order index ``S1_i`` — the fraction of output variance explained
  by varying parameter ``X_i`` alone (Saltelli 2010 estimator),
* total-effect index ``ST_i`` — ``X_i``'s total contribution including
  all interactions (Jansen 1999 estimator),

plus bootstrap confidence intervals (the ``S1_conf`` / ``ST_conf``
columns of Table V), computed by resampling base-sample rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .saltelli import SaltelliDesign, saltelli_sample

__all__ = ["SobolIndices", "sobol_indices", "sobol_analyze_function"]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

#: float64 elements per bootstrap scratch array (1 MiB): the replicates
#: are drawn and reduced this many ``dim * n_base`` cells at a time
_BLOCK_ELEMS = 1 << 17


@dataclass
class SobolIndices:
    """Sensitivity-analysis result for ``dim`` parameters.

    ``S1``/``ST`` are the index estimates; ``S1_conf``/``ST_conf`` are
    95% confidence half-widths from bootstrap resampling.  ``names`` align
    with the analyzed space's parameter order.
    """

    names: list[str]
    S1: np.ndarray
    ST: np.ndarray
    S1_conf: np.ndarray
    ST_conf: np.ndarray
    variance: float = 0.0
    n_base: int = 0

    def ranking(self, by: str = "ST") -> list[str]:
        """Parameter names sorted most-sensitive first."""
        vals = {"S1": self.S1, "ST": self.ST}[by]
        order = np.argsort(vals)[::-1]
        return [self.names[i] for i in order]

    def as_rows(self) -> list[dict[str, float | str]]:
        """Table rows matching the paper's Table IV/V layout."""
        return [
            {
                "parameter": n,
                "S1": round(float(s1), 4),
                "S1_conf": round(float(s1c), 4),
                "ST": round(float(st), 4),
                "ST_conf": round(float(stc), 4),
            }
            for n, s1, s1c, st, stc in zip(
                self.names, self.S1, self.S1_conf, self.ST, self.ST_conf
            )
        ]

    def select(
        self, s1_threshold: float = 0.05, st_threshold: float = 0.2
    ) -> list[str]:
        """Parameters deemed sensitive: high S1 *or* high ST.

        Mirrors the paper's reduction rule-of-thumb: Table V keeps
        parameters with S1 >= 0.05 or ST well above noise, dropping those
        with both indices near zero.
        """
        keep = (self.S1 >= s1_threshold) | (self.ST >= st_threshold)
        return [n for n, k in zip(self.names, keep) if k]


def sobol_indices(
    design: SaltelliDesign,
    values: np.ndarray,
    *,
    names: Sequence[str] | None = None,
    n_bootstrap: int = 100,
    seed: int | None = None,
) -> SobolIndices:
    """Estimate Sobol' indices from model outputs on a Saltelli design.

    ``values`` must be the outputs for :meth:`SaltelliDesign.stacked`
    rows, in order.  ``n_bootstrap`` is 0 (no intervals) or at least 2,
    the fewest replicates a spread can be taken over.
    """
    if n_bootstrap == 1 or n_bootstrap < 0:
        raise ValueError(
            f"n_bootstrap must be 0 (no intervals) or >= 2, got {n_bootstrap}"
        )
    f_A, f_B, f_AB = design.split(values)
    names = list(names) if names is not None else [f"x{i}" for i in range(design.dim)]
    if len(names) != design.dim:
        raise ValueError(f"need {design.dim} names, got {len(names)}")

    S1, ST, var = _estimate(f_A, f_B, f_AB)

    rng = np.random.default_rng(seed)
    n = design.n_base
    if n_bootstrap > 0 and n >= 4:
        # replicates are drawn and reduced a block at a time, so scratch
        # stays at about _BLOCK_ELEMS doubles per array whatever
        # n_bootstrap.  Consecutive C-order fills of Generator.integers
        # draw the stream of one (n_bootstrap, n) call, and every
        # reduction runs per replicate along the contiguous last axis, so
        # the result does not depend on where the blocks split
        rows = max(1, _BLOCK_ELEMS // (design.dim * n))
        s1_bs = np.empty((n_bootstrap, design.dim))
        st_bs = np.empty((n_bootstrap, design.dim))
        for lo in range(0, n_bootstrap, rows):
            hi = min(lo + rows, n_bootstrap)
            idx = rng.integers(0, n, size=(hi - lo, n))
            s1_bs[lo:hi], st_bs[lo:hi] = _estimate_batch(
                f_A[idx], f_B[idx], f_AB[:, idx]
            )
        S1_conf = _Z95 * np.std(s1_bs, axis=0, ddof=1)
        ST_conf = _Z95 * np.std(st_bs, axis=0, ddof=1)
    else:
        S1_conf = np.zeros(design.dim)
        ST_conf = np.zeros(design.dim)

    return SobolIndices(
        names=names,
        S1=S1,
        ST=ST,
        S1_conf=S1_conf,
        ST_conf=ST_conf,
        variance=float(var),
        n_base=n,
    )


def _estimate_batch(f_A, f_B, f_AB):
    """Batched bootstrap replicates of :func:`_estimate`.

    ``f_A``/``f_B`` are ``(B, n)`` resampled outputs, ``f_AB`` is
    ``(dim, B, n)``.  Returns ``(S1, ST)`` of shape ``(B, dim)``; rows
    whose resampled variance is (near-)zero get zero indices, matching
    the scalar estimator's guard.
    """
    all_f = np.concatenate([f_A, f_B], axis=1)  # (B, 2n)
    var = np.var(all_f, axis=1)  # (B,)
    S1 = np.mean(f_B[None, :, :] * (f_AB - f_A[None, :, :]), axis=2)  # (dim, B)
    ST = 0.5 * np.mean((f_A[None, :, :] - f_AB) ** 2, axis=2)
    degenerate = var < 1e-300
    safe = np.where(degenerate, 1.0, var)
    S1 = np.where(degenerate[None, :], 0.0, S1 / safe[None, :])
    ST = np.where(degenerate[None, :], 0.0, ST / safe[None, :])
    return S1.T, ST.T


def _estimate(f_A, f_B, f_AB):
    """Core estimators (Saltelli 2010 for S1, Jansen 1999 for ST)."""
    all_f = np.concatenate([f_A, f_B])
    var = np.var(all_f)
    if var < 1e-300:
        d = f_AB.shape[0]
        return np.zeros(d), np.zeros(d), 0.0
    # S1_i = mean(f_B * (f_AB_i - f_A)) / var
    S1 = np.mean(f_B[None, :] * (f_AB - f_A[None, :]), axis=1) / var
    # ST_i = 0.5 * mean((f_A - f_AB_i)^2) / var
    ST = 0.5 * np.mean((f_A[None, :] - f_AB) ** 2, axis=1) / var
    return S1, ST, var


def sobol_analyze_function(
    func: Callable[[np.ndarray], np.ndarray],
    dim: int,
    n_base: int = 1024,
    *,
    names: Sequence[str] | None = None,
    n_bootstrap: int = 100,
    seed: int | None = None,
    scramble: bool = False,
) -> SobolIndices:
    """One-call analysis of a vectorized function on the unit cube.

    ``func`` maps an ``(m, dim)`` array of unit-cube rows to ``m``
    outputs.  This is the entry point the surrogate-model analyzer uses:
    the "function" is the trained surrogate's posterior mean, per the
    paper's description of the Sobol workflow (sample from the model,
    evaluate, variance analysis).
    """
    design = saltelli_sample(n_base, dim, scramble=scramble, seed=seed)
    values = np.asarray(func(design.stacked()), dtype=float)
    return sobol_indices(
        design, values, names=names, n_bootstrap=n_bootstrap, seed=seed
    )
