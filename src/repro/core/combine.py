"""The paper's Eq. (1)-(2) surrogate combination, as reusable math.

The TLA weighted-sum strategies and the ensemble shell
(:mod:`repro.tla.base`) merge per-model posteriors into one surrogate
with one fixed weight per model: a weighted arithmetic mean of the means
and a weighted geometric mean of the standard deviations.

The accumulation is a plain per-model loop (``mean += w * mu``), not an
einsum: it replays the historical TLA loop operation for operation, so
moving the math down a layer changed nothing bit-wise (the TLA oracle
tests pin exact equality with the loop written over plain ``predict``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["normalized_weights", "combine_stacked"]

#: standard-deviation floor inside the geometric mean (Eq. (2) takes a
#: log; an exactly-zero std from an interpolating model must not -inf it)
STD_FLOOR = 1e-12


def normalized_weights(weights: np.ndarray, n_models: int) -> np.ndarray:
    """Validate Eq. (1)-(2) weights and normalize them to sum 1.

    Negative weights would flip a surrogate's contribution and corrupt
    the geometric-mean std (Eq. (2) assumes a convex combination in log
    space); unnormalized weights silently rescale the combined mean and
    inflate/deflate the combined std, so both are rejected/repaired here.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_models,):
        raise ValueError(f"need {n_models} weights, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"weights must be finite, got {weights}")
    if np.any(weights < 0):
        raise ValueError(f"weights must be non-negative, got {weights}")
    total = float(np.sum(weights))
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return weights / total


def combine_stacked(
    means: Sequence[np.ndarray],
    stds: Sequence[np.ndarray],
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (1)-(2) over per-model posteriors already evaluated at the
    query batch.

    ``means``/``stds`` hold one ``(n,)`` array per model, ``weights`` one
    (already normalized) weight per model.  Returns the combined
    ``(mean, std)``.
    """
    n = np.asarray(means[0]).shape[0]
    mean = np.zeros(n)
    log_std = np.zeros(n)
    for w, mu, sd in zip(weights, means, stds):
        mean += w * mu
        log_std += w * np.log(np.maximum(sd, STD_FLOOR))
    return mean, np.exp(log_std)
