"""Mixed-variable kernels (hybrid models for mixed variables, [15]).

The GPTune package includes "hybrid models for mixed variables in
Bayesian optimization" (Luo et al., arXiv:2206.01409).  The ordinal
embedding the base kernels use for categorical parameters imposes a fake
ordering on choices like SuperLU's ``COLPERM``; this module provides the
principled alternative:

* :class:`MixedKernel` — a product kernel that applies an RBF over the
  continuous/integer coordinates and a Hamming-type exponential kernel
  over the categorical ones:

      k(x, x') = v * exp(-0.5 * sum_c ((x_c - x'_c) / l_c)^2)
                   * exp(-sum_h  w_h * 1[x_h != x'_h])

  which is positive semi-definite (a product of PSD kernels) and learns
  one "switch penalty" ``w_h`` per categorical dimension.

* :func:`mixed_kernel_for_space` — builds the kernel directly from a
  :class:`~repro.core.space.Space`, reading off which unit-cube columns
  are categorical.

Because categorical cells are encoded as disjoint unit-interval segments,
"inequality" is detected by cell membership, so the kernel plugs into the
existing unit-cube machinery unchanged (GP fitting, EI search, TLA).
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel, sq_dists
from .space import CategoricalParameter, Space

__all__ = ["MixedKernel", "mixed_kernel_for_space"]


class MixedKernel(Kernel):
    """RBF over numeric dims x Hamming-exponential over categorical dims.

    Parameters
    ----------
    dim:
        Total input dimensionality (unit-cube columns).
    categorical:
        Per-dimension flags: ``categorical[j]`` true if column ``j``
        ordinally encodes a categorical parameter.
    n_choices:
        Category count per dimension (1 for numeric dims); used to map a
        unit coordinate back to its category cell.
    """

    # theta layout: [log variance, log ls (numeric dims), log w (categorical dims)]

    def __init__(
        self,
        dim: int,
        categorical: list[bool],
        n_choices: list[int] | None = None,
        variance: float = 1.0,
        lengthscales=None,
        switch_weights=None,
    ) -> None:
        if len(categorical) != dim:
            raise ValueError(f"need {dim} categorical flags, got {len(categorical)}")
        self.categorical = list(categorical)
        self.numeric_idx = np.array(
            [j for j, c in enumerate(categorical) if not c], dtype=int
        )
        self.cat_idx = np.array(
            [j for j, c in enumerate(categorical) if c], dtype=int
        )
        if n_choices is None:
            n_choices = [1] * dim
        if len(n_choices) != dim:
            raise ValueError(f"need {dim} choice counts, got {len(n_choices)}")
        self.n_choices = np.asarray(n_choices, dtype=int)
        if np.any(self.n_choices[self.cat_idx] < 1):
            raise ValueError("categorical dimensions need n_choices >= 1")

        # base-class init handles variance + numeric lengthscales; we keep
        # a full-length lengthscale vector for simplicity (categorical
        # entries unused) and manage switch weights ourselves.
        super().__init__(dim, variance, lengthscales)
        if switch_weights is None:
            self.switch_weights = np.full(len(self.cat_idx), 0.7)
        else:
            sw = np.asarray(switch_weights, dtype=float).ravel()
            if sw.shape != (len(self.cat_idx),):
                raise ValueError(
                    f"need {len(self.cat_idx)} switch weights, got {sw.shape}"
                )
            self.switch_weights = sw.copy()
        if np.any(self.switch_weights <= 0):
            raise ValueError("switch weights must be positive")

    # -- hyperparameters -----------------------------------------------------
    @property
    def n_params(self) -> int:
        return 1 + len(self.numeric_idx) + len(self.cat_idx)

    def get_theta(self) -> np.ndarray:
        return np.concatenate(
            [
                [np.log(self.variance)],
                np.log(self.lengthscales[self.numeric_idx]),
                np.log(self.switch_weights),
            ]
        )

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} params, got {theta.shape}")
        self.variance = float(np.exp(theta[0]))
        n_num = len(self.numeric_idx)
        self.lengthscales[self.numeric_idx] = np.exp(theta[1 : 1 + n_num])
        self.switch_weights = np.exp(theta[1 + n_num :])

    def bounds(self) -> list[tuple[float, float]]:
        var_b = (np.log(1e-4), np.log(1e4))
        ls_b = (np.log(5e-3), np.log(20.0))
        w_b = (np.log(1e-3), np.log(10.0))
        return (
            [var_b]
            + [ls_b] * len(self.numeric_idx)
            + [w_b] * len(self.cat_idx)
        )

    # -- evaluation ---------------------------------------------------------
    def _categories(self, X: np.ndarray) -> np.ndarray:
        """Category indices for the categorical columns of ``X``."""
        cols = X[:, self.cat_idx]
        n = self.n_choices[self.cat_idx][None, :]
        return np.minimum((cols * n).astype(int), n - 1)

    def _from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        """The numeric factor alone, over the numeric columns' distances
        (``__call__`` scales the numeric x categorical product)."""
        return np.exp(-0.5 * d2)

    def train_side(self, Y: np.ndarray) -> None:
        """Nothing to keep: not a function of one scaled distance."""
        return None

    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None, train=None) -> np.ndarray:
        Y = X if Y is None else Y
        if len(self.numeric_idx):
            d2 = sq_dists(
                X[:, self.numeric_idx],
                Y[:, self.numeric_idx],
                self.lengthscales[self.numeric_idx],
            )
            K = self._from_sq_dists(d2)
        else:
            K = np.ones((X.shape[0], Y.shape[0]))
        if len(self.cat_idx):
            cx = self._categories(X)
            cy = self._categories(Y)
            # sum of switch penalties over mismatching categorical dims
            mismatch = cx[:, None, :] != cy[None, :, :]
            penalty = np.sum(mismatch * self.switch_weights[None, None, :], axis=2)
            K = K * np.exp(-penalty)
        return self.variance * K


def mixed_kernel_for_space(space: Space, **kwargs) -> MixedKernel:
    """Build a :class:`MixedKernel` matching a space's parameter types."""
    categorical = [isinstance(p, CategoricalParameter) for p in space.parameters]
    n_choices = [
        p.n_values if isinstance(p, CategoricalParameter) else 1
        for p in space.parameters
    ]
    return MixedKernel(space.dim, categorical, n_choices, **kwargs)
