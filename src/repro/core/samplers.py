"""Initial-design samplers (system S6).

Bayesian optimization starts from an initial design before the surrogate
takes over; the paper's source datasets are "randomly chosen parameter
configurations" (Sec. VI-B).  Three designs are provided:

* :class:`RandomSampler` — i.i.d. uniform (the paper's choice),
* :class:`LatinHypercubeSampler` — stratified per-dimension,
* :class:`SobolSampler` — quasi-random via :mod:`repro.sensitivity.sobol_sequence`.

All samplers produce *unique* configurations: duplicate configurations
(common when integer/categorical cells collapse many unit-cube points)
are resampled, because re-evaluating a deterministic objective at a
duplicated configuration wastes tuning budget.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from ..sensitivity.sobol_sequence import MAX_DIM, SobolSequence
from .space import Space

__all__ = [
    "Sampler",
    "RandomSampler",
    "LatinHypercubeSampler",
    "SobolSampler",
    "get_sampler",
]


def _config_key(config: dict[str, Any]) -> tuple:
    return tuple(sorted((k, repr(v)) for k, v in config.items()))


def unique_configs(
    configs: list[dict[str, Any]], exclude: list[dict[str, Any]] | None = None
) -> list[dict[str, Any]]:
    """Drop duplicates (and anything in ``exclude``), preserving order."""
    seen = {_config_key(c) for c in exclude} if exclude else set()
    out = []
    for c in configs:
        k = _config_key(c)
        if k not in seen:
            seen.add(k)
            out.append(c)
    return out


class Sampler(ABC):
    """Generates batches of configurations from a :class:`Space`."""

    name: str = "abstract"

    @abstractmethod
    def raw(self, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` unit-cube points of dimension ``dim``."""

    def sample(
        self,
        space: Space,
        n: int,
        rng: np.random.Generator,
        *,
        exclude: list[dict[str, Any]] | None = None,
        max_attempts: int = 20,
    ) -> list[dict[str, Any]]:
        """``n`` unique configurations, avoiding ``exclude``.

        For heavily discretized spaces the number of distinct
        configurations may be smaller than ``n``; in that case as many
        unique configurations as exist (discovered within
        ``max_attempts`` rounds) are returned.
        """
        if n <= 0:
            return []
        out: list[dict[str, Any]] = []
        for _ in range(max_attempts):
            need = n - len(out)
            if need <= 0:
                break
            U = self.raw(max(need * 2, 8), space.dim, rng)
            fresh = unique_configs(
                space.from_unit_array(U), exclude=(exclude or []) + out
            )
            out.extend(fresh[:need])
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class RandomSampler(Sampler):
    """I.i.d. uniform sampling — the paper's source-data generator."""

    name = "random"

    def raw(self, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random((n, dim))


class LatinHypercubeSampler(Sampler):
    """Latin hypercube design: one point per row/column stratum."""

    name = "lhs"

    def raw(self, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        U = np.empty((n, dim))
        for j in range(dim):
            perm = rng.permutation(n)
            U[:, j] = (perm + rng.random(n)) / n
        return U


class SobolSampler(Sampler):
    """Quasi-random design from the Sobol' sequence (digitally shifted)."""

    name = "sobol"

    def raw(self, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        if dim > MAX_DIM:
            raise ValueError(f"Sobol sampler supports at most {MAX_DIM} dims")
        seed = int(rng.integers(0, 2**31 - 1))
        seq = SobolSequence(dim, skip=1, scramble=True, seed=seed)
        return seq.generate(n)


_SAMPLERS: dict[str, type[Sampler]] = {
    cls.name: cls for cls in (RandomSampler, LatinHypercubeSampler, SobolSampler)
}


def get_sampler(name: str) -> Sampler:
    """Look up a sampler by name (``random``, ``lhs``, ``sobol``)."""
    try:
        return _SAMPLERS[name]()
    except KeyError:
        raise ValueError(f"unknown sampler {name!r}; choose from {sorted(_SAMPLERS)}")
