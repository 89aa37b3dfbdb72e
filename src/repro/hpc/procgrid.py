"""Process-grid utilities (system S22).

ScaLAPACK and SuperLU_DIST map MPI ranks onto 2D (``p x q``) — and, for
the 3D communication-avoiding LU, 3D (``p x q x z``) — logical grids.
The grid aspect ratio is itself a tuning parameter in the paper
(PDGEQRF's ``p``, SuperLU's ``nprows``, NIMROD's ``npz``), so these
helpers are the shared substrate for all the application models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Grid2D",
    "Grid3D",
    "squarest_grid",
    "grid_for_rows",
    "block_cyclic_rows",
    "load_imbalance",
]


@dataclass(frozen=True)
class Grid2D:
    """A ``p x q`` logical process grid (rows x columns)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError(f"grid dims must be >= 1, got {self.p}x{self.q}")

    @property
    def size(self) -> int:
        return self.p * self.q

    @property
    def aspect(self) -> float:
        """Aspect ratio >= 1 (1 means square)."""
        return max(self.p, self.q) / min(self.p, self.q)


@dataclass(frozen=True)
class Grid3D:
    """A ``p x q x z`` grid; ``z`` is the replication dimension of the 3D
    sparse LU algorithm (Sao, Li, Vuduc [23])."""

    p: int
    q: int
    z: int

    def __post_init__(self) -> None:
        if min(self.p, self.q, self.z) < 1:
            raise ValueError(f"grid dims must be >= 1, got {self.p}x{self.q}x{self.z}")

    @property
    def size(self) -> int:
        return self.p * self.q * self.z

    @property
    def plane(self) -> Grid2D:
        """The 2D grid each of the ``z`` replicas works on."""
        return Grid2D(self.p, self.q)


def factor_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered factorizations ``n = p * q`` with ``p <= sqrt(n)`` first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs = []
    for p in range(1, int(math.isqrt(n)) + 1):
        if n % p == 0:
            pairs.append((p, n // p))
    return pairs


def squarest_grid(n: int) -> Grid2D:
    """The most square ``p x q`` grid with ``p * q == n`` (p <= q)."""
    p, q = factor_pairs(n)[-1]
    return Grid2D(p, q)


def grid_for_rows(n_procs: int, p: int) -> Grid2D | None:
    """The ``p x q`` grid using as many of ``n_procs`` ranks as possible
    given ``p`` rows; ``None`` if ``p`` exceeds the rank count.

    ScaLAPACK-style: ``q = floor(n_procs / p)``, leaving ``n_procs - p*q``
    ranks idle — the paper's PDGEQRF setup does exactly this (Table II's
    ``p`` ranges over ``[1, nodes*cores)`` and implies idle ranks).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > n_procs:
        return None
    return Grid2D(p, n_procs // p)


def block_cyclic_rows(m: int, mb: int, p: int, row: int) -> int:
    """Rows of an ``m``-row matrix owned by grid row ``row`` under a
    block-cyclic distribution with block size ``mb`` (ScaLAPACK NUMROC)."""
    if m < 0 or mb < 1 or p < 1 or not 0 <= row < p:
        raise ValueError("invalid block-cyclic parameters")
    nblocks = m // mb
    rows = (nblocks // p) * mb
    extra = nblocks % p
    if row < extra:
        rows += mb
    elif row == extra:
        rows += m % mb
    return rows


def load_imbalance(m: int, mb: int, p: int) -> float:
    """Max-over-mean row imbalance of a block-cyclic distribution.

    1.0 means perfectly balanced; large blocks on small matrices yield
    ratios well above 1 — the effect that makes ScaLAPACK block sizes a
    real tuning parameter.  O(1): the fullest grid row is row 0, which
    holds ``max(block_cyclic_rows(m, mb, p, r) for r in range(p))``.
    """
    if m < 0 or mb < 1 or p < 1:
        raise ValueError("invalid block-cyclic parameters")
    if m == 0:
        return 1.0
    nblocks = m // mb
    most = (nblocks // p) * mb + (mb if nblocks % p else m % mb)
    return most / (m / p)
