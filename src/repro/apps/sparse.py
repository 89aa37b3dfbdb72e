"""Synthetic sparse matrices + symbolic factorization stats (system S25).

The paper's SuperLU_DIST case study uses the PARSEC matrices Si5H12 and
H2O from the SuiteSparse collection — real-space pseudopotential DFT
Hamiltonians: structurally symmetric, dominated by a high-order 3D
stencil plus longer-range couplings.  SuiteSparse is not available
offline, so :func:`get_matrix` builds *PARSEC-like* analogues: a 3D
grid Laplacian-type stencil with seeded long-range bonds, scaled down to
keep factorizations laptop-fast.  The two analogues share the sparsity
class (as Si5H12 and H2O do — the paper exploits exactly this for
transfer of the sensitivity analysis), differing in size and bond
density.

Fill-in and factorization cost per column ordering come from an *actual*
SuperLU factorization: ``scipy.sparse.linalg.splu`` is serial SuperLU and
accepts the very ``permc_spec`` values that SuperLU_DIST's COLPERM tuning
parameter selects (NATURAL, MMD_ATA, MMD_AT_PLUS_A, COLAMD).  The
modeled COLPERM sensitivity is therefore driven by genuine ordering
behaviour, not a hand-shaped curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

__all__ = ["COLPERM_CHOICES", "MATRIX_REGISTRY", "symbolic_stats"]

#: SuperLU_DIST's COLPERM options (and scipy splu permc_spec values)
COLPERM_CHOICES = ["NATURAL", "MMD_ATA", "MMD_AT_PLUS_A", "COLAMD"]


def laplacian_3d(nx: int, ny: int, nz: int, *, shift: float = 0.5) -> sparse.csc_matrix:
    """7-point 3D Laplacian with a diagonal shift (keeps LU nonsingular)."""
    if min(nx, ny, nz) < 1:
        raise ValueError("grid dimensions must be >= 1")

    def lap1d(n: int) -> sparse.csr_matrix:
        return sparse.diags(
            [-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr"
        )

    Ix, Iy, Iz = (sparse.identity(k, format="csr") for k in (nx, ny, nz))
    A = (
        sparse.kron(sparse.kron(lap1d(nx), Iy), Iz)
        + sparse.kron(sparse.kron(Ix, lap1d(ny)), Iz)
        + sparse.kron(sparse.kron(Ix, Iy), lap1d(nz))
    )
    A = A + shift * sparse.identity(nx * ny * nz)
    return A.tocsc()


def parsec_like(
    n_grid: int, *, bond_fraction: float = 0.02, seed: int = 0
) -> sparse.csc_matrix:
    """A PARSEC-style Hamiltonian analogue on an ``n_grid^3`` grid.

    Starts from the 3D stencil and adds ``bond_fraction * n`` seeded
    random symmetric long-range couplings, which is what distinguishes
    the DFT matrices from plain Laplacians (and what makes the ordering
    choice matter more).
    """
    A = laplacian_3d(n_grid, n_grid, n_grid).tolil()
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    n_bonds = int(bond_fraction * n)
    rows = rng.integers(0, n, size=n_bonds)
    cols = rng.integers(0, n, size=n_bonds)
    for i, j in zip(rows, cols):
        if i != j:
            v = float(rng.uniform(-0.5, -0.1))
            A[i, j] = v
            A[j, i] = v
    return A.tocsc()


@dataclass(frozen=True)
class MatrixSpec:
    """Registry entry for a named test matrix."""

    name: str
    n_grid: int
    bond_fraction: float
    seed: int
    #: the real matrix this analogue stands in for
    stands_for: str


#: scaled-down analogues of the paper's PARSEC matrices
MATRIX_REGISTRY: dict[str, MatrixSpec] = {
    "Si5H12": MatrixSpec("Si5H12", 13, 0.020, 7, "SuiteSparse PARSEC/Si5H12"),
    "H2O": MatrixSpec("H2O", 16, 0.025, 11, "SuiteSparse PARSEC/H2O"),
}

_matrix_cache: dict[str, sparse.csc_matrix] = {}
_symbolic_cache: dict[tuple[str, str], "SymbolicStats"] = {}


def get_matrix(name: str) -> sparse.csc_matrix:
    """Fetch (and cache) a registered matrix by name."""
    if name not in MATRIX_REGISTRY:
        raise KeyError(f"unknown matrix {name!r}; registry has {sorted(MATRIX_REGISTRY)}")
    if name not in _matrix_cache:
        spec = MATRIX_REGISTRY[name]
        _matrix_cache[name] = parsec_like(
            spec.n_grid, bond_fraction=spec.bond_fraction, seed=spec.seed
        )
    return _matrix_cache[name]


@dataclass(frozen=True)
class SymbolicStats:
    """Factorization statistics for one (matrix, ordering) pair."""

    matrix: str
    colperm: str
    n: int
    nnz_A: int
    nnz_LU: int
    flops: float

    @property
    def fill_ratio(self) -> float:
        return self.nnz_LU / max(self.nnz_A, 1)


def symbolic_stats(matrix_name: str, colperm: str) -> SymbolicStats:
    """Fill-in and flop estimate from a real SuperLU factorization.

    Results are cached: the paper's tuning loops re-evaluate the same
    (matrix, COLPERM) pair hundreds of times and the symbolic step is the
    expensive part.

    The flop estimate interpolates the dense formula through the observed
    fill: a dense LU has ``nnz = n^2`` and ``2/3 n^3 = (2/3) nnz^2 / n``
    flops, so ``flops ~= (2/3) * nnz_LU^2 / n`` preserves both the dense
    limit and the empty limit.
    """
    if colperm not in COLPERM_CHOICES:
        raise ValueError(f"unknown COLPERM {colperm!r}; choose from {COLPERM_CHOICES}")
    key = (matrix_name, colperm)
    if key not in _symbolic_cache:
        A = get_matrix(matrix_name)
        lu = spla.splu(
            A,
            permc_spec=colperm,
            options={"SymmetricMode": False, "Equil": False},
        )
        nnz_lu = int(lu.L.nnz + lu.U.nnz)
        n = A.shape[0]
        flops = (2.0 / 3.0) * nnz_lu**2 / n
        _symbolic_cache[key] = SymbolicStats(
            matrix=matrix_name,
            colperm=colperm,
            n=n,
            nnz_A=int(A.nnz),
            nnz_LU=nnz_lu,
            flops=flops,
        )
    return _symbolic_cache[key]


def supernode_sizes(n: int, nsup: int, nrel: int, *, seed: int = 0) -> np.ndarray:
    """A plausible supernode partition of ``n`` columns.

    SuperLU caps supernodes at ``NSUP`` columns and relaxes (amalgamates)
    small subtrees up to ``NREL`` columns.  Without the true elimination
    tree we model the resulting size distribution: natural supernode
    sizes are geometric-ish and then clipped to ``[1, nsup]`` with small
    ones merged toward ``nrel``.
    """
    if n < 1 or nsup < 1 or nrel < 1:
        raise ValueError("n, nsup, nrel must be >= 1")
    rng = np.random.default_rng(seed)
    sizes = []
    remaining = n
    while remaining > 0:
        # natural (pre-clipping) sizes of dense trailing blocks in DFT-like
        # matrices are large; NSUP's cap in [30, 300) genuinely binds
        nat = int(rng.geometric(1.0 / 60.0))
        s = min(max(nat, 1), nsup, remaining)
        if s < nrel:  # relaxation merges small supernodes
            s = min(nrel, remaining, nsup)
        sizes.append(s)
        remaining -= s
    return np.asarray(sizes, dtype=int)


def supernode_gemm_efficiency(
    nsup: int, nrel: int, *, n: int = 4096, half_point: float = 48.0, seed: int = 0
) -> float:
    """Fraction of GEMM peak a supernodal kernel achieves.

    Bigger supernodes mean bigger dense blocks and better BLAS-3 rates
    (saturating in ``half_point``); over-relaxation (large ``NREL``)
    pads supernodes with explicit zeros, charged as wasted flops.
    """
    sizes = supernode_sizes(n, nsup, nrel, seed=seed)
    mean_size = float(np.mean(sizes))
    eff = mean_size / (mean_size + half_point)
    # padding waste grows once relaxation exceeds the natural size scale
    waste = 1.0 + 0.002 * max(nrel - 12, 0)
    return eff / waste


def dense_block_lu_flops(nb: int) -> float:
    """Flops of a dense ``nb x nb`` LU (NIMROD's Jacobi blocks)."""
    return (2.0 / 3.0) * float(nb) ** 3


def bandwidth(A: sparse.spmatrix) -> int:
    """Matrix bandwidth (used by tests to sanity-check generators)."""
    coo = A.tocoo()
    if coo.nnz == 0:
        return 0
    return int(np.max(np.abs(coo.row - coo.col)))
