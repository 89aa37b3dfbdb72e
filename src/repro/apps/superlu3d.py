"""SuperLU_DIST 3D communication-avoiding LU model (system S27).

The 3D algorithm (Sao, Li, Vuduc [23]) replicates the 2D process grid
``Pz = 2^npz`` times along a third axis: subtrees of the elimination
forest are factored redundantly per layer, trading memory for greatly
reduced inter-process communication (volume shrinks roughly with
``sqrt(Pz)``, latency with ``Pz``), at the cost of per-layer memory
duplication and an ancestor-reduction step.

NIMROD (system S29) uses this model for every block-Jacobi
preconditioner block; it is also usable standalone.  All costs are
derived for a sparse system of ``n`` unknowns with ``nnz_f`` factor
nonzeros on a :class:`~repro.hpc.procgrid.Grid3D`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hpc.machine import Machine
from ..hpc.mpi import CostComm
from ..hpc.procgrid import Grid3D
from .sparse import supernode_gemm_efficiency

__all__ = ["SuperLU3DModel"]


@dataclass(frozen=True)
class Factor3DCost:
    """Breakdown of one 3D factorization + its per-solve cost."""

    factor_seconds: float
    solve_seconds: float  # one triangular solve (fw + bw)
    mem_per_rank: float  # bytes


class SuperLU3DModel:
    """Cost model of one 3D sparse LU on a machine allocation."""

    #: triangular solves run at a small fraction of peak (latency bound)
    SOLVE_EFFICIENCY = 0.08

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def factorization(
        self,
        n: int,
        grid: Grid3D,
        *,
        nsup: int,
        nrel: int,
        fill_factor: float = 30.0,
        ranks_per_node: int | None = None,
    ) -> Factor3DCost:
        """Factor an ``n``-unknown 2D-mesh-like system on ``grid``.

        ``fill_factor`` approximates nnz(L+U)/n; 2D-plane problems
        factored with nested dissection have ``O(n log n)`` fill and
        ``O(n^1.5)`` flops, which the defaults encode.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        nnz_f = fill_factor * n * max(math.log2(max(n, 2)) / 10.0, 1.0)
        flops = 6.0 * n**1.5 * max(fill_factor / 10.0, 1.0)

        plane = grid.plane
        pz = grid.z
        comm = CostComm(self.machine, grid.size, ranks_per_node=ranks_per_node)

        gemm_eff = supernode_gemm_efficiency(nsup, nrel, n=min(n, 8192), half_point=96.0)
        # problem-size-dependent supernode sweet spot: small supernodes
        # starve BLAS-3 on large fronts, oversized ones wreck the 2D
        # block load balance.  The optimum shifts with the problem size —
        # exactly the knowledge TLA transfers across tasks in Fig. 5.
        nsup_opt = min(max(40.0 * math.log2(max(n, 1) / 1e6) + 130.0, 50.0), 280.0)
        gemm_eff *= 0.30 + 0.70 * math.exp(-0.5 * ((nsup - nsup_opt) / 45.0) ** 2)
        rate = self.machine.sparse_flops_per_core * plane.size
        # compute: common subtrees are replicated (no speedup from Pz),
        # ancestors split across layers; net effect ~ 1/(0.5 + 0.5/pz)
        layer_speedup = 1.0 / (0.55 + 0.45 / pz)
        t_compute = flops / (rate * gemm_eff / 0.45) / layer_speedup

        # communication: per-supernode panel broadcasts on the 2D plane,
        # reduced by the 3D replication; plus the ancestor reduction
        n_steps = max(n // max(min(nsup, 128), 8), 1)
        bytes_per_step = 8.0 * nnz_f / n_steps
        t_comm_2d = n_steps * (
            comm.bcast(bytes_per_step / plane.q, group_size=plane.q)
            + comm.bcast(bytes_per_step / plane.p, group_size=plane.p)
        )
        # 2D strong-scaling bottleneck: per-step synchronization across the
        # whole plane (the latency wall the 3D algorithm exists to avoid)
        t_comm_2d += 1.1 * n_steps * (plane.p + plane.q) * comm.machine.network.alpha
        t_comm_2d /= math.sqrt(pz)
        t_reduce = comm.reduce(8.0 * nnz_f / plane.size, group_size=pz) if pz > 1 else 0.0

        # memory: each z-layer's plane.size ranks hold a full copy of the
        # common elimination subtrees (~half the factor) plus their share
        # of the ancestors, so per-rank memory *grows* with replication
        mem = 8.0 * nnz_f * (0.5 + 0.5 * pz) / plane.size * 2.2

        # one triangular solve (forward+backward) per GMRES iteration
        t_solve = (
            4.0 * nnz_f / (rate * self.SOLVE_EFFICIENCY / 0.45)
            + 2.0 * n_steps * comm.stats.seconds / max(n_steps, 1) * 0.02
        )
        return Factor3DCost(
            factor_seconds=t_compute + t_comm_2d + t_reduce,
            solve_seconds=t_solve,
            mem_per_rank=mem,
        )
