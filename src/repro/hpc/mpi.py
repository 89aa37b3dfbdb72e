"""Simulated MPI cost accounting (system S21).

:class:`CostComm` is a *cost accumulator*: application performance
models call ``bcast``, ``allreduce`` etc. with message sizes and the
communicator tallies modeled communication seconds, splitting traffic
between the inter-node network and the intra-node transport according
to the rank->node placement.  This is what the PDGEQRF / SuperLU /
Hypre models use.

``CostComm`` mirrors the mpi4py surface (lower-case object-ish methods)
so code written against it reads like the mpi4py tutorial idioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .machine import Machine
from .network import NetworkModel

__all__ = ["CostComm"]


@dataclass
class CommStats:
    """Tallied communication behaviour of a modeled run."""

    seconds: float = 0.0
    messages: int = 0
    bytes_moved: float = 0.0
    by_op: dict[str, float] = field(default_factory=dict)

    def add(self, op: str, seconds: float, nbytes: float, messages: int = 1) -> None:
        self.seconds += seconds
        self.bytes_moved += nbytes
        self.messages += messages
        self.by_op[op] = self.by_op.get(op, 0.0) + seconds


class CostComm:
    """A communicator over ``size`` ranks placed round-robin on a machine.

    Parameters
    ----------
    machine:
        Supplies the inter-/intra-node network models and node geometry.
    size:
        Number of ranks; must fit on the machine allocation.
    ranks_per_node:
        Placement density; defaults to packing ``cores_per_node`` ranks
        per node.  PDGEQRF's ``lg2npernode`` tuning parameter controls
        exactly this.
    """

    def __init__(
        self, machine: Machine, size: int, *, ranks_per_node: int | None = None
    ) -> None:
        if size < 1:
            raise ValueError("communicator needs >= 1 rank")
        rpn = ranks_per_node if ranks_per_node is not None else machine.cores_per_node
        if rpn < 1:
            raise ValueError("ranks_per_node must be >= 1")
        if rpn > machine.cores_per_node:
            raise ValueError(
                f"{rpn} ranks/node exceeds {machine.cores_per_node} cores/node"
            )
        nodes_needed = -(-size // rpn)
        if nodes_needed > machine.nodes:
            raise ValueError(
                f"{size} ranks at {rpn}/node need {nodes_needed} nodes, "
                f"allocation has {machine.nodes}"
            )
        self.machine = machine
        self.size = size
        self.ranks_per_node = rpn
        self.stats = CommStats()

    # -- placement-aware effective network -----------------------------------
    def _mixed(self) -> NetworkModel:
        """Effective alpha/beta blending inter- and intra-node paths.

        With ``r`` ranks per node, a fraction ``(r-1)/(size-1)`` of a
        rank's peers are on-node; costs interpolate accordingly.
        """
        if self.size == 1:
            return self.machine.intranode
        on_node = min(self.ranks_per_node, self.size) - 1
        frac_local = on_node / (self.size - 1)
        inter, intra = self.machine.network, self.machine.intranode
        return NetworkModel(
            "mixed",
            alpha=frac_local * intra.alpha + (1 - frac_local) * inter.alpha,
            beta=frac_local * intra.beta + (1 - frac_local) * inter.beta,
        )

    # -- mpi-like cost operations ----------------------------------------------
    def send(self, nbytes: float) -> float:
        t = self._mixed().p2p(nbytes)
        self.stats.add("send", t, nbytes)
        return t

    def bcast(self, nbytes: float, group_size: int | None = None) -> float:
        p = group_size if group_size is not None else self.size
        t = self._mixed().bcast(nbytes, p)
        self.stats.add("bcast", t, nbytes * max(p - 1, 0))
        return t

    def reduce(self, nbytes: float, group_size: int | None = None) -> float:
        p = group_size if group_size is not None else self.size
        t = self._mixed().reduce(nbytes, p)
        self.stats.add("reduce", t, nbytes * max(p - 1, 0))
        return t

    def allreduce(self, nbytes: float, group_size: int | None = None) -> float:
        p = group_size if group_size is not None else self.size
        t = self._mixed().allreduce(nbytes, p)
        self.stats.add("allreduce", t, 2 * nbytes * max(p - 1, 0))
        return t

    def allgather(self, nbytes_per_rank: float, group_size: int | None = None) -> float:
        p = group_size if group_size is not None else self.size
        t = self._mixed().allgather(nbytes_per_rank, p)
        self.stats.add("allgather", t, nbytes_per_rank * max(p - 1, 0) * p)
        return t

    def alltoall(self, nbytes_per_pair: float, group_size: int | None = None) -> float:
        p = group_size if group_size is not None else self.size
        t = self._mixed().alltoall(nbytes_per_pair, p)
        self.stats.add("alltoall", t, nbytes_per_pair * p * max(p - 1, 0))
        return t
