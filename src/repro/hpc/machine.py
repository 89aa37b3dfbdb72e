"""Simulated HPC machines (system S20): Cori Haswell and Cori KNL.

A :class:`Machine` describes an allocation — node count, cores and memory
per node, sustained per-core compute rates, memory bandwidth, and the
interconnect — exactly the quantities the application performance models
in :mod:`repro.apps` need.  Presets reproduce the two NERSC Cori
partitions the paper evaluates on:

* **Haswell**: two 16-core Intel Xeon E5-2698v3 per node, 128 GB DDR4
  (paper Sec. VI-B).
* **KNL**: one Intel Xeon Phi 7250 (68 cores, of which 64 are commonly
  used for applications), 96 GB DDR4 + 16 GB MCDRAM (Sec. VI-C).

The KNL preset has many slower cores with higher effective memory latency
for irregular access — which is what makes transfer across architectures
(paper Fig. 5(b)) a genuinely harder problem for TLA, a behaviour the
models inherit from these parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .network import CORI_ARIES, SHARED_MEMORY, NetworkModel

__all__ = ["Machine", "cori_haswell", "cori_knl", "MACHINE_PRESETS", "get_machine"]

_GiB = 1024.0**3


@dataclass(frozen=True)
class Machine:
    """An allocation on a simulated machine."""

    name: str
    partition: str
    nodes: int
    cores_per_node: int
    #: sustained DGEMM-like rate per core (flop/s)
    flops_per_core: float
    #: sustained rate for irregular/sparse kernels per core (flop/s)
    sparse_flops_per_core: float
    #: memory per node in bytes
    mem_per_node: float
    #: sustained memory bandwidth per node (bytes/s)
    mem_bw_per_node: float
    network: NetworkModel = field(default=CORI_ARIES)
    intranode: NetworkModel = field(default=SHARED_MEMORY)

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("machine needs >= 1 node and >= 1 core per node")
        if min(self.flops_per_core, self.sparse_flops_per_core) <= 0:
            raise ValueError("compute rates must be positive")
        if min(self.mem_per_node, self.mem_bw_per_node) <= 0:
            raise ValueError("memory size and bandwidth must be positive")

    # -- derived quantities ------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def total_flops(self) -> float:
        return self.total_cores * self.flops_per_core

    def with_nodes(self, nodes: int) -> "Machine":
        """The same machine with a different allocation size."""
        return replace(self, nodes=nodes)

    def dense_rate(self, cores_used: int, threads_per_rank: int = 1) -> float:
        """Aggregate dense-kernel rate with a mild parallel-efficiency
        roll-off as more cores of a node are engaged (bandwidth sharing)."""
        cores_used = max(1, min(cores_used, self.total_cores))
        frac = cores_used / self.total_cores
        efficiency = 1.0 / (1.0 + 0.25 * frac)
        del threads_per_rank
        return cores_used * self.flops_per_core * efficiency

    def describe(self) -> dict:
        """Machine-configuration block for crowd records (Sec. IV-A)."""
        return {
            self.name: {
                self.partition: {
                    "nodes": self.nodes,
                    "cores": self.cores_per_node,
                }
            }
        }


def cori_haswell(nodes: int = 1) -> Machine:
    """NERSC Cori Haswell partition (2x16-core E5-2698v3, 128 GB)."""
    return Machine(
        name="Cori",
        partition="haswell",
        nodes=nodes,
        cores_per_node=32,
        flops_per_core=3.2e10,  # ~AVX2 DGEMM sustained
        sparse_flops_per_core=2.4e9,
        mem_per_node=128.0 * _GiB,
        mem_bw_per_node=1.2e11,
    )


def cori_knl(nodes: int = 1) -> Machine:
    """NERSC Cori KNL partition (Xeon Phi 7250, 68 cores, 96+16 GB)."""
    return Machine(
        name="Cori",
        partition="knl",
        nodes=nodes,
        cores_per_node=68,
        flops_per_core=1.4e10,  # wide vectors but low clock
        sparse_flops_per_core=6.0e8,  # irregular access hurts on KNL
        mem_per_node=(96.0 + 16.0) * _GiB,
        mem_bw_per_node=4.0e11,  # MCDRAM stream
    )


MACHINE_PRESETS = {"cori-haswell": cori_haswell, "cori-knl": cori_knl}


def get_machine(key: str, nodes: int = 1) -> Machine:
    """Instantiate a preset machine (``cori-haswell``, ``cori-knl``)."""
    try:
        return MACHINE_PRESETS[key](nodes)
    except KeyError:
        raise ValueError(
            f"unknown machine {key!r}; choose from {sorted(MACHINE_PRESETS)}"
        )
