"""Slurm-like allocation simulator (system S22).

The crowd database records "the node allocation and the machine
information automatically" when jobs run under Slurm (paper Sec. IV-A).
Since no real Slurm exists in this environment, :class:`SlurmSim`
produces faithful allocation records and the environment-variable set a
Slurm job would see; :mod:`repro.crowd.environment` parses those
variables back — exercising the same code path a real deployment would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .machine import Machine

__all__ = ["SlurmSim", "AllocationError"]


class AllocationError(RuntimeError):
    """Requested resources exceed what the simulated cluster has free."""


@dataclass
class SlurmJob:
    """A granted allocation."""

    job_id: int
    partition: str
    nodes: int
    ntasks: int
    cpus_per_task: int
    nodelist: list[str] = field(default_factory=list)

    def environment(self) -> dict[str, str]:
        """The Slurm environment variables the job's processes see."""
        return {
            "SLURM_JOB_ID": str(self.job_id),
            "SLURM_JOB_PARTITION": self.partition,
            "SLURM_JOB_NUM_NODES": str(self.nodes),
            "SLURM_NNODES": str(self.nodes),
            "SLURM_NTASKS": str(self.ntasks),
            "SLURM_CPUS_PER_TASK": str(self.cpus_per_task),
            "SLURM_JOB_NODELIST": _compress_nodelist(self.nodelist),
        }


class SlurmSim:
    """A single-cluster scheduler handing out node allocations."""

    def __init__(self, machine: Machine, *, node_prefix: str = "nid") -> None:
        self.machine = machine
        self.node_prefix = node_prefix
        self._free = set(range(machine.nodes))
        self._jobs: dict[int, SlurmJob] = {}
        self._ids = itertools.count(1000)

    @property
    def free_nodes(self) -> int:
        return len(self._free)

    def salloc(
        self, nodes: int, *, ntasks_per_node: int | None = None, cpus_per_task: int = 1
    ) -> SlurmJob:
        """Allocate ``nodes`` whole nodes (FIFO, no backfill — the crowd
        records only need correct *shapes*, not queueing dynamics)."""
        if nodes < 1:
            raise ValueError("must request >= 1 node")
        if nodes > len(self._free):
            raise AllocationError(
                f"requested {nodes} nodes, only {len(self._free)} free"
            )
        tpn = ntasks_per_node if ntasks_per_node is not None else (
            self.machine.cores_per_node // cpus_per_task
        )
        if tpn * cpus_per_task > self.machine.cores_per_node:
            raise AllocationError(
                f"{tpn} tasks x {cpus_per_task} cpus exceeds "
                f"{self.machine.cores_per_node} cores per node"
            )
        picked = sorted(self._free)[:nodes]
        self._free -= set(picked)
        job = SlurmJob(
            job_id=next(self._ids),
            partition=self.machine.partition,
            nodes=nodes,
            ntasks=nodes * tpn,
            cpus_per_task=cpus_per_task,
            nodelist=[f"{self.node_prefix}{5000 + i:05d}" for i in picked],
        )
        self._jobs[job.job_id] = job
        return job

    def release(self, job: SlurmJob) -> None:
        """Return the job's nodes to the free pool.

        Raises :class:`AllocationError` for a job this scheduler never
        granted (or granted and already released) — double-releasing
        would silently corrupt the free pool under concurrent
        workers.
        """
        if self._jobs.get(job.job_id) is not job:
            raise AllocationError(
                f"unknown or already released job {job.job_id}"
            )
        del self._jobs[job.job_id]
        for name in job.nodelist:
            self._free.add(int(name[len(self.node_prefix):]) - 5000)


def _compress_nodelist(names: list[str]) -> str:
    """Compress into Slurm's bracket syntax, e.g. ``nid0[5000-5003]``."""
    if not names:
        return ""
    prefix = names[0].rstrip("0123456789")
    nums = sorted(int(n[len(prefix):]) for n in names)
    width = len(names[0]) - len(prefix)
    ranges: list[str] = []
    start = prev = nums[0]
    for x in nums[1:] + [None]:  # type: ignore[list-item]
        if x is not None and x == prev + 1:
            prev = x
            continue
        ranges.append(
            f"{start:0{width}d}" if start == prev else f"{start:0{width}d}-{prev:0{width}d}"
        )
        if x is not None:
            start = prev = x
    if len(ranges) == 1 and "-" not in ranges[0]:
        return f"{prefix}{ranges[0]}"
    return f"{prefix}[{','.join(ranges)}]"
