"""Simulated HPC substrate (systems S20-S22).

Machines (Cori Haswell/KNL presets), alpha-beta network models, MPI cost
accounting, process grids and a Slurm-like scheduler — the platform the
application performance models in :mod:`repro.apps` execute on.
"""

from .machine import MACHINE_PRESETS, Machine, cori_haswell, cori_knl, get_machine
from .mpi import CostComm
from .network import CORI_ARIES, SHARED_MEMORY, NetworkModel
from .procgrid import (
    Grid2D,
    Grid3D,
    block_cyclic_rows,
    grid_for_rows,
    load_imbalance,
    squarest_grid,
)
from .scheduler import AllocationError, SlurmSim

__all__ = [
    "AllocationError",
    "CORI_ARIES",
    "CostComm",
    "Grid2D",
    "Grid3D",
    "MACHINE_PRESETS",
    "Machine",
    "NetworkModel",
    "SHARED_MEMORY",
    "SlurmSim",
    "block_cyclic_rows",
    "cori_haswell",
    "cori_knl",
    "get_machine",
    "grid_for_rows",
    "load_imbalance",
    "squarest_grid",
]
