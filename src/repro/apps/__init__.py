"""Application performance models (systems S23-S29).

The evaluation targets of the paper: two synthetic functions and the four
real HPC applications (ScaLAPACK PDGEQRF, SuperLU_DIST, Hypre, NIMROD),
each modeled as an :class:`~repro.apps.base.HPCApplication` over the
simulated machines of :mod:`repro.hpc`.
"""

from .base import HPCApplication
from .hypre import HYPRE_DEFAULTS, HypreAMG
from .nimrod import NIMROD
from .scalapack import PDGEQRF
from .sparse import COLPERM_CHOICES, MATRIX_REGISTRY, symbolic_stats
from .superlu import SUPERLU_DEFAULTS, SuperLUDist2D
from .superlu3d import SuperLU3DModel
from .synthetic import BraninFunction, DemoFunction

__all__ = [
    "BraninFunction",
    "COLPERM_CHOICES",
    "DemoFunction",
    "HPCApplication",
    "HYPRE_DEFAULTS",
    "HypreAMG",
    "MATRIX_REGISTRY",
    "NIMROD",
    "PDGEQRF",
    "SUPERLU_DEFAULTS",
    "SuperLU3DModel",
    "SuperLUDist2D",
    "symbolic_stats",
]
