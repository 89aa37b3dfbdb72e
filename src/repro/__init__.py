"""GPTuneCrowd reproduction: crowd-based autotuning for HPC applications.

A from-scratch Python implementation of the system described in
"Harnessing the Crowd for Autotuning High-Performance Computing
Applications" (IPDPS 2023): the Bayesian-optimization autotuning core,
the full transfer-learning algorithm pool with the proposed ensemble,
Sobol' sensitivity analysis, the shared crowd database, and simulated
HPC substrates for the paper's four case-study applications.

Subpackages
-----------
``repro.core``
    Spaces, GP/LCM surrogates, acquisition, the BO loop (NoTLA).
``repro.tla``
    The TLA pool of Table I and the transfer tuner.
``repro.crowd``
    Document store, records, users, queries, environment parsing, API.
``repro.fabric``
    The one parallel executor: forked workers over a durable job queue,
    streaming every evaluation to the crowd as it lands.
``repro.service``
    Sharded, durable serving layer for the crowd repository and its
    retrying client.
``repro.sensitivity``
    Sobol' sequence, Saltelli sampling, indices, space reduction.
``repro.hpc``
    Simulated machines, network/MPI cost models, scheduler, grids.
``repro.apps``
    Synthetic functions + PDGEQRF / SuperLU_DIST / Hypre / NIMROD models.
"""

__version__ = "1.0.0"

from . import apps, core, crowd, hpc, sensitivity, tla

__all__ = ["apps", "core", "crowd", "hpc", "sensitivity", "tla", "__version__"]
