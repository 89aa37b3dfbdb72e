"""Core autotuning engine: spaces, surrogates, acquisition, BO loop.

This package implements systems S1-S6 of DESIGN.md — the GPTune-style
Bayesian-optimization core that both the NoTLA baseline and every
transfer-learning algorithm in :mod:`repro.tla` build on.
"""

from . import perf
from .acquisition import ExpectedImprovement, LowerConfidenceBound, PendingPenalty
from .combine import combine_stacked, normalized_weights
from .feasibility import KnnFeasibility
from .gp import GaussianProcess, GPFitError, Surrogate
from .history import History, TaskData
from .kernels import RBF, Matern32, Matern52, kernel_from_name
from .lcm import LCM, LCMFitError
from .mixed import MixedKernel, mixed_kernel_for_space
from .optimizer import SearchOptions, propose_batch
from .problem import Evaluation, TuningProblem, task_key
from .samplers import (
    LatinHypercubeSampler,
    RandomSampler,
    Sampler,
    SobolSampler,
    get_sampler,
)
from .sparse import (
    SparseGP,
    make_surrogate,
    resolve_surrogate_kind,
    surrogate_from_dict,
)
from .taskmodel import TaskAwareSurrogate
from .space import (
    CategoricalParameter,
    FixedSpace,
    IntegerParameter,
    OutputParameter,
    Parameter,
    RealParameter,
    Space,
    SpaceError,
)
from .tuner import Tuner, TunerOptions, TuningResult

__all__ = [
    "CategoricalParameter",
    "Evaluation",
    "ExpectedImprovement",
    "FixedSpace",
    "GaussianProcess",
    "GPFitError",
    "History",
    "IntegerParameter",
    "KnnFeasibility",
    "LCM",
    "LCMFitError",
    "LatinHypercubeSampler",
    "LowerConfidenceBound",
    "Matern32",
    "Matern52",
    "MixedKernel",
    "OutputParameter",
    "Parameter",
    "PendingPenalty",
    "RBF",
    "RandomSampler",
    "RealParameter",
    "Sampler",
    "SearchOptions",
    "SobolSampler",
    "SparseGP",
    "Space",
    "SpaceError",
    "Surrogate",
    "TaskAwareSurrogate",
    "TaskData",
    "Tuner",
    "TunerOptions",
    "TuningProblem",
    "TuningResult",
    "combine_stacked",
    "get_sampler",
    "kernel_from_name",
    "make_surrogate",
    "mixed_kernel_for_space",
    "normalized_weights",
    "perf",
    "propose_batch",
    "resolve_surrogate_kind",
    "surrogate_from_dict",
    "task_key",
]
