"""Sobol' sensitivity analysis (systems S16-S19; SALib substitute).

From-scratch implementations of the Sobol' sequence, Saltelli sampling,
first-order/total-effect index estimation with bootstrap confidence
intervals, and the surrogate-based analyzer + search-space reduction that
power the paper's Tables IV-V and Figures 6-7.
"""

from .analyzer import SensitivityAnalyzer, SensitivityReport, reduce_space
from .saltelli import SaltelliDesign, saltelli_sample
from .sobol import SobolIndices, sobol_analyze_function, sobol_indices
from .sobol_sequence import MAX_DIM, SobolSequence

__all__ = [
    "MAX_DIM",
    "SaltelliDesign",
    "SensitivityAnalyzer",
    "SensitivityReport",
    "SobolIndices",
    "SobolSequence",
    "reduce_space",
    "saltelli_sample",
    "sobol_analyze_function",
    "sobol_indices",
]
