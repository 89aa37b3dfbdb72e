"""Application-model interface (systems S23-S29).

Every evaluation target in the paper — synthetic functions, PDGEQRF,
SuperLU_DIST, Hypre, NIMROD — is an :class:`HPCApplication` here: a
deterministic performance model plus optional reproducible run-to-run
noise.

Determinism contract: ``raw_objective(task, config)`` is a pure function,
and the noisy objective draws its multiplicative log-normal factor from a
seed derived by hashing ``(app, task, config, machine, run)``.  The same
experiment with the same seed therefore reproduces bit-for-bit, while
different tuning repetitions (the paper runs each experiment 3-5 times
with different random seeds) see different noise.
"""

from __future__ import annotations

import hashlib
import json
import math
from abc import ABC, abstractmethod
from collections.abc import Mapping
from typing import Any

import numpy as np

from ..core.problem import TuningProblem
from ..core.space import OutputParameter, Space

__all__ = ["HPCApplication"]


def deterministic_seed(*parts: Any) -> int:
    """A stable 64-bit seed from arbitrary JSON-serializable parts."""
    blob = json.dumps([_canon(p) for p in parts], sort_keys=True)
    digest = hashlib.sha256(blob.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _canon(obj: Any) -> Any:
    if isinstance(obj, Mapping):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return round(float(obj), 12)
    return obj


class HPCApplication(ABC):
    """A tunable application: spaces + deterministic performance model.

    Subclasses implement :meth:`input_space`, :meth:`parameter_space` and
    :meth:`raw_objective`; :meth:`make_problem` assembles the
    :class:`~repro.core.problem.TuningProblem` the tuners consume.

    ``noise_sigma`` is the standard deviation of the log-normal
    multiplicative measurement noise (0 disables noise entirely).
    """

    #: application name used in problem/crowd-record identifiers
    name: str = "application"
    #: objective output name (paper: measured runtime)
    output_name: str = "runtime"
    #: log-normal noise scale for measured outputs
    noise_sigma: float = 0.03

    # -- spaces ------------------------------------------------------------
    @abstractmethod
    def input_space(self) -> Space:
        """Task parameters (problem sizes etc.)."""

    @abstractmethod
    def parameter_space(self) -> Space:
        """Tuning parameters."""

    def output_space(self) -> Space:
        return Space([OutputParameter(self.output_name)])

    # -- model -------------------------------------------------------------
    @abstractmethod
    def raw_objective(
        self, task: Mapping[str, Any], config: Mapping[str, Any]
    ) -> float | None:
        """Noiseless model output; ``None`` marks an infeasible/failed run."""

    def constraint(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> bool:
        """Fast feasibility predicate (cheaper than a failed evaluation)."""
        return True

    def default_task(self) -> dict[str, Any]:
        """A representative task, used by examples and quick tests."""
        rng = np.random.default_rng(0)
        return self.input_space().sample(rng)

    # -- problem assembly ------------------------------------------------------
    def objective(
        self, task: Mapping[str, Any], config: Mapping[str, Any], *, run: int = 0
    ) -> float | None:
        """Model output with reproducible measurement noise."""
        y = self.raw_objective(task, config)
        if y is None or not math.isfinite(y):
            return None
        if self.noise_sigma <= 0:
            return float(y)
        seed = deterministic_seed(self.name, dict(task), dict(config), run)
        factor = float(
            np.exp(np.random.default_rng(seed).normal(0.0, self.noise_sigma))
        )
        return float(y) * factor

    # -- multi-fidelity support (GPTuneBand extension) ---------------------
    def fidelity_bias(
        self, task: Mapping[str, Any], config: Mapping[str, Any], fraction: float
    ) -> float:
        """Systematic low-fidelity bias (0 for fidelity-exact models).

        Subclasses model what a cheap evaluation distorts: NIMROD's short
        runs over-weight startup transients; synthetic functions add a
        vanishing perturbation.  Must tend to 0 as ``fraction -> 1``.
        """
        del task, config, fraction
        return 0.0

    def fidelity_objective(
        self,
        task: Mapping[str, Any],
        config: Mapping[str, Any],
        fraction: float,
        *,
        run: int = 0,
    ) -> float | None:
        """Objective measured at reduced fidelity (cost ``fraction``).

        The estimate of the full-fidelity objective carries the
        subclass's systematic bias plus measurement noise amplified by
        ``1/sqrt(fraction)`` (averaging over fewer steps/samples).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fidelity fraction must be in (0, 1], got {fraction}")
        y = self.raw_objective(task, config)
        if y is None or not math.isfinite(y):
            return None
        y = float(y) + self.fidelity_bias(task, config, fraction)
        sigma = self.noise_sigma / math.sqrt(fraction)
        if sigma <= 0:
            return y
        seed = deterministic_seed(
            self.name, dict(task), dict(config), run, round(float(fraction), 9)
        )
        factor = float(np.exp(np.random.default_rng(seed).normal(0.0, sigma)))
        return y * factor

    def make_problem(self, *, run: int = 0, noisy: bool = True) -> TuningProblem:
        """Bundle this application into a tuning problem.

        ``run`` differentiates measurement noise across repeated tuning
        experiments; ``noisy=False`` exposes the raw model (used by tests
        asserting model shape and by sensitivity ground-truth checks).
        """

        if noisy:
            objective = lambda task, config: self.objective(task, config, run=run)
        else:
            objective = self.raw_objective
        return TuningProblem(
            name=self.name,
            input_space=self.input_space(),
            parameter_space=self.parameter_space(),
            output_space=self.output_space(),
            objective=objective,
            constraint=self.constraint,
        )
