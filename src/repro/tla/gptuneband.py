"""GPTuneBand-style multi-fidelity bandit tuning (Zhu et al. [13]).

The GPTune package the paper ships with also contains GPTuneBand, which
"combines multitask learning with a multi-armed bandit strategy": cheap
low-fidelity evaluations (fewer time steps, smaller meshes) screen many
configurations, successive halving promotes the best to higher
fidelities, and the LCM models *fidelity levels as correlated tasks* so
low-fidelity observations shape the high-fidelity surrogate.

This module implements that scheme:

* :class:`MultiFidelityObjective` — an objective with a fidelity knob
  ``fraction in (0, 1]``; evaluating at fraction ``f`` costs ``f`` of a
  full evaluation (the budget is accounted in full-evaluation
  equivalents).
* :class:`GPTuneBand` — successive-halving brackets over a geometric
  fidelity ladder, with LCM-based promotion and final-fidelity search.

Applications expose fidelity through
:meth:`repro.apps.base.HPCApplication.fidelity_objective` (NIMROD scales
its time-step count; synthetic functions add a vanishing low-fidelity
bias), so the bandit tuner runs against the same substrate as everything
else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..core.lcm import LCM, LCMFitError
from ..core.space import Space

__all__ = ["MultiFidelityObjective", "GPTuneBand", "halving_schedule"]

FidelityFn = Callable[[Mapping[str, Any], Mapping[str, Any], float], float | None]


@dataclass
class MultiFidelityObjective:
    """A tunable objective with a fidelity fraction.

    ``fn(task, config, fraction)`` returns the (possibly noisy) objective
    measured at the given fidelity, or ``None`` on failure.  ``fraction``
    is also the relative cost of the evaluation.
    """

    fn: FidelityFn
    space: Space
    task: dict[str, Any]

    def __call__(self, config: Mapping[str, Any], fraction: float) -> float | None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fidelity fraction must be in (0, 1], got {fraction}")
        return self.fn(self.task, config, fraction)


def halving_schedule(
    n_configs: int, n_rungs: int, eta: float = 3.0
) -> list[tuple[int, float]]:
    """Successive-halving rungs as ``(n_survivors, fidelity_fraction)``.

    Rung ``r`` keeps ``n / eta^r`` configurations at fidelity
    ``eta^(r - n_rungs + 1)`` — the standard geometric ladder ending at
    full fidelity with ``n / eta^(n_rungs-1)`` survivors.
    """
    if n_configs < 1 or n_rungs < 1:
        raise ValueError("n_configs and n_rungs must be >= 1")
    if eta <= 1.0:
        raise ValueError("eta must be > 1")
    out = []
    for r in range(n_rungs):
        survivors = max(int(n_configs / eta**r), 1)
        fraction = float(eta ** (r - n_rungs + 1))
        out.append((survivors, min(fraction, 1.0)))
    return out


@dataclass
class BanditResult:
    """Outcome of a GPTuneBand run."""

    best_config: dict[str, Any] | None
    best_output: float
    #: full-evaluation equivalents actually spent
    cost_spent: float
    #: (config, fraction, output) for every evaluation, in order
    evaluations: list[tuple[dict[str, Any], float, float | None]] = field(
        default_factory=list
    )

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)


class GPTuneBand:
    """Multi-fidelity bandit tuner over a fidelity ladder.

    Parameters
    ----------
    objective:
        The multi-fidelity objective.
    n_rungs:
        Ladder depth (3 rungs with ``eta=3`` means fidelities
        1/9, 1/3, 1).
    eta:
        Halving rate.
    bracket_size:
        Configurations entering each bracket's lowest rung.
    use_lcm:
        Model fidelities as LCM tasks and propose new low-rung
        configurations from the joint model after the first bracket
        (GPTuneBand's multitask component); with ``False`` the tuner
        degenerates to plain successive halving with random proposals.
    """

    def __init__(
        self,
        objective: MultiFidelityObjective,
        *,
        n_rungs: int = 3,
        eta: float = 3.0,
        bracket_size: int = 9,
        use_lcm: bool = True,
        lcm_max_fun: int = 40,
    ) -> None:
        if n_rungs < 1:
            raise ValueError("n_rungs must be >= 1")
        self.objective = objective
        self.n_rungs = n_rungs
        self.eta = eta
        self.bracket_size = bracket_size
        self.use_lcm = use_lcm
        self.lcm_max_fun = lcm_max_fun
        # per-rung datasets: rung index -> (list of unit rows, list of y)
        self._data: list[tuple[list[np.ndarray], list[float]]] = [
            ([], []) for _ in range(n_rungs)
        ]

    # -- modeling -------------------------------------------------------------
    def _fit_lcm(self, rng: np.random.Generator) -> LCM | None:
        if not self.use_lcm:
            return None
        datasets = []
        n_total = 0
        for xs, ys in self._data:
            X = np.vstack(xs) if xs else np.empty((0, self.objective.space.dim))
            y = np.asarray(ys, dtype=float)
            n_total += y.size
            datasets.append((X, y))
        if n_total < 4:
            return None
        lcm = LCM(
            self.n_rungs,
            self.objective.space.dim,
            optimize=True,
            max_fun=self.lcm_max_fun,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        try:
            lcm.fit(datasets)
        except (LCMFitError, ValueError):
            return None
        return lcm

    def _propose_batch(
        self, n: int, rng: np.random.Generator
    ) -> list[dict[str, Any]]:
        """New lowest-rung configurations: LCM-guided when possible."""
        space = self.objective.space
        lcm = self._fit_lcm(rng)
        if lcm is None:
            return [space.sample(rng) for _ in range(n)]
        # score a random pool by the top rung's predicted mean minus an
        # exploration bonus, keep the n best
        pool = max(n * 16, 64)
        U = rng.random((pool, space.dim))
        mean, std = lcm.predict(self.n_rungs - 1, U)
        score = mean - std
        idx = np.argsort(score)[:n]
        return [space.from_unit(U[i]) for i in idx]

    # -- main loop ---------------------------------------------------------------
    def tune(self, budget: float, *, seed: int | None = None) -> BanditResult:
        """Spend ``budget`` full-evaluation equivalents across brackets."""
        if budget <= 0:
            raise ValueError("budget must be positive")
        rng = np.random.default_rng(seed)
        space = self.objective.space
        result = BanditResult(best_config=None, best_output=math.inf, cost_spent=0.0)
        schedule = halving_schedule(self.bracket_size, self.n_rungs, self.eta)

        while result.cost_spent < budget:
            candidates = self._propose_batch(schedule[0][0], rng)
            scores: list[float] = []
            for rung, (n_keep, fraction) in enumerate(schedule):
                candidates = candidates[:n_keep]
                scores = []
                for config in candidates:
                    if result.cost_spent >= budget:
                        break
                    y = self.objective(config, fraction)
                    result.cost_spent += fraction
                    result.evaluations.append((dict(config), fraction, y))
                    if y is None:
                        scores.append(math.inf)
                        continue
                    scores.append(float(y))
                    self._data[rung][0].append(space.to_unit(config))
                    self._data[rung][1].append(float(y))
                    if fraction >= 1.0 and y < result.best_output:
                        result.best_output = float(y)
                        result.best_config = dict(config)
                # promote the best survivors to the next rung
                order = np.argsort(scores) if scores else []
                candidates = [candidates[i] for i in order]
                if result.cost_spent >= budget:
                    break
        return result
