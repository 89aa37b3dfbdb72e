"""Synthetic objective functions from the paper's Sec. VI-A (system S23).

Two functions used by prior autotuning literature [8], [22] and by the
paper's Figure 3 TLA comparison:

* :class:`DemoFunction` — GPTune's explicit demo objective with one task
  parameter ``t`` and one tuning parameter ``x``:

      y(t, x) = 1 + exp(-(x+1)^(t+1)) * cos(2 pi x)
                    * sum_{i=1..3} sin(2 pi x (t+2)^i)

* :class:`BraninFunction` — the generalized Branin family with six task
  parameters ``(a, b, c, r, s, t)`` and two tuning parameters
  ``(x1, x2)``:

      y = a (x2 - b x1^2 + c x1 - r)^2 + s (1 - t) cos(x1) + s

  Task ranges bracket the classic Branin constants
  (a=1, b=5.1/(4 pi^2), c=5/pi, r=6, s=10, t=1/(8 pi)), so randomly drawn
  source/target tasks (the paper's S1-S3 / T1-T2) are correlated but not
  identical — exactly the transfer-learning regime.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from ..core.space import RealParameter, Space
from .base import HPCApplication

__all__ = ["DemoFunction", "BraninFunction"]

_PI = math.pi

#: the classic Branin constants, center of the task ranges below
BRANIN_CLASSIC_TASK: dict[str, float] = {
    "a": 1.0,
    "b": 5.1 / (4.0 * _PI**2),
    "c": 5.0 / _PI,
    "r": 6.0,
    "s": 10.0,
    "t": 1.0 / (8.0 * _PI),
}


class DemoFunction(HPCApplication):
    """GPTune's 1-D demo objective (paper Fig. 3 (a)-(b))."""

    name = "demo"
    output_name = "y"
    noise_sigma = 0.0  # the paper's synthetic study is noiseless

    def input_space(self) -> Space:
        return Space([RealParameter("t", 0.0, 10.0)])

    def parameter_space(self) -> Space:
        return Space([RealParameter("x", 0.0, 1.0)])

    def raw_objective(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> float:
        t = float(task["t"])
        x = float(config["x"])
        envelope = math.exp(-((x + 1.0) ** (t + 1.0)))
        waves = sum(math.sin(2.0 * _PI * x * (t + 2.0) ** i) for i in (1, 2, 3))
        return 1.0 + envelope * math.cos(2.0 * _PI * x) * waves

    def default_task(self) -> dict[str, Any]:
        return {"t": 1.0}

    def fidelity_bias(self, task, config, fraction: float) -> float:
        """A vanishing high-frequency perturbation: low-fidelity
        evaluations see a slightly different landscape, so rankings are
        correlated-but-imperfect across fidelities (the multi-fidelity
        benchmark convention)."""
        x = float(config["x"])
        return 0.12 * (1.0 - fraction) * math.sin(7.0 * _PI * x)


class BraninFunction(HPCApplication):
    """Generalized Branin family (paper Fig. 3 (c)-(f))."""

    name = "branin"
    output_name = "y"
    noise_sigma = 0.0

    def input_space(self) -> Space:
        classic = BRANIN_CLASSIC_TASK
        return Space(
            [
                RealParameter("a", 0.5 * classic["a"], 1.5 * classic["a"]),
                RealParameter("b", 0.5 * classic["b"], 1.5 * classic["b"]),
                RealParameter("c", 0.5 * classic["c"], 1.5 * classic["c"]),
                RealParameter("r", 0.5 * classic["r"], 1.5 * classic["r"]),
                RealParameter("s", 0.5 * classic["s"], 1.5 * classic["s"]),
                RealParameter("t", 0.5 * classic["t"], 1.5 * classic["t"]),
            ]
        )

    def parameter_space(self) -> Space:
        return Space(
            [
                RealParameter("x1", -5.0, 10.0),
                RealParameter("x2", 0.0, 15.0),
            ]
        )

    def raw_objective(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> float:
        a, b, c = float(task["a"]), float(task["b"]), float(task["c"])
        r, s, t = float(task["r"]), float(task["s"]), float(task["t"])
        x1, x2 = float(config["x1"]), float(config["x2"])
        return a * (x2 - b * x1**2 + c * x1 - r) ** 2 + s * (1.0 - t) * math.cos(x1) + s

    def default_task(self) -> dict[str, Any]:
        return dict(BRANIN_CLASSIC_TASK)
