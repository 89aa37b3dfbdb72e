"""Task-aware surrogates: predictions for unseen tasks.

GPTuneCrowd's ``QueryPredictOutput`` promises performance prediction
from crowd data.  Within one task a plain GP suffices; across tasks the
crowd holds samples for *many* tasks and a user often wants a prediction
for a task nobody measured (e.g. "how long will m=n=12000 take?").

:class:`TaskAwareSurrogate` fits a single GP over the joint unit cube
``[task parameters | tuning parameters]``, so predictions interpolate
across both axes at once.  This is the regression analogue of the LCM's
task correlation: where the LCM learns a free-form task covariance from
task *indices*, the joint GP exploits the task parameters' geometry —
exactly right when task parameters are sizes (PDGEQRF's m/n, Hypre's
grid dimensions) whose effect on runtime is smooth.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from .space import Space
from .sparse import make_surrogate, resolve_surrogate_kind

__all__ = ["TaskAwareSurrogate"]


class TaskAwareSurrogate:
    """GP over the joint (task, configuration) unit cube.

    Parameters
    ----------
    input_space:
        The task-parameter space.
    parameter_space:
        The tuning-parameter space.
    kernel:
        Kernel name over the joint cube (default ARD RBF: one learned
        lengthscale per task *and* tuning dimension).
    log_output:
        Model ``log(y)`` instead of ``y``; the right choice for runtimes,
        whose scale varies multiplicatively across task sizes.

    Each :meth:`fit` makes its GP there, dense or sparse by the
    ``"auto"`` policy of :mod:`repro.core.sparse` at the pooled size.
    """

    def __init__(
        self,
        input_space: Space,
        parameter_space: Space,
        *,
        kernel: str = "rbf",
        log_output: bool = True,
        gp_max_fun: int = 120,
        gp_restarts: int = 1,
        seed: int | None = None,
    ) -> None:
        self.input_space = input_space
        self.parameter_space = parameter_space
        self.log_output = log_output
        self._dim = input_space.dim + parameter_space.dim
        self._kernel = kernel
        self._gp_args = {"max_fun": gp_max_fun, "n_restarts": gp_restarts, "seed": seed}
        self._gp = None
        self._n_tasks_seen = 0

    # -- encoding --------------------------------------------------------
    def _encode(
        self, tasks: Sequence[Mapping[str, Any]], configs: Sequence[Mapping[str, Any]]
    ) -> np.ndarray:
        if len(tasks) != len(configs):
            raise ValueError(
                f"{len(tasks)} tasks vs {len(configs)} configurations"
            )
        T = self.input_space.to_unit_array(list(tasks))
        C = self.parameter_space.to_unit_array(list(configs))
        return np.hstack([T, C])

    # -- fitting -----------------------------------------------------------
    def fit(
        self,
        tasks: Sequence[Mapping[str, Any]],
        configs: Sequence[Mapping[str, Any]],
        outputs: Sequence[float],
    ) -> "TaskAwareSurrogate":
        """Fit on pooled samples from any number of tasks."""
        y = np.asarray(list(outputs), dtype=float)
        if y.size < 2:
            raise ValueError("need at least two samples to fit")
        if self.log_output:
            if np.any(y <= 0):
                raise ValueError("log_output requires strictly positive outputs")
            y = np.log(y)
        X = self._encode(tasks, configs)
        kind = resolve_surrogate_kind("auto", y.size)
        self._gp = make_surrogate(kind, self._kernel, dim=self._dim, **self._gp_args)
        self._gp.fit(X, y)
        self._n_tasks_seen = len({tuple(sorted(t.items())) for t in tasks})
        return self

    @property
    def fitted(self) -> bool:
        return self._gp is not None and self._gp.fitted

    @property
    def n_tasks_seen(self) -> int:
        return self._n_tasks_seen

    # -- prediction -------------------------------------------------------------
    def predict(
        self,
        task: Mapping[str, Any],
        configs: Sequence[Mapping[str, Any]],
        return_std: bool = False,
    ):
        """Predicted outputs for configurations on a (possibly unseen) task."""
        if not self.fitted:
            raise RuntimeError("predict() before fit()")
        X = self._encode([task] * len(configs), configs)
        mean, std = self._gp.predict(X)
        if self.log_output:
            # log-normal moments back in the original scale
            var = std**2
            out_mean = np.exp(mean + 0.5 * var)
            if not return_std:
                return out_mean
            out_std = out_mean * np.sqrt(np.maximum(np.exp(var) - 1.0, 0.0))
            return out_mean, out_std
        return (mean, std) if return_std else mean

    def predict_best_config(
        self,
        task: Mapping[str, Any],
        *,
        n_candidates: int = 2048,
        rng: np.random.Generator | None = None,
    ) -> tuple[dict[str, Any], float]:
        """The model's recommended configuration for a new task.

        This is the zero-evaluation transfer mode: before spending any
        budget, ask the crowd model where the optimum probably is.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        configs = [self.parameter_space.sample(rng) for _ in range(n_candidates)]
        preds = self.predict(task, configs)
        i = int(np.argmin(preds))
        return configs[i], float(preds[i])
