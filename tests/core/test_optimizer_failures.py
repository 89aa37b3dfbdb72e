"""Focused tests for failure handling inside the acquisition search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExpectedImprovement,
    IntegerParameter,
    OutputParameter,
    RealParameter,
    SearchOptions,
    Space,
    Tuner,
    TunerOptions,
    TuningProblem,
)
from repro.core.optimizer import search_next


def _flat_predict(U):
    """A model with no opinion: constant mean, constant std."""
    return np.zeros(U.shape[0]), np.ones(U.shape[0])


@pytest.fixture
def space():
    return Space([RealParameter("a", 0, 1), RealParameter("b", 0, 1)])


class TestTabuDamping:
    def test_repeated_search_avoids_failed_point(self, space, rng):
        failed = np.array([[0.5, 0.5]])
        for _ in range(5):
            cfg = search_next(
                _flat_predict,
                space,
                ExpectedImprovement(),
                rng,
                X_failed=failed,
                options=SearchOptions(n_candidates=256, failure_radius=0.2),
            )
            d = np.hypot(cfg["a"] - 0.5, cfg["b"] - 0.5)
            assert d > 0.05

    def test_empty_failed_array_is_noop(self, space, rng):
        cfg = search_next(
            _flat_predict,
            space,
            ExpectedImprovement(),
            rng,
            X_failed=np.empty((0, 2)),
        )
        assert space.contains(cfg)


class TestEmptyHistoryReference:
    def test_no_observations_still_proposes_model_minimum_region(self, space, rng):
        """With zero successes, EI must anchor on the model's own
        predictions — not a bogus zero reference that rewards variance."""

        def predict(U):
            mean = (U[:, 0] - 0.2) ** 2 + (U[:, 1] - 0.8) ** 2
            std = np.full(U.shape[0], 0.01)
            return mean, std

        hits = 0
        for seed in range(5):
            cfg = search_next(
                predict,
                space,
                ExpectedImprovement(),
                np.random.default_rng(seed),
                X_obs=np.empty((0, 2)),
            )
            if abs(cfg["a"] - 0.2) < 0.25 and abs(cfg["b"] - 0.8) < 0.25:
                hits += 1
        assert hits >= 3


class TestLearnFeasibilityOption:
    def _problem(self):
        def obj(task, cfg):
            if cfg["x"] > 0.75:
                return None
            return (cfg["x"] - 0.3) ** 2

        return TuningProblem(
            name="p",
            input_space=Space([IntegerParameter("t", 0, 2)]),
            parameter_space=Space([RealParameter("x", 0.0, 1.0)]),
            output_space=Space([OutputParameter("y")]),
            objective=obj,
        )

    def test_learning_reduces_failures(self):
        problem = self._problem()
        fails = {}
        for mode, learn in (("on", True), ("off", False)):
            total = 0
            for seed in range(4):
                opts = TunerOptions(n_initial=2, learn_feasibility=learn)
                res = Tuner(problem, opts).tune({"t": 1}, 12, seed=seed)
                total += res.history.n_failures
            fails[mode] = total
        assert fails["on"] <= fails["off"]

    def test_both_modes_find_optimum(self):
        problem = self._problem()
        for learn in (True, False):
            opts = TunerOptions(n_initial=2, learn_feasibility=learn)
            res = Tuner(problem, opts).tune({"t": 1}, 15, seed=0)
            assert res.best_output == pytest.approx(0.0, abs=0.01)
