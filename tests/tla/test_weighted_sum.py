"""Tests for the weighted-sum TLA strategies (paper Sec. V-B/C)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import TaskData
from repro.tla import TransferTuner, WeightedSumDynamic, WeightedSumStatic
from repro.tla.weighted_sum import dynamic_weights


def _source(shift, n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    y = (X[:, 0] - (0.3 + shift)) ** 2
    return TaskData({"shift": shift}, X, y, label=f"shift={shift}")


def _target_data(n=6, seed=1, opt=0.35):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    y = (X[:, 0] - opt) ** 2
    return TaskData({"shift": 0.05}, X, y)


class TestWeightedSumStatic:
    def test_prepare_requires_sources(self, rng):
        with pytest.raises(ValueError):
            WeightedSumStatic().prepare([], rng)

    def test_mixed_dims_rejected(self, rng):
        a = _source(0.0)
        b = TaskData({"s": 1}, np.random.default_rng(0).random((10, 2)), np.zeros(10))
        with pytest.raises(ValueError):
            WeightedSumStatic().prepare([a, b], rng)

    def test_empty_target_falls_back_to_sources(self, rng):
        strat = WeightedSumStatic()
        strat.prepare([_source(0.0)], rng)
        empty = TaskData({"shift": 0.05}, np.zeros((0, 1)), np.zeros(0))
        predict = strat.model(empty, rng)
        mean, _ = predict(np.array([[0.3], [0.9]]))
        assert mean[0] < mean[1]  # source knowledge: optimum near 0.3

    def test_equal_weights_by_default(self, rng):
        strat = WeightedSumStatic()
        strat.prepare([_source(0.0), _source(0.1, seed=3)], rng)
        predict = strat.model(_target_data(), rng)
        mean, std = predict(np.array([[0.5]]))
        assert np.isfinite(mean[0]) and std[0] > 0
        assert strat.name == "WeightedSum (equal)"

    def test_static_weights_used(self, rng):
        strat = WeightedSumStatic(weights=[0.0, 1.0])  # ignore source entirely
        strat.prepare([_source(0.3)], rng)
        target = _target_data(n=10)
        predict = strat.model(target, rng)
        # with zero source weight, prediction equals target GP alone
        mean, _ = predict(target.X)
        assert np.sqrt(np.mean((mean - target.y) ** 2)) < 0.05
        assert strat.name == "WeightedSum (static)"

    def test_wrong_weight_count(self, shifted_quadratics, source_factory):
        """One source needs two weights (sources then target): the run is
        refused before it spends an evaluation."""
        calls = []
        problem = dataclasses.replace(
            shifted_quadratics, objective=lambda task, cfg: calls.append(cfg) or 1.0
        )
        src = source_factory(shifted_quadratics, {"t": 4}, 20)
        tuner = TransferTuner(problem, WeightedSumStatic(weights=[1.0]), [src])
        with pytest.raises(ValueError, match="need 2 static weights"):
            tuner.tune({"t": 5}, 3, seed=0)
        assert calls == []


class TestDynamicWeights:
    def test_insufficient_target_returns_none(self):
        tgt = TaskData({"t": 0}, np.array([[0.5]]), np.array([1.0]))
        assert dynamic_weights([lambda X: (X[:, 0], X[:, 0])], tgt) is None

    def test_favors_correlated_source(self, rng):
        """A source aligned with the target should earn a larger weight
        than an anti-correlated one."""
        good = lambda X: ((X[:, 0] - 0.35) ** 2, np.full(X.shape[0], 0.1))
        bad = lambda X: (-((X[:, 0] - 0.35) ** 2), np.full(X.shape[0], 0.1))
        target = _target_data(n=12)
        w = dynamic_weights([good, bad], target)
        assert w is not None
        assert w[0] > w[1]

    def test_weights_nonnegative_and_normalized(self):
        models = [
            lambda X: ((X[:, 0] - 0.3) ** 2, np.full(X.shape[0], 0.1)),
            lambda X: ((X[:, 0] - 0.5) ** 2, np.full(X.shape[0], 0.1)),
        ]
        w = dynamic_weights(models, _target_data(n=15))
        assert w is not None
        assert np.all(w >= 0)
        assert np.sum(w) == pytest.approx(len(models))


class TestWeightedSumDynamic:
    def test_model_with_one_sample_falls_back_to_equal(self, rng):
        strat = WeightedSumDynamic()
        strat.prepare([_source(0.0)], rng)
        one = TaskData({"shift": 0.05}, np.array([[0.5]]), np.array([0.02]))
        predict = strat.model(one, rng)
        assert predict is not None

    def test_improves_over_equal_on_misleading_source(self, rng):
        """With one aligned and one misleading source, dynamic weighting
        should localize the optimum at least as well as equal weights."""
        aligned = _source(0.05)
        misleading = _source(0.6, seed=7)  # optimum at 0.9
        target = _target_data(n=8)

        def predicted_optimum(strategy):
            strategy.prepare([aligned, misleading], rng)
            predict = strategy.model(target, rng)
            grid = np.linspace(0, 0.999, 200)[:, None]
            mean, _ = predict(grid)
            return grid[np.argmin(mean), 0]

        x_dyn = predicted_optimum(WeightedSumDynamic())
        x_eq = predicted_optimum(WeightedSumStatic())
        assert abs(x_dyn - 0.35) <= abs(x_eq - 0.35) + 0.05
