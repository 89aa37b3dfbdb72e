"""Tests for repro.tla.base: source GPs, weighted combination, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TaskData, perf
from repro.tla import Stacking, WeightedSumStatic
from repro.tla.base import combine_weighted, equal_weight_model, fit_source_gps


def _linear_source(slope, n=25, seed=0, d=1):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = slope * X[:, 0]
    return TaskData({"s": slope}, X, y, label=f"slope={slope}")


class TestFitSourceGPs:
    def test_one_gp_per_source(self, rng):
        gps = fit_source_gps([_linear_source(1.0), _linear_source(2.0)], rng)
        assert len(gps) == 2
        for gp, slope in zip(gps, (1.0, 2.0)):
            pred = gp.predict_mean(np.array([[0.5]]))
            assert pred[0] == pytest.approx(0.5 * slope, abs=0.1)

    def test_empty_source_rejected(self, rng):
        empty = TaskData({"s": 0}, np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            fit_source_gps([empty], rng)


class TestCombineWeighted:
    def test_weight_count_checked(self):
        with pytest.raises(ValueError):
            combine_weighted([lambda X: (X[:, 0], X[:, 0])], np.array([1.0, 2.0]))

    def test_mean_is_normalized_weighted_sum(self):
        """Weights are normalized to sum 1 (Eq. (1) convex combination)."""
        m1 = lambda X: (np.full(X.shape[0], 2.0), np.full(X.shape[0], 1.0))
        m2 = lambda X: (np.full(X.shape[0], 4.0), np.full(X.shape[0], 1.0))
        combined = combine_weighted([m1, m2], np.array([0.5, 2.0]))
        mean, _ = combined(np.zeros((3, 1)))
        assert np.allclose(mean, 0.2 * 2.0 + 0.8 * 4.0)

    def test_std_is_weighted_geometric_mean(self):
        """Eq. (2) with normalized weights: sigma = prod sigma_i^{w_i}."""
        m1 = lambda X: (np.zeros(X.shape[0]), np.full(X.shape[0], 4.0))
        m2 = lambda X: (np.zeros(X.shape[0]), np.full(X.shape[0], 1.0))
        combined = combine_weighted([m1, m2], np.array([0.5, 1.0]))
        _, std = combined(np.zeros((2, 1)))
        assert np.allclose(std, 4.0 ** (1.0 / 3.0) * 1.0 ** (2.0 / 3.0))

    def test_scaled_weights_equivalent(self):
        """Scaling all weights by a constant does not change the output."""
        m1 = lambda X: (np.full(X.shape[0], 2.0), np.full(X.shape[0], 3.0))
        m2 = lambda X: (np.full(X.shape[0], 4.0), np.full(X.shape[0], 1.5))
        X = np.zeros((2, 1))
        mu_a, sd_a = combine_weighted([m1, m2], np.array([1.0, 3.0]))(X)
        mu_b, sd_b = combine_weighted([m1, m2], np.array([10.0, 30.0]))(X)
        assert np.allclose(mu_a, mu_b)
        assert np.allclose(sd_a, sd_b)

    def test_negative_weight_rejected(self):
        m = lambda X: (np.zeros(X.shape[0]), np.ones(X.shape[0]))
        with pytest.raises(ValueError, match="non-negative"):
            combine_weighted([m, m], np.array([1.0, -0.5]))

    def test_nonfinite_weight_rejected(self):
        m = lambda X: (np.zeros(X.shape[0]), np.ones(X.shape[0]))
        with pytest.raises(ValueError, match="finite"):
            combine_weighted([m, m], np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            combine_weighted([m, m], np.array([np.inf, 1.0]))

    def test_all_zero_weights_rejected(self):
        m = lambda X: (np.zeros(X.shape[0]), np.ones(X.shape[0]))
        with pytest.raises(ValueError, match="zero"):
            combine_weighted([m, m], np.zeros(2))

    def test_zero_std_guarded(self):
        m = lambda X: (np.zeros(X.shape[0]), np.zeros(X.shape[0]))
        combined = combine_weighted([m], np.array([1.0]))
        _, std = combined(np.zeros((2, 1)))
        assert np.all(np.isfinite(std)) and np.all(std >= 0)


class TestEqualWeightModel:
    def test_needs_sources(self):
        with pytest.raises(ValueError):
            equal_weight_model([])

    def test_averages_sources(self, rng):
        gps = fit_source_gps([_linear_source(2.0), _linear_source(4.0)], rng)
        model = equal_weight_model(gps)
        mean, std = model(np.array([[0.5]]))
        # normalized equal weights: average of the source means
        assert mean[0] == pytest.approx(1.5, abs=0.2)
        assert std[0] > 0


@pytest.mark.parametrize(
    "cadence_of",
    [
        lambda **kw: WeightedSumStatic(**kw)._target,
        lambda **kw: Stacking(**kw)._residual,
    ],
    ids=["target-gp", "stacking-residual"],
)
class TestRefitCadence:
    """The one refit-cadence state machine, driven for both of its users:
    the base class's target GP and Stacking's residual GP."""

    @staticmethod
    def _data(n, seed=0):
        X = np.random.default_rng(seed).random((n, 2))
        return X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2

    def test_boundaries_refit_and_steps_between_absorb(self, cadence_of, rng):
        cadence = cadence_of(refit_every=3)
        X, y = self._data(12)
        first = cadence.refresh(X[:6], y[:6], rng)
        assert first.n_train == 6 and first.n_restarts == 1  # cold boundary fit
        with perf.collect() as stats:
            # unchanged data off the boundary: the model is reused outright
            assert cadence.refresh(X[:6], y[:6], rng) is first
            reused = stats.snapshot()["counters"]
            assert "gp_fits" not in reused and "gp_incremental_updates" not in reused
            # appended rows: absorbed by rank-1 updates, hyperparameters frozen
            theta = first.kernel.get_theta().copy()
            assert cadence.refresh(X[:8], y[:8], rng) is first
        assert first.n_train == 8 and np.array_equal(first.kernel.get_theta(), theta)
        counters = stats.snapshot()["counters"]
        assert counters["tla_incremental_refits"] == 1
        assert counters["gp_incremental_updates"] == 2 and "gp_fits" not in counters
        # the next boundary re-runs the MLE in a fresh GP, warm-started
        second = cadence.refresh(X[:9], y[:9], rng)
        assert second is not first and second.n_train == 9
        assert second.n_restarts == 0

    def test_diverged_history_refits_without_reoptimizing(self, cadence_of, rng):
        cadence = cadence_of(refit_every=4)
        X, y = self._data(10)
        gp = cadence.refresh(X[:6], y[:6], rng)
        theta = gp.kernel.get_theta().copy()
        with perf.collect() as stats:
            assert cadence.refresh(X[2:9], y[2:9], rng) is gp  # not a prefix
        assert gp.n_train == 7 and gp.optimize is True
        assert np.array_equal(gp.kernel.get_theta(), theta)
        counters = stats.snapshot()["counters"]
        assert counters["gp_fits"] == 1 and "tla_incremental_refits" not in counters

    def test_default_cadence_cold_fits_every_call(self, cadence_of, rng):
        cadence = cadence_of()  # refit_every=1: no warm start, restarts kept
        X, y = self._data(8)
        first = cadence.refresh(X[:6], y[:6], rng)
        second = cadence.refresh(X[:6], y[:6], rng)
        assert second is not first and second.n_restarts == 1

    def test_seed_drawn_on_every_call(self, cadence_of):
        """Reuse, append, diverged refit and boundary fit each consume exactly
        one draw, so the cadence never shifts the caller's random stream."""
        cadence = cadence_of(refit_every=3)
        X, y = self._data(10)
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        for lo, hi in [(0, 5), (0, 5), (0, 7), (0, 8), (1, 8), (1, 9)]:
            cadence.refresh(X[lo:hi], y[lo:hi], rng)
            reference.integers(0, 2**31 - 1)
            assert rng.bit_generator.state == reference.bit_generator.state
        empty = cadence.refresh(X[:0], y[:0], rng)  # no data: no model, no draw
        assert empty is None
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_reset_forgets_the_model(self, cadence_of, rng):
        cadence = cadence_of(refit_every=5)
        X, y = self._data(8)
        first = cadence.refresh(X, y, rng)
        cadence.reset()
        assert cadence.gp is None
        assert cadence.refresh(X, y, rng) is not first
