"""Tests for repro.tla.base: source GPs, weighted combination, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TaskData, perf
from repro.tla import MultitaskTS, Stacking, WeightedSumStatic
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


class _GPUser:
    """The base class's target GP, driven the way a strategy drives it."""

    fits, updates = "gp_fits", "gp_incremental_updates"
    #: a diverged history refits the held surrogate in place
    frozen_refit_in_place = True

    def __init__(self, **kw):
        self.strategy = WeightedSumStatic(**kw)
        self.cadence = self.strategy._target

    def refresh(self, X, y, rng):
        return self.strategy._target_gp(TaskData({}, X, y), rng)

    @staticmethod
    def n_train(gp):
        return gp.n_train

    @staticmethod
    def theta(gp):
        return gp.kernel.get_theta().copy()

    @staticmethod
    def is_cold(gp):
        """Fit from default hyperparameters with the random restarts on."""
        return gp.n_restarts == 1


class _ResidualUser(_GPUser):
    """Stacking's residual GP: a second cadence beside the base class's."""

    def __init__(self, **kw):
        self.strategy = Stacking(**kw)
        self.cadence = self.strategy._residual

    def refresh(self, X, y, rng):
        return self.strategy._refresh_gp(self.cadence, X, y, rng)


class _LCMUser:
    """The multitask strategies' joint LCM, kept by the same cadence."""

    fits, updates = "lcm_fits", "lcm_incremental_updates"
    #: every LCM fit is a fresh object started at the previous theta
    frozen_refit_in_place = False

    def __init__(self, **kw):
        self.strategy = MultitaskTS(lcm_max_fun=15, **kw)
        self.cadence = self.strategy._target
        Xs = np.random.default_rng(5).random((10, 2))
        self.sources = [(Xs, np.sin(3 * Xs[:, 0]) + Xs[:, 1] ** 2 + 0.1)]

    def refresh(self, X, y, rng):
        if self.strategy._fit_lcm(self.sources, TaskData({}, X, y), rng) is None:
            return None
        return self.cadence.model

    @staticmethod
    def n_train(lcm):
        return lcm._state.y_tasks[-1].size

    @staticmethod
    def theta(lcm):
        return lcm._theta.copy()

    @staticmethod
    def is_cold(lcm):
        return False  # a boundary LCM is always warm-started


@pytest.mark.parametrize(
    "user_of",
    [_GPUser, _ResidualUser, _LCMUser],
    ids=["target-gp", "stacking-residual", "multitask-lcm"],
)
class TestRefitCadence:
    """The one refit-cadence state machine (:mod:`repro.core.fit`), driven
    through each of its TLA users: the base class's target GP, Stacking's
    residual GP and the multitask LCM."""

    @staticmethod
    def _data(n, seed=0):
        X = np.random.default_rng(seed).random((n, 2))
        return X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2

    def test_boundaries_refit_and_steps_between_absorb(self, user_of, rng):
        user = user_of(refit_every=3)
        X, y = self._data(12)
        first = user.refresh(X[:6], y[:6], rng)
        assert user.n_train(first) == 6
        if user_of is not _LCMUser:  # the first boundary of a GP is a cold fit
            assert user.is_cold(first)
        with perf.collect() as stats:
            # unchanged data off the boundary: the model is reused outright
            assert user.refresh(X[:6], y[:6], rng) is first
            reused = stats.snapshot()["counters"]
            assert user.fits not in reused and user.updates not in reused
            # appended rows: absorbed by rank-1 updates, hyperparameters frozen
            theta = user.theta(first)
            assert user.refresh(X[:8], y[:8], rng) is first
        assert user.n_train(first) == 8 and np.array_equal(user.theta(first), theta)
        counters = stats.snapshot()["counters"]
        # the absorbing call counts once (an LCM also counts its reuses)
        before = reused.get("tla_incremental_refits", 0)
        assert counters["tla_incremental_refits"] - before == 1
        assert before == (1 if user_of is _LCMUser else 0)
        assert counters[user.updates] == 2 and user.fits not in counters
        # the next boundary re-runs the MLE in a fresh model, warm-started
        with perf.collect() as stats:
            second = user.refresh(X[:9], y[:9], rng)
        assert second is not first and user.n_train(second) == 9
        assert not user.is_cold(second)
        timers = stats.snapshot()["timers"]
        assert "gp_mle" in timers or "lcm_mle" in timers

    def test_diverged_history_refits_without_reoptimizing(self, user_of, rng):
        user = user_of(refit_every=4)
        X, y = self._data(10)
        held = user.refresh(X[:6], y[:6], rng)
        theta = user.theta(held)
        with perf.collect() as stats:
            refit = user.refresh(X[2:9], y[2:9], rng)  # not a prefix
        assert (refit is held) == user.frozen_refit_in_place
        assert user.n_train(refit) == 7 and refit.optimize is True
        assert np.array_equal(user.theta(refit), theta)
        snap = stats.snapshot()
        assert snap["counters"][user.fits] == 1
        assert "tla_incremental_refits" not in snap["counters"]
        assert "gp_mle" not in snap["timers"] and "lcm_mle" not in snap["timers"]

    def test_default_cadence_cold_fits_every_call(self, user_of, rng):
        user = user_of()  # refit_every=1: every call is a boundary
        X, y = self._data(8)
        first = user.refresh(X[:6], y[:6], rng)
        with perf.collect() as stats:
            second = user.refresh(X[:6], y[:6], rng)
        assert second is not first
        assert stats.snapshot()["counters"][user.fits] == 1
        if user_of is not _LCMUser:  # the GPs: no warm start, restarts kept
            assert user.is_cold(first) and user.is_cold(second)

    def test_seed_drawn_on_every_call(self, user_of):
        """Reuse, append, diverged refit and boundary fit each consume exactly
        one draw, so the cadence never shifts the caller's random stream."""
        user = user_of(refit_every=3)
        X, y = self._data(10)
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        for lo, hi in [(0, 5), (0, 5), (0, 7), (0, 8), (1, 8), (1, 9)]:
            user.refresh(X[lo:hi], y[lo:hi], rng)
            reference.integers(0, 2**31 - 1)
            assert rng.bit_generator.state == reference.bit_generator.state
        if user_of is not _LCMUser:  # an LCM fits its sources without a target
            empty = user.refresh(X[:0], y[:0], rng)  # no data: no model, no draw
            assert empty is None
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_reset_forgets_the_model(self, user_of, rng):
        user = user_of(refit_every=5)
        X, y = self._data(8)
        first = user.refresh(X, y, rng)
        user.cadence.reset()
        assert user.cadence.model is None
        with perf.collect() as stats:
            assert user.refresh(X, y, rng) is not first
        timers = stats.snapshot()["timers"]
        assert "gp_mle" in timers or "lcm_mle" in timers  # a boundary again

    def test_prepare_resets_the_cadence(self, user_of, rng):
        user = user_of(refit_every=5)
        X, y = self._data(8)
        user.refresh(X, y, rng)
        user.strategy.prepare([_linear_source(1.0, d=2)], rng)
        assert user.cadence.model is None
