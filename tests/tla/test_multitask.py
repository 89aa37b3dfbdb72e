"""Tests for Multitask(PS) and Multitask(TS) (paper Sec. V-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TaskData
from repro.tla import MultitaskPS, MultitaskTS


def _source(n=40, seed=0, opt=0.3):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    return TaskData({"opt": opt}, X, (X[:, 0] - opt) ** 2, label="src")


def _target(n, opt=0.35, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    return TaskData({"opt": opt}, X, (X[:, 0] - opt) ** 2)


class TestMultitaskTS:
    def test_cold_start_zero_target_samples(self, rng):
        """TS must produce a model with an empty target (Sec. V-A2)."""
        strat = MultitaskTS()
        strat.prepare([_source()], rng)
        predict = strat.model(_target(0), rng)
        assert predict is not None
        mean, std = predict(np.array([[0.3], [0.95]]))
        assert mean[0] < mean[1]  # transferred source shape
        assert np.all(std > 0)

    def test_model_tracks_target_with_data(self, rng):
        strat = MultitaskTS()
        strat.prepare([_source()], rng)
        target = _target(10)
        predict = strat.model(target, rng)
        grid = np.linspace(0, 0.999, 100)[:, None]
        mean, _ = predict(grid)
        assert grid[np.argmin(mean), 0] == pytest.approx(0.35, abs=0.1)

    def test_source_subsampling(self, rng):
        strat = MultitaskTS(max_source_samples=10)
        strat.prepare([_source(n=100)], rng)
        assert strat._source_sets[0][0].shape[0] == 10

    def test_no_subsampling_when_none(self, rng):
        strat = MultitaskTS(max_source_samples=None)
        strat.prepare([_source(n=60)], rng)
        assert strat._source_sets[0][0].shape[0] == 60

    def test_multiple_sources(self, rng):
        strat = MultitaskTS()
        strat.prepare([_source(seed=0), _source(seed=5, opt=0.32)], rng)
        predict = strat.model(_target(3), rng)
        assert predict is not None


class TestMultitaskPS:
    def test_pseudo_samples_seeded_on_prepare(self, rng):
        strat = MultitaskPS(n_pseudo_init=6)
        strat.prepare([_source()], rng)
        xs, ys = strat._pseudo[0]
        assert len(xs) == 6 and len(ys) == 6

    def test_notify_proposal_appends_pseudo_samples(self, rng):
        strat = MultitaskPS(n_pseudo_init=4)
        strat.prepare([_source(), _source(seed=9)], rng)
        strat.notify_proposal(np.array([0.5]), rng)
        for xs, ys in strat._pseudo:
            assert len(xs) == 5

    def test_pseudo_values_come_from_source_gp(self, rng):
        strat = MultitaskPS(n_pseudo_init=2)
        src = _source(n=50)
        strat.prepare([src], rng)
        x = np.array([0.3])
        strat.notify_proposal(x, rng)
        xs, ys = strat._pseudo[0]
        gp_mean = strat.source_gps[0].predict_mean(x[None, :])[0]
        assert ys[-1] == pytest.approx(gp_mean, abs=1e-9)

    def test_empty_target_uses_source_fallback(self, rng):
        strat = MultitaskPS()
        strat.prepare([_source()], rng)
        predict = strat.model(_target(0), rng)
        assert predict is not None

    def test_model_with_target_data(self, rng):
        strat = MultitaskPS()
        strat.prepare([_source()], rng)
        strat.notify_proposal(np.array([0.4]), rng)
        predict = strat.model(_target(4), rng)
        mean, std = predict(np.array([[0.2], [0.8]]))
        assert np.all(np.isfinite(mean)) and np.all(std > 0)

    def test_prepare_from_models_requires_models(self):
        with pytest.raises(ValueError):
            MultitaskPS().prepare_from_models([], dim=1, rng=np.random.default_rng(0))


class TestRefitAmortization:
    def test_refit_every_skips_optimization(self, rng):
        strat = MultitaskTS(refit_every=3, lcm_max_fun=20)
        strat.prepare([_source()], rng)
        strat.model(_target(2), rng)
        theta_after_first = strat._target.model._theta.copy()
        # second call should reuse hyperparameters (optimize=False)
        strat.model(_target(3), rng)
        assert np.allclose(strat._target.model._theta, theta_after_first)

    def test_incremental_update_between_refits(self, rng):
        """Between refit boundaries an append-only step grows the cached
        Cholesky instead of refitting, and predicts identically."""
        from repro.core import LCM, perf

        strat = MultitaskTS(refit_every=4, lcm_max_fun=20)
        strat.prepare([_source()], rng)
        strat.model(_target(2), rng)
        cached = strat._target.model
        target3 = _target(3)  # same seed: _target(2)'s rows are a prefix
        with perf.collect() as stats:
            predict = strat.model(target3, rng)
        counters = stats.snapshot()["counters"]
        assert counters.get("lcm_incremental_updates", 0) == 1
        assert counters.get("lcm_fits", 0) == 0  # no refactorization
        assert strat._target.model is cached  # the cached model object was grown

        ref = LCM(2, 1, optimize=False)
        ref.warm_start_from(cached)
        ref.fit(list(strat._source_sets) + [(target3.X, target3.y)])
        grid = np.linspace(0, 0.999, 50)[:, None]
        m1, s1 = predict(grid)
        m2, s2 = ref.predict(1, grid)
        np.testing.assert_allclose(m1, m2, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(s1, s2, rtol=1e-8, atol=1e-8)

    def test_diverged_history_falls_back_to_full_fit(self, rng):
        """A non-append change (different target draw) must not be absorbed
        incrementally: a fresh non-optimizing fit replaces the cache."""
        from repro.core import perf

        strat = MultitaskTS(refit_every=4, lcm_max_fun=20)
        strat.prepare([_source()], rng)
        strat.model(_target(2), rng)
        cached = strat._target.model
        with perf.collect() as stats:
            predict = strat.model(_target(2, seed=9), rng)
        counters = stats.snapshot()["counters"]
        assert counters.get("lcm_incremental_updates", 0) == 0
        assert counters.get("lcm_fits", 0) == 1
        assert strat._target.model is not cached
        assert predict is not None
