"""Tests for the GP hot path: incremental updates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RBF, GaussianProcess, perf
from repro.core import gp as gp_mod


def _data(rng, n, d=3):
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 - 0.5 * X[:, 2]
    return X, y


class TestUpdateEquivalence:
    def test_matches_full_fit_over_20_appends(self, rng):
        """update() is an amortization, not an approximation: after every
        append the predictions equal a from-scratch non-optimizing fit."""
        X, y = _data(rng, 35)
        inc = GaussianProcess(RBF(3), optimize=False).fit(X[:15], y[:15])
        Xq = rng.random((40, 3))
        for i in range(15, 35):
            inc.update(X[i : i + 1], y[i : i + 1])
            ref = GaussianProcess(RBF(3), optimize=False)
            ref.fit(X[: i + 1], y[: i + 1])
            m1, s1 = inc.predict(Xq)
            m2, s2 = ref.predict(Xq)
            np.testing.assert_allclose(m1, m2, atol=1e-8)
            np.testing.assert_allclose(s1, s2, atol=1e-8)

    def test_batch_append_matches_full_fit(self, rng):
        X, y = _data(rng, 30)
        inc = GaussianProcess(RBF(3), optimize=False).fit(X[:20], y[:20])
        inc.update(X[20:], y[20:])
        ref = GaussianProcess(RBF(3), optimize=False).fit(X, y)
        Xq = rng.random((25, 3))
        np.testing.assert_allclose(inc.predict_mean(Xq), ref.predict_mean(Xq), atol=1e-8)

    def test_update_keeps_mle_hyperparameters(self, rng):
        X, y = _data(rng, 25)
        inc = GaussianProcess(RBF(3), optimize=True, seed=0).fit(X[:20], y[:20])
        theta = inc._theta().copy()
        inc.update(X[20:], y[20:])
        np.testing.assert_allclose(inc._theta(), theta)
        kernel = RBF(3)
        kernel.set_theta(theta[:-1])
        ref = GaussianProcess(
            kernel, noise_variance=float(np.exp(theta[-1])), optimize=False
        ).fit(X, y)
        np.testing.assert_allclose(inc.predict_mean(X), ref.predict_mean(X), atol=1e-8)

    def test_update_counts_appended_points(self, rng):
        X, y = _data(rng, 14)
        inc = GaussianProcess(RBF(3), optimize=False).fit(X[:10], y[:10])
        with perf.collect() as stats:
            inc.update(X[10:], y[10:])
        assert stats.snapshot()["counters"]["gp_incremental_updates"] == 4
        assert inc.n_train == 14

    def test_update_after_deserialization(self, rng):
        X, y = _data(rng, 20)
        fitted = GaussianProcess(RBF(3), optimize=False).fit(X[:18], y[:18])
        clone = GaussianProcess.from_dict(fitted.to_dict())
        clone.update(X[18:], y[18:])
        ref = GaussianProcess(RBF(3), optimize=False).fit(X, y)
        np.testing.assert_allclose(clone.predict_mean(X), ref.predict_mean(X), atol=1e-6)

    def test_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess(RBF(2)).update(np.zeros((1, 2)), np.zeros(1))

    def test_update_shape_checks(self, rng):
        X, y = _data(rng, 10)
        inc = GaussianProcess(RBF(3), optimize=False).fit(X, y)
        with pytest.raises(ValueError):
            inc.update(np.zeros((1, 2)), np.zeros(1))  # wrong dimension
        with pytest.raises(ValueError):
            inc.update(np.zeros((2, 3)), np.zeros(1))  # row/target mismatch

    def test_empty_update_is_noop(self, rng):
        X, y = _data(rng, 10)
        inc = GaussianProcess(RBF(3), optimize=False).fit(X, y)
        inc.update(np.zeros((0, 3)), np.zeros(0))
        assert inc.n_train == 10


class TestUpdateFallback:
    def test_degenerate_append_falls_back_to_refit(self, rng, monkeypatch):
        """A numerically degenerate append triggers a full non-optimizing
        refit through the jitter ladder instead of corrupting the factor."""
        X, y = _data(rng, 12)
        model = GaussianProcess(RBF(3), optimize=False).fit(X[:10], y[:10])
        real = gp_mod._trtrs
        calls = {"n": 0}

        def singular_once(*args, **kwargs):
            calls["n"] += 1
            out = real(*args, **kwargs)
            if calls["n"] == 1:
                return out[0], 1  # claim the triangular solve hit a zero pivot
            return out

        monkeypatch.setattr(gp_mod, "_trtrs", singular_once)
        with perf.collect() as stats:
            model.update(X[10:], y[10:])
        assert stats.snapshot()["counters"]["gp_update_fallbacks"] == 1
        assert model.n_train == 12
        ref = GaussianProcess(RBF(3), optimize=False).fit(X, y)
        np.testing.assert_allclose(model.predict_mean(X), ref.predict_mean(X), atol=1e-8)


class TestExtendsTrainingData:
    def test_identical_data_is_zero(self, rng):
        X, y = _data(rng, 8)
        model = GaussianProcess(RBF(3), optimize=False).fit(X, y)
        assert model.extends_training_data(X, y) == 0

    def test_appended_rows_counted(self, rng):
        X, y = _data(rng, 10)
        model = GaussianProcess(RBF(3), optimize=False).fit(X[:7], y[:7])
        assert model.extends_training_data(X, y) == 3

    def test_diverged_history_is_none(self, rng):
        X, y = _data(rng, 10)
        model = GaussianProcess(RBF(3), optimize=False).fit(X[:7], y[:7])
        y2 = y.copy()
        y2[3] += 1.0  # a past observation changed: not an append
        assert model.extends_training_data(X, y2) is None

    def test_shorter_history_is_none(self, rng):
        X, y = _data(rng, 10)
        model = GaussianProcess(RBF(3), optimize=False).fit(X, y)
        assert model.extends_training_data(X[:5], y[:5]) is None

    def test_unfitted_is_none(self, rng):
        X, y = _data(rng, 5)
        assert GaussianProcess(RBF(3)).extends_training_data(X, y) is None

