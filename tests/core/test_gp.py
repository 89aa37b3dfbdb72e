"""Tests for repro.core.gp: fitting, prediction, serialization."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import linalg as sla

from repro.core import RBF, GaussianProcess, Matern52, MixedKernel, kernel_from_name, perf
from repro.core.gp import cholesky_with_jitter

from .oracles import gp_predict


def _train(rng, n=25, d=2, noise=0.0):
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] ** 2
    if noise:
        y = y + rng.normal(0, noise, n)
    return X, y


class TestCholeskyJitter:
    def test_clean_matrix_no_jitter(self):
        K = np.eye(4) * 2.0
        L, jitter = cholesky_with_jitter(K)
        assert jitter == 0.0
        assert np.allclose(L @ L.T, K)

    def test_singular_matrix_gets_jitter(self):
        K = np.ones((5, 5))  # rank 1
        L, jitter = cholesky_with_jitter(K)
        assert jitter > 0
        assert np.all(np.isfinite(L))

    def test_largest_ladder_rung_reachable(self):
        """Regression: an off-by-one stopped the ladder at 1e-4 * diag_mean,
        one rung short of its documented 1e-3 maximum."""
        rng = np.random.default_rng(3)
        n = 6
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = np.ones(n)
        eigs[-1] = -5e-4  # only the top rung can lift this above zero
        K = (Q * eigs) @ Q.T
        K = 0.5 * (K + K.T)
        diag_mean = float(np.mean(np.diag(K)))
        L, jitter = cholesky_with_jitter(K)
        assert jitter == pytest.approx(1e-3 * diag_mean)
        assert np.all(np.isfinite(L))


class TestFirstRung:
    """The first rung is a bare LAPACK ``potrf``: the factor, and the
    failures, of ``scipy.linalg.cholesky``."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 50, 170])
    def test_factor_is_scipy_cholesky_bit_for_bit(self, n, order):
        X = np.random.default_rng(n).random((n, 3))
        K = np.asarray(RBF(3)(X) + 1e-6 * np.eye(n), order=order)
        K_before = K.copy()
        with perf.collect() as stats:
            L, jitter = cholesky_with_jitter(K)
        expected = sla.cholesky(K, lower=True)
        assert jitter == 0.0
        assert L.dtype == expected.dtype and L.shape == expected.shape
        assert L.tobytes(order="A") == expected.tobytes(order="A")
        assert np.array_equal(L, expected)
        assert np.array_equal(K, K_before)  # the input is not overwritten
        assert "gp_jitter_retries" not in stats.snapshot()["counters"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_scipys_value_error(self, bad):
        K = 2.0 * np.eye(4)
        K[1, 2] = K[2, 1] = bad
        with pytest.raises(ValueError) as ours:
            cholesky_with_jitter(K)
        with pytest.raises(ValueError) as scipys:
            sla.cholesky(K, lower=True)
        assert str(ours.value) == str(scipys.value)

    def test_indefinite_matrix_walks_the_ladder(self):
        K = np.ones((5, 5))  # rank 1: the first rung fails
        with perf.collect() as stats:
            L, jitter = cholesky_with_jitter(K)
        retries = stats.snapshot()["counters"]["gp_jitter_retries"]
        assert jitter == 10.0 ** (retries - 11)  # mean(diag) is 1
        Kj = K + jitter * np.eye(5)
        assert np.array_equal(L, sla.cholesky(Kj, lower=True))
        assert np.array_equal(K, np.ones((5, 5)))


class TestFitting:
    def test_interpolates_noiseless_data(self, rng):
        X, y = _train(rng)
        gp = GaussianProcess(RBF(2), seed=0).fit(X, y)
        mean, std = gp.predict(X)
        assert np.allclose(mean, y, atol=1e-2)
        assert np.all(std < 0.2)

    def test_prediction_reverts_to_prior_far_away(self, rng):
        X = rng.random((10, 1)) * 0.2  # all data in [0, 0.2]
        y = np.sin(10 * X[:, 0])
        gp = GaussianProcess(RBF(1), seed=0).fit(X, y)
        _, std_near = gp.predict(np.array([[0.1]]))
        _, std_far = gp.predict(np.array([[0.95]]))
        assert std_far[0] > std_near[0]

    def test_mean_reverts_to_data_mean(self, rng):
        X = rng.random((15, 1)) * 0.1
        y = 5.0 + rng.normal(0, 0.1, 15)
        gp = GaussianProcess(RBF(1), seed=0).fit(X, y)
        far = gp.predict_mean(np.array([[0.99]]))
        assert far[0] == pytest.approx(np.mean(y), abs=0.5)

    def test_constant_targets(self, rng):
        X = rng.random((10, 2))
        gp = GaussianProcess(seed=0).fit(X, np.full(10, 3.3))
        mean = gp.predict_mean(rng.random((5, 2)))
        assert np.allclose(mean, 3.3, atol=1e-6)

    def test_single_point(self, rng):
        gp = GaussianProcess(seed=0).fit(np.array([[0.5]]), np.array([2.0]))
        assert gp.predict_mean(np.array([[0.5]]))[0] == pytest.approx(2.0, abs=1e-3)

    def test_default_kernel_created(self, rng):
        X, y = _train(rng, d=3)
        gp = GaussianProcess(seed=0).fit(X, y)
        assert gp.kernel is not None and gp.kernel.dim == 3

    def test_dimension_mismatch(self, rng):
        X, y = _train(rng, d=2)
        with pytest.raises(ValueError):
            GaussianProcess(RBF(3)).fit(X, y)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            GaussianProcess().fit(rng.random((5, 2)), np.zeros(4))

    def test_empty_data(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_matern_kernel_fit(self, rng):
        X, y = _train(rng)
        gp = GaussianProcess(Matern52(2), seed=0).fit(X, y)
        assert np.allclose(gp.predict_mean(X), y, atol=0.05)

    def test_noisy_data_smooths(self, rng):
        X = np.linspace(0, 1, 40)[:, None]
        y_true = np.sin(4 * X[:, 0])
        y = y_true + rng.normal(0, 0.3, 40)
        gp = GaussianProcess(RBF(1), seed=0).fit(X, y)
        # learned noise should be substantial, and prediction closer to
        # the true function than the noisy targets on average
        assert gp.noise_variance > 1e-4
        rms_pred = np.sqrt(np.mean((gp.predict_mean(X) - y_true) ** 2))
        rms_noise = np.sqrt(np.mean((y - y_true) ** 2))
        assert rms_pred < rms_noise

    def test_optimize_off_keeps_hyperparameters(self, rng):
        X, y = _train(rng)
        k = RBF(2, variance=1.0, lengthscales=[0.5, 0.5])
        theta0 = k.get_theta().copy()
        GaussianProcess(k, optimize=False).fit(X, y)
        assert np.allclose(k.get_theta(), theta0)

    def test_log_marginal_likelihood_finite(self, rng):
        X, y = _train(rng)
        gp = GaussianProcess(seed=0).fit(X, y)
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_n_train(self, rng):
        gp = GaussianProcess(seed=0)
        assert gp.n_train == 0 and not gp.fitted
        X, y = _train(rng, n=13)
        gp.fit(X, y)
        assert gp.n_train == 13 and gp.fitted


class TestMLERestore:
    def test_failed_mle_restores_hyperparameters(self, rng, monkeypatch):
        """Regression: when every MLE start fails, the kernel used to keep
        whatever theta the last L-BFGS-B probe happened to evaluate."""
        from types import SimpleNamespace

        from repro.core import fit as fit_mod
        from repro.core import perf

        X, y = _train(rng)
        kernel = RBF(2, variance=1.0, lengthscales=[0.5, 0.5])
        model = GaussianProcess(kernel, optimize=True, seed=0)
        theta0 = np.concatenate([kernel.get_theta(), [np.log(model.noise_variance)]])

        def failing_minimize(fun, x0, **kwargs):
            fun(np.asarray(x0) + 3.0)  # probe a garbage theta, then fail
            return SimpleNamespace(fun=float("nan"), x=np.asarray(x0) + 3.0)

        monkeypatch.setattr(fit_mod.sopt, "minimize", failing_minimize)
        with perf.collect() as stats:
            model.fit(X, y)
        np.testing.assert_allclose(model._theta(), theta0)
        assert stats.snapshot()["counters"]["gp_mle_restores"] == 1
        assert np.all(np.isfinite(model.predict_mean(X)))


class TestSerialization:
    def test_roundtrip_predictions(self, rng):
        X, y = _train(rng)
        gp = GaussianProcess(RBF(2), seed=0).fit(X, y)
        clone = GaussianProcess.from_dict(gp.to_dict())
        Xq = rng.random((10, 2))
        m1, s1 = gp.predict(Xq)
        m2, s2 = clone.predict(Xq)
        assert np.allclose(m1, m2, atol=1e-8)
        assert np.allclose(s1, s2, atol=1e-8)

    def test_roundtrip_is_bitwise_exact(self, rng):
        """The registry contract: a deserialized model predicts the exact
        bytes of the live GP — through JSON, so the stored document (not
        just the in-memory dict) is what's pinned."""
        import json

        X, y = _train(rng)
        gp = GaussianProcess(RBF(2), seed=0).fit(X, y)
        clone = GaussianProcess.from_dict(json.loads(json.dumps(gp.to_dict())))
        Xq = rng.random((16, 2))
        m1, s1 = gp.predict(Xq)
        m2, s2 = clone.predict(Xq)
        assert np.array_equal(m1, m2)
        assert np.array_equal(s1, s2)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().to_dict()

    def test_dict_is_jsonable(self, rng):
        import json

        X, y = _train(rng, n=8)
        gp = GaussianProcess(RBF(2), seed=0).fit(X, y)
        json.dumps(gp.to_dict())


class TestPredictEqualsOracle:
    """``predict`` is the only predictor and reuses what the fit state
    keeps; on every path that installs a state it must equal the textbook
    posterior of :mod:`tests.core.oracles` bit for bit."""

    ROWS = (1, 16, 64, 1024)

    @staticmethod
    def _kernel(name, d):
        if name == "mixed":
            return MixedKernel(d, [False, True, False, True], [1, 3, 1, 4])
        return kernel_from_name(name, d)

    def _assert_exact(self, gp):
        for rows in self.ROWS:
            Xq = np.random.default_rng(rows).random((rows, 4))
            mean, std = gp.predict(Xq)
            mean_ref, std_ref = gp_predict(gp, Xq)
            assert np.array_equal(mean, mean_ref)
            assert np.array_equal(std, std_ref)
            assert np.array_equal(gp.predict_mean(Xq), mean_ref)

    @pytest.mark.parametrize("n", [20, 50, 200])
    @pytest.mark.parametrize("kernel", ["rbf", "matern52", "matern32", "mixed"])
    def test_after_fit_update_and_roundtrip(self, kernel, n):
        rng = np.random.default_rng(n)
        X = rng.random((n + 5, 4))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(n + 5)
        gp = GaussianProcess(self._kernel(kernel, 4), seed=1, max_fun=15).fit(X[:n], y[:n])
        self._assert_exact(gp)
        gp.update(X[n:], y[n:])
        assert gp.n_train == n + 5
        self._assert_exact(gp)
        if kernel != "mixed":  # no snapshot format carries the switch weights
            self._assert_exact(GaussianProcess.from_dict(gp.to_dict()))

    def test_state_carries_the_train_side(self, rng):
        """What makes the one path the cheap one: the scaled training rows
        and a Fortran-ordered factor are in the fit state, rebuilt by every
        fit/update and absent (not stale) for a kernel with nothing to keep."""
        X, y = _train(rng, n=12)
        gp = GaussianProcess(RBF(2), seed=0).fit(X[:10], y[:10])
        for n in (10, 12):
            if n == 12:
                gp.update(X[10:], y[10:])
            B, b_norms = gp._state.train
            assert np.array_equal(B, X[:n] / gp.kernel.lengthscales)
            assert np.array_equal(b_norms, np.sum(B * B, axis=1))
            assert gp._state.L.flags.f_contiguous
        mixed = GaussianProcess(MixedKernel(2, [False, True], [1, 3]), seed=0).fit(X, y)
        assert mixed._state.train is None
