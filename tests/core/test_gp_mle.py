"""Tests for the dense GP's fused marginal-likelihood objective.

``repro.core.gp._nll_grad`` is a pure function of ``theta`` over a
fit-scoped workspace (the flattened squared differences); these tests
pin its gradient, its agreement with the fitted model's likelihood, its
equivalence to the objective it replaced (kept below as the oracle), its
failure handling, and the bit-exact replay of the factor an optimized
fit stores.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import optimize as sopt

from repro.core import RBF, GaussianProcess, Matern52, perf
from repro.core import fit as fit_mod
from repro.core import gp as gp_mod
from repro.core.fit import NLL_FAIL as _NLL_FAIL
from repro.core.gp import _nll_grad, chol_solve_inv, cholesky_with_jitter
from repro.core.kernels import pairwise_sq_diffs
from repro.core.lcm import LCM, _make_workspace

_LOG_2PI = float(np.log(2.0 * np.pi))


def _data(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = (
        np.sin(3.0 * X[:, 0])
        + X[:, d // 2] ** 2
        - 0.5 * X[:, -1]
        + 0.05 * rng.standard_normal(n)
    )
    return X, y


def _standardize(y):
    return (y - np.mean(y)) / np.std(y)


def _bounds(d):
    return np.array(GaussianProcess(RBF(d))._bounds())


def _workspace(X):
    return pairwise_sq_diffs(X).reshape(X.shape[1], -1)


# -- the objective this PR replaced, kept as the oracle ----------------------
def _reference_rbf_gradient(kernel, X):
    """``dK/dtheta`` stacked as ``(n_params, n, n)``."""
    K = kernel(X)
    n = X.shape[0]
    G = np.empty((kernel.n_params, n, n))
    G[0] = K
    diff = (X[:, None, :] - X[None, :, :]) / kernel.lengthscales
    G[1:] = np.moveaxis(diff * diff, -1, 0)
    G[1:] *= K
    return G


def _reference_nll_grad(theta, kernel, X, ys):
    """NLL and gradient through the kernel object, ``K^-1`` by a dense solve."""
    kernel.set_theta(theta[:-1])
    noise = float(np.exp(theta[-1]))
    n = X.shape[0]
    try:
        L, _ = cholesky_with_jitter(kernel(X) + noise * np.eye(n), max_tries=3)
    except gp_mod.GPFitError:
        return _NLL_FAIL, np.zeros_like(theta)
    alpha = sla.cho_solve((L, True), ys, check_finite=False)
    nll = 0.5 * ys @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * _LOG_2PI
    if not np.isfinite(nll):
        return _NLL_FAIL, np.zeros_like(theta)
    Kinv = sla.cho_solve((L, True), np.eye(n), check_finite=False)
    W = np.outer(alpha, alpha) - Kinv
    grads = np.empty_like(theta)
    dK = _reference_rbf_gradient(kernel, X)
    for i in range(dK.shape[0]):
        grads[i] = -0.5 * np.sum(W * dK[i])
    grads[-1] = -0.5 * noise * np.trace(W)
    return float(nll), grads


def _reference_fit_theta(X, y, *, seed, n_restarts=1, max_fun=80):
    """The multi-start search of ``GaussianProcess`` over the oracle objective;
    returns ``(theta, nll, n_objective_evaluations, starts)``."""
    kernel = RBF(X.shape[1])
    ys = _standardize(y)
    rng = np.random.default_rng(seed)
    bounds = GaussianProcess(kernel)._bounds()
    lo, hi = np.array(bounds).T
    starts = [np.concatenate([kernel.get_theta(), [np.log(1e-4)]])]
    for _ in range(n_restarts):
        starts.append(np.array([rng.uniform(a, b) for a, b in bounds]))
    starts = [np.clip(x0, lo, hi) for x0 in starts]
    evals = [0]

    def fun(th):
        evals[0] += 1
        return _reference_nll_grad(th, kernel, X, ys)

    best_theta, best_val = None, np.inf
    for x0 in starts:
        res = sopt.minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxfun": max_fun},
        )
        if res.fun < best_val:
            best_val, best_theta = float(res.fun), res.x
    return best_theta, best_val, evals[0], starts


def _count_evaluations(monkeypatch):
    """Count calls of the fused objective made through ``gp_mod``."""
    calls = [0]
    real = gp_mod._nll_grad

    def counting(theta, D, ys):
        calls[0] += 1
        return real(theta, D, ys)

    monkeypatch.setattr(gp_mod, "_nll_grad", counting)
    return calls


def _fail_the_search_ladder(monkeypatch):
    """Make every factorization inside the MLE search (``max_tries=3``) fail
    the way an indefinite covariance does; the final fit's is untouched."""
    real = gp_mod.cholesky_with_jitter

    def ladder(K, max_tries=8):
        return real(-np.eye(K.shape[0]) if max_tries == 3 else K, max_tries=max_tries)

    monkeypatch.setattr(gp_mod, "cholesky_with_jitter", ladder)


# -- (a) gradient ---------------------------------------------------------------
class TestFusedGradient:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 6),
        n_dup=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_central_differences(self, n, d, n_dup, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        for _ in range(min(n_dup, n - 1)):  # duplicate rows included
            i, j = rng.choice(n, size=2, replace=False)
            X[i] = X[j]
        ys = _standardize(rng.standard_normal(n) + np.sin(4.0 * X[:, 0]))
        lo, hi = _bounds(d).T
        theta = rng.uniform(lo, hi)
        ws = _workspace(X)
        # central differences say nothing where the jitter ladder engages
        # (the objective jumps) or where round-off in the NLL itself,
        # ~ eps * cond(K) * |nll| / step, swamps the difference
        kernel = RBF(d)
        kernel.set_theta(theta[:-1])
        assume(np.linalg.cond(kernel(X) + np.exp(theta[-1]) * np.eye(n)) < 1e6)

        nll, grad = _nll_grad(theta, ws, ys)
        assert nll < _NLL_FAIL
        h = 1e-3  # fourth-order central differences: truncation ~ h^4
        fd = np.empty_like(grad)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            f = [_nll_grad(theta + k * e, ws, ys)[0] for k in (-2, -1, 1, 2)]
            fd[i] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6 * max(1.0, abs(nll)))

    def test_pure_function_of_theta(self):
        """No kernel object is read or written: same theta, same bytes."""
        X, y = _data(0, 30, 3)
        kernel = RBF(3, variance=2.0, lengthscales=[0.1, 0.2, 0.9])
        before = kernel.get_theta().copy()
        ws, ws_before = _workspace(X), _workspace(X)
        theta = np.array([0.3, -1.0, 0.2, 0.7, -5.0])
        a = _nll_grad(theta, ws, _standardize(y))
        _nll_grad(theta + 1.0, ws, _standardize(y))
        b = _nll_grad(theta, ws, _standardize(y))
        assert a[0] == b[0] and np.array_equal(a[1], b[1])
        assert np.array_equal(ws, ws_before)
        calls = []
        kernel.set_theta = calls.append
        GaussianProcess(kernel, seed=0).fit(X, y)
        assert len(calls) == 1  # written once, at the winning theta
        assert not np.array_equal(calls[0], before)

    def test_chol_solve_inv_matches_dense_inverse(self, rng):
        A = rng.standard_normal((12, 12))
        K = A @ A.T + 12.0 * np.eye(12)
        y = rng.standard_normal(12)
        L, _ = cholesky_with_jitter(K)
        L_before = L.copy()
        alpha, half_logdet, Kinv = chol_solve_inv(L, y)
        np.testing.assert_allclose(alpha, np.linalg.solve(K, y), rtol=1e-10)
        np.testing.assert_allclose(Kinv, np.linalg.inv(K), rtol=1e-10, atol=1e-14)
        assert np.array_equal(Kinv, Kinv.T)
        assert half_logdet == pytest.approx(0.5 * np.linalg.slogdet(K)[1], rel=1e-12)
        assert np.array_equal(L, L_before)


# -- (b) agreement with the fitted model ----------------------------------------
class TestAgreesWithFittedModel:
    @pytest.mark.parametrize("n,d", [(2, 1), (20, 2), (60, 4)])
    def test_nll_at_fitted_theta_is_minus_lml(self, n, d):
        X, y = _data(n, n, d)
        gp = GaussianProcess(RBF(d), seed=0).fit(X, y)
        nll, _ = _nll_grad(gp._theta(), _workspace(X), _standardize(y))
        assert nll == pytest.approx(-gp.log_marginal_likelihood(), rel=1e-9)


# -- (c) equivalence to the replaced objective ----------------------------------
class TestMatchesReplacedObjective:
    @pytest.mark.parametrize("seed", range(20))
    def test_same_theta_same_evaluation_count(self, seed, monkeypatch):
        """From the default start the search retraces the old one step for
        step.  (Random restarts land where K is ill-conditioned enough for
        a last-bit difference to flip a line-search decision — a few
        evaluations' difference on ~1 data set in 6 — so they are compared
        by where they end, below.)"""
        n, d = 8 + 5 * seed, 1 + seed % 5
        X, y = _data(seed, n, d)
        ref_theta, _, ref_evals, _ = _reference_fit_theta(X, y, seed=seed, n_restarts=0)
        calls = _count_evaluations(monkeypatch)
        gp = GaussianProcess(RBF(d), n_restarts=0, seed=seed).fit(X, y)
        assert calls[0] == ref_evals
        np.testing.assert_allclose(gp._theta(), ref_theta, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_restarts_draw_the_same_starts_and_end_equally_likely(self, seed, monkeypatch):
        n, d = 20 + 15 * seed, 2 + seed % 4
        X, y = _data(100 + seed, n, d)
        _, ref_nll, _, ref_starts = _reference_fit_theta(X, y, seed=seed, n_restarts=2)
        starts = []
        real = sopt.minimize

        def spy(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return real(fun, x0, **kwargs)

        monkeypatch.setattr(fit_mod.sopt, "minimize", spy)
        gp = GaussianProcess(RBF(d), n_restarts=2, seed=seed).fit(X, y)
        assert len(starts) == 3
        for got, want in zip(starts, ref_starts):
            assert np.array_equal(got, want)
        assert -gp.log_marginal_likelihood() == pytest.approx(ref_nll, rel=1e-6)

    def test_objective_values_agree_pointwise(self):
        X, y = _data(5, 35, 3)
        ys = _standardize(y)
        ws = _workspace(X)
        rng = np.random.default_rng(5)
        lo, hi = _bounds(3).T
        for _ in range(10):
            theta = rng.uniform(0.5 * lo, 0.5 * hi)
            new = _nll_grad(theta, ws, ys)
            old = _reference_nll_grad(theta, RBF(3), X, ys)
            assert new[0] == pytest.approx(old[0], rel=1e-9)
            np.testing.assert_allclose(new[1], old[1], rtol=1e-6, atol=1e-8)


# -- (d) failure handling -------------------------------------------------------
class TestFailureHandling:
    def test_unfactorizable_covariance_returns_sentinel(self, monkeypatch):
        X, y = _data(1, 5, 2)
        _fail_the_search_ladder(monkeypatch)
        with perf.collect() as stats:
            nll, grad = _nll_grad(np.zeros(4), _workspace(X), _standardize(y))
        assert nll == _NLL_FAIL
        assert np.array_equal(grad, np.zeros(4))
        counters = stats.snapshot()["counters"]
        assert counters["cholesky_failures"] == 1
        assert counters["gp_jitter_retries"] == 3  # max_tries=3 inside the search

    def test_all_starts_failed_restores_prefit_theta(self, monkeypatch):
        X, y = _data(1, 15, 2)
        kernel = RBF(2, variance=1.3, lengthscales=[0.4, 0.6])
        model = GaussianProcess(kernel, noise_variance=1e-3, seed=0)
        theta0 = model._theta().copy()
        _fail_the_search_ladder(monkeypatch)
        with perf.collect() as stats:
            model.fit(X, y)
        counters = stats.snapshot()["counters"]
        assert counters["gp_mle_restores"] == 1
        assert counters["gp_fits"] == 1
        np.testing.assert_allclose(model._theta(), theta0, rtol=1e-15)
        assert np.all(np.isfinite(model.predict_mean(X)))

    def test_jitter_ladder_reports_rungs_without_touching_input(self):
        K = np.ones((5, 5))  # rank 1: needs jitter
        K_before = K.copy()
        L, jitter = cholesky_with_jitter(K)
        assert jitter > 0 and np.array_equal(K, K_before)
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(5), atol=1e-12)
        bad = -np.eye(3)
        with pytest.raises(gp_mod.GPFitError) as err:
            cholesky_with_jitter(bad, max_tries=3)
        assert err.value.jitters == (0.0, 1e-10, 1e-9, 1e-8)  # diag mean <= 0 -> 1.0
        assert np.array_equal(bad, -np.eye(3))


# -- (e) the stored factor replays bit for bit ----------------------------------
class TestStoredFactorReplay:
    @pytest.mark.parametrize("n", [2, 50, 150])
    def test_roundtrip_predicts_identically_after_optimized_fit(self, n):
        X, y = _data(n, n, 3)
        gp = GaussianProcess(RBF(3), n_restarts=1, seed=0).fit(X, y)
        clone = GaussianProcess.from_dict(gp.to_dict())
        assert np.array_equal(clone._state.L, gp._state.L)
        Xq = np.random.default_rng(1).random((64, 3))
        m1, s1 = gp.predict(Xq)
        m2, s2 = clone.predict(Xq)
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)

    def test_roundtrip_replays_a_jittered_factor(self):
        X, y = _data(4, 12, 2)
        X[5:8] = X[4]  # duplicate rows, noise below an ulp: the ladder engages
        gp = GaussianProcess(RBF(2), noise_variance=1e-20, optimize=False).fit(X, y)
        assert gp._state.jitter > 0.0
        clone = GaussianProcess.from_dict(gp.to_dict())
        assert clone._state.jitter == gp._state.jitter
        assert np.array_equal(clone._state.L, gp._state.L)

    def test_stored_factor_is_the_kernel_matrix_factor(self):
        X, y = _data(3, 40, 3)
        gp = GaussianProcess(RBF(3), seed=0).fit(X, y)
        K = gp.kernel(X) + gp.noise_variance * np.eye(40)
        L, jitter = cholesky_with_jitter(K)
        assert np.array_equal(gp._state.L, L) and gp._state.jitter == jitter


# -- finite-difference kernels keep their objective -----------------------------
class TestFiniteDifferencePath:
    def test_matern_fit_never_calls_the_fused_objective(self, monkeypatch):
        X, y = _data(2, 18, 2)
        calls = _count_evaluations(monkeypatch)
        gp = GaussianProcess(Matern52(2), seed=0).fit(X, y)
        assert calls[0] == 0
        clone = GaussianProcess.from_dict(gp.to_dict())
        assert np.array_equal(clone._state.L, gp._state.L)


# -- (f) the helper shared with the LCM -----------------------------------------
class TestSharedWithLCM:
    def _problem(self):
        rng = np.random.default_rng(11)
        sets = []
        for i, n in enumerate((14, 9, 5)):
            X = rng.random((n, 2))
            sets.append((X, np.sin(3.0 * X[:, 0] + 0.3 * i) + X[:, 1]))
        model = LCM(3, 2, n_latent=2, optimize=False, seed=0).fit(sets)
        s = model._state
        ws = _make_workspace(s.X, s.t, 3)
        y = (s.y_raw - s.y_means[s.t]) / s.y_stds[s.t]
        thetas = [
            model._theta + 0.05 * rng.standard_normal(model.n_params) for _ in range(8)
        ]
        return model, ws, y, thetas

    def test_concurrent_evaluations_match_serial(self):
        """Restarts run on a thread pool: the helper must share no scratch."""
        model, ws, y, thetas = self._problem()
        serial = [model._nll_grad(th, ws, y) for th in thetas]
        with ThreadPoolExecutor(max_workers=2) as ex:
            threaded = list(ex.map(lambda th: model._nll_grad(th, ws, y), thetas * 4))
        for k, (nll, grad) in enumerate(threaded):
            assert nll == serial[k % 8][0]
            assert np.array_equal(grad, serial[k % 8][1])

    def test_fit_independent_of_n_jobs(self):
        rng = np.random.default_rng(4)
        sets = []
        for i, n in enumerate((12, 8)):
            X = rng.random((n, 1))
            sets.append((X, np.sin(4.0 * X[:, 0]) + 0.2 * i))
        one = LCM(2, 1, max_fun=30, n_restarts=2, n_jobs=1, seed=3).fit(sets)
        two = LCM(2, 1, max_fun=30, n_restarts=2, n_jobs=2, seed=3).fit(sets)
        assert np.array_equal(one._theta, two._theta)
        assert one.last_nll_ == two.last_nll_
