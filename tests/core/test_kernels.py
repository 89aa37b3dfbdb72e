"""Tests for repro.core.kernels: PSD-ness, gradients, hyperparameters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RBF, Matern32, Matern52, kernel_from_name
from repro.core.gp import _nll_grad
from repro.core.kernels import pairwise_sq_diffs, sq_dists

ALL_KERNELS = [RBF, Matern52, Matern32]


class TestSqDists:
    def test_matches_bruteforce(self, rng):
        X = rng.random((10, 3))
        Y = rng.random((7, 3))
        ls = np.array([0.5, 1.0, 2.0])
        D = sq_dists(X, Y, ls)
        for i in range(10):
            for j in range(7):
                expect = np.sum(((X[i] - Y[j]) / ls) ** 2)
                assert D[i, j] == pytest.approx(expect, abs=1e-10)

    def test_nonnegative(self, rng):
        X = rng.random((50, 4))
        assert np.all(sq_dists(X, X, np.ones(4)) >= 0)


@pytest.mark.parametrize("cls", ALL_KERNELS)
class TestKernelCommon:
    def test_symmetry(self, cls, rng):
        k = cls(3)
        X = rng.random((12, 3))
        K = k(X)
        assert np.allclose(K, K.T)

    def test_diagonal_is_variance(self, cls, rng):
        k = cls(2, variance=2.5)
        X = rng.random((6, 2))
        assert np.allclose(np.diag(k(X)), 2.5)
        assert np.allclose(k.diag(X), 2.5)

    def test_psd(self, cls, rng):
        k = cls(3)
        X = rng.random((20, 3))
        eigs = np.linalg.eigvalsh(k(X))
        assert eigs.min() > -1e-8

    def test_decay_with_distance(self, cls):
        k = cls(1, lengthscales=[0.3])
        near = k(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = k(np.array([[0.0]]), np.array([[0.9]]))[0, 0]
        assert near > far

    def test_theta_roundtrip(self, cls):
        k = cls(3, variance=2.0, lengthscales=[0.1, 0.2, 0.3])
        theta = k.get_theta()
        k2 = cls(3)
        k2.set_theta(theta)
        assert k2.variance == pytest.approx(2.0)
        assert np.allclose(k2.lengthscales, [0.1, 0.2, 0.3])

    def test_theta_shape_check(self, cls):
        with pytest.raises(ValueError):
            cls(3).set_theta(np.zeros(2))

    def test_bounds_cover_theta(self, cls):
        k = cls(4)
        bounds = k.bounds()
        assert len(bounds) == k.n_params
        theta = k.get_theta()
        for v, (lo, hi) in zip(theta, bounds):
            assert lo <= v <= hi

    def test_invalid_params(self, cls):
        with pytest.raises(ValueError):
            cls(0)
        with pytest.raises(ValueError):
            cls(2, variance=-1.0)
        with pytest.raises(ValueError):
            cls(2, lengthscales=[0.5])

    def test_kept_train_side_gives_the_same_bytes(self, cls, rng):
        """``train_side(Y)`` is the half of the scaled distance that is Y's
        alone; handing it back changes the cost of a call, not its result."""
        k = cls(3, variance=1.7, lengthscales=[0.2, 0.5, 1.3])
        X, Y = rng.random((9, 3)), rng.random((14, 3))
        B, b_norms = k.train_side(Y)
        assert np.array_equal(B, Y / k.lengthscales)
        assert np.array_equal(b_norms, np.sum(B * B, axis=1))
        assert np.array_equal(k(X, Y, (B, b_norms)), k(X, Y))


def _nll_gradient_wrt_K(theta, X, ys):
    """``dNLL/dK = -0.5 (alpha alpha^T - K^-1)`` at ``K = rbf(X) + noise I``."""
    k = RBF(X.shape[1])
    k.set_theta(theta[:-1])
    Kinv = np.linalg.inv(k(X) + np.exp(theta[-1]) * np.eye(X.shape[0]))
    alpha = Kinv @ ys
    return -0.5 * (np.outer(alpha, alpha) - Kinv)


class TestRBFGradient:
    def test_gradient_matches_finite_difference(self, rng):
        """The fused objective's kernel-parameter gradients are the chain
        rule through ``dK/dtheta``, the latter by central differences of
        ``kernel(X)``."""
        k = RBF(3, variance=1.7, lengthscales=[0.2, 0.5, 1.1])
        X = rng.random((8, 3))
        ys = rng.standard_normal(8)
        theta = np.concatenate([k.get_theta(), [np.log(0.05)]])
        _, grad = _nll_grad(theta, pairwise_sq_diffs(X).reshape(3, -1), ys)
        G = _nll_gradient_wrt_K(theta, X, ys)
        eps = 1e-6
        for i in range(k.n_params):
            th = theta[:-1].copy()
            th[i] += eps
            k.set_theta(th)
            K_plus = k(X)
            th[i] -= 2 * eps
            k.set_theta(th)
            K_minus = k(X)
            fd = (K_plus - K_minus) / (2 * eps)
            assert grad[i] == pytest.approx(np.sum(G * fd), rel=1e-6, abs=1e-8), f"param {i}"

    def test_matern_has_no_gradient(self, rng):
        """No analytic form: the fit takes the finite-difference objective."""
        from repro.core import GaussianProcess
        from repro.core import fit as fit_mod

        X = rng.random((12, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        calls = []
        real = fit_mod.sopt.minimize

        def spy(fun, x0, **kwargs):
            calls.append(kwargs["jac"])
            return real(fun, x0, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fit_mod.sopt, "minimize", spy)
            GaussianProcess(Matern52(2), seed=0).fit(X, y)
            GaussianProcess(RBF(2), seed=0).fit(X, y)
        assert calls == [False, False, True, True]  # theta0 + one restart each


class TestRegistry:
    def test_lookup(self):
        assert isinstance(kernel_from_name("rbf", 2), RBF)
        assert isinstance(kernel_from_name("matern52", 2), Matern52)
        assert isinstance(kernel_from_name("matern32", 2), Matern32)

    def test_unknown(self):
        with pytest.raises(ValueError):
            kernel_from_name("periodic", 2)


class TestRBFGradientVectorized:
    def test_matches_naive_per_dimension_loop(self, rng):
        """The one-GEMV lengthscale gradient equals the obvious
        one-derivative-matrix-per-dimension form."""
        k = RBF(4, variance=2.3, lengthscales=[0.1, 0.4, 0.9, 2.0])
        X = rng.random((20, 4))
        ys = rng.standard_normal(20)
        theta = np.concatenate([k.get_theta(), [np.log(0.1)]])
        D = pairwise_sq_diffs(X)
        _, grad = _nll_grad(theta, D.reshape(4, -1), ys)
        G = _nll_gradient_wrt_K(theta, X, ys)
        K = k(X)
        assert grad[0] == pytest.approx(np.sum(G * K))
        for j in range(4):
            d = X[:, j][:, None] - X[:, j][None, :]
            assert np.array_equal(D[j], d * d)
            naive = K * d * d / k.lengthscales[j] ** 2
            assert grad[1 + j] == pytest.approx(np.sum(G * naive)), f"dim {j}"

    def test_no_cross_dimension_leakage(self, rng):
        """Points varying only along dim 0 give zero gradient for other dims."""
        X = np.zeros((6, 3))
        X[:, 0] = np.linspace(0.0, 1.0, 6)
        D = pairwise_sq_diffs(X)
        assert np.any(D[0] != 0.0) and not D[1].any() and not D[2].any()
        theta = np.concatenate([RBF(3).get_theta(), [np.log(0.1)]])
        _, grad = _nll_grad(theta, D.reshape(3, -1), rng.standard_normal(6))
        assert grad[1] != 0.0
        assert grad[2] == 0.0 and grad[3] == 0.0
