"""Tests for the mixed-variable (Gower/Hamming) kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CategoricalParameter,
    GaussianProcess,
    IntegerParameter,
    RealParameter,
    Space,
)
from repro.core.mixed import MixedKernel, mixed_kernel_for_space


@pytest.fixture
def space():
    return Space(
        [
            RealParameter("x", 0.0, 1.0),
            CategoricalParameter("mode", ["a", "b", "c", "d"]),
            IntegerParameter("k", 0, 8),
        ]
    )


class TestConstruction:
    def test_flag_count_checked(self):
        with pytest.raises(ValueError):
            MixedKernel(3, [True, False])

    def test_choice_count_checked(self):
        with pytest.raises(ValueError):
            MixedKernel(2, [True, False], n_choices=[4])
        with pytest.raises(ValueError):
            MixedKernel(2, [True, False], n_choices=[0, 1])

    def test_switch_weight_validation(self):
        with pytest.raises(ValueError):
            MixedKernel(2, [True, False], n_choices=[3, 1], switch_weights=[-1.0])

    def test_for_space_detects_types(self, space):
        k = mixed_kernel_for_space(space)
        assert k.categorical == [False, True, False]
        assert k.n_choices.tolist() == [1, 4, 1]

    def test_n_params(self, space):
        k = mixed_kernel_for_space(space)
        # variance + 2 numeric lengthscales + 1 switch weight
        assert k.n_params == 4


class TestKernelProperties:
    def test_psd(self, space, rng):
        k = mixed_kernel_for_space(space)
        U = rng.random((25, 3))
        eigs = np.linalg.eigvalsh(k(U))
        assert eigs.min() > -1e-8

    def test_symmetric(self, space, rng):
        k = mixed_kernel_for_space(space)
        U = rng.random((12, 3))
        K = k(U)
        assert np.allclose(K, K.T)

    def test_same_category_no_penalty(self, space):
        """Two points in the same categorical cell differ only through
        the numeric part."""
        k = mixed_kernel_for_space(space)
        a = space.to_unit({"x": 0.5, "mode": "b", "k": 4})
        b = space.to_unit({"x": 0.5, "mode": "b", "k": 4})
        assert k(a[None, :], b[None, :])[0, 0] == pytest.approx(k.variance)

    def test_category_switch_penalized_uniformly(self, space):
        """All distinct category pairs get the same penalty (no fake
        ordering, unlike the ordinal embedding)."""
        k = mixed_kernel_for_space(space)
        base = {"x": 0.5, "k": 4}
        ua = space.to_unit({**base, "mode": "a"})[None, :]
        ub = space.to_unit({**base, "mode": "b"})[None, :]
        ud = space.to_unit({**base, "mode": "d"})[None, :]
        k_ab = k(ua, ub)[0, 0]
        k_ad = k(ua, ud)[0, 0]
        assert k_ab == pytest.approx(k_ad)  # ordinal RBF would say a~b > a~d
        assert k_ab < k.variance

    def test_theta_roundtrip(self, space):
        k = mixed_kernel_for_space(space)
        theta = k.get_theta() + 0.3
        k.set_theta(theta)
        assert np.allclose(k.get_theta(), theta)

    def test_bounds_cover_theta(self, space):
        k = mixed_kernel_for_space(space)
        for v, (lo, hi) in zip(k.get_theta(), k.bounds()):
            assert lo <= v <= hi

    def test_keeps_no_train_side(self, space, rng):
        """Not a function of one scaled distance: nothing to keep per fit,
        and the slot the GP passes back is accepted and ignored."""
        k = mixed_kernel_for_space(space)
        U = rng.random((6, space.dim))
        assert k.train_side(U) is None
        assert np.array_equal(k(U[:2], U, None), k(U[:2], U))

    def test_pure_numeric_space(self, rng):
        k = MixedKernel(2, [False, False])
        U = rng.random((10, 2))
        assert k(U).shape == (10, 10)

    def test_pure_categorical_space(self, rng):
        k = MixedKernel(2, [True, True], n_choices=[3, 5])
        U = rng.random((10, 2))
        K = k(U)
        assert np.allclose(np.diag(K), k.variance)


class TestGPIntegration:
    def test_fits_category_jump_better_than_rbf(self, rng):
        """A function with a pure categorical offset: the mixed kernel
        should interpolate at least as well as the ordinal RBF."""
        space = Space(
            [
                RealParameter("x", 0.0, 1.0),
                CategoricalParameter("mode", ["a", "b", "c", "d"]),
            ]
        )
        offsets = {"a": 0.0, "b": 3.0, "c": -2.0, "d": 1.0}  # non-monotone
        configs = [space.sample(rng) for _ in range(60)]
        U = space.to_unit_array(configs)
        y = np.array(
            [np.sin(3 * c["x"]) + offsets[c["mode"]] for c in configs]
        )
        test_configs = [space.sample(rng) for _ in range(30)]
        Ut = space.to_unit_array(test_configs)
        yt = np.array(
            [np.sin(3 * c["x"]) + offsets[c["mode"]] for c in test_configs]
        )

        gp_mixed = GaussianProcess(mixed_kernel_for_space(space), seed=0)
        gp_mixed.fit(U, y)
        rms_mixed = np.sqrt(np.mean((gp_mixed.predict_mean(Ut) - yt) ** 2))

        gp_rbf = GaussianProcess(seed=0).fit(U, y)
        rms_rbf = np.sqrt(np.mean((gp_rbf.predict_mean(Ut) - yt) ** 2))

        assert rms_mixed < 0.5
        assert rms_mixed <= rms_rbf * 1.2

    def test_snapshot_is_refused_not_written_unreadable(self, space, rng):
        """Regression: ``to_dict`` used to write ``"kernel": "mixedkernel"``
        and drop the switch weights — a document ``from_dict`` could only
        answer with ``ValueError: unknown kernel``.  It now refuses, naming
        the kernel class, and so does the sparse surrogate's snapshot."""
        from repro.core import SparseGP, surrogate_from_dict

        U = rng.random((20, space.dim))
        y = np.sin(3 * U[:, 0]) + U[:, 1]
        gp = GaussianProcess(mixed_kernel_for_space(space), max_fun=15, seed=0).fit(U, y)
        with pytest.raises(TypeError, match="MixedKernel"):
            gp.to_dict()
        sp = SparseGP(mixed_kernel_for_space(space), n_inducing=8, max_fun=15, seed=0)
        sp.fit(U, y)
        with pytest.raises(TypeError, match="MixedKernel"):
            sp.to_dict()
        # what a snapshot can carry still round-trips
        dense = GaussianProcess(max_fun=15, seed=0).fit(U, y)
        clone = surrogate_from_dict(dense.to_dict())
        assert np.array_equal(clone.predict_mean(U), dense.predict_mean(U))

    def test_tuner_accepts_mixed_kernel(self, rng):
        """End-to-end: a GP with a MixedKernel drives a tuning loop."""
        from repro.apps import SuperLUDist2D
        from repro.core import History, Tuner
        from repro.hpc import cori_haswell

        app = SuperLUDist2D(cori_haswell(2))
        problem = app.make_problem(run=0)
        tuner = Tuner(problem)
        # patch the GP factory to use the mixed kernel
        space = problem.parameter_space

        def model_with_mixed(hist: History, rng_):
            X, y = hist.arrays()
            if X.shape[0] == 0:
                return None
            gp = GaussianProcess(mixed_kernel_for_space(space), max_fun=40, seed=0)
            gp.fit(X, y)
            return gp.predict

        tuner._model = model_with_mixed
        res = tuner.tune({"matrix": "Si5H12"}, 6, seed=0)
        assert res.n_evaluations == 6
        assert res.history.n_successes > 0
