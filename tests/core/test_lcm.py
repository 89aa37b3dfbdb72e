"""Tests for repro.core.lcm: multitask GP with unequal samples per task."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LCM

from . import oracles


def _correlated_tasks(rng, n_per_task=(30, 20), shift=0.05):
    """Two tasks sharing a sine landscape, the second shifted slightly."""
    sets = []
    for i, n in enumerate(n_per_task):
        X = rng.random((n, 1))
        y = np.sin(4.0 * (X[:, 0] + i * shift)) + 0.1 * i
        sets.append((X, y))
    return sets


class TestConstruction:
    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            LCM(0, 1)
        with pytest.raises(ValueError):
            LCM(2, 0)
        with pytest.raises(ValueError):
            LCM(2, 1, n_latent=0)

    def test_n_params(self):
        lcm = LCM(3, 4, n_latent=2)
        # 2 * (4 + 2*3) + 3 = 23
        assert lcm.n_params == 23

    def test_dataset_count_checked(self, rng):
        lcm = LCM(2, 1)
        with pytest.raises(ValueError):
            lcm.fit([(rng.random((5, 1)), rng.random(5))])

    def test_dimension_checked(self, rng):
        lcm = LCM(1, 2)
        with pytest.raises(ValueError):
            lcm.fit([(rng.random((5, 3)), rng.random(5))])

    def test_needs_some_data(self):
        lcm = LCM(2, 1)
        with pytest.raises(ValueError):
            lcm.fit([(np.zeros((0, 1)), np.zeros(0)), (np.zeros((0, 1)), np.zeros(0))])


class TestFitPredict:
    def test_interpolates_each_task(self, rng):
        sets = _correlated_tasks(rng)
        lcm = LCM(2, 1, max_fun=40, seed=0).fit(sets)
        for i, (X, y) in enumerate(sets):
            mean = lcm.predict(i, X, return_std=False)
            assert np.sqrt(np.mean((mean - y) ** 2)) < 0.15

    def test_unequal_samples_including_empty_target(self, rng):
        """The Multitask(TS) cold start: sources full, target empty."""
        sets = _correlated_tasks(rng)
        empty = (np.zeros((0, 1)), np.zeros(0))
        lcm = LCM(3, 1, max_fun=30, seed=0).fit(sets + [empty])
        mean, std = lcm.predict(2, np.array([[0.3], [0.7]]))
        assert np.all(np.isfinite(mean)) and np.all(std > 0)

    def test_transfer_improves_sparse_task(self, rng):
        """A 2-sample target task should borrow shape from a 40-sample
        source when they are strongly correlated."""
        X_src = rng.random((40, 1))
        y_src = np.sin(4.0 * X_src[:, 0])
        X_tgt = np.array([[0.1], [0.9]])
        y_tgt = np.sin(4.0 * X_tgt[:, 0])
        lcm = LCM(2, 1, max_fun=60, seed=0).fit([(X_src, y_src), (X_tgt, y_tgt)])
        Xq = np.linspace(0.05, 0.95, 20)[:, None]
        pred = lcm.predict(1, Xq, return_std=False)
        rms = np.sqrt(np.mean((pred - np.sin(4.0 * Xq[:, 0])) ** 2))
        assert rms < 0.4  # a 2-point GP alone would be far worse

    def test_predict_task_range_checked(self, rng):
        lcm = LCM(2, 1, max_fun=10, seed=0).fit(_correlated_tasks(rng))
        with pytest.raises(ValueError):
            lcm.predict(5, np.array([[0.5]]))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LCM(2, 1).predict(0, np.array([[0.5]]))

    def test_std_positive_and_grows_off_data(self, rng):
        X = rng.random((20, 1)) * 0.3
        y = np.sin(5 * X[:, 0])
        lcm = LCM(1, 1, max_fun=40, seed=0).fit([(X, y)])
        _, std_near = lcm.predict(0, np.array([[0.15]]))
        _, std_far = lcm.predict(0, np.array([[0.95]]))
        assert std_far[0] > std_near[0] > 0

    def test_task_scales_respected(self, rng):
        """Tasks with very different output scales predict in their own."""
        X = rng.random((25, 1))
        sets = [(X, np.sin(4 * X[:, 0])), (X, 100.0 * np.sin(4 * X[:, 0]) + 500.0)]
        lcm = LCM(2, 1, max_fun=40, seed=0).fit(sets)
        m0 = lcm.predict(0, X, return_std=False)
        m1 = lcm.predict(1, X, return_std=False)
        assert np.abs(m0).max() < 10
        assert m1.mean() == pytest.approx(sets[1][1].mean(), abs=30)


class TestMLERestore:
    def test_failed_mle_restores_theta(self, rng, monkeypatch):
        """Regression: when every MLE start fails, the model used to adopt
        an arbitrary probed theta instead of keeping the one it started with."""
        from types import SimpleNamespace

        from repro.core import fit as fit_mod
        from repro.core import perf

        datasets = _correlated_tasks(rng)
        model = LCM(2, 1, seed=0)
        theta0 = model._theta.copy()

        def failing_minimize(fun, x0, args=(), **kwargs):
            fun(np.asarray(x0) + 1.0, *args)  # probe garbage, then fail
            return SimpleNamespace(fun=float("nan"), x=np.asarray(x0) + 1.0)

        monkeypatch.setattr(fit_mod.sopt, "minimize", failing_minimize)
        with perf.collect() as stats:
            model.fit(datasets)
        np.testing.assert_allclose(model._theta, theta0)
        assert stats.snapshot()["counters"]["lcm_mle_restores"] == 1
        assert np.all(np.isfinite(model.predict(0, rng.random((5, 1)))[0]))


class TestUtilities:
    def test_warm_start(self, rng):
        sets = _correlated_tasks(rng)
        a = LCM(2, 1, max_fun=40, seed=0).fit(sets)
        b = LCM(2, 1, optimize=False)
        b.warm_start_from(a)
        b.fit(sets)
        assert np.allclose(a._theta, b._theta)

    def test_warm_start_shape_check(self):
        with pytest.raises(ValueError):
            LCM(2, 1).warm_start_from(LCM(3, 1))

    def test_task_correlation_matrix(self, rng):
        lcm = LCM(2, 1, max_fun=60, seed=0).fit(_correlated_tasks(rng, shift=0.0))
        C = lcm.task_correlation()
        assert C.shape == (2, 2)
        assert np.allclose(np.diag(C), 1.0)
        # identical tasks should be learned as positively correlated
        assert C[0, 1] > 0.3


def _unequal_tasks(rng, sizes, dim):
    """Correlated tasks with per-task sizes (0 = empty, the TS cold start)."""
    w = rng.standard_normal(dim)
    sets = []
    for i, n in enumerate(sizes):
        X = rng.random((n, dim))
        y = np.sin(3.0 * X @ w + 0.2 * i) + 0.1 * i
        sets.append((X, y))
    return sets


class TestAnalyticGradient:
    @pytest.mark.parametrize(
        "n_tasks,dim,n_latent,sizes",
        [
            (2, 1, 1, (12, 7)),
            (3, 2, 2, (10, 6, 4)),
            (3, 2, 2, (9, 7, 0)),  # empty target: the TS cold start
        ],
    )
    def test_gradient_matches_central_differences(
        self, rng, n_tasks, dim, n_latent, sizes
    ):
        from repro.core.lcm import _make_workspace

        sets = _unequal_tasks(rng, sizes, dim)
        model = LCM(n_tasks, dim, n_latent=n_latent, optimize=False, seed=0).fit(sets)
        st = model._state
        ws = _make_workspace(st.X, st.t, n_tasks)
        y = (st.y_raw - st.y_means[st.t]) / st.y_stds[st.t]
        theta = model._theta + 0.05 * rng.standard_normal(model.n_params)

        nll, grad = model._nll_grad(theta, ws, y)
        assert nll == pytest.approx(oracles.lcm_nll(model, theta, st.X, st.t, y), rel=1e-10)

        eps = 1e-5
        fd = np.empty_like(grad)
        for i in range(model.n_params):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            fd[i] = (
                model._nll_grad(tp, ws, y)[0] - model._nll_grad(tm, ws, y)[0]
            ) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)

    def test_gradient_evals_counted(self, rng):
        from repro.core import perf

        sets = _correlated_tasks(rng)
        with perf.collect() as stats:
            LCM(2, 1, max_fun=10, seed=0).fit(sets)
        assert stats.snapshot()["counters"]["lcm_grad_evals"] >= 1


class TestParallelRestarts:
    def test_parallel_matches_sequential(self, rng):
        from repro.core import perf

        sets = _correlated_tasks(rng)
        seq = LCM(2, 1, max_fun=30, n_restarts=2, n_jobs=1, seed=3).fit(sets)
        with perf.collect() as stats:
            par = LCM(2, 1, max_fun=30, n_restarts=2, n_jobs=2, seed=3).fit(sets)
        np.testing.assert_allclose(seq._theta, par._theta)
        assert seq.last_nll_ == pytest.approx(par.last_nll_)
        assert stats.snapshot()["counters"]["lcm_parallel_starts"] == 3

    def test_restarts_never_worse_than_single_start(self, rng):
        sets = _correlated_tasks(rng)
        single = LCM(2, 1, max_fun=30, seed=3).fit(sets)
        multi = LCM(2, 1, max_fun=30, n_restarts=3, seed=3).fit(sets)
        assert multi.last_nll_ <= single.last_nll_ + 1e-9


class TestIncrementalUpdate:
    def _grow(self, sets, task, X_app, y_app):
        return [
            (np.vstack([X, X_app]), np.concatenate([y, y_app])) if i == task else (X, y)
            for i, (X, y) in enumerate(sets)
        ]

    @pytest.mark.parametrize("task", [0, 1, 2])
    def test_update_matches_full_refit(self, rng, task):
        """update() is pure amortization: predictions match a fresh fit
        on the grown datasets exactly, whichever task grew."""
        sets = _unequal_tasks(rng, (12, 9, 6), 2)
        base = LCM(3, 2, n_latent=2, max_fun=25, seed=0).fit(sets)
        X_app, y_app = rng.random((2, 2)), rng.standard_normal(2) * 0.1

        inc = LCM(3, 2, n_latent=2, optimize=False)
        inc.warm_start_from(base)
        inc.fit(sets)
        inc.update(task, X_app, y_app)

        ref = LCM(3, 2, n_latent=2, optimize=False)
        ref.warm_start_from(base)
        ref.fit(self._grow(sets, task, X_app, y_app))

        Xq = rng.random((10, 2))
        for i in range(3):
            m1, s1 = inc.predict(i, Xq)
            m2, s2 = ref.predict(i, Xq)
            np.testing.assert_allclose(m1, m2, rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(s1, s2, rtol=1e-8, atol=1e-8)
        assert inc.last_nll_ == pytest.approx(ref.last_nll_, rel=1e-8)

    def test_update_fills_empty_target(self, rng):
        """Cold start: fit with an empty target, then update() it in."""
        from repro.core import perf

        sets = _unequal_tasks(rng, (14, 0), 1)
        model = LCM(2, 1, max_fun=25, seed=0).fit(sets)
        X_app, y_app = rng.random((3, 1)), rng.standard_normal(3) * 0.1
        with perf.collect() as stats:
            model.update(1, X_app, y_app)
        assert stats.snapshot()["counters"]["lcm_incremental_updates"] == 3

        ref = LCM(2, 1, optimize=False)
        ref.warm_start_from(model)
        ref.fit(self._grow(sets, 1, X_app, y_app))
        Xq = rng.random((8, 1))
        for i in range(2):
            np.testing.assert_allclose(
                model.predict(i, Xq)[0], ref.predict(i, Xq)[0], rtol=1e-8, atol=1e-8
            )

    def test_extends_fitted_classification(self, rng):
        sets = _unequal_tasks(rng, (10, 5), 1)
        model = LCM(2, 1, max_fun=15, seed=0).fit(sets)
        assert model.extends_fitted(sets) == []

        X_app, y_app = rng.random((1, 1)), np.array([0.2])
        grown = self._grow(sets, 1, X_app, y_app)
        appends = model.extends_fitted(grown)
        assert appends is not None and len(appends) == 1
        task, Xa, ya = appends[0]
        assert task == 1
        np.testing.assert_array_equal(Xa, X_app)
        np.testing.assert_array_equal(ya, y_app)

        # mutated history (not a prefix) and shrunk history both diverge
        mutated = [(sets[0][0], sets[0][1] + 1.0), sets[1]]
        assert model.extends_fitted(mutated) is None
        shrunk = [(sets[0][0][:-1], sets[0][1][:-1]), sets[1]]
        assert model.extends_fitted(shrunk) is None

    def test_update_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            LCM(2, 1).update(0, rng.random((1, 1)), np.zeros(1))
