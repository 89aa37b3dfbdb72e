"""Unit tests for repro.core.sparse: the large-n surrogate layer.

Covers the deterministic k-center inducing selection, SGPR accuracy and
incremental updates, oracle-exact predictions and bitwise dict
round-trips, the structured jitter-ladder failure, and the new perf
counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import perf
from repro.core.gp import GaussianProcess, GPFitError, cholesky_at, cholesky_with_jitter
from repro.core.kernels import RBF, Matern52
from repro.core.sparse import (
    SparseGP,
    make_surrogate,
    resolve_surrogate_kind,
    select_inducing,
    surrogate_from_dict,
)

from .oracles import sparse_predict


def _toy(n, d=2, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    f = np.sin(3 * X[:, 0]) + np.cos(2 * X[:, 1]) + 0.5 * X[:, 0] * X[:, 1]
    return X, f + noise * rng.standard_normal(n)


def _truth(X):
    return np.sin(3 * X[:, 0]) + np.cos(2 * X[:, 1]) + 0.5 * X[:, 0] * X[:, 1]


class TestSelectInducing:
    def test_deterministic_and_valid(self):
        X, _ = _toy(300)
        a = select_inducing(X, 40)
        b = select_inducing(X, 40)
        assert np.array_equal(a, b)
        assert len(np.unique(a)) == 40

    def test_prefix_property(self):
        """The greedy order is nested: first k of m-selection == k-selection."""
        X, _ = _toy(200)
        big = select_inducing(X, 60)
        small = select_inducing(X, 25)
        assert np.array_equal(big[:25], small)

    def test_caps_at_n(self):
        X, _ = _toy(10)
        assert len(select_inducing(X, 50)) == 10

    def test_spreads_over_the_cube(self):
        """k-center picks cover the data: max distance to nearest center
        shrinks well below a random subset's."""
        X, _ = _toy(500, seed=3)
        Z = X[select_inducing(X, 30)]
        d = np.sqrt(
            ((X[:, None, :] - Z[None, :, :]) ** 2).sum(-1)
        ).min(axis=1)
        assert d.max() < 0.35


class TestSparseGP:
    def test_accuracy_close_to_dense(self):
        X, y = _toy(600, seed=1)
        Xt, _ = _toy(80, seed=9)
        yt = _truth(Xt)
        sp = SparseGP("rbf", n_inducing=60, seed=0).fit(X, y)
        mu, sd = sp.predict(Xt)
        rmse = float(np.sqrt(np.mean((mu - yt) ** 2)))
        assert rmse < 0.05
        assert np.all(sd > 0)

    def test_update_matches_refit_with_fixed_inducing(self):
        X, y = _toy(500, seed=2)
        Z = X[select_inducing(X, 50)]
        a = SparseGP("rbf", inducing=Z, optimize=False, noise_variance=1e-3)
        a.fit(X[:400], y[:400])
        a.update(X[400:], y[400:])
        b = SparseGP("rbf", inducing=Z, optimize=False, noise_variance=1e-3)
        b.fit(X, y)
        Xt, _ = _toy(60, seed=7)
        mu_a, sd_a = a.predict(Xt)
        mu_b, sd_b = b.predict(Xt)
        np.testing.assert_allclose(mu_a, mu_b, atol=1e-8)
        np.testing.assert_allclose(sd_a, sd_b, atol=1e-8)

    def test_extends_training_data_contract(self):
        X, y = _toy(100)
        sp = SparseGP("rbf", n_inducing=20, seed=0).fit(X, y)
        Xn, yn = _toy(10, seed=21)
        X2 = np.vstack([X, Xn])
        y2 = np.concatenate([y, yn])
        assert sp.extends_training_data(X2, y2) == 10
        assert sp.extends_training_data(X, y) == 0
        assert sp.extends_training_data(X[:50], y[:50]) is None
        y_div = y2.copy()
        y_div[3] += 1.0
        assert sp.extends_training_data(X2, y_div) is None

    def test_dict_roundtrip_bitwise(self):
        X, y = _toy(300, seed=4)
        sp = SparseGP("rbf", n_inducing=40, seed=1).fit(X[:250], y[:250])
        sp.update(X[250:], y[250:])  # exercise the accumulator path
        Xt, _ = _toy(50, seed=8)
        mu, sd = sp.predict(Xt)
        clone = surrogate_from_dict(sp.to_dict())
        mu2, sd2 = clone.predict(Xt)
        assert np.array_equal(mu, mu2)
        assert np.array_equal(sd, sd2)
        assert clone.n_train == sp.n_train

    def test_predict_equals_oracle(self):
        """One predictor: after fit, update and a dict round-trip it is the
        textbook SGPR posterior bit for bit, at every batch size."""
        X, y = _toy(200, seed=5)
        sp = SparseGP("rbf", n_inducing=30, seed=2).fit(X[:180], y[:180])
        stages = (
            lambda: sp,
            lambda: sp.update(X[180:], y[180:]),
            lambda: surrogate_from_dict(sp.to_dict()),
        )
        for stage in stages:
            model = stage()
            for rows in (1, 16, 1024):
                Xt, _ = _toy(rows, seed=6)
                mu, sd = model.predict(Xt)
                mu_ref, sd_ref = sparse_predict(model, Xt)
                assert np.array_equal(mu, mu_ref)
                assert np.array_equal(sd, sd_ref)
                assert np.array_equal(model.predict_mean(Xt), mu_ref)

    def test_held_state_survives_update(self):
        """States are replaced, not mutated: putting back a state taken
        before an update serves the predictions of that fit, bit for bit."""
        X, y = _toy(150, seed=11)
        sp = SparseGP("rbf", n_inducing=25, seed=3).fit(X, y)
        Xt, _ = _toy(30, seed=12)
        held = sp._state
        mu_before, sd_before = sp.predict(Xt)
        sp.update(*_toy(20, seed=13))
        assert not np.array_equal(sp.predict(Xt)[0], mu_before)
        sp._state = held
        mu_after, sd_after = sp.predict(Xt)
        assert np.array_equal(mu_before, mu_after)
        assert np.array_equal(sd_before, sd_after)

    def test_has_state_for_fantasization(self):
        """propose_batch duck-types gp._state save/restore; SparseGP
        participates (states are immutable snapshots)."""
        X, y = _toy(100)
        sp = SparseGP("rbf", n_inducing=20, seed=0).fit(X, y)
        saved = sp._state
        sp.update(X[:2], y[:2])
        sp._state = saved
        assert sp.n_train == 100

    def test_perf_counters(self):
        X, y = _toy(120)
        with perf.collect() as stats:
            sp = SparseGP("rbf", n_inducing=20, seed=0).fit(X, y)
            sp.update(X[:3], y[:3])
        snap = stats.snapshot()
        assert snap["counters"]["sparse_fits"] == 1
        assert snap["counters"]["sparse_updates"] == 3
        assert "sparse_select_inducing" in snap["timers"]

    def test_errors(self):
        with pytest.raises(ValueError):
            SparseGP("rbf", n_inducing=0)
        sp = SparseGP("rbf")
        with pytest.raises(RuntimeError):
            sp.predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            sp.update(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            sp.fit(np.zeros((0, 2)), np.zeros(0))


class TestFactoryAndPolicy:
    def test_resolve_kinds(self):
        assert resolve_surrogate_kind("auto", 100, 1000) == "dense"
        assert resolve_surrogate_kind("auto", 1000, 1000) == "dense"
        assert resolve_surrogate_kind("auto", 1001, 1000) == "sparse"
        assert resolve_surrogate_kind("dense", 10**6, 1000) == "dense"
        with pytest.raises(ValueError):
            resolve_surrogate_kind("bogus", 10, 1000)

    def test_make_surrogate(self):
        assert isinstance(make_surrogate("sparse", "rbf", n_inducing=7), SparseGP)
        dense = make_surrogate("dense", "matern52", dim=3, max_fun=40, n_restarts=2)
        assert type(dense) is GaussianProcess and isinstance(dense.kernel, Matern52)
        assert (dense.kernel.dim, dense.max_fun, dense.n_restarts) == (3, 40, 2)
        kernel = RBF(2)  # a Kernel instance (the mixed-space kernel) needs no dim
        assert make_surrogate("dense", kernel).kernel is kernel
        with pytest.raises(ValueError, match="dim"):
            make_surrogate("dense", "rbf")
        with pytest.raises(ValueError):
            make_surrogate("bogus", "rbf")

    def test_from_dict_dispatch(self):
        X, y = _toy(50)
        dense = GaussianProcess(seed=0).fit(X, y)
        assert isinstance(surrogate_from_dict(dense.to_dict()), GaussianProcess)
        sp = SparseGP("rbf", n_inducing=10, seed=0).fit(X, y)
        assert isinstance(surrogate_from_dict(sp.to_dict()), SparseGP)

    @pytest.mark.parametrize("tag", ["partitioned", "sparce", None])
    def test_from_dict_refuses_unknown_tags(self, tag):
        """A snapshot is outside input: a tag this build does not load is
        named in a ValueError, not read as a dense document (KeyError 'X')."""
        doc = {"type": tag, "kernel": "rbf", "leaves": []}
        with pytest.raises(ValueError, match=f"{tag!r}.*'dense', 'sparse'"):
            surrogate_from_dict(doc)


class TestJitterLadderFailure:
    def test_gpfiterror_carries_jitter_ladder(self):
        K = -np.eye(3)  # negative definite: every rung fails
        with perf.collect() as stats:
            with pytest.raises(GPFitError) as exc_info:
                cholesky_with_jitter(K)
        err = exc_info.value
        # the as-is attempt plus all 8 ladder rungs
        assert len(err.jitters) == 9
        assert err.jitters[0] == 0.0
        assert list(err.jitters[1:]) == sorted(err.jitters[1:])
        assert "tried jitters" in str(err)
        snap = stats.snapshot()
        assert snap["counters"]["gp_jitter_retries"] == 8
        assert snap["counters"]["cholesky_failures"] == 1

    def test_gp_jitter_retries_on_recoverable_matrix(self):
        # rank-deficient PSD: fails exact, succeeds after small jitter
        v = np.array([[1.0], [1.0], [1.0]])
        K = v @ v.T
        with perf.collect() as stats:
            L, jitter = cholesky_with_jitter(K)
        assert jitter > 0
        assert np.isfinite(L).all()
        assert stats.snapshot()["counters"]["gp_jitter_retries"] >= 1

    def test_clean_matrix_records_nothing(self):
        with perf.collect() as stats:
            _, jitter = cholesky_with_jitter(np.eye(4))
        assert jitter == 0.0
        assert "gp_jitter_retries" not in stats.snapshot()["counters"]

    def test_replay_at_the_recorded_rung(self):
        """``cholesky_at`` reproduces the ladder's factor from its rung, and
        walks the ladder again (counted) when that rung no longer factorizes."""
        v = np.array([[1.0], [1.0], [1.0]])
        K = v @ v.T
        L, jitter = cholesky_with_jitter(K)
        K_before = K.copy()
        with perf.collect() as stats:
            L2, jitter2 = cholesky_at(K, jitter)
        assert np.array_equal(L2, L) and jitter2 == jitter
        assert np.array_equal(K, K_before)
        assert "gp_jitter_replay_fallbacks" not in stats.snapshot()["counters"]
        with perf.collect() as stats:
            L3, jitter3 = cholesky_at(K, 0.0)  # a rung too low for this matrix
        assert np.array_equal(L3, L) and jitter3 == jitter
        assert stats.snapshot()["counters"]["gp_jitter_replay_fallbacks"] == 1
