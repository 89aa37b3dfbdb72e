"""Tests for batch proposal: constant-liar / kriging-believer fantasies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExpectedImprovement,
    GaussianProcess,
    PendingPenalty,
    RBF,
    RealParameter,
    Space,
    perf,
)
from repro.core.gp import GPFitError
from repro.core.optimizer import LIE_STRATEGIES, _lie_value, propose_batch


@pytest.fixture
def space_1d() -> Space:
    return Space([RealParameter("x", 0.0, 1.0)])


@pytest.fixture
def fitted_gp():
    rng = np.random.default_rng(0)
    X = rng.random((12, 1))
    y = (X[:, 0] - 0.37) ** 2 + 0.1
    gp = GaussianProcess(RBF(1), optimize=False)
    gp.fit(X, y)
    return gp, X, y


class TestLieValues:
    def test_constant_liar_values(self):
        y = np.array([1.0, 3.0, 2.0])
        assert _lie_value("cl-min", None, None, y) == 1.0
        assert _lie_value("cl-mean", None, None, y) == 2.0
        assert _lie_value("cl-max", None, None, y) == 3.0

    def test_kriging_believer_uses_posterior_mean(self, fitted_gp):
        gp, X, y = fitted_gp
        u = np.array([0.4])
        lie = _lie_value("kb", gp.predict, u, y)
        mean, _ = gp.predict(u[None, :])
        assert lie == pytest.approx(float(mean[0]))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            _lie_value("wat", None, None, np.ones(2))

    def test_registry_is_complete(self):
        assert set(LIE_STRATEGIES) == {"cl-min", "cl-mean", "cl-max", "kb"}


class TestProposeBatchGP:
    def test_batch_size_and_distinct(self, fitted_gp, space_1d):
        gp, X, y = fitted_gp
        rng = np.random.default_rng(1)
        batch = propose_batch(
            gp.predict, space_1d, ExpectedImprovement(), rng,
            q=4, gp=gp, X_obs=X, y_obs=y,
        )
        assert len(batch) == 4
        xs = [round(c["x"], 10) for c in batch]
        assert len(set(xs)) == 4

    @pytest.mark.parametrize("lie", LIE_STRATEGIES)
    def test_all_lie_strategies_work(self, fitted_gp, space_1d, lie):
        gp, X, y = fitted_gp
        rng = np.random.default_rng(2)
        batch = propose_batch(
            gp.predict, space_1d, ExpectedImprovement(), rng,
            q=3, gp=gp, X_obs=X, y_obs=y, lie=lie,
        )
        assert len(batch) == 3

    def test_gp_state_restored(self, fitted_gp, space_1d):
        """Fantasies must not leak into the caller's surrogate."""
        gp, X, y = fitted_gp
        n_before = gp.n_train
        grid = np.linspace(0, 1, 20)[:, None]
        mean_before, std_before = gp.predict(grid)
        propose_batch(
            gp.predict, space_1d, ExpectedImprovement(),
            np.random.default_rng(3), q=5, gp=gp, X_obs=X, y_obs=y,
        )
        assert gp.n_train == n_before
        mean_after, std_after = gp.predict(grid)
        np.testing.assert_allclose(mean_after, mean_before)
        np.testing.assert_allclose(std_after, std_before)
        # with points in flight too: the restored state carries the
        # prediction cache of the real fit, so the bytes come back as well
        state = gp._state
        with perf.collect() as stats:
            propose_batch(
                gp.predict, space_1d, ExpectedImprovement(),
                np.random.default_rng(3), q=3, gp=gp, X_obs=X, y_obs=y,
                X_pending=np.array([[0.15], [0.85]]),
            )
        assert stats.snapshot()["counters"]["fantasy_updates"] == 4
        assert gp._state is state
        mean_after, std_after = gp.predict(grid)
        assert np.array_equal(mean_after, mean_before)
        assert np.array_equal(std_after, std_before)

    def test_degenerate_fantasy_is_counted_and_penalized(
        self, fitted_gp, space_1d, monkeypatch
    ):
        """A fantasy append the jitter ladder cannot absorb (GPFitError) is
        counted and the batch finishes on pending penalties; anything else
        update() raises is a bug and surfaces, with the model restored."""
        gp, X, y = fitted_gp
        state = gp._state

        def refuse(x, y):
            raise GPFitError("covariance not positive definite")

        monkeypatch.setattr(gp, "update", refuse)
        with perf.collect() as stats:
            batch = propose_batch(
                gp.predict, space_1d, ExpectedImprovement(),
                np.random.default_rng(3), q=3, gp=gp, X_obs=X, y_obs=y,
            )
        counters = stats.snapshot()["counters"]
        assert len(batch) == 3 and len({c["x"] for c in batch}) == 3
        assert counters["fantasy_update_failures"] == 1
        assert "fantasy_updates" not in counters

        def bug(x, y):
            raise TypeError("not a fit failure")

        monkeypatch.setattr(gp, "update", bug)
        with pytest.raises(TypeError):
            propose_batch(
                gp.predict, space_1d, ExpectedImprovement(),
                np.random.default_rng(3), q=3, gp=gp, X_obs=X, y_obs=y,
            )
        assert gp._state is state

    def test_pending_points_not_reproposed(self, fitted_gp, space_1d):
        gp, X, y = fitted_gp
        rng = np.random.default_rng(4)
        # first find where a q=1 proposal would land
        solo = propose_batch(
            gp.predict, space_1d, ExpectedImprovement(),
            np.random.default_rng(4), q=1, gp=gp, X_obs=X, y_obs=y,
        )[0]
        pending_u = space_1d.to_unit_array([solo])
        batch = propose_batch(
            gp.predict, space_1d, ExpectedImprovement(), rng,
            q=2, gp=gp, X_obs=X, y_obs=y,
            X_pending=pending_u, evaluated=[solo],
        )
        # with the argmax fantasy-blocked, new picks land elsewhere
        for cfg in batch:
            assert abs(cfg["x"] - solo["x"]) > 1e-6

    def test_invalid_q(self, fitted_gp, space_1d):
        gp, X, y = fitted_gp
        with pytest.raises(ValueError):
            propose_batch(
                gp.predict, space_1d, ExpectedImprovement(),
                np.random.default_rng(0), q=0, gp=gp, X_obs=X, y_obs=y,
            )

    def test_respects_feasibility_predicate(self, fitted_gp, space_1d):
        gp, X, y = fitted_gp
        batch = propose_batch(
            gp.predict, space_1d, ExpectedImprovement(),
            np.random.default_rng(5), q=3, gp=gp, X_obs=X, y_obs=y,
            feasible=lambda cfg: cfg["x"] < 0.5,
        )
        assert all(c["x"] < 0.5 for c in batch)


class TestProposeBatchFallback:
    """Without a GP, PendingPenalty keeps batches diverse."""

    def test_generic_predict_diverse_batch(self, space_1d):
        def predict(U):
            m = (U[:, 0] - 0.37) ** 2 + 0.1
            return m, np.full(U.shape[0], 0.05)

        batch = propose_batch(
            predict, space_1d, ExpectedImprovement(),
            np.random.default_rng(6), q=4,
            X_obs=np.array([[0.2], [0.8]]), y_obs=np.array([0.13, 0.28]),
        )
        xs = sorted(c["x"] for c in batch)
        assert len(batch) == 4
        assert all(b - a > 1e-4 for a, b in zip(xs, xs[1:]))


class TestPendingPenalty:
    def test_identity_without_pending(self):
        base = ExpectedImprovement()
        acq = PendingPenalty(base, None)

        def predict(U):
            return U[:, 0], np.ones(U.shape[0])

        U = np.random.default_rng(0).random((16, 1))
        np.testing.assert_allclose(acq(predict, U, 1.0), base(predict, U, 1.0))

    def test_zero_at_pending_point(self):
        acq = PendingPenalty(ExpectedImprovement(), np.array([[0.5]]), radius=0.2)

        def predict(U):
            return np.zeros(U.shape[0]), np.ones(U.shape[0])

        scores = acq(predict, np.array([[0.5], [0.9]]), 1.0)
        assert scores[0] == 0.0
        assert scores[1] > 0.0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            PendingPenalty(ExpectedImprovement(), None, radius=0.0)
