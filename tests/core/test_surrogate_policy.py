"""Tests for the surrogate="auto" policy across the tuner and TLA layers.

The policy's core contract: below ``n_dense_max`` the loop is
bit-identical to the historical dense-GP tuner (same rng consumption,
same proposals); above it the sparse surrogate takes over transparently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Tuner, TunerOptions
from repro.core.acquisition import ExpectedImprovement
from repro.core.history import History, TaskData
from repro.core.optimizer import propose_batch
from repro.core.problem import Evaluation
from repro.core.sparse import SparseGP
from repro.tla.base import TLAStrategy


class TestTunerPolicy:
    def test_auto_is_bit_identical_to_dense_below_threshold(self, quadratic_problem):
        """A Fig. 3-style small-budget run: the auto policy must replay
        the dense path exactly (proposals, history, incumbents)."""
        auto = Tuner(
            quadratic_problem, TunerOptions(surrogate="auto")
        ).tune({"t": 1}, 12, seed=42)
        dense = Tuner(
            quadratic_problem, TunerOptions(surrogate="dense")
        ).tune({"t": 1}, 12, seed=42)
        assert auto.history.configs() == dense.history.configs()
        assert auto.best_so_far() == dense.best_so_far()
        assert "sparse_fits" not in auto.perf["counters"]

    def test_auto_switches_to_sparse_above_threshold(self, quadratic_problem):
        opts = TunerOptions(surrogate="auto", n_dense_max=5, n_inducing=8)
        tuner = Tuner(quadratic_problem, opts)
        res = tuner.tune({"t": 1}, 10, seed=0)
        assert tuner._surrogate_kind == "sparse"
        assert isinstance(tuner._gp, SparseGP)
        assert res.perf["counters"]["sparse_fits"] >= 1
        assert res.n_evaluations == 10

    def test_auto_regret_within_noise_of_dense(self, quadratic_problem):
        """Sparse-mode tuning still finds the quadratic optimum."""
        opts = TunerOptions(surrogate="auto", n_dense_max=4, n_inducing=10)
        res = Tuner(quadratic_problem, opts).tune({"t": 1}, 20, seed=0)
        assert res.best_output == pytest.approx(0.1, abs=0.02)

    def test_mixed_kernel_stays_dense(self, quadratic_problem):
        opts = TunerOptions(surrogate="auto", kernel="mixed", n_dense_max=2)
        tuner = Tuner(quadratic_problem, opts)
        tuner.tune({"t": 1}, 6, seed=0)
        assert tuner._surrogate_kind == "dense"

    def test_crossing_threshold_mid_run_rebuilds(self, quadratic_problem):
        """Seed the loop with a warm history that crosses n_dense_max
        mid-run; the surrogate kind flips without disturbing the budget."""
        opts = TunerOptions(surrogate="auto", n_dense_max=8, n_inducing=6)
        tuner = Tuner(quadratic_problem, opts)
        hist = History({"t": 1}, quadratic_problem.parameter_space)
        rng = np.random.default_rng(0)
        for _ in range(6):
            cfg = quadratic_problem.parameter_space.sample(rng)
            hist.append(
                Evaluation(
                    task={"t": 1},
                    config=cfg,
                    output=(cfg["x"] - 0.37) ** 2 + 0.1,
                )
            )
        res = tuner.tune({"t": 1}, 6, seed=1, history=hist)
        assert tuner._surrogate_kind == "sparse"
        assert res.n_evaluations == 12


class TestBatchProposerGuard:
    def test_sparse_gp_supports_fantasization(self):
        from repro.core.space import RealParameter, Space

        space = Space([RealParameter("x", 0.0, 1.0), RealParameter("z", 0.0, 1.0)])
        rng = np.random.default_rng(0)
        X = rng.random((50, 2))
        y = (X[:, 0] - 0.4) ** 2 + (X[:, 1] - 0.6) ** 2
        sp = SparseGP("rbf", n_inducing=15, seed=0).fit(X, y)
        Xq = np.random.default_rng(2).random((16, 2))
        mean_before, std_before = sp.predict(Xq)
        batch = propose_batch(
            sp.predict,
            space,
            ExpectedImprovement(),
            np.random.default_rng(1),
            q=3,
            gp=sp,
            X_obs=X,
            y_obs=y,
            X_pending=np.array([[0.2, 0.2], [0.8, 0.7]]),
        )
        assert len(batch) == 3
        assert sp.n_train == 50  # fantasies restored
        mean_after, std_after = sp.predict(Xq)
        assert np.array_equal(mean_after, mean_before)
        assert np.array_equal(std_after, std_before)


class _MinimalStrategy(TLAStrategy):
    name = "minimal"

    def model(self, target, rng):  # pragma: no cover - unused
        gp = self._target_gp(target, rng)
        return None if gp is None else gp.predict


class TestTLATargetPolicy:
    def _target(self, n, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        return TaskData({"t": 0}, X, y, "tgt")

    def test_dense_below_threshold(self):
        strat = _MinimalStrategy(n_dense_max=100)
        gp = strat._target_gp(self._target(30), np.random.default_rng(0))
        from repro.core.gp import GaussianProcess

        assert isinstance(gp, GaussianProcess)

    def test_sparse_above_threshold(self):
        strat = _MinimalStrategy(n_dense_max=40, n_inducing=12)
        gp = strat._target_gp(self._target(80), np.random.default_rng(0))
        assert isinstance(gp, SparseGP)
        mu, sd = gp.predict(np.random.default_rng(1).random((5, 2)))
        assert mu.shape == (5,) and np.all(sd > 0)

    def test_crossing_threshold_rebuilds_sparse(self):
        strat = _MinimalStrategy(n_dense_max=50, n_inducing=10, refit_every=5)
        rng = np.random.default_rng(0)
        gp_small = strat._target_gp(self._target(40), rng)
        from repro.core.gp import GaussianProcess

        assert isinstance(gp_small, GaussianProcess)
        gp_big = strat._target_gp(self._target(60), rng)
        assert isinstance(gp_big, SparseGP)


@pytest.mark.parametrize("policy", ["sparce", "partitioned"])
class TestPolicyValidatedWhereWritten:
    """A bad ``surrogate=`` fails at construction, listing the valid kinds —
    not after ``n_initial`` evaluations, at the first ``model()`` call, or
    inside a registry build on the upload path (where the uploader would
    see ``bad_request`` for a record that has already been stored)."""

    def test_tuner_options(self, policy):
        with pytest.raises(ValueError, match=r"'auto', 'dense', 'sparse'"):
            TunerOptions(surrogate=policy)

    def test_tla_strategy(self, policy):
        with pytest.raises(ValueError, match=r"'auto', 'dense', 'sparse'"):
            _MinimalStrategy(surrogate=policy)

    def test_registry_options(self, policy):
        from repro.registry import RegistryOptions

        with pytest.raises(ValueError, match=r"'auto', 'dense', 'sparse'"):
            RegistryOptions(surrogate=policy)
