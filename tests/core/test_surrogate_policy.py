"""Tests for the surrogate="auto" policy across every fit of crowd data.

The policy's core contract: below ``N_DENSE_MAX`` the loop is
bit-identical to the historical dense-GP tuner (same rng consumption,
same proposals); above it the sparse surrogate takes over transparently
— in the tuner, the TLA models, the registry and the client alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Tuner, TunerOptions
from repro.core.acquisition import ExpectedImprovement
from repro.core.history import History, TaskData
from repro.core.optimizer import propose_batch
from repro.core.problem import Evaluation
from repro.core.space import RealParameter, Space
from repro.core.sparse import SparseGP
from repro.crowd import CrowdClient, MetaDescription
from repro.registry import RegistryOptions
from repro.sensitivity import SensitivityAnalyzer
from repro.service import build_service
from repro.tla.base import TLAStrategy, fit_source_gps


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

    def test_auto_switches_to_sparse_above_threshold(
        self, quadratic_problem, sparse_threshold
    ):
        sparse_threshold(5, n_inducing=8)
        tuner = Tuner(quadratic_problem, TunerOptions(surrogate="auto"))
        res = tuner.tune({"t": 1}, 10, seed=0)
        assert tuner._surrogate_kind == "sparse"
        assert isinstance(tuner._gp, SparseGP)
        assert res.perf["counters"]["sparse_fits"] >= 1
        assert res.n_evaluations == 10

    def test_auto_regret_within_noise_of_dense(self, quadratic_problem, sparse_threshold):
        """Sparse-mode tuning still finds the quadratic optimum."""
        sparse_threshold(4, n_inducing=10)
        tuner = Tuner(quadratic_problem, TunerOptions(surrogate="auto"))
        res = tuner.tune({"t": 1}, 20, seed=0)
        assert res.best_output == pytest.approx(0.1, abs=0.02)

    def test_mixed_kernel_stays_dense(self, quadratic_problem, sparse_threshold):
        sparse_threshold(2)
        tuner = Tuner(quadratic_problem, TunerOptions(surrogate="auto", kernel="mixed"))
        tuner.tune({"t": 1}, 6, seed=0)
        assert tuner._surrogate_kind == "dense"

    def test_mixed_kernel_refuses_an_explicit_sparse(self):
        """The mixed-space kernel is dense only: asking for sparse with it
        fails at construction instead of silently running dense."""
        with pytest.raises(ValueError, match="mixed"):
            TunerOptions(surrogate="sparse", kernel="mixed")

    def test_crossing_threshold_mid_run_rebuilds(self, quadratic_problem, sparse_threshold):
        """Seed the loop with a warm history that crosses N_DENSE_MAX
        mid-run; the surrogate kind flips without disturbing the budget."""
        sparse_threshold(8, n_inducing=6)
        tuner = Tuner(quadratic_problem, TunerOptions(surrogate="auto"))
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

    def test_dense_below_threshold(self, sparse_threshold):
        sparse_threshold(100)
        strat = _MinimalStrategy()
        gp = strat._target_gp(self._target(30), np.random.default_rng(0))
        from repro.core.gp import GaussianProcess

        assert isinstance(gp, GaussianProcess)

    def test_sparse_above_threshold(self, sparse_threshold):
        sparse_threshold(40, n_inducing=12)
        strat = _MinimalStrategy()
        gp = strat._target_gp(self._target(80), np.random.default_rng(0))
        assert isinstance(gp, SparseGP)
        mu, sd = gp.predict(np.random.default_rng(1).random((5, 2)))
        assert mu.shape == (5,) and np.all(sd > 0)

    def test_crossing_threshold_rebuilds_sparse(self, sparse_threshold):
        sparse_threshold(50, n_inducing=10)
        strat = _MinimalStrategy(refit_every=5)
        rng = np.random.default_rng(0)
        gp_small = strat._target_gp(self._target(40), rng)
        from repro.core.gp import GaussianProcess

        assert isinstance(gp_small, GaussianProcess)
        gp_big = strat._target_gp(self._target(60), rng)
        assert isinstance(gp_big, SparseGP)


@pytest.mark.parametrize("policy", ["sparce", "partitioned"])
class TestPolicyValidatedWhereWritten:
    """A bad ``surrogate=`` fails at construction, listing the valid kinds —
    not after ``n_initial`` evaluations or at the first ``model()`` call.
    (The registry writes down no policy: its builds always run ``"auto"``.)"""

    def test_tuner_options(self, policy):
        with pytest.raises(ValueError, match=r"'auto', 'dense', 'sparse'"):
            TunerOptions(surrogate=policy)

    def test_tla_strategy(self, policy):
        with pytest.raises(ValueError, match=r"'auto', 'dense', 'sparse'"):
            _MinimalStrategy(surrogate=policy)


class TestOnePolicyPastTheThreshold:
    """One record past ``N_DENSE_MAX``, every fit of crowd data is sparse,
    and each served answer is bit for bit the one a client gets by
    fitting the same records locally under ``RegistryOptions().seed``."""

    N_DENSE_MAX = 40
    TASK = {"t": 1.0}
    SPACE = {
        "input_space": [{"name": "t", "type": "real", "lower_bound": 0, "upper_bound": 10}],
        "parameter_space": [
            {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0},
            {"name": "z", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0},
        ],
        "output_space": [{"name": "y", "type": "output"}],
    }
    PROBE = [{"x": 0.1, "z": 0.9}, {"x": 0.45, "z": 0.2}, {"x": 0.8, "z": 0.6}]

    @pytest.fixture
    def crowd(self, sparse_threshold):
        """A registry-backed service holding ``N_DENSE_MAX + 1`` records of
        one task, and a consulting and a fit-locally client over it."""
        sparse_threshold(self.N_DENSE_MAX, n_inducing=16)
        svc = build_service(2, replication=1, registry=RegistryOptions(min_new_samples=10**6))
        key = svc.register_user("alice", "a@lab.gov")[1]
        rng = np.random.default_rng(0)
        for _ in range(self.N_DENSE_MAX + 1):
            x, z = (float(v) for v in rng.random(2))
            response = svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "demo",
                    "task_parameters": dict(self.TASK),
                    "tuning_parameters": {"x": x, "z": z},
                    "output": float(2.0 + np.sin(6 * x) + 0.3 * z),
                }
            )
            assert response["ok"]
        meta = MetaDescription.from_dict(
            {"api_key": key, "tuning_problem_name": "demo", "problem_space": self.SPACE}
        )
        repo = svc.repository_view()
        yield CrowdClient(repo, meta), CrowdClient(repo, meta, use_registry=False)
        svc.close()

    def test_every_site_picks_sparse(self, crowd, quadratic_problem):
        served, local = crowd
        n = self.N_DENSE_MAX + 1
        # the registry's build, and the client's fit-locally paths
        assert isinstance(served.query_surrogate_model(self.TASK), SparseGP)
        assert isinstance(local.query_surrogate_model(self.TASK, seed=0), SparseGP)
        report = local.query_sensitivity_analysis(self.TASK, n_base=16, seed=0)
        assert isinstance(report.surrogate, SparseGP)
        joint = local.query_task_model(Space([RealParameter("t", 0.0, 10.0)]), seed=0)
        assert isinstance(joint._gp, SparseGP)
        # the sensitivity analyzer, and the TLA source and target models
        rng = np.random.default_rng(0)
        data = TaskData({"t": 0}, rng.random((n, 2)), rng.random(n), "src")
        analyzer = SensitivityAnalyzer(local.meta.parameter_space())
        assert isinstance(analyzer.fit_surrogate(data, seed=0), SparseGP)
        assert isinstance(fit_source_gps([data], rng)[0], SparseGP)
        assert isinstance(_MinimalStrategy()._target_gp(data, rng), SparseGP)
        # the tuner's own model
        hist = History({"t": 1}, quadratic_problem.parameter_space)
        for x in np.linspace(0.0, 1.0, n, endpoint=False):
            hist.append(Evaluation(task={"t": 1}, config={"x": x}, output=(x - 0.37) ** 2))
        tuner = Tuner(quadratic_problem, TunerOptions())
        tuner.tune({"t": 1}, 1, seed=0, history=hist)
        assert tuner._surrogate_kind == "sparse"

    def test_served_equals_fit_locally(self, crowd):
        served, local = crowd
        seed = RegistryOptions().seed
        assert np.array_equal(
            served.query_predict_output(self.PROBE, self.TASK),
            local.query_predict_output(self.PROBE, self.TASK, seed=seed),
        )
        X = served.meta.parameter_space().to_unit_array(self.PROBE)
        assert np.array_equal(
            served.query_surrogate_model(self.TASK).predict_mean(X),
            local.query_surrogate_model(self.TASK, seed=seed).predict_mean(X),
        )
        a = served.query_sensitivity_analysis(self.TASK, n_base=64, seed=seed)
        b = local.query_sensitivity_analysis(self.TASK, n_base=64, seed=seed)
        assert np.array_equal(a.indices.S1, b.indices.S1)
        assert np.array_equal(a.indices.ST, b.indices.ST)
