"""Tests for repro.core.tuner: the NoTLA BO loop."""

from __future__ import annotations

import pytest

from repro.core import (
    IntegerParameter,
    OutputParameter,
    RealParameter,
    Space,
    Tuner,
    TunerOptions,
)
from repro.core.problem import TuningProblem


class TestTunerBasics:
    def test_budget_respected(self, quadratic_problem):
        res = Tuner(quadratic_problem).tune({"t": 1}, 7, seed=0)
        assert res.n_evaluations == 7

    def test_finds_quadratic_optimum(self, quadratic_problem):
        res = Tuner(quadratic_problem).tune({"t": 1}, 20, seed=0)
        assert res.best_output == pytest.approx(0.1, abs=0.01)
        assert res.best_config["x"] == pytest.approx(0.37, abs=0.1)

    def test_beats_random_sampling(self, quadratic_problem, rng):
        res = Tuner(quadratic_problem).tune({"t": 1}, 15, seed=3)
        random_best = min(
            (quadratic_problem.parameter_space.sample(rng)["x"] - 0.37) ** 2 + 0.1
            for _ in range(15)
        )
        assert res.best_output <= random_best * 1.5

    def test_reproducible_with_seed(self, quadratic_problem):
        a = Tuner(quadratic_problem).tune({"t": 1}, 8, seed=42)
        b = Tuner(quadratic_problem).tune({"t": 1}, 8, seed=42)
        assert a.best_so_far() == b.best_so_far()

    def test_different_seeds_differ(self, quadratic_problem):
        a = Tuner(quadratic_problem).tune({"t": 1}, 6, seed=1)
        b = Tuner(quadratic_problem).tune({"t": 1}, 6, seed=2)
        assert a.history.configs() != b.history.configs()

    def test_invalid_budget(self, quadratic_problem):
        with pytest.raises(ValueError):
            Tuner(quadratic_problem).tune({"t": 1}, 0)

    def test_validates_task(self, quadratic_problem):
        with pytest.raises(Exception):
            Tuner(quadratic_problem).tune({"t": 99}, 3)

    def test_no_duplicate_configs_on_continuous_space(self, quadratic_problem):
        res = Tuner(quadratic_problem).tune({"t": 1}, 12, seed=0)
        xs = [round(c["x"], 12) for c in res.history.configs()]
        assert len(set(xs)) == len(xs)

    def test_callbacks_fire_per_evaluation(self, quadratic_problem):
        seen = []
        tuner = Tuner(quadratic_problem, callbacks=[seen.append])
        tuner.tune({"t": 1}, 5, seed=0)
        assert len(seen) == 5

    def test_continue_from_history(self, quadratic_problem):
        t = Tuner(quadratic_problem)
        first = t.tune({"t": 1}, 5, seed=0)
        second = t.tune({"t": 1}, 5, seed=1, history=first.history)
        assert second.n_evaluations == 10

    def test_continuation_feeds_surrogate_without_consuming_budget(
        self, quadratic_problem
    ):
        """Prior evaluations skip the random phase but cost no budget.

        Regression for the ``tune(history=...)`` contract: the second
        run must (a) add exactly ``n_samples`` new evaluations on top of
        the carried-over ones, and (b) start model-guided immediately —
        the carried history already satisfies ``n_initial``, so no new
        random-design evaluations happen.
        """
        opts = TunerOptions(n_initial=3)
        first = Tuner(quadratic_problem, opts).tune({"t": 1}, 5, seed=0)
        assert first.history.n_successes >= opts.n_initial
        carried = len(first.history)

        t2 = Tuner(quadratic_problem, opts)
        second = t2.tune({"t": 1}, 4, seed=1, history=first.history)
        # (a) budget: exactly 4 new evaluations appended in place
        assert second.history is first.history
        assert second.n_evaluations == carried + 4
        # (b) every continuation iteration fit the surrogate — none fell
        # back to the initial random design
        assert second.perf["counters"].get("gp_fits", 0) >= 1
        n_modeled = second.perf["counters"].get("gp_fits", 0) + second.perf[
            "counters"
        ].get("gp_model_reuses", 0) + second.perf["counters"].get(
            "gp_incremental_updates", 0
        )
        assert n_modeled >= 4

    def test_continuation_uses_prior_best(self, quadratic_problem):
        """The continued run's best-so-far starts from the prior best."""
        t = Tuner(quadratic_problem)
        first = t.tune({"t": 1}, 6, seed=0)
        prior_best = first.best_output
        second = t.tune({"t": 1}, 3, seed=1, history=first.history)
        assert second.best_output <= prior_best

    def test_result_summary(self, quadratic_problem):
        res = Tuner(quadratic_problem).tune({"t": 1}, 5, seed=0)
        s = res.summary()
        assert s["problem"] == "quadratic"
        assert s["tuner"] == "NoTLA"
        assert s["n_evaluations"] == 5

    def test_summary_carries_perf_stats(self, quadratic_problem):
        res = Tuner(quadratic_problem).tune({"t": 1}, 5, seed=0)
        perf = res.summary()["perf"]
        assert perf["counters"].get("gp_fits", 0) >= 1
        assert "iteration" in perf["timers"]


class TestFailureHandling:
    @pytest.fixture
    def flaky_problem(self):
        """Objective fails whenever x > 0.6 (like NIMROD's OOM region)."""

        def obj(task, cfg):
            if cfg["x"] > 0.6:
                return None
            return (cfg["x"] - 0.37) ** 2 + 0.1

        return TuningProblem(
            name="flaky",
            input_space=Space([IntegerParameter("t", 0, 10)]),
            parameter_space=Space([RealParameter("x", 0.0, 1.0)]),
            output_space=Space([OutputParameter("y")]),
            objective=obj,
        )

    def test_failures_consume_budget(self, flaky_problem):
        res = Tuner(flaky_problem).tune({"t": 1}, 10, seed=0)
        assert res.n_evaluations == 10
        assert res.history.n_failures + res.history.n_successes == 10

    def test_still_finds_optimum_despite_failures(self, flaky_problem):
        res = Tuner(flaky_problem).tune({"t": 1}, 20, seed=0)
        assert res.best_output == pytest.approx(0.1, abs=0.02)

    def test_all_failures_no_crash(self):
        dead = TuningProblem(
            name="dead",
            input_space=Space([IntegerParameter("t", 0, 10)]),
            parameter_space=Space([RealParameter("x", 0.0, 1.0)]),
            output_space=Space([OutputParameter("y")]),
            objective=lambda t, c: None,
        )
        res = Tuner(dead).tune({"t": 1}, 6, seed=0)
        assert res.history.n_failures == 6


class TestOptions:
    def test_refit_every_reduces_optimizations(self, quadratic_problem, monkeypatch):
        from repro.core import gp as gp_mod

        count = {"n": 0}
        orig = gp_mod.GaussianProcess._optimize_hyperparameters

        def counting(self, X, ys):
            count["n"] += 1
            return orig(self, X, ys)

        monkeypatch.setattr(
            gp_mod.GaussianProcess, "_optimize_hyperparameters", counting
        )
        opts = TunerOptions(n_initial=2, refit_every=3)
        Tuner(quadratic_problem, opts).tune({"t": 1}, 10, seed=0)
        refit_all = count["n"]
        assert refit_all <= 4  # 8 modeling iterations / 3 + first

    def test_incremental_updates_between_refits(self, quadratic_problem):
        opts = TunerOptions(n_initial=2, refit_every=3)
        res = Tuner(quadratic_problem, opts).tune({"t": 1}, 10, seed=0)
        counters = res.perf["counters"]
        assert counters.get("gp_incremental_updates", 0) >= 1

    def test_sampler_option(self, quadratic_problem):
        opts = TunerOptions(n_initial=4, sampler="lhs")
        res = Tuner(quadratic_problem, opts).tune({"t": 1}, 6, seed=0)
        assert res.n_evaluations == 6

    def test_kernel_option(self, quadratic_problem):
        opts = TunerOptions(kernel="matern52")
        res = Tuner(quadratic_problem, opts).tune({"t": 1}, 6, seed=0)
        assert res.n_evaluations == 6

    def test_acquisition_option(self):
        """DESIGN.md S4 lists LCB beside EI: selecting it changes what is
        proposed once the surrogate takes over, and nothing before."""
        from repro.apps import DemoFunction
        from repro.core import LowerConfidenceBound

        problem = DemoFunction().make_problem()

        def proposals(**options):
            opts = TunerOptions(n_initial=3, **options)
            res = Tuner(problem, opts).tune({"t": 1.0}, 9, seed=5)
            return [c["x"] for c in res.history.configs()]

        ei, lcb = proposals(), proposals(acquisition=LowerConfidenceBound())
        assert lcb[:3] == ei[:3]  # the random design is the seed's
        assert lcb[3:] != ei[3:]
        assert lcb == proposals(acquisition=LowerConfidenceBound())
