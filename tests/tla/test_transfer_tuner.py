"""Tests for TransferTuner + the strategy registry (paper Sec. V driver)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import Tuner, TunerOptions
from repro.tla import (
    STRATEGY_REGISTRY,
    TransferTuner,
    get_strategy,
    pool_table,
)

ALL_KEYS = sorted(STRATEGY_REGISTRY)


class TestRegistry:
    def test_all_eight_algorithms_present(self):
        """Table I: 5 TLA algorithms + 3 ensemble variants."""
        assert set(ALL_KEYS) == {
            "multitask-ps",
            "multitask-ts",
            "weighted-sum-equal",
            "weighted-sum-dynamic",
            "stacking",
            "ensemble-proposed",
            "ensemble-toggling",
            "ensemble-prob",
        }

    def test_get_strategy(self):
        for key in ALL_KEYS:
            assert get_strategy(key).name

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            get_strategy("magic")

    def test_pool_table_provenance(self):
        """Table I's 'first autotuner' column."""
        rows = {r["name"]: r["first_autotuner"] for r in pool_table()}
        assert rows["Multitask (PS)"] == "[11]"
        assert rows["Multitask (TS)"] == "GPTuneCrowd"
        assert rows["WeightedSum (equal)"] == "[6]"
        assert rows["WeightedSum (dynamic)"] == "GPTuneCrowd"
        assert rows["Stacking"] == "[12]"
        assert rows["Ensemble (proposed)"] == "GPTuneCrowd"


@pytest.mark.parametrize("key", ALL_KEYS)
class TestAllStrategiesTune:
    def test_runs_and_respects_budget(
        self, key, shifted_quadratics, source_factory
    ):
        src = source_factory(shifted_quadratics, {"t": 0}, 30, seed=0)
        tuner = TransferTuner(shifted_quadratics, get_strategy(key), [src])
        res = tuner.tune({"t": 5}, 6, seed=0)
        assert res.n_evaluations == 6
        assert res.tuner_name == get_strategy(key).name
        # optimum for t=5 is at x=0.4 with value 0.05
        assert res.best_output < 0.15


class TestTransferBeatsNoTLA:
    def test_tla_better_at_small_budget(self, shifted_quadratics, source_factory):
        """The paper's headline: TLA >> NoTLA with few evaluations."""
        src = source_factory(shifted_quadratics, {"t": 4}, 60, seed=0)
        task = {"t": 5}
        budget = 4

        tla_bests, notla_bests = [], []
        for seed in (0, 1, 2):
            strat = get_strategy("multitask-ts")
            res_tla = TransferTuner(shifted_quadratics, strat, [src]).tune(
                task, budget, seed=seed
            )
            res_no = Tuner(shifted_quadratics).tune(task, budget, seed=seed)
            tla_bests.append(res_tla.best_output)
            notla_bests.append(res_no.best_output)
        assert np.mean(tla_bests) <= np.mean(notla_bests) + 1e-9

    def test_first_evaluation_is_informed(self, shifted_quadratics, source_factory):
        """With a correlated source, even evaluation #1 should be near the
        source optimum (the equal-weight fallback), not uniform random."""
        src = source_factory(shifted_quadratics, {"t": 5}, 80, seed=0)
        hits = 0
        for seed in range(5):
            strat = get_strategy("weighted-sum-dynamic")
            res = TransferTuner(shifted_quadratics, strat, [src]).tune(
                {"t": 5}, 1, seed=seed
            )
            first_x = res.history.evaluations[0].config["x"]
            if abs(first_x - 0.4) < 0.2:
                hits += 1
        assert hits >= 3


class TestTransferTunerMechanics:
    def test_no_initial_random_phase(self, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 5}, 40, seed=0)
        opts = TunerOptions(n_initial=5)  # must be overridden to 0
        tuner = TransferTuner(
            shifted_quadratics, get_strategy("stacking"), [src], options=opts
        )
        assert tuner.options.n_initial == 0

    def test_caller_options_left_untouched(self, shifted_quadratics, source_factory):
        """The same options object must still drive a NoTLA run afterwards
        (CrowdClient.tune(options=o, strategy=s) then tune(options=o))."""
        src = source_factory(shifted_quadratics, {"t": 5}, 20, seed=0)
        opts = TunerOptions(n_initial=5)
        before = dataclasses.replace(opts)
        tuner = TransferTuner(
            shifted_quadratics, get_strategy("weighted-sum-equal"), [src], options=opts
        )
        assert opts == before
        tuner.tune({"t": 5}, 3, seed=0)
        assert opts == before

    def test_callbacks_preserved(self, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 5}, 20, seed=0)
        seen = []
        tuner = TransferTuner(
            shifted_quadratics,
            get_strategy("weighted-sum-equal"),
            [src],
            callbacks=[seen.append],
        )
        tuner.tune({"t": 5}, 3, seed=0)
        assert len(seen) == 3
        # strategy notifications do not ride on the caller's callback list
        assert len(tuner.callbacks) == 1

    def test_reproducible(self, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 5}, 30, seed=0)
        runs = []
        for _ in range(2):
            strat = get_strategy("ensemble-proposed")
            res = TransferTuner(shifted_quadratics, strat, [src]).tune(
                {"t": 5}, 5, seed=7
            )
            runs.append(res.best_so_far())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "key, kwargs",
        [
            ("weighted-sum-dynamic", {"refit_every": 3}),
            ("stacking", {"refit_every": 3}),
            ("ensemble-proposed", {}),
        ],
        ids=["weighted-sum-dynamic", "stacking", "ensemble-proposed"],
    )
    def test_reused_tuner_runs_like_a_fresh_one(
        self, key, kwargs, shifted_quadratics, source_factory
    ):
        """A second tune() starts from the sources again: no target model,
        ensemble credit or rng position carries over from the first."""
        src = source_factory(shifted_quadratics, {"t": 4}, 25, seed=0)

        def make():
            return TransferTuner(shifted_quadratics, get_strategy(key, **kwargs), [src])

        def run(tuner):
            res = tuner.tune({"t": 5}, 6, seed=1)
            return [e.config for e in res.history.evaluations]

        reused = make()
        run(reused)
        assert run(reused) == run(make())


class TestCrowdFeasibilityLearning:
    def test_source_failures_warn_target_search(self):
        """Failures recorded in a source dataset (the crowd stores them)
        must steer the target run away from the shared failure region."""
        import numpy as np

        from repro.core import (
            IntegerParameter,
            OutputParameter,
            RealParameter,
            Space,
            TaskData,
            TuningProblem,
        )

        def objective(task, cfg):
            if cfg["x"] > 0.7:  # shared OOM-style region
                return None
            return (cfg["x"] - (0.3 + 0.02 * task["t"])) ** 2 + 0.05

        problem = TuningProblem(
            name="oom",
            input_space=Space([IntegerParameter("t", 0, 10)]),
            parameter_space=Space([RealParameter("x", 0.0, 1.0)]),
            output_space=Space([OutputParameter("y")]),
            objective=objective,
        )
        # source data for t=0: successes below 0.7, failures above
        rng = np.random.default_rng(0)
        ok_x = rng.uniform(0.0, 0.7, 40)
        bad_x = rng.uniform(0.7, 1.0, 25)
        src = TaskData(
            {"t": 0},
            ok_x[:, None],
            (ok_x - 0.3) ** 2 + 0.05,
            X_failed=bad_x[:, None],
        )
        strat = get_strategy("weighted-sum-dynamic")
        res = TransferTuner(problem, strat, [src]).tune({"t": 5}, 8, seed=1)
        # the tuner should waste at most one probe on the failure region
        assert res.history.n_failures <= 1
        assert res.best_output < 0.1

    def test_learning_disabled_by_option(self):
        from repro.core import TunerOptions

        opts = TunerOptions(learn_feasibility=False)
        # just verifies the option threads through without error
        assert opts.learn_feasibility is False
