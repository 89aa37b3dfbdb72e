"""Cross-module integration tests: the paper's workflows end to end."""

from __future__ import annotations

import numpy as np

from repro.apps import DemoFunction, HypreAMG, PDGEQRF, SuperLUDist2D
from repro.apps.hypre import HYPRE_DEFAULTS
from repro.apps.superlu import SUPERLU_DEFAULTS
from repro.core import TaskData, Tuner, TunerOptions
from repro.core.problem import Evaluation
from repro.crowd import CrowdClient, MetaDescription
from repro.service import CrowdShard, RemoteRepository
from repro.hpc import cori_haswell
from repro.sensitivity import SensitivityAnalyzer, reduce_space
from repro.tla import EnsembleProposed, MultitaskTS, TransferTuner
from tests.conftest import register


def _collect(app, task, n, seed=0, run=999):
    """Random-sample n successful evaluations of an application."""
    rng = np.random.default_rng(seed)
    space = app.parameter_space()
    configs, ys = [], []
    while len(ys) < n:
        c = space.sample(rng)
        y = app.objective(task, c, run=run)
        if y is not None:
            configs.append(c)
            ys.append(y)
    return TaskData(dict(task), space.to_unit_array(configs), np.asarray(ys))


class TestTransferWorkflowOnPDGEQRF:
    """A miniature of the paper's Fig. 4 experiment."""

    def test_tla_beats_notla_at_small_budget(self):
        app = PDGEQRF(cori_haswell(8))
        src = _collect(app, {"m": 10000, "n": 10000}, 40, seed=0)
        target = {"m": 8000, "n": 8000}
        budget = 5

        def final_best(res):
            # all-failed runs (common for random NoTLA on this space,
            # where p > total ranks is easy to draw) count as +inf
            traj = res.best_so_far()
            return traj[-1] if np.isfinite(traj[-1]) else np.inf

        tla, notla = [], []
        for seed in (0, 1):
            problem = app.make_problem(run=seed)
            res_t = TransferTuner(problem, MultitaskTS(), [src]).tune(
                target, budget, seed=seed
            )
            res_n = Tuner(problem).tune(target, budget, seed=seed)
            tla.append(final_best(res_t))
            notla.append(final_best(res_n))
        assert np.mean(tla) < np.mean(notla) * 1.15 or not np.isfinite(
            np.mean(notla)
        )


class TestSensitivityReductionWorkflow:
    """A miniature of the paper's Fig. 6/7 experiments."""

    def test_superlu_reduced_space_tuning(self):
        app = SuperLUDist2D(cori_haswell(4))
        space = app.parameter_space()
        # sensitivity data from the Si5H12 analogue
        data = _collect(app, {"matrix": "Si5H12"}, 120, seed=1)
        report = SensitivityAnalyzer(space, gp_max_fun=60).analyze(
            data, n_base=256, n_bootstrap=0, seed=0
        )
        ranking = report.indices.ranking("ST")
        assert ranking[0] == "COLPERM"

        reduced = reduce_space(
            space,
            keep=["COLPERM", "nprows", "NSUP"],
            defaults=SUPERLU_DEFAULTS,
        )
        problem = app.make_problem(run=5)
        reduced_problem = problem.with_parameter_space(reduced)
        res = Tuner(reduced_problem).tune({"matrix": "H2O"}, 6, seed=0)
        # every evaluated config pinned LOOKAHEAD/NREL to defaults
        for ev in res.history.evaluations:
            assert ev.config["LOOKAHEAD"] == SUPERLU_DEFAULTS["LOOKAHEAD"]
            assert ev.config["NREL"] == SUPERLU_DEFAULTS["NREL"]
        assert res.best_output > 0

    def test_hypre_reduction_keeps_paper_parameters(self):
        app = HypreAMG(cori_haswell(1))
        space = app.parameter_space()
        data = _collect(app, app.default_task(), 150, seed=2)
        report = SensitivityAnalyzer(space, gp_max_fun=60).analyze(
            data, n_base=256, n_bootstrap=0, seed=0
        )
        top = set(report.indices.ranking("ST")[:4])
        # the paper's three reduced-tuning parameters should rank high
        assert len(top & {"smooth_type", "smooth_num_levels", "agg_num_levels"}) >= 2


class TestCrowdLifecycle:
    """The full Fig. 1 loop: tune -> upload -> another user transfers."""

    def test_two_user_story(self):
        node = CrowdShard("node")
        users = node.repository.users
        key_a, key_b = register(users, "user_A"), register(users, "user_B")
        app = DemoFunction()
        problem = app.make_problem(noisy=False)

        meta_a = MetaDescription.from_dict(
            {
                "api_key": key_a,
                "tuning_problem_name": "demo",
                "problem_space": problem.describe(),
                "machine_configuration": {"machine_name": "cori-haswell"},
                "sync_crowd_repo": "yes",
            }
        )
        client_a = CrowdClient(node, meta_a)
        client_a.tune(problem, {"t": 0.8}, 15, seed=0)
        assert node.count() == 15

        # user B transfers from A's data on a different task
        meta_b = MetaDescription.from_dict(
            {
                "api_key": key_b,
                "tuning_problem_name": "demo",
                "problem_space": problem.describe(),
                "sync_crowd_repo": "yes",
            }
        )
        client_b = CrowdClient(node, meta_b)
        res = client_b.tune(
            problem, {"t": 1.0}, 5, strategy=MultitaskTS(), seed=1
        )
        assert res.tuner_name == "Multitask (TS)"
        assert node.count() == 20
        # records carry the normalized machine tag from user A
        recs = client_b.repository.query(key_b, problem_name="demo")
        assert any(
            r.machine_configuration.get("machine_name") == "Cori" for r in recs
        )

    def test_ensemble_through_crowd_api(self):
        node = CrowdShard("node")
        key = register(node.repository.users, "solo")
        app = DemoFunction()
        problem = app.make_problem(noisy=False)
        # seed the node with source data
        rng = np.random.default_rng(0)
        remote = RemoteRepository(node)
        for _ in range(25):
            cfg = problem.parameter_space.sample(rng)
            evaluation = Evaluation({"t": 0.8}, cfg, problem.objective({"t": 0.8}, cfg))
            remote.upload(key, "demo", evaluation, {}, {})
        meta = MetaDescription.from_dict(
            {
                "api_key": key,
                "tuning_problem_name": "demo",
                "problem_space": problem.describe(),
            }
        )
        res = CrowdClient(remote, meta).tune(
            problem, {"t": 1.2}, 6, strategy=EnsembleProposed(), seed=0
        )
        assert res.tuner_name == "Ensemble (proposed)"
        assert res.n_evaluations == 6


class TestReducedVsOriginalShape:
    def test_hypre_reduced_tuning_competitive(self):
        """Fig. 7's qualitative claim at miniature scale: with a tiny
        budget, tuning 3 sensitive parameters does at least as well as
        tuning all 12."""
        app = HypreAMG(cori_haswell(1))
        space = app.parameter_space()
        keep = ["smooth_type", "smooth_num_levels", "agg_num_levels"]
        rng = np.random.default_rng(0)
        reduced = reduce_space(space, keep=keep, defaults=HYPRE_DEFAULTS, rng=rng)

        budget, task = 8, app.default_task()
        red_best, orig_best = [], []
        for seed in (0, 1, 2):
            problem = app.make_problem(run=seed)
            opts = TunerOptions(n_initial=2)
            r = Tuner(problem.with_parameter_space(reduced), opts).tune(
                task, budget, seed=seed
            )
            o = Tuner(problem, opts).tune(task, budget, seed=seed)
            red_best.append(r.best_output)
            orig_best.append(o.best_output)
        assert np.mean(red_best) <= np.mean(orig_best) * 1.1
