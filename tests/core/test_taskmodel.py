"""Tests for the task-aware (cross-task) surrogate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    IntegerParameter,
    RealParameter,
    Space,
    TaskAwareSurrogate,
)


@pytest.fixture
def spaces():
    input_space = Space([IntegerParameter("m", 10, 101)])
    parameter_space = Space([RealParameter("x", 0.0, 1.0)])
    return input_space, parameter_space


def _synthetic(m, x):
    """Runtime-like: scale grows with m, optimum x* drifts with m."""
    opt = 0.2 + 0.005 * m
    return (m / 10.0) * (1.0 + (x - opt) ** 2)


def _dataset(spaces, n=120, seed=0):
    input_space, parameter_space = spaces
    rng = np.random.default_rng(seed)
    tasks, configs, ys = [], [], []
    for _ in range(n):
        t = input_space.sample(rng)
        c = parameter_space.sample(rng)
        tasks.append(t)
        configs.append(c)
        ys.append(_synthetic(t["m"], c["x"]))
    return tasks, configs, ys


class TestFitting:
    def test_needs_data(self, spaces):
        model = TaskAwareSurrogate(*spaces)
        with pytest.raises(ValueError):
            model.fit([], [], [])

    def test_length_mismatch(self, spaces):
        model = TaskAwareSurrogate(*spaces)
        with pytest.raises(ValueError):
            model.fit([{"m": 10}], [{"x": 0.1}, {"x": 0.2}], [1.0, 2.0])

    def test_log_output_requires_positive(self, spaces):
        model = TaskAwareSurrogate(*spaces)
        with pytest.raises(ValueError):
            model.fit([{"m": 10}, {"m": 20}], [{"x": 0.1}, {"x": 0.2}], [1.0, -2.0])

    def test_n_tasks_seen(self, spaces):
        tasks, configs, ys = _dataset(spaces, n=50)
        model = TaskAwareSurrogate(*spaces).fit(tasks, configs, ys)
        assert model.n_tasks_seen >= 10

    def test_predict_before_fit(self, spaces):
        with pytest.raises(RuntimeError):
            TaskAwareSurrogate(*spaces).predict({"m": 10}, [{"x": 0.5}])


class TestPrediction:
    def test_interpolates_seen_region(self, spaces):
        tasks, configs, ys = _dataset(spaces)
        model = TaskAwareSurrogate(*spaces, seed=0).fit(tasks, configs, ys)
        preds = model.predict({"m": 50}, [{"x": 0.3}, {"x": 0.9}])
        truth = [_synthetic(50, 0.3), _synthetic(50, 0.9)]
        assert np.allclose(preds, truth, rtol=0.3)

    def test_unseen_task_prediction(self, spaces):
        """The headline capability: predict for a task nobody measured."""
        input_space, parameter_space = spaces
        rng = np.random.default_rng(1)
        tasks, configs, ys = [], [], []
        for _ in range(150):
            t = input_space.sample(rng)
            if 55 <= t["m"] <= 65:  # leave a task-space hole
                continue
            c = parameter_space.sample(rng)
            tasks.append(t)
            configs.append(c)
            ys.append(_synthetic(t["m"], c["x"]))
        model = TaskAwareSurrogate(*spaces, seed=0).fit(tasks, configs, ys)
        pred = model.predict({"m": 60}, [{"x": 0.5}])[0]
        assert pred == pytest.approx(_synthetic(60, 0.5), rel=0.35)

    def test_scale_tracks_task(self, spaces):
        tasks, configs, ys = _dataset(spaces)
        model = TaskAwareSurrogate(*spaces, seed=0).fit(tasks, configs, ys)
        small = model.predict({"m": 15}, [{"x": 0.3}])[0]
        large = model.predict({"m": 95}, [{"x": 0.3}])[0]
        assert large > small * 3

    def test_return_std(self, spaces):
        tasks, configs, ys = _dataset(spaces)
        model = TaskAwareSurrogate(*spaces, seed=0).fit(tasks, configs, ys)
        mean, std = model.predict({"m": 50}, [{"x": 0.5}], return_std=True)
        assert mean.shape == (1,) and std.shape == (1,)
        assert std[0] > 0

    def test_linear_output_mode(self, spaces):
        tasks, configs, ys = _dataset(spaces)
        model = TaskAwareSurrogate(*spaces, log_output=False, seed=0)
        model.fit(tasks, configs, ys)
        pred = model.predict({"m": 50}, [{"x": 0.3}])[0]
        assert pred == pytest.approx(_synthetic(50, 0.3), rel=0.4)


class TestRecommendation:
    def test_predict_best_config_finds_drifting_optimum(self, spaces):
        tasks, configs, ys = _dataset(spaces, n=200)
        model = TaskAwareSurrogate(*spaces, seed=0).fit(tasks, configs, ys)
        for m in (20, 80):
            cfg, pred = model.predict_best_config(
                {"m": m}, rng=np.random.default_rng(0)
            )
            expect_opt = 0.2 + 0.005 * m
            assert cfg["x"] == pytest.approx(expect_opt, abs=0.15)
            assert pred > 0


class TestCrowdIntegration:
    def test_query_task_model(self):
        from repro.apps import DemoFunction
        from repro.core.problem import Evaluation
        from repro.crowd import CrowdClient, MetaDescription
        from repro.service import CrowdShard, RemoteRepository
        from tests.conftest import register

        node = CrowdShard("node")
        key = register(node.repository.users, "u")
        remote = RemoteRepository(node)
        app = DemoFunction()
        problem = app.make_problem(noisy=False)
        rng = np.random.default_rng(0)
        for t in (0.5, 0.8, 1.1, 1.4):
            for _ in range(25):
                cfg = problem.parameter_space.sample(rng)
                y = problem.objective({"t": t}, cfg) + 2.5  # positive for log modeling
                remote.upload(key, "demo", Evaluation({"t": t}, cfg, y), {}, {})
        meta = MetaDescription.from_dict(
            {
                "api_key": key,
                "tuning_problem_name": "demo",
                "problem_space": problem.describe(),
            }
        )
        client = CrowdClient(remote, meta)
        model = client.query_task_model(problem.input_space, seed=0)
        assert model.n_tasks_seen == 4
        # prediction for an unseen task between measured ones
        pred = model.predict({"t": 0.95}, [{"x": 0.2}])[0]
        truth = problem.objective({"t": 0.95}, {"x": 0.2}) + 2.5
        assert pred == pytest.approx(truth, rel=0.4)
