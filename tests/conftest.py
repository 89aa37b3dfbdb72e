"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import sparse
from repro.core import (
    CategoricalParameter,
    IntegerParameter,
    OutputParameter,
    RealParameter,
    Space,
    TaskData,
    TuningProblem,
)
from repro.crowd.users import UserRegistry


def register(users: UserRegistry, name: str) -> str:
    """Register ``name`` (email ``name@lab.gov``) in ``users``; their
    first API key.  A node's registry is ``node.repository.users``."""
    users.register(name, f"{name}@lab.gov")
    return users.issue_api_key(name)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def sparse_threshold(monkeypatch):
    """Lower :mod:`repro.core.sparse`'s dense-or-sparse threshold for one
    test: ``sparse_threshold(n_dense_max, n_inducing=None)`` makes every
    ``"auto"`` fit past ``n_dense_max`` observations sparse (with
    ``n_inducing`` inducing points, when given)."""

    def lower(n_dense_max: int, n_inducing: int | None = None) -> None:
        monkeypatch.setattr(sparse, "N_DENSE_MAX", n_dense_max)
        if n_inducing is not None:
            monkeypatch.setattr(sparse, "N_INDUCING", n_inducing)

    return lower


@pytest.fixture
def mixed_space() -> Space:
    """A space with all three parameter kinds."""
    return Space(
        [
            RealParameter("x", 0.0, 1.0),
            IntegerParameter("k", 1, 16),
            CategoricalParameter("mode", ["a", "b", "c"]),
        ]
    )


@pytest.fixture
def quadratic_problem() -> TuningProblem:
    """A deterministic 1-D problem with known optimum x=0.37, y=0.1."""
    return TuningProblem(
        name="quadratic",
        input_space=Space([IntegerParameter("t", 0, 10)]),
        parameter_space=Space([RealParameter("x", 0.0, 1.0)]),
        output_space=Space([OutputParameter("y")]),
        objective=lambda task, cfg: (cfg["x"] - 0.37) ** 2 + 0.1,
    )


@pytest.fixture
def shifted_quadratics():
    """A family of correlated tasks: optimum moves with the task parameter.

    Used as a cheap transfer-learning scenario: task t has optimum at
    x = 0.3 + 0.02 t, so tasks are strongly correlated but not identical.
    """

    def objective(task, cfg):
        opt = 0.3 + 0.02 * float(task["t"])
        return (cfg["x"] - opt) ** 2 + 0.05

    return TuningProblem(
        name="shifted-quadratic",
        input_space=Space([IntegerParameter("t", 0, 10)]),
        parameter_space=Space([RealParameter("x", 0.0, 1.0)]),
        output_space=Space([OutputParameter("y")]),
        objective=objective,
    )


def make_source_data(problem: TuningProblem, task, n, seed=0, label="src") -> TaskData:
    """Random-sample a source dataset for a task (successes only)."""
    rng = np.random.default_rng(seed)
    space = problem.parameter_space
    configs, ys = [], []
    while len(ys) < n:
        c = space.sample(rng)
        ev = problem.evaluate(task, c)
        if not ev.failed:
            configs.append(c)
            ys.append(ev.output)
    X = space.to_unit_array(configs)
    return TaskData(dict(task), X, np.asarray(ys), label=label)


@pytest.fixture
def source_factory():
    return make_source_data


def crowd_threads() -> list[str]:
    """The live threads a crowd router starts (its anti-entropy loop,
    ``crowd-antientropy``): the router's ``close()`` stops it."""
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("crowd-"))


def pytest_sessionfinish(session, exitstatus):
    """Fail the run while a router thread outlives the tests; give a
    stopped thread a moment to end."""
    deadline = time.monotonic() + 2.0
    while crowd_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    if crowd_threads():
        print(f"\nthreads left running: {crowd_threads()}", file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
