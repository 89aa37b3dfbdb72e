"""Registry regression tests for sparse large-history builds.

A crowd-sized ``(problem, task)`` history must build in bounded time
(the sparse surrogate's O(nm^2), not the dense O(n^3)) and serve every
subsequent ``predict`` fit-free from the resident surrogate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import perf
from repro.core.sparse import SparseGP, surrogate_from_dict
from repro.crowd import CrowdRepository, PerformanceRecord
from repro.crowd.records import Accessibility
from repro.registry import ModelRegistry, RegistryOptions
from tests.conftest import register


SPACE = {
    "parameter_space": [
        {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
    ]
}
TASK = {"t": 1}


@pytest.fixture
def repo():
    return CrowdRepository()


@pytest.fixture
def key(repo):
    return register(repo.users, "alice")


def _upload_history(repo, key, n, seed=0):
    """Upload n public successful records without triggering builds."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = float(rng.random())
        rec = PerformanceRecord(
            problem_name="demo",
            task_parameters=dict(TASK),
            tuning_parameters={"x": x},
            output=float(np.sin(6 * x) + 0.01 * rng.standard_normal()),
            accessibility=Accessibility(level="public"),
        )
        repo.upload_many([rec], key)


class TestSparseRegistryBuilds:
    def test_5k_history_builds_bounded_and_serves_fit_free(
        self, repo, key, sparse_threshold
    ):
        sparse_threshold(512, n_inducing=48)
        registry = ModelRegistry(repo, RegistryOptions(min_new_samples=10**9))
        registry.register_problem("demo", SPACE)
        _upload_history(repo, key, 5000)

        t0 = time.perf_counter()
        entry = registry.build("demo", TASK)
        build_s = time.perf_counter() - t0
        assert entry is not None
        assert entry.n_samples == 5000
        assert entry.model["type"] == "sparse"
        # O(nm^2) with m=48 over n=5000: comfortably inside a generous
        # bound that a dense 5000-point MLE would blow through
        assert build_s < 60.0

        configs = [{"x": v} for v in np.linspace(0.0, 0.99, 32)]
        with perf.collect() as stats:
            out = registry.predict("demo", TASK, configs)
        counters = stats.snapshot()["counters"]
        assert "sparse_fits" not in counters
        assert "gp_fits" not in counters
        assert counters.get("registry_predict_batches") == 1
        assert len(out["mean"]) == 32 and len(out["std"]) == 32
        assert np.all(np.isfinite(out["mean"]))

        # the resident predictor is the surrogate itself: the object the
        # build fitted, and once that is evicted the deserialized snapshot
        built = registry._predictor_for(entry)
        assert isinstance(built, SparseGP)
        registry._resident.clear()
        loaded = registry._predictor_for(entry)
        assert isinstance(loaded, SparseGP) and loaded is not built
        assert registry._predictor_for(entry) is loaded
        again = registry.predict("demo", TASK, configs)
        assert again["mean"] == out["mean"] and again["std"] == out["std"]

    def test_served_model_reconstructs_bitwise_client_side(
        self, repo, key, sparse_threshold
    ):
        sparse_threshold(100, n_inducing=24)
        registry = ModelRegistry(repo, RegistryOptions(min_new_samples=10**9))
        registry.register_problem("demo", SPACE)
        _upload_history(repo, key, 400)
        entry = registry.build("demo", TASK)
        assert entry.model["type"] == "sparse"

        configs = [{"x": v} for v in np.linspace(0.0, 0.99, 16)]
        served = registry.predict("demo", TASK, configs)
        clone = surrogate_from_dict(dict(entry.model))
        X = registry.problem_space("demo").to_unit_array(configs)
        mean, std = clone.predict(X)
        assert [float(v) for v in mean] == served["mean"]
        assert [float(v) for v in std] == served["std"]

    def test_small_history_keeps_dense_entries(self, repo, key, sparse_threshold):
        """Below N_DENSE_MAX the entry format is the historical dense one
        (no "type" dispatch needed by old readers)."""
        sparse_threshold(512)
        registry = ModelRegistry(repo, RegistryOptions(min_new_samples=10**9))
        registry.register_problem("demo", SPACE)
        _upload_history(repo, key, 50)
        entry = registry.build("demo", TASK)
        assert entry is not None
        assert "type" not in entry.model
        out = registry.predict("demo", TASK, [{"x": 0.5}])
        assert len(out["mean"]) == 1

    def test_sparse_build_deterministic_across_replicas(self, repo, key, sparse_threshold):
        """Content-determined entries: two registries over the same record
        set build byte-identical sparse models (anti-entropy convergence)."""
        sparse_threshold(100, n_inducing=16)
        opts = RegistryOptions(min_new_samples=10**9)
        registry = ModelRegistry(repo, opts)
        registry.register_problem("demo", SPACE)
        _upload_history(repo, key, 300)
        a = registry.build("demo", TASK)

        repo2 = CrowdRepository()
        key2 = register(repo2.users, "bob")
        registry2 = ModelRegistry(repo2, opts)
        registry2.register_problem("demo", SPACE)
        _upload_history(repo2, key2, 300)
        b = registry2.build("demo", TASK)
        assert a.model == b.model
