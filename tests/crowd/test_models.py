"""Tests for surrogate-model storage and the PS-from-models workflow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.synthetic import DemoFunction
from repro.core import GaussianProcess
from repro.crowd import Accessibility, CrowdRepository, ModelStore
from repro.crowd.users import AuthError
from repro.tla import MultitaskPS, TransferTuner


@pytest.fixture
def repo():
    return CrowdRepository()


@pytest.fixture
def keys(repo):
    _, a = repo.register_user("alice", "a@lab.gov")
    _, b = repo.register_user("bob", "b@lab.gov")
    return {"alice": a, "bob": b}


@pytest.fixture
def store(repo):
    return ModelStore(repo)


def _trained_gp(seed=0, n=30, d=1):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(4 * X[:, 0])
    return GaussianProcess(seed=seed).fit(X, y)


class TestUploadQuery:
    def test_roundtrip_predictions(self, store, keys):
        gp = _trained_gp()
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, gp)
        models = store.query_models(keys["bob"], "demo")
        assert len(models) == 1
        loaded = models[0].load()
        Xq = np.linspace(0, 1, 10)[:, None]
        assert np.allclose(loaded.predict_mean(Xq), gp.predict_mean(Xq), atol=1e-8)

    def test_metadata(self, store, keys):
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp(n=25))
        m = store.query_models(keys["bob"], "demo")[0]
        assert m.owner == "alice"
        assert m.n_samples == 25
        assert m.task_parameters == {"t": 0.8}

    def test_auth_required(self, store):
        with pytest.raises(AuthError):
            store.upload_model("bad", "demo", {"t": 1}, _trained_gp())

    def test_problem_name_required(self, store, keys):
        with pytest.raises(ValueError):
            store.upload_model(keys["alice"], "", {"t": 1}, _trained_gp())

    def test_unloadable_model_is_refused_before_insert(self, store, keys):
        """Regression: a mixed-kernel GP used to be stored as a document no
        ``load()`` could rebuild; the upload now fails and stores nothing."""
        from repro.core import MixedKernel

        rng = np.random.default_rng(0)
        X = rng.random((20, 2))
        gp = GaussianProcess(MixedKernel(2, [False, True], [1, 3]), max_fun=15, seed=0)
        gp.fit(X, np.sin(4 * X[:, 0]) + X[:, 1])
        with pytest.raises(TypeError, match="MixedKernel"):
            store.upload_model(keys["alice"], "demo", {"t": 0.8}, gp)
        assert store.query_models(keys["bob"], "demo") == []

    def test_task_filter(self, store, keys):
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp(1))
        store.upload_model(keys["alice"], "demo", {"t": 1.2}, _trained_gp(2))
        found = store.query_models(keys["bob"], "demo", task={"t": 1.2})
        assert len(found) == 1 and found[0].task_parameters == {"t": 1.2}

    def test_latest_only_per_task_and_owner(self, store, keys):
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp(1, n=10))
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp(2, n=40))
        models = store.query_models(keys["bob"], "demo")
        assert len(models) == 1 and models[0].n_samples == 40
        both = store.query_models(keys["bob"], "demo", latest_only=False)
        assert len(both) == 2

    def test_private_models_hidden(self, store, keys):
        store.upload_model(
            keys["alice"], "demo", {"t": 0.8}, _trained_gp(),
            accessibility=Accessibility("private"),
        )
        assert store.query_models(keys["bob"], "demo") == []
        assert len(store.query_models(keys["alice"], "demo")) == 1

    def test_group_models_visible_to_members_only(self, repo, store, keys):
        _, carol = repo.register_user("carol", "c@lab.gov")
        repo.users.add_to_group("carol", "hpc")
        store.upload_model(
            keys["alice"], "demo", {"t": 0.8}, _trained_gp(),
            accessibility=Accessibility("group", groups=["hpc"]),
        )
        assert len(store.query_models(carol, "demo")) == 1  # member
        assert store.query_models(keys["bob"], "demo") == []  # outsider
        assert len(store.query_models(keys["alice"], "demo")) == 1  # owner

    def test_load_latest_is_newest_wins_across_owners(self, store, keys):
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp(1, n=50))
        store.upload_model(keys["bob"], "demo", {"t": 0.8}, _trained_gp(2, n=10))
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp(3, n=20))
        latest = store.load_latest(keys["bob"], "demo", {"t": 0.8})
        # newest upload wins regardless of owner or sample count
        assert latest is not None
        assert latest.owner == "alice" and latest.n_samples == 20
        assert store.load_latest(keys["bob"], "demo", {"t": 9.9}) is None

    def test_load_latest_skips_invisible_duplicates(self, store, keys):
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp(1, n=10))
        store.upload_model(
            keys["bob"], "demo", {"t": 0.8}, _trained_gp(2, n=30),
            accessibility=Accessibility("private"),
        )
        seen = store.load_latest(keys["alice"], "demo", {"t": 0.8})
        assert seen is not None and seen.n_samples == 10
        # the private re-upload is still the latest for its owner
        own = store.load_latest(keys["bob"], "demo", {"t": 0.8})
        assert own is not None and own.n_samples == 30

    def test_query_best_model(self, store, keys):
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp(1, n=10))
        store.upload_model(keys["bob"], "demo", {"t": 0.8}, _trained_gp(2, n=50))
        best = store.query_best_model(keys["alice"], "demo", {"t": 0.8})
        assert best is not None and best.n_samples == 50
        assert store.query_best_model(keys["alice"], "demo", {"t": 9.9}) is None

    def test_delete_own(self, store, keys):
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, _trained_gp())
        store.upload_model(keys["bob"], "demo", {"t": 0.8}, _trained_gp())
        assert store.delete_own(keys["alice"], "demo") == 1
        assert store.count() == 1


class TestMultitaskPSFromCrowdModels:
    def test_transfer_from_stored_models_only(self, repo, keys, store):
        """The [11] history-database mode: user B transfer-tunes from
        user A's *model*, never seeing A's raw samples."""
        app = DemoFunction()
        problem = app.make_problem(noisy=False)
        space = problem.parameter_space

        # user A fits and shares a surrogate of task t=0.8
        rng = np.random.default_rng(0)
        configs = [space.sample(rng) for _ in range(60)]
        X = space.to_unit_array(configs)
        y = np.array([problem.objective({"t": 0.8}, c) for c in configs])
        gp = GaussianProcess(seed=0).fit(X, y)
        store.upload_model(keys["alice"], "demo", {"t": 0.8}, gp)

        # user B rebuilds the strategy from the stored model alone
        stored = store.query_best_model(keys["bob"], "demo", {"t": 0.8})
        strategy = MultitaskPS()
        strategy.prepare_from_models(
            [stored.load()], dim=space.dim, rng=np.random.default_rng(1)
        )
        assert strategy.prepared

        tuner = TransferTuner(problem, strategy, sources=[])
        res = tuner.tune({"t": 1.0}, 6, seed=2)
        assert res.n_evaluations == 6
        assert res.best_output < 1.0  # beats the y=1 baseline easily

    def test_prepare_from_models_requires_models(self):
        with pytest.raises(ValueError):
            MultitaskPS().prepare_from_models([], dim=1, rng=np.random.default_rng(0))
