"""The shared surrogate contract, driven once over every class that has it.

:class:`repro.core.gp.Surrogate` is what the tuners, the TLA pool and the
registry hold a model by; the dense GP and the sparse GP inherit it
instead of each spelling it out, so one parametrized test covers both.
Part of it is the shape itself: a ``_state`` that ``fit`` / ``update``
replace and never mutate, which is what lets the batch proposer fantasize
on any surrogate and undo it by putting one reference back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExpectedImprovement,
    GaussianProcess,
    GPFitError,
    RealParameter,
    Space,
    SparseGP,
    Surrogate,
    propose_batch,
)
from repro.core import gp as gp_mod
from repro.core import sparse as sparse_mod

FACTORIES = {
    "dense": lambda: GaussianProcess(max_fun=15, seed=0),
    "sparse": lambda: SparseGP("rbf", n_inducing=12, max_fun=15, seed=0),
}
NOUNS = {"dense": "GP", "sparse": "SparseGP"}


def _data(n, seed=0):
    X = np.random.default_rng(seed).random((n, 2))
    return X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestSurrogateContract:
    def test_unfitted(self, kind):
        model = FACTORIES[kind]()
        assert isinstance(model, Surrogate)
        assert not model.fitted and model.n_train == 0
        assert model.extends_training_data(*_data(5)) is None
        with pytest.raises(RuntimeError, match=r"predict\(\) before fit\(\)"):
            model.predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError, match=r"update\(\) before fit\(\)"):
            model.update(np.zeros((1, 2)), np.zeros(1))

    def test_fitted_views_of_the_training_data(self, kind):
        X, y = _data(50)
        model = FACTORIES[kind]().fit(X[:40], y[:40])
        assert model.fitted and model.n_train == 40
        Xq = np.random.default_rng(1).random((16, 2))
        assert np.array_equal(model.predict_mean(Xq), model.predict(Xq)[0])

        assert model.extends_training_data(X[:40], y[:40]) == 0
        assert model.extends_training_data(X, y) == 10
        assert model.extends_training_data(X[:30], y[:30]) is None  # shorter
        assert model.extends_training_data(X[:, :1], y) is None  # other dimension
        y_div = y.copy()
        y_div[3] += 1.0
        assert model.extends_training_data(X, y_div) is None  # diverged

        model.update(X[40:], y[40:])
        assert model.n_train == 50 and model.extends_training_data(X, y) == 0
        assert model.update(np.empty((0, 2)), np.empty(0)) is model  # no-op
        assert model.n_train == 50

    def test_shape_checks(self, kind):
        X, y = _data(30)
        model = FACTORIES[kind]()
        with pytest.raises(ValueError, match=r"X rows \(30\) != y length \(29\)"):
            model.fit(X, y[:-1])
        with pytest.raises(
            ValueError, match=f"cannot fit a {NOUNS[kind]} to zero observations"
        ):
            model.fit(np.empty((0, 2)), np.empty(0))
        model.fit(X, y)
        with pytest.raises(ValueError, match=r"x rows \(2\) != y length \(1\)"):
            model.update(X[:2], y[:1])
        with pytest.raises(ValueError, match="x dimension 3 != training dimension 2"):
            model.update(np.zeros((1, 3)), np.zeros(1))
        assert model.n_train == 30

    def test_held_state_survives_update_and_failed_update(self, kind, monkeypatch):
        """States are replaced, never mutated: a held one still serves the
        predictions of its fit after a later update, and a failed update
        leaves the model on the state it had."""
        X, y = _data(60)
        model = FACTORIES[kind]().fit(X[:40], y[:40])
        Xq = np.random.default_rng(1).random((16, 2))
        held = model._state
        mu, sd = model.predict(Xq)

        model.update(X[40:50], y[40:50])
        assert model._state is not held
        assert not np.array_equal(model.predict(Xq)[0], mu)
        grown = model._state
        model._state = held
        assert all(np.array_equal(a, b) for a, b in zip(model.predict(Xq), (mu, sd)))

        def refuse(K, *args, **kwargs):
            raise GPFitError("not positive definite")

        # the sparse update refactorizes its information matrix; the dense
        # one does only after an append its triangular solve calls degenerate
        model._state = grown
        real = gp_mod._trtrs
        monkeypatch.setattr(gp_mod, "_trtrs", lambda *a, **kw: (real(*a, **kw)[0], 1))
        monkeypatch.setattr(gp_mod, "cholesky_with_jitter", refuse)
        monkeypatch.setattr(sparse_mod, "cholesky_with_jitter", refuse)
        with pytest.raises(GPFitError):
            model.update(X[50:], y[50:])
        assert model._state is grown and model.n_train == 50

    def test_propose_batch_restores_the_very_state(self, kind):
        """Fantasies (pending rows and the batch's own picks) are undone by
        swapping one reference: the caller's model ends on the same object."""
        X, y = _data(40)
        model = FACTORIES[kind]().fit(X, y)
        held = model._state
        space = Space([RealParameter("x", 0.0, 1.0), RealParameter("z", 0.0, 1.0)])
        batch = propose_batch(
            model.predict,
            space,
            ExpectedImprovement(),
            np.random.default_rng(1),
            q=3,
            gp=model,
            X_obs=X,
            y_obs=y,
            X_pending=np.array([[0.2, 0.2], [0.8, 0.7]]),
        )
        assert len(batch) == 3
        assert model._state is held and model.n_train == 40
