"""The shared surrogate contract, driven once over every class that has it.

:class:`repro.core.gp.Surrogate` is what the tuners, the TLA pool and the
registry hold a model by; the dense GP, the sparse GP and the partitioned
ensemble inherit it instead of each spelling it out, so one parametrized
test covers all three.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GaussianProcess, PartitionedGP, SparseGP, Surrogate

FACTORIES = {
    "dense": lambda: GaussianProcess(max_fun=15, seed=0),
    "sparse": lambda: SparseGP("rbf", n_inducing=12, max_fun=15, seed=0),
    "partitioned": lambda: PartitionedGP("rbf", leaf_size=20, max_fun=15, seed=0),
}
NOUNS = {"dense": "GP", "sparse": "SparseGP", "partitioned": "PartitionedGP"}


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
