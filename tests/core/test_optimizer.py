"""Tests for repro.core.optimizer: acquisition search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExpectedImprovement,
    IntegerParameter,
    RealParameter,
    SearchOptions,
    Space,
)
from repro.core.optimizer import reference_best, search_next


def _sphere_predict(center):
    """A deterministic 'model': mean = distance^2 to center, tiny std."""
    center = np.asarray(center)

    def predict(X):
        mean = np.sum((X - center) ** 2, axis=1)
        return mean, np.full(X.shape[0], 1e-3)

    return predict


class TestReferenceBest:
    def test_empty_observations(self):
        assert reference_best(_sphere_predict([0.5]), np.empty((0, 1))) == 0.0

    def test_uses_model_view(self):
        predict = _sphere_predict([0.5, 0.5])
        X_obs = np.array([[0.5, 0.5], [0.0, 0.0]])
        assert reference_best(predict, X_obs) == pytest.approx(0.0, abs=1e-12)


class TestSearchNext:
    def test_finds_model_optimum(self, rng):
        space = Space([RealParameter("a", 0, 1), RealParameter("b", 0, 1)])
        predict = _sphere_predict([0.3, 0.7])
        cfg = search_next(
            predict,
            space,
            ExpectedImprovement(),
            rng,
            X_obs=np.array([[0.9, 0.9]]),
            options=SearchOptions(n_candidates=512, n_local=2),
        )
        assert cfg["a"] == pytest.approx(0.3, abs=0.1)
        assert cfg["b"] == pytest.approx(0.7, abs=0.1)

    def test_returns_valid_config(self, mixed_space, rng):
        predict = _sphere_predict([0.5, 0.5, 0.5])
        cfg = search_next(predict, mixed_space, ExpectedImprovement(), rng)
        assert mixed_space.contains(cfg)

    def test_avoids_evaluated_configs(self, rng):
        space = Space([IntegerParameter("k", 0, 4)])
        predict = _sphere_predict([0.0])
        evaluated = [{"k": 0}]  # the model optimum is k=0; must avoid it
        cfg = search_next(
            predict, space, ExpectedImprovement(), rng, evaluated=evaluated
        )
        assert cfg["k"] != 0

    def test_exhausted_space_returns_duplicate_eventually(self, rng):
        space = Space([IntegerParameter("k", 0, 2)])
        predict = _sphere_predict([0.0])
        evaluated = [{"k": 0}, {"k": 1}]
        cfg = search_next(
            predict, space, ExpectedImprovement(), rng, evaluated=evaluated
        )
        assert cfg["k"] in (0, 1)  # duplicates allowed only as last resort

    def test_exhausted_space_prefers_feasible_duplicate(self, rng):
        """Regression: the last-resort duplicate used to ignore ``feasible``
        and could return a configuration the problem cannot run at all."""
        space = Space([IntegerParameter("k", 0, 3)])
        predict = _sphere_predict([1.0])  # the model optimum is the top bin
        evaluated = [{"k": 0}, {"k": 1}, {"k": 2}]
        cfg = search_next(
            predict,
            space,
            ExpectedImprovement(),
            rng,
            evaluated=evaluated,
            feasible=lambda c: c["k"] != 2,
        )
        assert cfg["k"] in (0, 1)

    def test_incumbent_perturbations_used(self, rng):
        """With most candidates around the incumbent, the search still
        improves on it."""
        space = Space([RealParameter("a", 0, 1)])
        predict = _sphere_predict([0.42])
        cfg = search_next(
            predict,
            space,
            ExpectedImprovement(),
            rng,
            X_obs=np.array([[0.5]]),
            options=SearchOptions(
                n_candidates=256, incumbent_fraction=0.9, incumbent_scale=0.05
            ),
        )
        assert cfg["a"] == pytest.approx(0.42, abs=0.08)


class TestSearchOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchOptions(n_candidates=0)
