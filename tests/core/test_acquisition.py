"""Tests for repro.core.acquisition: EI and LCB properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExpectedImprovement, LowerConfidenceBound


def _const_predict(mean, std):
    return lambda X: (np.full(X.shape[0], mean), np.full(X.shape[0], std))


X1 = np.zeros((1, 2))


class TestExpectedImprovement:
    def test_nonnegative(self):
        ei = ExpectedImprovement()
        for mean in (-2.0, 0.0, 5.0):
            val = ei(_const_predict(mean, 1.0), X1, y_best=0.0)[0]
            assert val >= 0.0

    def test_better_mean_higher_ei(self):
        ei = ExpectedImprovement()
        low = ei(_const_predict(-1.0, 1.0), X1, y_best=0.0)[0]
        high = ei(_const_predict(+1.0, 1.0), X1, y_best=0.0)[0]
        assert low > high

    def test_more_uncertainty_higher_ei_at_same_mean(self):
        ei = ExpectedImprovement()
        tight = ei(_const_predict(1.0, 0.1), X1, y_best=0.0)[0]
        wide = ei(_const_predict(1.0, 2.0), X1, y_best=0.0)[0]
        assert wide > tight

    def test_zero_std_deterministic_improvement(self):
        ei = ExpectedImprovement()
        assert ei(_const_predict(-2.0, 0.0), X1, y_best=0.0)[0] == pytest.approx(2.0)
        assert ei(_const_predict(+2.0, 0.0), X1, y_best=0.0)[0] == 0.0

    def test_closed_form_value(self):
        # EI(mean=0, std=1, best=0) = phi(0) = 1/sqrt(2 pi)
        ei = ExpectedImprovement()
        val = ei(_const_predict(0.0, 1.0), X1, y_best=0.0)[0]
        assert val == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_xi_margin_reduces_ei(self):
        plain = ExpectedImprovement()(_const_predict(0.0, 1.0), X1, 0.0)[0]
        margined = ExpectedImprovement(xi=0.5)(_const_predict(0.0, 1.0), X1, 0.0)[0]
        assert margined < plain

    def test_vectorized(self):
        ei = ExpectedImprovement()
        X = np.zeros((7, 3))
        assert ei(_const_predict(0.0, 1.0), X, 0.0).shape == (7,)


class TestLowerConfidenceBound:
    def test_prefers_low_mean(self):
        lcb = LowerConfidenceBound(beta=1.0)
        better = lcb(_const_predict(-1.0, 0.5), X1, 0.0)[0]
        worse = lcb(_const_predict(1.0, 0.5), X1, 0.0)[0]
        assert better > worse

    def test_prefers_uncertainty(self):
        lcb = LowerConfidenceBound(beta=2.0)
        certain = lcb(_const_predict(0.0, 0.1), X1, 0.0)[0]
        uncertain = lcb(_const_predict(0.0, 1.0), X1, 0.0)[0]
        assert uncertain > certain
