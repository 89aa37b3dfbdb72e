"""Tests for Sobol' index estimation, validated on analytic cases."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.sensitivity import saltelli_sample, sobol_analyze_function, sobol_indices


def ishigami(U, a=7.0, b=0.1):
    X = -math.pi + 2 * math.pi * U
    return np.sin(X[:, 0]) + a * np.sin(X[:, 1]) ** 2 + b * X[:, 2] ** 4 * np.sin(X[:, 0])


def ishigami_analytic(a=7.0, b=0.1):
    V = a**2 / 8 + b * math.pi**4 / 5 + b**2 * math.pi**8 / 18 + 0.5
    S1_1 = 0.5 * (1 + b * math.pi**4 / 5) ** 2 / V
    S1_2 = (a**2 / 8) / V
    ST_3 = (8 * b**2 * math.pi**8 / 225) / V
    return [S1_1, S1_2, 0.0], [S1_1 + ST_3, S1_2, ST_3]


class TestIshigamiValidation:
    """The standard SA benchmark with exactly known indices."""

    @pytest.fixture(scope="class")
    def result(self):
        return sobol_analyze_function(
            ishigami, 3, n_base=4096, names=["x1", "x2", "x3"], seed=0
        )

    def test_first_order(self, result):
        S1_true, _ = ishigami_analytic()
        assert np.allclose(result.S1, S1_true, atol=0.02)

    def test_total_effect(self, result):
        _, ST_true = ishigami_analytic()
        assert np.allclose(result.ST, ST_true, atol=0.02)

    def test_confidence_brackets_truth(self, result):
        S1_true, ST_true = ishigami_analytic()
        for est, conf, true in zip(result.S1, result.S1_conf, S1_true):
            assert abs(est - true) < max(conf * 2, 0.02)

    def test_ranking(self, result):
        assert result.ranking("ST") == ["x1", "x2", "x3"]
        assert result.ranking("S1") == ["x2", "x1", "x3"]


class TestAdditiveFunction:
    def test_linear_function_s1_equals_st(self):
        """Purely additive => no interactions => S1 == ST, proportional
        to each coefficient's variance share."""
        coeffs = np.array([1.0, 2.0, 4.0])

        def f(U):
            return U @ coeffs

        res = sobol_analyze_function(f, 3, n_base=4096, seed=1)
        shares = coeffs**2 / np.sum(coeffs**2)
        assert np.allclose(res.S1, shares, atol=0.03)
        assert np.allclose(res.ST, shares, atol=0.03)

    def test_pure_interaction_s1_zero_st_one(self):
        """f = (x1-.5)(x2-.5): all variance is the interaction."""

        def f(U):
            return (U[:, 0] - 0.5) * (U[:, 1] - 0.5)

        res = sobol_analyze_function(f, 2, n_base=4096, seed=2)
        assert np.allclose(res.S1, 0.0, atol=0.03)
        assert np.allclose(res.ST, 1.0, atol=0.05)

    def test_dead_parameter_zero_everywhere(self):
        def f(U):
            return U[:, 0] ** 2

        res = sobol_analyze_function(f, 3, n_base=2048, seed=3)
        assert res.S1[1] == pytest.approx(0.0, abs=0.02)
        assert res.ST[1] == pytest.approx(0.0, abs=0.02)
        assert res.ST[2] == pytest.approx(0.0, abs=0.02)

    def test_constant_function(self):
        res = sobol_analyze_function(lambda U: np.ones(U.shape[0]), 3, n_base=256)
        assert np.allclose(res.S1, 0.0) and np.allclose(res.ST, 0.0)
        assert res.variance == 0.0


class TestResultObject:
    @pytest.fixture
    def result(self):
        return sobol_analyze_function(
            ishigami, 3, n_base=512, names=["a", "b", "c"], seed=0
        )

    def test_rows_layout(self, result):
        rows = result.as_rows()
        assert [r["parameter"] for r in rows] == ["a", "b", "c"]
        for r in rows:
            assert set(r) == {"parameter", "S1", "S1_conf", "ST", "ST_conf"}

    def test_select_thresholds(self, result):
        # x3 has S1~0 but ST~0.24: the ST threshold keeps it
        keep = result.select(s1_threshold=0.05, st_threshold=0.2)
        assert keep == ["a", "b", "c"]
        keep_strict = result.select(s1_threshold=0.3, st_threshold=0.5)
        assert "c" not in keep_strict

    def test_name_count_checked(self):
        design = saltelli_sample(16, 3)
        with pytest.raises(ValueError):
            sobol_indices(design, np.zeros(16 * 5), names=["only", "two"])

    def test_no_bootstrap(self):
        res = sobol_analyze_function(ishigami, 3, n_base=256, n_bootstrap=0)
        assert np.allclose(res.S1_conf, 0.0) and np.allclose(res.ST_conf, 0.0)

    def test_bootstrap_reproducible(self):
        a = sobol_analyze_function(ishigami, 3, n_base=256, seed=11)
        b = sobol_analyze_function(ishigami, 3, n_base=256, seed=11)
        assert np.allclose(a.S1_conf, b.S1_conf)


class TestVectorizedBootstrap:
    """The batched bootstrap must reproduce the former Python-level loop."""

    def _loop_reference(self, design, values, n_bootstrap, seed):
        from repro.sensitivity.sobol import _estimate

        f_A, f_B, f_AB = design.split(values)
        rng = np.random.default_rng(seed)
        n = design.n_base
        s1_bs = np.empty((n_bootstrap, design.dim))
        st_bs = np.empty((n_bootstrap, design.dim))
        for b in range(n_bootstrap):
            idx = rng.integers(0, n, size=n)
            s1_bs[b], st_bs[b], _ = _estimate(f_A[idx], f_B[idx], f_AB[:, idx])
        return s1_bs, st_bs

    def test_matches_loop_at_fixed_seed(self):
        design = saltelli_sample(128, 3, seed=7)
        values = ishigami(design.stacked())
        z95 = 1.959963984540054
        s1_bs, st_bs = self._loop_reference(design, values, 60, seed=42)
        res = sobol_indices(design, values, n_bootstrap=60, seed=42)
        assert np.allclose(res.S1_conf, z95 * np.std(s1_bs, axis=0, ddof=1))
        assert np.allclose(res.ST_conf, z95 * np.std(st_bs, axis=0, ddof=1))

    def test_batch_estimator_shape_and_guard(self):
        from repro.sensitivity.sobol import _estimate_batch

        B, n, d = 5, 16, 2
        rng = np.random.default_rng(0)
        f_A = rng.normal(size=(B, n))
        f_B = rng.normal(size=(B, n))
        f_AB = rng.normal(size=(d, B, n))
        # one degenerate replicate: constant outputs -> zero indices
        f_A[2] = f_B[2] = 1.0
        f_AB[:, 2, :] = 1.0
        S1, ST = _estimate_batch(f_A, f_B, f_AB)
        assert S1.shape == (B, d) and ST.shape == (B, d)
        assert np.all(S1[2] == 0.0) and np.all(ST[2] == 0.0)
        assert np.all(np.isfinite(S1)) and np.all(np.isfinite(ST))


def _one_shot_reference(design, values, n_bootstrap, seed):
    """Every replicate at once: one ``(n_bootstrap, n)`` draw and one
    batched estimate, ``dim * n_bootstrap * n`` doubles per array."""
    from repro.sensitivity.sobol import _estimate, _estimate_batch

    f_A, f_B, f_AB = design.split(values)
    S1, ST, var = _estimate(f_A, f_B, f_AB)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, design.n_base, size=(n_bootstrap, design.n_base))
    s1_bs, st_bs = _estimate_batch(f_A[idx], f_B[idx], f_AB[:, idx])
    z95 = 1.959963984540054
    return (
        S1,
        ST,
        z95 * np.std(s1_bs, axis=0, ddof=1),
        z95 * np.std(st_bs, axis=0, ddof=1),
        float(var),
    )


def _smooth(U):
    w = np.linspace(1.0, 2.0, U.shape[1])
    return np.sin(3.0 * U @ w) + U[:, 0] ** 2


# the reference holds the whole bootstrap at once; cells past 2**23
# doubles per array (~0.3 GB of reference scratch) are left out
_BLOCK_CASES = [
    (dim, n_base, n_bootstrap)
    for dim in (1, 3, 6)
    for n_base in (4, 5, 64, 1024, 4097)
    for n_bootstrap in (2, 7, 31, 32, 33, 100, 1000)
    if dim * n_base * n_bootstrap <= 1 << 23
]


class TestBlockedBootstrap:
    """The block-by-block bootstrap reproduces the one-shot estimate
    byte for byte, with block boundaries on both sides of every size."""

    @pytest.mark.parametrize("dim,n_base,n_bootstrap", _BLOCK_CASES)
    def test_matches_one_shot_reference(self, dim, n_base, n_bootstrap):
        design = saltelli_sample(n_base, dim, seed=dim)
        values = _smooth(design.stacked())
        res = sobol_indices(design, values, n_bootstrap=n_bootstrap, seed=5)
        S1, ST, S1_conf, ST_conf, var = _one_shot_reference(
            design, values, n_bootstrap, seed=5
        )
        assert np.array_equal(res.S1, S1) and np.array_equal(res.ST, ST)
        assert np.array_equal(res.S1_conf, S1_conf)
        assert np.array_equal(res.ST_conf, ST_conf)
        assert res.variance == var

    @pytest.mark.parametrize(
        "dim,n_base,n_bootstrap", [(6, 4096, 200), (4, 1024, 1000)]
    )
    def test_scratch_is_one_block(self, dim, n_base, n_bootstrap):
        design = saltelli_sample(n_base, dim, seed=0)
        values = _smooth(design.stacked())
        tracemalloc.start()
        try:
            sobol_indices(design, values, n_bootstrap=n_bootstrap, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("n_bootstrap", [1, -1, -100])
    def test_rejects_a_bootstrap_without_spread(self, n_bootstrap):
        design = saltelli_sample(16, 2)
        with pytest.raises(ValueError, match="n_bootstrap"):
            sobol_indices(design, np.zeros(16 * 4), n_bootstrap=n_bootstrap)
