"""Tests for the Sobol' sequence generator: digital-net properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensitivity.sobol_sequence import MAX_DIM, N_BITS, SobolSequence


class TestBasics:
    def test_dimension_limits(self):
        SobolSequence(1)
        SobolSequence(MAX_DIM)
        with pytest.raises(ValueError):
            SobolSequence(0)
        with pytest.raises(ValueError):
            SobolSequence(MAX_DIM + 1)

    def test_shape_and_range(self):
        P = SobolSequence(7).generate(100)
        assert P.shape == (100, 7)
        assert np.all((P >= 0) & (P < 1))

    def test_first_point_is_origin(self):
        P = SobolSequence(4).generate(1)
        assert np.allclose(P, 0.0)

    def test_dimension_one_is_van_der_corput(self):
        P = SobolSequence(1).generate(8)[:, 0]
        expect = [0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125]
        assert np.allclose(sorted(P), sorted(expect))

    def test_skip(self):
        full = SobolSequence(3).generate(20)
        skipped = SobolSequence(3, skip=5).generate(15)
        assert np.allclose(full[5:], skipped)

    def test_incremental_generation_matches_batch(self):
        seq = SobolSequence(4)
        a = seq.generate(10)
        b = seq.generate(10)
        batch = SobolSequence(4).generate(20)
        assert np.allclose(np.vstack([a, b]), batch)

    def test_reset(self):
        seq = SobolSequence(3)
        first = seq.generate(8)
        seq.reset()
        again = seq.generate(8)
        assert np.allclose(first, again)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            SobolSequence(2).generate(-1)


class TestDigitalNetProperties:
    """The defining stratification properties of a (t, s)-sequence in
    base 2: within the first 2^m points, every dyadic interval of size
    2^-k in any single coordinate holds exactly 2^{m-k} points."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 10, 20, MAX_DIM])
    def test_one_dimensional_balance(self, dim):
        m = 7
        P = SobolSequence(dim).generate(2**m)
        for j in range(dim):
            for k in (1, 2, 3):
                counts = np.histogram(P[:, j], bins=2**k, range=(0, 1))[0]
                assert np.all(counts == 2 ** (m - k)), f"dim {j}, k {k}"

    def test_points_distinct(self):
        P = SobolSequence(6).generate(256)
        assert len(np.unique(P, axis=0)) == 256

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (3, 7)])
    def test_2d_stratification_coarse(self, pair):
        """2x2 dyadic boxes of consecutive dimensions are balanced over
        the first 2^m points (property of good direction numbers)."""
        m = 8
        P = SobolSequence(8).generate(2**m)
        x, y = P[:, pair[0]], P[:, pair[1]]
        counts = np.histogram2d(x, y, bins=2, range=[[0, 1], [0, 1]])[0]
        assert np.all(counts == 2**m / 4)

    def test_lower_discrepancy_than_random(self):
        """QMC integration of a smooth function should beat plain MC."""
        rng = np.random.default_rng(0)
        f = lambda U: np.prod(1.0 + 0.5 * (U - 0.5), axis=1)
        n, d = 1024, 6
        exact = 1.0
        qmc_err = abs(np.mean(f(SobolSequence(d, skip=1).generate(n))) - exact)
        mc_errs = [
            abs(np.mean(f(rng.random((n, d)))) - exact) for _ in range(10)
        ]
        assert qmc_err < np.median(mc_errs)


class TestScrambling:
    def test_shift_preserves_balance(self):
        P = SobolSequence(5, scramble=True, seed=42).generate(128)
        for j in range(5):
            counts = np.histogram(P[:, j], bins=2, range=(0, 1))[0]
            assert np.all(counts == 64)

    def test_different_seeds_different_streams(self):
        a = SobolSequence(3, scramble=True, seed=1).generate(32)
        b = SobolSequence(3, scramble=True, seed=2).generate(32)
        assert not np.allclose(a, b)

    def test_same_seed_reproducible(self):
        a = SobolSequence(3, scramble=True, seed=9).generate(32)
        b = SobolSequence(3, scramble=True, seed=9).generate(32)
        assert np.allclose(a, b)

    def test_resolution(self):
        P = SobolSequence(2, skip=1).generate(64)
        scaled = P * (1 << N_BITS)
        assert np.allclose(scaled, np.round(scaled))


class TestAgainstScipy:
    """Cross-check statistical quality against scipy's Sobol engine."""

    def test_integration_error_comparable(self):
        from scipy.stats import qmc

        d, n = 8, 2048
        f = lambda U: np.sum(U**2, axis=1)
        exact = d / 3.0
        ours = abs(np.mean(f(SobolSequence(d, skip=1).generate(n))) - exact)
        theirs_pts = qmc.Sobol(d, scramble=False, seed=0).random(n)
        theirs = abs(np.mean(f(theirs_pts)) - exact)
        # same order of magnitude (within 10x) is plenty to prove the
        # construction is a genuine low-discrepancy sequence
        assert ours < max(theirs * 10, 1e-3)


class TestPropertyBased:
    @given(st.integers(1, MAX_DIM), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_balance_property(self, dim, m):
        P = SobolSequence(dim).generate(2**m)
        for j in range(dim):
            lo = np.sum(P[:, j] < 0.5)
            assert lo == 2 ** (m - 1)
