"""Tests for process grids and block-cyclic distribution."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hpc import (
    Grid2D,
    Grid3D,
    block_cyclic_rows,
    grid_for_rows,
    load_imbalance,
    squarest_grid,
)
from repro.hpc.procgrid import factor_pairs


class TestGrids:
    def test_grid2d_properties(self):
        g = Grid2D(4, 8)
        assert g.size == 32
        assert g.aspect == 2.0
        with pytest.raises(ValueError):
            Grid2D(0, 4)

    def test_grid3d(self):
        g = Grid3D(4, 8, 2)
        assert g.size == 64
        assert g.plane == Grid2D(4, 8)
        with pytest.raises(ValueError):
            Grid3D(1, 1, 0)


class TestFactorization:
    def test_factor_pairs(self):
        assert factor_pairs(12) == [(1, 12), (2, 6), (3, 4)]
        assert factor_pairs(1) == [(1, 1)]
        assert factor_pairs(7) == [(1, 7)]
        with pytest.raises(ValueError):
            factor_pairs(0)

    def test_squarest_grid(self):
        assert squarest_grid(16) == Grid2D(4, 4)
        assert squarest_grid(32) == Grid2D(4, 8)
        assert squarest_grid(7) == Grid2D(1, 7)

    def test_grid_for_rows(self):
        g = grid_for_rows(256, 16)
        assert g == Grid2D(16, 16)
        # idle ranks allowed: 256 ranks, 24 rows -> 24x10 = 240 used
        g = grid_for_rows(256, 24)
        assert g == Grid2D(24, 10)

    def test_grid_for_rows_infeasible(self):
        """p > total ranks is the paper's PDGEQRF failure mode."""
        assert grid_for_rows(8, 9) is None

    def test_grid_for_rows_validation(self):
        with pytest.raises(ValueError):
            grid_for_rows(8, 0)


class TestBlockCyclic:
    def test_numroc_small_example(self):
        # m=10, mb=3, p=2: row 0 gets blocks {0,2} = 6 rows, row 1 gets 4
        assert block_cyclic_rows(10, 3, 2, 0) == 6
        assert block_cyclic_rows(10, 3, 2, 1) == 4

    def test_rows_sum_to_m(self):
        for m, mb, p in [(100, 8, 4), (97, 16, 3), (5, 10, 2), (64, 64, 4)]:
            total = sum(block_cyclic_rows(m, mb, p, r) for r in range(p))
            assert total == m, (m, mb, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            block_cyclic_rows(10, 0, 2, 0)
        with pytest.raises(ValueError):
            block_cyclic_rows(10, 3, 2, 5)

    def test_load_imbalance_perfect(self):
        assert load_imbalance(64, 8, 4) == pytest.approx(1.0)

    def test_load_imbalance_large_blocks(self):
        """One giant block on many procs is maximally imbalanced."""
        assert load_imbalance(64, 64, 4) == pytest.approx(4.0)

    def test_load_imbalance_between_bounds(self):
        for m, mb, p in [(1000, 8, 7), (123, 16, 3), (50, 7, 4)]:
            ratio = load_imbalance(m, mb, p)
            assert 1.0 <= ratio <= p

    @given(
        m=st.integers(0, 20_000),
        mb=st.integers(1, 512),
        p=st.integers(1, 128),
    )
    def test_load_imbalance_is_the_fullest_row_over_the_mean(self, m, mb, p):
        """The closed form equals the definition, bit for bit."""
        counts = [block_cyclic_rows(m, mb, p, r) for r in range(p)]
        expected = max(counts) / (m / p) if m else 1.0
        assert load_imbalance(m, mb, p) == expected

    @pytest.mark.parametrize("m, mb, p", [(-1, 4, 2), (10, 0, 2), (10, 4, 0), (10, 4, -3)])
    def test_load_imbalance_validation(self, m, mb, p):
        with pytest.raises(ValueError):
            load_imbalance(m, mb, p)
