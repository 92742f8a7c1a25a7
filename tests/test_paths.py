import math

import numpy as np
import pytest

import bsdelab as bl
from bsdelab.errors import ResourceLimit


def uniform_grid(n):
    return bl.TimeGrid(points=np.linspace(0.0, 1.0, n), cap_index=n - 2)


class TestSimulatePaths:
    def test_reproducible_same_seed(self):
        grid = uniform_grid(2)
        a = bl.simulate_paths(grid, 1, 1, seed=99)
        b = bl.simulate_paths(grid, 1, 1, seed=99)
        assert np.array_equal(a.increments, b.increments)
        assert a.increments.shape == (1, 1, 1)

    @pytest.mark.parametrize("workers", [4, 8])
    def test_worker_count_invariance(self, workers):
        grid = uniform_grid(11)
        base = bl.simulate_paths(grid, 2, 1000, seed=7, workers=1)
        other = bl.simulate_paths(grid, 2, 1000, seed=7, workers=workers)
        assert np.array_equal(base.increments, other.increments)
        assert np.array_equal(base.levels, other.levels)

    def test_terminal_moments(self):
        grid = uniform_grid(2)
        m = 100_000
        bundle = bl.simulate_paths(grid, 1, m, seed=5)
        w_t = bundle.levels[:, -1, :]
        assert abs(w_t.mean()) < 4.0 / math.sqrt(m)
        assert abs(w_t.var() - 1.0) < 0.05

    def test_brownian_covariance(self):
        grid = uniform_grid(11)
        m = 100_000
        bundle = bl.simulate_paths(grid, 1, m, seed=21)
        w_half = bundle.levels[:, 5, 0]
        w_one = bundle.levels[:, 10, 0]
        cov = float(np.mean(w_half * w_one))
        # Var(W_.5 W_1) = E[W_.5^2 W_1^2] - .25 = 1.25 for this pair
        se = math.sqrt(1.25 / m)
        assert abs(cov - 0.5) < 4.0 * se

    def test_levels_are_prefix_sums(self):
        grid = uniform_grid(6)
        bundle = bl.simulate_paths(grid, 2, 50, seed=3)
        assert np.all(bundle.levels[:, 0, :] == 0.0)
        # the stepwise identity holds up to one rounding per addition
        rebuilt = bundle.levels[:, 1:, :] - bundle.levels[:, :-1, :]
        assert np.allclose(rebuilt, bundle.increments, rtol=1e-13, atol=1e-14)

    def test_memory_cap(self):
        grid = uniform_grid(101)
        with pytest.raises(ResourceLimit):
            bl.simulate_paths(grid, 1, 10_000, seed=1, memory_cap=1000)


class TestMultidimensional:
    def test_coordinates_are_independent(self):
        grid = uniform_grid(2)
        bundle = bl.simulate_paths(grid, 2, 100_000, seed=29)
        w = bundle.levels[:, -1, :]
        corr = float(np.corrcoef(w[:, 0], w[:, 1])[0, 1])
        assert abs(corr) < 4.0 / np.sqrt(100_000)


class TestSeedDomain:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            bl.simulate_paths(uniform_grid(3), 1, 4, seed=seed)


class TestNodeMajorLayout:
    """Bundles keep node-major memory behind the (M, N, d) arrays: one node's
    column is contiguous, and the values are unchanged."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_simulated_node_columns_are_contiguous(self, dim):
        bundle = bl.simulate_paths(uniform_grid(7), dim, 33, seed=77)
        assert bundle.levels.shape == (33, 7, dim)
        assert bundle.increments.shape == (33, 6, dim)
        for j in range(dim):
            assert all(bundle.levels[:, i, j].flags.c_contiguous for i in range(7))
            assert all(bundle.increments[:, i, j].flags.c_contiguous for i in range(6))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_levels_are_the_oracle_bridge(self, dim):
        from test_bridge_paths import reference_levels

        grid = uniform_grid(7)
        bundle = bl.simulate_paths(grid, dim, 33, seed=77)
        want_levels = reference_levels(grid, dim, range(33), 77)
        want_inc = want_levels[:, 1:] - want_levels[:, :-1]
        assert np.ascontiguousarray(bundle.levels).tobytes() == want_levels.tobytes()
        assert np.ascontiguousarray(bundle.increments).tobytes() == want_inc.tobytes()
