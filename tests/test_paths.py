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

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr("bsdelab.paths.MEMORY_CAP_ELEMENTS", 1000)
        grid = uniform_grid(101)
        with pytest.raises(ResourceLimit):
            bl.simulate_paths(grid, 1, 10_000, seed=1)


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
        want_levels = reference_levels(grid, dim, 33, 77)
        want_inc = want_levels[:, 1:] - want_levels[:, :-1]
        assert np.ascontiguousarray(bundle.levels).tobytes() == want_levels.tobytes()
        assert np.ascontiguousarray(bundle.increments).tobytes() == want_inc.tobytes()


class TestBundleGrid:
    """A bundle serves only the grid its levels belong to."""

    def test_levels_of_another_grid_rejected(self):
        power1 = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(power1, 11, mass_cap=8.0)
        levels = bl.simulate_paths(bl.make_grid(power1, 16, mass_cap=8.0), 1, 100, seed=3).levels
        with pytest.raises(ValueError, match=r"= \(100, 12, 1\), got \(100, 17, 1\)"):
            bl.PathBundle(grid, 1, 100, levels, seed=3)

    def test_bundle_of_another_grid_rejected(self):
        # both grids have 12 nodes, so every array shape agrees
        power1 = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(power1, 11, mass_cap=8.0)
        ours = bl.simulate_paths(grid, 1, 500, seed=3)
        other = bl.simulate_paths(bl.make_grid(bl.IntensityModel.power_gap(2.0, 1.0), 11,
                                               mass_cap=8.0), 1, 500, seed=3)
        coeff = bl.CoefficientProcess.markovian(
            lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
        plus = bl.BsdeProblem(intensity=power1, coefficient=coeff, sign=bl.PLUS_LAMBDA_Y)
        minus = bl.BsdeProblem(intensity=power1, sign=bl.MINUS_LAMBDA_Y,
                               coefficient=bl.CoefficientProcess.constant(0.0, 1.0))
        nonlinear = bl.BsdeProblem(intensity=power1, coefficient=coeff, sign=bl.NONLINEAR_PLUS,
                                   driver=bl.DriverSpec.exp_utility(1.0))
        beta = np.ones(grid.n_points - 1)
        member = bl.fundamental_family(power1, 1.0, grid, beta=beta, bundle=ours)
        sol = bl.solve_regression_mc(nonlinear, grid, ours, lambda_cap=4.0,
                                     driver_override=bl.truncate(nonlinear.driver, 1.0, 1.0))
        for call in (lambda: bl.residual_check(member, minus, bundle=other),
                     lambda: bl.solve_affine_plus(plus, grid, bundle=other),
                     lambda: bl.estimate_bmo(sol, other),
                     lambda: bl.fundamental_family(power1, 1.0, grid, beta=beta, bundle=other),
                     lambda: bl.solve_regression_mc(nonlinear, grid, other, lambda_cap=4.0)):
            with pytest.raises(ValueError, match="bundle was simulated on a different grid"):
                call()


class TestOneBrownianDimension:
    """The solvers read one Brownian coordinate: each bundle consumer rejects a
    two-dimensional bundle on its own grid, with ``check_grid``'s one message."""

    @pytest.fixture(scope="class")
    def consumers(self):
        power1 = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(power1, 11, mass_cap=8.0)
        ours = bl.simulate_paths(grid, 1, 500, seed=3)
        two = bl.simulate_paths(grid, 2, 500, seed=3)
        coeff = bl.CoefficientProcess.markovian(
            lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
        plus = bl.BsdeProblem(intensity=power1, coefficient=coeff, sign=bl.PLUS_LAMBDA_Y)
        minus = bl.BsdeProblem(intensity=power1, sign=bl.MINUS_LAMBDA_Y,
                               coefficient=bl.CoefficientProcess.constant(0.0, 1.0))
        nonlinear = bl.BsdeProblem(intensity=power1, coefficient=coeff, sign=bl.NONLINEAR_PLUS,
                                   driver=bl.DriverSpec.exp_utility(1.0))
        beta = np.ones(grid.n_points - 1)
        member = bl.fundamental_family(power1, 1.0, grid, beta=beta, bundle=ours)
        sol = bl.solve_regression_mc(nonlinear, grid, ours, lambda_cap=4.0,
                                     driver_override=bl.truncate(nonlinear.driver, 1.0, 1.0))
        return {
            "NodeSweep": lambda: bl.lipschitz_solver.NodeSweep(nonlinear, grid, [4.0],
                                                                bundle=two),
            "residual_check": lambda: bl.residual_check(member, minus, bundle=two),
            "estimate_bmo": lambda: bl.estimate_bmo(sol, two),
            "solve_affine_plus": lambda: bl.solve_affine_plus(plus, grid, bundle=two),
            "fundamental_family": lambda: bl.fundamental_family(power1, 1.0, grid, beta=beta,
                                                                bundle=two),
        }

    @pytest.mark.parametrize("consumer", ["NodeSweep", "residual_check", "estimate_bmo",
                                          "solve_affine_plus", "fundamental_family"])
    def test_two_dimensional_bundle_rejected(self, consumers, consumer):
        with pytest.raises(ValueError, match="^the solvers take one Brownian dimension, got 2$"):
            consumers[consumer]()
