import numpy as np
import pytest
from scipy.integrate import solve_ivp

import bsdelab as bl
from bsdelab import lipschitz_solver
from bsdelab.errors import BasisDegenerate

from test_paths import uniform_grid


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


def clamp10(t):
    return min(1.0 / (1.0 - t), 10.0) if t < 1.0 else 10.0


def reference_ode(t_eval, terminal, rhs):
    """Independent stiff oracle: adaptive implicit integration backward in time."""
    sol = solve_ivp(lambda tau, y: [-rhs(1.0 - tau, y[0])], (0.0, 1.0), [terminal],
                    method="Radau", rtol=1e-10, atol=1e-13, dense_output=True)
    return sol.sol(1.0 - t_eval)[0]


class TestOdeMode:
    def test_zero_driver(self):
        model = bl.IntensityModel.bounded(0.0, 1.0)
        grid = uniform_grid(11)
        prob = bl.BsdeProblem(intensity=model,
                              coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
                              sign=bl.MINUS_LAMBDA_Y)
        sol = bl.solve_ode_mode(prob, grid)
        assert np.all(sol.y == 0.0)
        assert np.all(sol.z == 0.0)

    def test_pure_quadrature(self):
        # lam = 0 reduces to Y' = phi: Y(t) = -(1 - t)
        model = bl.IntensityModel.bounded(0.0, 1.0)
        grid = uniform_grid(101)
        prob = bl.BsdeProblem(intensity=model,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y)
        sol = bl.solve_ode_mode(prob, grid)
        assert np.max(np.abs(sol.y + (1.0 - grid.points))) < 1e-10

    def test_against_adaptive_reference(self, power1):
        # clamped intensity, first-order scheme vs the Radau oracle; the frozen
        # tolerance reflects the measured O(h) error at this grid
        grid = bl.make_grid(power1, 2001, mass_cap=12.0)
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y)
        sol = bl.solve_ode_mode(prob, grid, lambda_cap=10.0)
        ref = reference_ode(grid.points, 0.0, lambda t, y: 1.0 + clamp10(t) * y)
        assert np.max(np.abs(sol.y - ref)) < 2e-4
        assert sol.diagnostics["residual_max"] < 1e-12

    def test_extrapolated_pair_hits_reference(self, power1):
        # the grid-halving pair extrapolates to the oracle well below 1e-6
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y)
        g1 = bl.make_grid(power1, 2001, mass_cap=12.0)
        g2 = bl.TimeGrid(points=np.union1d(g1.points, 0.5 * (g1.points[:-1] + g1.points[1:])),
                         cap_index=2 * g1.cap_index)
        y1 = bl.solve_ode_mode(prob, g1, lambda_cap=10.0).y
        y2 = bl.solve_ode_mode(prob, g2, lambda_cap=10.0).y
        extrap = 2.0 * y2[::2] - y1
        ref = reference_ode(g1.points, 0.0, lambda t, y: 1.0 + clamp10(t) * y)
        assert np.max(np.abs(extrap - ref)) < 1e-6

    def test_first_order_convergence(self, power1):
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y)
        errors = []
        for n in [251, 501, 1001]:
            grid = bl.make_grid(power1, n, mass_cap=8.0)
            sol = bl.solve_ode_mode(prob, grid, lambda_cap=10.0)
            ref = reference_ode(grid.points, 0.0, lambda t, y: 1.0 + clamp10(t) * y)
            errors.append(np.max(np.abs(sol.y - ref)))
        assert errors[0] / errors[1] >= 1.8
        assert errors[1] / errors[2] >= 1.8

    def test_requires_bounded_intensity(self, power1):
        grid = bl.make_grid(power1, 21, mass_cap=8.0)
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y)
        with pytest.raises(ValueError):
            bl.solve_ode_mode(prob, grid)


class TestRegressionMc:
    def test_zero_data(self, power1):
        grid = bl.make_grid(power1, 31, mass_cap=8.0)
        bundle = bl.simulate_paths(grid, 1, 2000, seed=4)
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y)
        sol = bl.solve_regression_mc(prob, grid, bundle, lambda_cap=8.0)
        assert np.max(np.abs(sol.y)) < 1e-12
        assert np.max(np.abs(sol.z)) < 1e-12

    def test_deterministic_through_mc_engine(self, power1):
        grid = bl.make_grid(power1, 101, mass_cap=12.0)
        bundle = bl.simulate_paths(grid, 1, 50_000, seed=6)
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y)
        mc = bl.solve_regression_mc(prob, grid, bundle,
                                    basis=bl.RegressionBasis.polynomial(2),
                                    lambda_cap=10.0)
        ode = bl.solve_ode_mode(prob, grid, lambda_cap=10.0)
        assert np.max(np.abs(mc.y.mean(axis=0) - ode.y)) <= 3e-2

    def test_markovian_cross_seed_stability(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        coeff = bl.CoefficientProcess.markovian(
            lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
        prob = bl.BsdeProblem(intensity=power1, coefficient=coeff,
                              sign=bl.NONLINEAR_PLUS,
                              driver=bl.DriverSpec.exp_utility(1.0))
        clipped = bl.truncate(prob.driver, 1.0, 1.0)
        y0 = []
        for seed in (1, 2, 3):
            bundle = bl.simulate_paths(grid, 1, 100_000, seed=seed)
            sol = bl.solve_regression_mc(prob, grid, bundle, lambda_cap=5.0,
                                         driver_override=clipped)
            y0.append(sol.y.mean(axis=0)[0])
            box_excess = np.max(sol.y + 0.0), np.max(-(sol.y + (1.0 - grid.points)[None, :]))
            assert max(box_excess) <= 1e-3 + 1e-12
        assert max(y0) - min(y0) < 1e-2

    def test_y_slope_is_not_clamped_into_a_box(self, power1):
        # a y-slope voids the a-priori box [-T sup phi, 0]: Y_0 = -1.3468 lies
        # below it, and a constant phi makes the regression exact
        grid = bl.make_grid(power1, 41, mass_cap=5.0)
        bundle = bl.simulate_paths(grid, 1, 4000, seed=1)
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0),
                              y_slope=-3.0)
        mc = bl.solve_regression_mc(prob, grid, bundle, lambda_cap=8.0)
        ode = bl.solve_ode_mode(prob, grid, lambda_cap=8.0)
        assert ode.y[0] < -1.3
        assert abs(mc.y[:, 0].mean() - ode.y[0]) <= 1e-9
        assert "box_excursion_raw" not in mc.diagnostics

    def test_measurability_by_construction(self, power1):
        # paths that share the Brownian level at a node must receive the exact
        # same value there, whatever their futures look like
        grid = bl.make_grid(power1, 31, mass_cap=8.0)
        base = bl.simulate_paths(grid, 1, 512, seed=9)
        split = 10
        increments = base.increments.copy()
        increments[1, :split, :] = increments[0, :split, :]   # same prefix, different tail
        levels = np.zeros_like(base.levels)
        np.cumsum(increments, axis=1, out=levels[:, 1:, :])
        bundle = bl.PathBundle(grid=grid, dim=1, n_paths=base.n_paths,
                               levels=levels, seed=base.seed)
        coeff = bl.CoefficientProcess.markovian(
            lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
        prob = bl.BsdeProblem(intensity=power1, coefficient=coeff,
                              sign=bl.NONLINEAR_PLUS,
                              driver=bl.DriverSpec.exp_utility(1.0))
        sol = bl.solve_regression_mc(prob, grid, bundle, lambda_cap=5.0,
                                     driver_override=bl.truncate(
                                         prob.driver, 1.0, 1.0))
        assert np.array_equal(sol.y[0, :split + 1], sol.y[1, :split + 1])
        assert not np.array_equal(sol.y[0, split + 1:], sol.y[1, split + 1:])

    def test_degenerate_basis_raises(self, power1):
        grid = bl.make_grid(power1, 11, mass_cap=6.0)
        bundle = bl.simulate_paths(grid, 1, 3, seed=2)   # 3 paths, 5 basis columns
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y)
        with pytest.raises(BasisDegenerate) as err:
            bl.solve_regression_mc(prob, grid, bundle,
                                   basis=bl.RegressionBasis.polynomial(4),
                                   lambda_cap=5.0)
        assert err.value.node_index >= 0


class TestComparisonCheck:
    def _solutions(self, power1, mode, bundle=None):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.NONLINEAR_PLUS,
                              driver=bl.DriverSpec.exp_utility(1.0))
        clipped = bl.truncate(prob.driver, 1.0, 1.0)
        out = []
        for n in (5.0, 10.0):
            if mode == "ode":
                out.append(bl.solve_ode_mode(prob, grid, lambda_cap=n,
                                             driver_override=clipped))
            else:
                out.append(bl.solve_regression_mc(prob, grid, bundle, lambda_cap=n,
                                                  driver_override=clipped))
        return grid, out

    def test_identical_solutions(self, power1):
        grid, (lo, _) = self._solutions(power1, "ode")
        rep = bl.comparison_check(lo, lo)
        assert rep.max_violation <= 0.0 and rep.ok

    def test_ode_ordering_exact(self, power1):
        _, (lo, hi) = self._solutions(power1, "ode")
        rep = bl.comparison_check(lo, hi)
        assert rep.ok and rep.max_violation <= 0.0

    def test_mc_ordering_within_three_se(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        bundle = bl.simulate_paths(grid, 1, 50_000, seed=12)
        _, (lo, hi) = self._solutions(power1, "mc", bundle=bundle)
        rep = bl.comparison_check(lo, hi)
        assert rep.ok

    def test_grid_mismatch(self, power1):
        _, (lo, hi) = self._solutions(power1, "ode")
        other_grid = bl.make_grid(power1, 31, mass_cap=10.0)
        prob = lo.problem
        other = bl.solve_ode_mode(prob, other_grid, lambda_cap=5.0,
                                  driver_override=lo.driver_used)
        with pytest.raises(ValueError):
            bl.comparison_check(lo, other)


class TestRegressionBasis:
    @pytest.mark.parametrize("degree", range(8))
    def test_polynomial_design_is_vander_in_fortran_order(self, degree):
        w = np.random.default_rng(degree).standard_normal(1001) * 1.7
        design = bl.RegressionBasis.polynomial(degree).design(w)
        want = np.vander(w, degree + 1, increasing=True)
        assert design.flags.f_contiguous
        assert design.shape == want.shape
        assert np.array_equal(design, want)
        assert np.ascontiguousarray(design).tobytes() == want.tobytes()

    @pytest.mark.parametrize("degree,error", [(-1, "degree must be nonnegative"),
                                              (2.5, "degree must be an integer")])
    def test_bad_degree_rejected_by_both_constructors(self, degree, error):
        with pytest.raises(ValueError, match=error):
            bl.RegressionBasis(degree=degree)
        with pytest.raises(ValueError, match=error):
            bl.RegressionBasis.polynomial(degree)


def _numpy_qr_fit(design, target):
    """The factorisation ``fit_coefficients`` used before the economic QR:
    ``np.linalg.qr`` on the C-ordered design."""
    q, r = np.linalg.qr(np.ascontiguousarray(design))
    coef = np.linalg.solve(r, q.T @ target)
    svals = np.linalg.svd(r, compute_uv=False)
    return coef, svals[0] / svals[-1]


class TestEconomicQr:
    """``fit_coefficients`` against an ``np.linalg.qr`` oracle.  Bitwise equality
    is not asserted: another BLAS build may sum in another order."""

    @pytest.mark.parametrize("degree", [1, 3, 5])
    @pytest.mark.parametrize("scale", [0.05, 1.0])
    def test_agrees_with_numpy_qr(self, degree, scale):
        from bsdelab.lipschitz_solver import fit_coefficients

        rng = np.random.default_rng(10 * degree + int(scale * 10))
        w = rng.standard_normal(5000) * scale
        target = np.column_stack([np.sin(w / scale), np.exp(-w), rng.standard_normal(5000)])
        basis = bl.RegressionBasis.polynomial(degree)
        coef, fit = fit_coefficients(basis, w, target)
        want_coef, want_cond = _numpy_qr_fit(basis.design(w), target)
        assert np.allclose(coef, want_coef, rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(want_coef)))
        fitted, want_fitted = fit.design @ coef, basis.design(w) @ want_coef
        assert np.allclose(fitted, want_fitted, rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(want_fitted)))
        assert fit.cond == pytest.approx(want_cond, rel=1e-9)
        assert fit.q.flags.c_contiguous

    def test_degenerate_design_reports_the_numpy_condition(self):
        from bsdelab.lipschitz_solver import _COND_LIMIT, fit_coefficients

        # powers of a narrow level are near collinear: condition ~3e10, where
        # sigma_min still carries about five digits
        w = np.random.default_rng(4).uniform(2.0, 2.05, 2000)
        basis = bl.RegressionBasis.polynomial(4)
        with pytest.raises(BasisDegenerate) as err:
            fit_coefficients(basis, w, np.ones((2000, 1)), node_index=7)
        _, want_cond = _numpy_qr_fit(basis.design(w), np.ones((2000, 1)))
        assert want_cond > _COND_LIMIT
        assert err.value.node_index == 7
        assert err.value.condition == pytest.approx(want_cond, rel=1e-4)


class TestRandomTerminalAndSlopes:
    """Zero-intensity problems with a random terminal value have closed-form
    conditional expectations, which makes them exact oracles for the terminal
    handling and the linear slope terms."""

    def _flat_model(self):
        return bl.IntensityModel.bounded(0.0, 1.0)

    def _grid(self, n=41):
        return uniform_grid(n)

    def test_random_terminal_conditional_expectation(self):
        # dY = Z dW, Y_T = sin(W_T): Y(t, w) = sin(w) exp(-(T-t)/2)
        model = self._flat_model()
        grid = self._grid()
        bundle = bl.simulate_paths(grid, 1, 60_000, seed=41)
        prob = bl.BsdeProblem(
            intensity=model, coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
            sign=bl.PLUS_LAMBDA_Y, terminal=bl.TerminalSpec.random(np.sin))
        # a sine payoff needs a fifth-degree fit; a cubic biases it by ~3e-2
        sol = bl.solve_regression_mc(prob, grid, bundle,
                                     basis=bl.RegressionBasis.polynomial(5))
        assert np.array_equal(sol.y[:, -1], np.sin(bundle.levels[:, -1, 0]))
        i = 20
        w = bundle.levels[:, i, 0]
        oracle = np.sin(w) * np.exp(-(1.0 - grid.points[i]) / 2.0)
        inner = np.abs(w) < 1.5      # compare away from the sparse basis tails
        assert np.max(np.abs(sol.y[inner, i] - oracle[inner])) < 3e-2

    def test_z_slope_girsanov_oracle(self):
        # dY = sigma Z dt + Z dW, Y_T = sin(W_T):
        # Y(t, w) = exp(-(T-t)/2) sin(w - sigma (T-t))
        model = self._flat_model()
        grid = self._grid()
        bundle = bl.simulate_paths(grid, 1, 60_000, seed=43)
        sigma = 0.8
        prob = bl.BsdeProblem(
            intensity=model, coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
            sign=bl.PLUS_LAMBDA_Y, terminal=bl.TerminalSpec.random(np.sin),
            z_slope=sigma)
        sol = bl.solve_regression_mc(prob, grid, bundle,
                                     basis=bl.RegressionBasis.polynomial(5))
        for i in (10, 20, 30):
            t = grid.points[i]
            w = bundle.levels[:, i, 0]
            oracle = np.exp(-(1.0 - t) / 2.0) * np.sin(w - sigma * (1.0 - t))
            inner = np.abs(w) < 1.5
            assert np.max(np.abs(sol.y[inner, i] - oracle[inner])) < 3e-2

    def test_y_slope_discount_oracle(self):
        # dY = b Y dt + Z dW, Y_T = sin(W_T):
        # Y(t, w) = exp(-b (T-t)) exp(-(T-t)/2) sin(w)
        model = self._flat_model()
        grid = self._grid()
        bundle = bl.simulate_paths(grid, 1, 60_000, seed=44)
        b = 0.7
        prob = bl.BsdeProblem(
            intensity=model, coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
            sign=bl.PLUS_LAMBDA_Y, terminal=bl.TerminalSpec.random(np.sin),
            y_slope=b)
        sol = bl.solve_regression_mc(prob, grid, bundle,
                                     basis=bl.RegressionBasis.polynomial(5))
        for i in (10, 30):
            t = grid.points[i]
            w = bundle.levels[:, i, 0]
            oracle = np.exp(-(b + 0.5) * (1.0 - t)) * np.sin(w)
            inner = np.abs(w) < 1.5
            assert np.max(np.abs(sol.y[inner, i] - oracle[inner])) < 3e-2

    def test_mc_diagnostics_carry_newton_residual(self):
        model = self._flat_model()
        grid = self._grid(11)
        bundle = bl.simulate_paths(grid, 1, 2000, seed=45)
        prob = bl.BsdeProblem(
            intensity=model, coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
            sign=bl.PLUS_LAMBDA_Y, terminal=bl.TerminalSpec.random(np.sin))
        sol = bl.solve_regression_mc(prob, grid, bundle)
        assert sol.diagnostics["residual_max"] < 1e-12


def test_bisection_bracket_of_huge_residuals_forms_no_product():
    # the residuals at both ends are near -1e300: their product overflows
    root = lipschitz_solver._bracket_and_bisect(lambda v: 1e300 * (v - 3.0),
                                                np.array([0.0, 10.0]))
    assert np.allclose(root, 3.0, rtol=1e-14)
