import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import bsdelab as bl
from bsdelab.errors import NoSolution, NumericsError

from test_paths import uniform_grid


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


@pytest.fixture(scope="module")
def grid129(power1):
    return bl.make_grid(power1, 129, mass_cap=12.0)


def plus_problem(model, coeff, terminal=0.0):
    return bl.BsdeProblem(intensity=model, coefficient=coeff, sign=bl.PLUS_LAMBDA_Y,
                          terminal=bl.TerminalSpec.constant(terminal))


class TestSolveAffinePlus:
    def test_constant_coefficient_closed_form(self, power1, grid129):
        # oracle: substitute Y = -(1-t)/2 into Y' = phi + lam Y -> 1 - 1/2 = 1/2
        sol = bl.solve_affine_plus(
            plus_problem(power1, bl.CoefficientProcess.constant(1.0, 1.0)), grid129)
        cap = grid129.cap_index
        exact = -(1.0 - grid129.points) / 2.0
        assert np.max(np.abs(sol.y[:cap + 1] - exact[:cap + 1])) < 1e-8

    def test_zero_coefficient(self, power1, grid129):
        sol = bl.solve_affine_plus(
            plus_problem(power1, bl.CoefficientProcess.constant(0.0, 1.0)), grid129)
        assert np.all(sol.y == 0.0)
        assert np.all(sol.z == 0.0)

    def test_nonzero_terminal_rejected(self, power1, grid129):
        with pytest.raises(NoSolution):
            bl.solve_affine_plus(
                plus_problem(power1, bl.CoefficientProcess.constant(1.0, 1.0), 1.0),
                grid129)

    def test_bound_holds(self, power1, grid129):
        coeff = bl.CoefficientProcess.from_function(
            lambda t: np.cos(7.0 * t), 1.0, sup_norm=1.0)
        sol = bl.solve_affine_plus(plus_problem(power1, coeff), grid129)
        assert sol.bound_margin is not None and sol.bound_margin <= 1e-12

    def test_intensity_multiple_has_no_bound(self, power1):
        # phi = c lam has no finite sup norm, hence no a-priori bound to check;
        # Y = -c (1 - exp(-(Lam_T - Lam_t))) = -c before T
        grid = bl.make_grid(power1, 33, mass_cap=12.0)
        coeff = bl.CoefficientProcess.intensity_multiple(2.0, power1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = bl.solve_affine_plus(plus_problem(power1, coeff), grid)
        assert sol.bound_margin is None
        assert np.max(np.abs(sol.y[:grid.cap_index + 1] + 2.0)) <= 1e-15

    def test_discrete_residual(self, power1):
        # substitution residual of the quadrature values in the discrete equation
        grid = bl.make_grid(power1, 201, mass_cap=10.0)
        sol = bl.solve_affine_plus(
            plus_problem(power1, bl.CoefficientProcess.constant(1.0, 1.0)), grid)
        prob = plus_problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
        rep = bl.residual_check(sol, prob)
        assert rep.max_residual < 1e-6

    def test_markovian_matches_conditional_expectation_oracle(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        bundle = bl.simulate_paths(grid, 1, 40_000, seed=31)
        coeff = bl.CoefficientProcess.markovian(
            lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
        sol = bl.solve_affine_plus(plus_problem(power1, coeff), grid, bundle=bundle)

        def oracle(t, w):
            # E[sin W_s | W_t = w] = sin(w) exp(-(s-t)/2) for Brownian motion
            def f(s):
                weight = math.exp(-(power1.cumulative(s) - power1.cumulative(t)))
                return weight * 0.5 * (1.0 + math.sin(w) * math.exp(-(s - t) / 2.0))
            return -quad(f, t, 1.0, epsabs=1e-11, limit=300)[0]

        i = 25
        levels = bundle.levels[:, i, 0]
        for w_target in [-1.0, 0.0, 1.0]:
            j = int(np.argmin(np.abs(levels - w_target)))
            assert abs(sol.y[j, i] - oracle(grid.points[i], levels[j])) < 5e-3
        # post-check enforced: values inside the proven box, raw excursion recorded
        bound = 1.0 * (1.0 - grid.points)
        assert np.all(sol.y <= 0.0) and np.all(sol.y >= -bound[None, :] - 1e-15)
        assert sol.bound_margin < 0.1

    def test_markovian_signed_phi_matches_the_deterministic_solve(self, power1):
        # phi = -1 is signed: its box is [-w, w], and the regression of a
        # constant is exact, so the Markovian solve is the deterministic one
        grid = bl.make_grid(power1, 33, mass_cap=12.0)
        bundle = bl.simulate_paths(grid, 1, 4000, seed=1)
        coeff = bl.CoefficientProcess.markovian(
            lambda t, w: np.full(np.broadcast(t, w).shape, -1.0), 1.0, sup_norm=1.0)
        got = bl.solve_affine_plus(plus_problem(power1, coeff), grid, bundle=bundle)
        want = bl.solve_affine_plus(
            plus_problem(power1, bl.CoefficientProcess.constant(-1.0, 1.0)), grid)
        assert want.y[0] == pytest.approx(0.5, abs=1e-9)
        assert np.max(np.abs(got.y - want.y[None, :])) <= 1e-12

    def test_markovian_slope_rejected(self, power1):
        grid = bl.make_grid(power1, 9, mass_cap=6.0)
        bundle = bl.simulate_paths(grid, 1, 50, seed=1)
        coeff = bl.CoefficientProcess.markovian(lambda t, w: np.cos(t + w), 1.0, sup_norm=1.0)
        for slopes in ({"y_slope": 1.0}, {"z_slope": 1.0}):
            prob = bl.BsdeProblem(intensity=power1, coefficient=coeff,
                                  sign=bl.PLUS_LAMBDA_Y, **slopes)
            with pytest.raises(ValueError, match="no slope terms"):
                bl.solve_affine_plus(prob, grid, bundle=bundle)


class TestFundamentalFamily:
    def test_zero_member(self, power1, grid129):
        fam = bl.fundamental_family(power1, 0.0, grid129)
        assert np.all(fam.y == 0.0)

    def test_scaling_and_mass_identity(self, power1):
        grid = bl.TimeGrid(points=np.linspace(0, 1, 21), cap_index=19)
        fam = bl.fundamental_family(power1, 3.0, grid)
        assert fam.y[10] == pytest.approx(1.5, abs=1e-12)   # 3 e^{-Lam(1/2)}
        assert fam.y[-1] == 0.0
        # quadrature oracle: int_0^tc lam |Y| dt = |y0| (1 - e^{-Lam(tc)})
        tc = grid.points[grid.cap_index]
        val, _ = quad(lambda s: float(power1.value(s)) * 3.0
                      * float(power1.exp_minus_cumulative(s)), 0.0, tc,
                      epsabs=1e-12, limit=300)
        expected = 3.0 * (1.0 - float(power1.exp_minus_cumulative(tc)))
        assert abs(val - expected) < 1e-9

    def test_linearity_at_zero(self, power1, grid129):
        a = bl.fundamental_family(power1, 1.5, grid129)
        b = bl.fundamental_family(power1, -2.0, grid129)
        assert abs(a.y[0] - b.y[0]) == pytest.approx(3.5, abs=1e-12)

    def test_stochastic_member_mean(self, power1):
        grid = bl.TimeGrid(points=np.linspace(0, 1, 21), cap_index=19)
        m = 100_000
        bundle = bl.simulate_paths(grid, 1, m, seed=77)
        beta = np.ones(20)
        fam = bl.fundamental_family(power1, 3.0, grid, beta=beta, bundle=bundle)
        i = 10
        target = 3.0 * float(power1.exp_minus_cumulative(0.5))
        damp = float(power1.exp_minus_cumulative(0.5))
        se = damp * math.sqrt(0.5 / m)    # Var(int_0^.5 dW) = 0.5
        assert abs(fam.y[:, i].mean() - target) < 4.0 * se
        # Z = e^{-Lam} beta on the left nodes
        assert fam.z[i] == pytest.approx(damp, rel=1e-12)

    def test_non_singular_rejected(self):
        m = bl.IntensityModel.bounded(1.0, 1.0)
        grid = uniform_grid(11)
        with pytest.raises(ValueError):
            bl.fundamental_family(m, 1.0, grid)


class TestClassifyOde:
    def test_intensity_multiple_limit(self, power1):
        coeff = bl.CoefficientProcess.intensity_multiple(2.0, power1)
        out = bl.classify_ode(power1, coeff, tolerance=1e-6)
        assert out.converges
        assert abs(out.limit - 2.0) < 1e-6

    def test_zero_coefficient(self, power1):
        out = bl.classify_ode(power1, bl.CoefficientProcess.constant(0.0, 1.0),
                              tolerance=1e-6)
        assert out.converges and out.limit == 0.0

    def test_integrable_coefficient_limit_zero(self, power1):
        out = bl.classify_ode(power1, bl.CoefficientProcess.constant(1.0, 1.0),
                              tolerance=1e-6)
        assert out.converges
        assert abs(out.limit) < 1e-6

    def test_oscillating_diverges(self, power1):
        def osc(t):
            t = np.asarray(t, dtype=float)
            return np.asarray(power1.value(t)) * np.cos(np.asarray(power1.cumulative(t)))
        out = bl.classify_ode(power1, osc, tolerance=1e-6)
        assert not out.converges

    def test_programming_error_in_coefficient_surfaces(self, power1):
        def broken(t):
            raise TypeError("coefficient bug")
        with pytest.raises(TypeError, match="coefficient bug"):
            bl.classify_ode(power1, broken, tolerance=1e-6)

    def test_arithmetic_breakdown_rewrapped(self, power1):
        def overflowing(t):
            raise OverflowError("coefficient overflow")
        with pytest.raises(NumericsError, match="prefix integral failed"):
            bl.classify_ode(power1, overflowing, tolerance=1e-6)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_nonfinite_prefix_is_a_numerics_error(self, power1, c):
        coeff = bl.CoefficientProcess.intensity_multiple(c, power1)
        with pytest.raises(NumericsError, match="prefix integral is (nan|inf)"):
            bl.classify_ode(power1, coeff, tolerance=1e-6)

    @pytest.mark.parametrize("tol", [math.nan, -1e-6])
    def test_nan_or_negative_tolerance_rejected(self, power1, tol):
        coeff = bl.CoefficientProcess.intensity_multiple(2.0, power1)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            bl.classify_ode(power1, coeff, tolerance=tol)

    def test_zero_tolerance_is_valid(self, power1):
        out = bl.classify_ode(power1, bl.CoefficientProcess.constant(0.0, 1.0),
                              tolerance=0.0)
        assert out.converges and out.limit == 0.0


class TestOdeFamilyMember:
    def test_linear_member(self, power1, grid129):
        coeff = bl.CoefficientProcess.intensity_multiple(2.0, power1)
        member = bl.ode_family_member(power1, coeff, 0.0, grid129,
                                      bl.classify_ode(power1, coeff, 1e-6))
        cap = grid129.cap_index
        assert np.max(np.abs(member.y[:cap + 1] - 2.0 * grid129.points[:cap + 1])) < 1e-10
        assert member.y[-1] == pytest.approx(2.0, abs=1e-6)

    def test_pure_damping_member(self, power1, grid129):
        coeff = bl.CoefficientProcess.constant(0.0, 1.0)
        member = bl.ode_family_member(
            power1, coeff, 5.0, grid129, bl.classify_ode(power1, coeff, 1e-6))
        cap = grid129.cap_index
        expected = 5.0 * np.asarray(power1.exp_minus_cumulative(grid129.points))
        assert np.max(np.abs(member.y[:cap + 1] - expected[:cap + 1])) < 1e-12
        assert member.y[-1] == pytest.approx(0.0, abs=1e-9)

    def test_distinct_members_same_terminal(self, power1, grid129):
        coeff = bl.CoefficientProcess.intensity_multiple(2.0, power1)
        classification = bl.classify_ode(power1, coeff, 1e-6)
        m0 = bl.ode_family_member(power1, coeff, 0.0, grid129, classification)
        m1 = bl.ode_family_member(power1, coeff, 1.0, grid129, classification)
        cap = grid129.cap_index
        # members are 2t and 1 + t: the gap is 1 - t, positive before T
        gaps = m1.y[:cap + 1] - m0.y[:cap + 1]
        assert np.allclose(gaps, 1.0 - grid129.points[:cap + 1], atol=1e-10)
        assert np.all(gaps > 0)
        assert m0.y[-1] == m1.y[-1]

    def test_time_function_member_closed_form(self, power1, grid129):
        # phi = 1 - t on lam = 1 / (1 - t): Y = (1 - t) (y0 + t), so y0 = -1 is
        # the member -(1 - t)^2 that vanishes at T
        coeff = bl.CoefficientProcess.from_function(lambda t: 1.0 - t, 1.0)
        member = bl.ode_family_member(power1, coeff, -1.0, grid129,
                                      bl.classify_ode(power1, coeff, 1e-6))
        cap = grid129.cap_index
        exact = -(1.0 - grid129.points) ** 2
        assert np.max(np.abs(member.y[:cap + 1] - exact[:cap + 1])) < 1e-12
        assert member.y[-1] == pytest.approx(0.0, abs=1e-9)

    def test_divergent_case_is_domain_error(self, power1, grid129):
        def osc(t):
            t = np.asarray(t, dtype=float)
            return np.asarray(power1.value(t)) * np.cos(np.asarray(power1.cumulative(t)))
        classification = bl.classify_ode(power1, osc, 1e-6)
        with pytest.raises(ValueError):
            bl.ode_family_member(power1, osc, 0.0, grid129, classification)


class TestAffinePlusWithSlope:
    def test_y_slope_matches_direct_quadrature(self, power1):
        # independent oracle in time coordinates: the slope adds to the intensity,
        # Y(t) = -int_t^T [(1-s)/(1-t)] exp(-b (s-t)) phi ds for the unit-power model
        grid = bl.make_grid(power1, 65, mass_cap=8.0)
        b = 0.6
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y, y_slope=b)
        sol = bl.solve_affine_plus(prob, grid)
        for i in (0, 20, 40):
            t = grid.points[i]
            ref, _ = quad(lambda s: (1.0 - s) / (1.0 - t) * math.exp(-b * (s - t)),
                          t, 1.0, epsabs=1e-12, limit=200)
            assert sol.y[i] == pytest.approx(-ref, abs=1e-9)

    def test_y_slope_solution_solves_the_ode(self, power1):
        # substitution residual: dY/dt = phi + (lam + b) Y along the values
        grid = bl.make_grid(power1, 201, mass_cap=8.0)
        b = -0.4
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.PLUS_LAMBDA_Y, y_slope=b)
        sol = bl.solve_affine_plus(prob, grid)
        rep = bl.residual_check(sol, prob)
        assert rep.max_residual < 1e-5
