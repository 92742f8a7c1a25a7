import math

import numpy as np
import pytest

import bsdelab as bl
from bsdelab.errors import NoSolution


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


def theorem_problem(model, driver, phi_value=1.0, terminal=0.0):
    return bl.BsdeProblem(
        intensity=model,
        coefficient=bl.CoefficientProcess.constant(phi_value, model.horizon),
        sign=bl.NONLINEAR_PLUS, driver=driver,
        terminal=bl.TerminalSpec.constant(terminal))


class TestTruncate:
    def test_identity_clip(self):
        tr = bl.truncate(bl.DriverSpec.identity(), 1.0, 1.0)
        xs = np.array([-3.0, -1.0, -0.25, 0.0])
        assert np.allclose(tr.f(xs), np.maximum(xs, -1.0))

    def test_exp_utility_clip_values(self):
        tr = bl.truncate(bl.DriverSpec.exp_utility(1.0), 1.0, 1.0)
        # frozen: f(-1) = 1 - e, f'(-1) = e
        assert float(tr.f(-2.0)) == pytest.approx(1.0 - math.e, abs=1e-12)
        assert float(tr.f(0.0)) == 0.0

    def test_degenerate_bound(self):
        tr = bl.truncate(bl.DriverSpec.exp_utility(2.0), 0.0, 1.0)
        xs = np.linspace(-5.0, 0.0, 11)
        assert np.allclose(tr.f(xs), 0.0)

    def test_flags_required(self):
        with pytest.raises(ValueError):
            bl.truncate(bl.DriverSpec.neg_identity(), 1.0, 1.0)

    @pytest.mark.parametrize("driver", [bl.DriverSpec.exp_utility(1.5),
                                        bl.DriverSpec.identity()])
    def test_clipped_spec_is_the_clip_expressions_bit_for_bit(self, driver):
        # f(max(x, L)) and f' zeroed below L, at L = -2, on x below, at and above L
        clip = -2.0
        tr = bl.truncate(driver, 2.0, 1.0)
        assert isinstance(tr, bl.DriverSpec)
        xs = np.array([[-50.0, -3.0, -2.0 - 1e-12, -2.0],
                       [-2.0 + 1e-12, -1.0, -0.0, 0.5]])
        inside = xs >= clip
        want_f = driver.f(np.maximum(xs, clip))
        want_fprime = np.where(inside, driver.fprime(np.maximum(xs, clip)), 0.0)
        joint_f, joint_fprime = driver.f_fprime(np.maximum(xs, clip))
        want_joint = (joint_f, np.where(inside, joint_fprime, 0.0))
        assert tr.f(xs).tobytes() == want_f.tobytes()
        assert tr.fprime(xs).tobytes() == want_fprime.tobytes()
        out = (np.empty_like(xs), np.empty_like(xs))
        aliased = (xs.copy(), np.empty_like(xs))
        for got in (tr.f_fprime(xs), tr.f_fprime(xs, out=out),
                    tr.f_fprime(aliased[0], out=aliased)):
            for g, w in zip(got, want_joint):
                assert np.asarray(g).tobytes() == w.tobytes()
        assert np.all(want_joint[1][~inside] == 0.0)

    @pytest.mark.parametrize("driver", [bl.DriverSpec.identity(),
                                        bl.DriverSpec.exp_utility(1.5)])
    @pytest.mark.parametrize("aliased", [False, True], ids=["out", "x_is_out0"])
    def test_joint_into_out_matches_f_and_fprime_on_nan(self, driver, aliased):
        # below, at and above L = -2, and NaN, whose f' is 0 like a value below L
        clip = -2.0
        tr = bl.truncate(driver, 2.0, 1.0)
        xs = np.array([[-50.0, -2.0 - 1e-12, -2.0, np.nan],
                       [np.nan, -2.0 + 1e-12, -1.0, 0.5]])
        want_f, want_fprime = tr.f(xs), tr.fprime(xs)
        out = (xs.copy() if aliased else np.empty_like(xs), np.empty_like(xs))
        assert tr.f_fprime(out[0] if aliased else xs, out=out) is out
        # bit for bit the joint form without ``out``, up to the sign of a NaN
        for got, want in zip(out, tr.f_fprime(xs)):
            assert np.isnan(got).tolist() == np.isnan(want).tolist()
            assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
        # exp_utility's joint f' is 1 + expm1, within an ulp of fprime's exp
        np.testing.assert_allclose(out[0], want_f, rtol=4e-16, atol=0.0)
        np.testing.assert_allclose(out[1], want_fprime, rtol=4e-16, atol=0.0)
        outside = ~(xs >= clip)
        assert out[1][outside].tobytes() == np.zeros(outside.sum()).tobytes()
        assert np.isnan(out[0]).tolist() == np.isnan(xs).tolist()


class TestRunScheme:
    def test_zero_coefficient_gives_zero(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0), phi_value=0.0)
        report = bl.run_scheme(prob, grid, [2, 4, 8], config=bl.SchemeConfig(tol=1e-6))
        # every level, read off the sweep's per-level extremes
        assert len(report.y_min) == len(report.y_max) == 3
        for lo, hi in zip(report.y_min, report.y_max):
            assert max(abs(lo), abs(hi)) == 0.0
        assert report.converged

    def test_identity_matches_affine_closed_form(self, power1):
        # independent oracle: the affine representation -(1-t)/2
        grid = bl.make_grid(power1, 241, mass_cap=5.0)
        prob = theorem_problem(power1, bl.DriverSpec.identity())
        report = bl.run_scheme(prob, grid, [2 ** k for k in range(1, 9)],
                               config=bl.SchemeConfig(tol=1e-3))
        cap = grid.cap_index
        exact = -(1.0 - grid.points) / 2.0
        last = report.final
        assert np.max(np.abs(last.y[:cap + 1] - exact[:cap + 1])) <= 1e-4
        assert report.monotone_violation <= 1e-10
        assert report.bounds_ok

    def test_exp_utility_certified_run(self, power1):
        grid = bl.make_grid(power1, 241, mass_cap=12.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        report = bl.run_scheme(prob, grid, [2 ** k for k in range(1, 10)],
                               config=bl.SchemeConfig(tol=1e-2))
        assert report.monotone_violation <= 1e-10
        assert report.box_violation <= 1e-10
        gaps = report.cauchy_gaps
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert report.converged

    def test_terminal_continuity(self, power1):
        # |Y^n(T - eps)| <= eps * sup phi near the cap, for the last level
        grid = bl.make_grid(power1, 241, mass_cap=12.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        report = bl.run_scheme(prob, grid, [64, 128, 256],
                               config=bl.SchemeConfig(tol=1.0))
        last = report.final
        tail = slice(grid.cap_index - 5, grid.cap_index + 1)
        eps = 1.0 - grid.points[tail]
        assert np.all(np.abs(last.y[tail]) <= eps * 1.0 + 1e-12)

    def test_nonzero_terminal_rejected(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0), terminal=-0.5)
        with pytest.raises(NoSolution):
            bl.run_scheme(prob, grid, [2, 4], config=bl.SchemeConfig())

    def test_not_converged_is_a_state(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        report = bl.run_scheme(prob, grid, [2, 4], config=bl.SchemeConfig(tol=1e-9))
        assert not report.converged
        assert report.status == "not_converged"

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tolerance_rejected(self, power1, tol):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            bl.run_scheme(prob, grid, [2, 4], config=bl.SchemeConfig(tol=tol))

    @pytest.mark.parametrize("schedule,error", [
        ([0, 4], "truncation levels must be finite and positive"),
        ([2, math.nan], "truncation levels must be finite and positive"),
        ([2, math.inf], "truncation levels must be finite and positive"),
        ([4, 2], "schedule must be increasing"),
        ([4], "schedule must be increasing with at least two levels"),
    ])
    def test_malformed_schedule_named(self, power1, schedule, error):
        grid = bl.make_grid(power1, 21, mass_cap=10.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        with pytest.raises(ValueError, match=error):
            bl.run_scheme(prob, grid, schedule, config=bl.SchemeConfig())

    def test_y_slope_has_no_box_to_clip_at(self, power1):
        # the driver is clipped at the box's lower end, which a y-slope voids
        grid = bl.make_grid(power1, 21, mass_cap=10.0)
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
            sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0), y_slope=-3.0)
        with pytest.raises(ValueError, match="a-priori box"):
            bl.run_scheme(prob, grid, [2, 4], config=bl.SchemeConfig())

    def test_mc_mode_runs_and_matches_ode(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        bundle = bl.simulate_paths(grid, 1, 30_000, seed=17)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        cfg = bl.SchemeConfig(tol=5e-2, bundle=bundle)
        rep_mc = bl.run_scheme(prob, grid, [4, 8, 16], config=cfg)
        rep_ode = bl.run_scheme(prob, grid, [4, 8, 16],
                                config=bl.SchemeConfig(tol=5e-2))
        assert rep_mc.monotone_violation <= 0.0 + 1e-12
        diff = np.abs(rep_mc.final.y - rep_ode.final.y)
        assert np.max(diff) < 2e-2
        assert rep_mc.bmo_estimate >= 0.0


class TestFunctionals:
    def test_bmo_zero_in_ode_mode(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        sol = bl.solve_ode_mode(prob, grid, lambda_cap=8.0,
                                driver_override=bl.truncate(
                                    prob.driver, 1.0, 1.0))
        est = bl.estimate_bmo(sol, None)
        assert est.value == 0.0

    def test_bmo_zero_coefficient_noise_floor(self, power1):
        grid = bl.make_grid(power1, 41, mass_cap=8.0)
        bundle = bl.simulate_paths(grid, 1, 20_000, seed=23)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0), phi_value=0.0)
        sol = bl.solve_regression_mc(prob, grid, bundle, lambda_cap=8.0,
                                     driver_override=bl.truncate(
                                         prob.driver, 0.0, 1.0))
        est = bl.estimate_bmo(sol, bundle)
        assert est.value < 1e-6

    def test_lambda_f_mass_zero_coefficient(self, power1):
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0), phi_value=0.0)
        sol = bl.solve_ode_mode(prob, grid, lambda_cap=16.0,
                                driver_override=bl.truncate(
                                    prob.driver, 0.0, 1.0))
        assert bl.estimate_lambda_f_integral(sol) == 0.0

    def test_lambda_f_mass_bounded_identity(self, power1):
        # rearrangement oracle: int lam^n |f| = |Y^n_0 + int phi| for these data
        grid = bl.make_grid(power1, 241, mass_cap=12.0)
        prob = theorem_problem(power1, bl.DriverSpec.identity())
        clipped = bl.truncate(prob.driver, 1.0, 1.0)
        values = []
        for n in (16.0, 64.0, 256.0):
            sol = bl.solve_ode_mode(prob, grid, lambda_cap=n, driver_override=clipped)
            mass = bl.estimate_lambda_f_integral(sol)
            rearranged = abs(sol.y[0] + 1.0)     # Y_0 + int_0^1 phi dt
            assert abs(mass - rearranged) < 5e-3
            values.append(mass)
            assert mass <= abs(sol.y[0]) + 1.0 + 0.05
        assert values == sorted(values)

    def test_lambda_f_mass_bounded_exp_utility(self, power1):
        grid = bl.make_grid(power1, 241, mass_cap=12.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        clipped = bl.truncate(prob.driver, 1.0, 1.0)
        sol = bl.solve_ode_mode(prob, grid, lambda_cap=256.0, driver_override=clipped)
        mass = bl.estimate_lambda_f_integral(sol)
        assert mass <= abs(sol.y[0]) + 1.0 + 0.05


    def test_lambda_f_mass_needs_a_level_on_a_singular_intensity(self, power1):
        # a family member carries no truncation level; lam is infinite at T
        grid = bl.make_grid(power1, 61, mass_cap=10.0)
        member = bl.fundamental_family(power1, 1.0, grid)
        prob = bl.BsdeProblem(intensity=power1,
                              coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
                              sign=bl.MINUS_LAMBDA_Y)
        sol = bl.SolutionEstimate(grid=grid, y=member.y, z=member.z,
                                  mode="ode_exact", problem=prob)
        with pytest.raises(ValueError, match="needs a truncation level"):
            bl.estimate_lambda_f_integral(sol)
        assert bl.estimate_lambda_f_integral(sol, level=16.0) > 0.0

    def test_path_functionals_reject_a_scheme_top_level_of_nodal_means(self, power1):
        # a Monte Carlo report's final holds per-node means, not paths: f of the
        # mean Y is not the mean of f(Y), there is no Z per path to regress, and
        # no paired difference whose standard error bounds an ordering
        grid = bl.make_grid(power1, 21, mass_cap=10.0)
        bundle = bl.simulate_paths(grid, 1, 2000, seed=19)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        report = bl.run_scheme(prob, grid, [2.0, 4.0],
                               config=bl.SchemeConfig(tol=1.0, bundle=bundle))
        final = report.final
        assert final.mode == "regression_mc" and final.y.shape == (grid.n_points,)
        with pytest.raises(ValueError, match="needs the solution's paths"):
            bl.estimate_bmo(final, bundle)
        with pytest.raises(ValueError, match="needs the solution's paths"):
            bl.estimate_lambda_f_integral(final)
        with pytest.raises(ValueError, match="needs the solution's paths"):
            bl.estimate_lambda_f_integral(final, level=4.0)
        ode = bl.run_scheme(prob, grid, [2.0, 4.0], config=bl.SchemeConfig(tol=1.0)).final
        for pair in ((final, final), (ode, final), (final, ode)):
            with pytest.raises(ValueError, match="needs the solutions' paths"):
                bl.comparison_check(*pair)

    @pytest.mark.parametrize("coefficient", ["constant", "markovian"])
    def test_residual_check_rejects_a_scheme_top_level_of_nodal_means(self, power1,
                                                                      coefficient):
        # the means are neither one deterministic path nor the paths of the
        # Ito term; an ODE top level is one deterministic path and is checked
        grid = bl.make_grid(power1, 21, mass_cap=10.0)
        bundle = bl.simulate_paths(grid, 1, 2000, seed=19)
        phi = bl.CoefficientProcess.constant(1.0, 1.0) if coefficient == "constant" else \
            bl.CoefficientProcess.markovian(lambda t, w: 1.0 + 0.5 * np.tanh(w) * (1.0 - t),
                                            1.0, 1.5, nonnegative=True)
        prob = bl.BsdeProblem(intensity=power1, coefficient=phi, sign=bl.NONLINEAR_PLUS,
                              driver=bl.DriverSpec.exp_utility(1.0))
        final = bl.run_scheme(prob, grid, [2.0, 4.0], config=bl.SchemeConfig(
            tol=1.0, bundle=bundle)).final
        for given in (None, bundle):
            with pytest.raises(ValueError, match="needs the solution's paths"):
                bl.residual_check(final, prob, bundle=given)
        if coefficient == "constant":
            ode = bl.run_scheme(prob, grid, [2.0, 4.0], config=bl.SchemeConfig(tol=1.0)).final
            report = bl.residual_check(ode, prob)
            assert math.isfinite(report.max_residual) and report.terminal_gap == 0.0


class TestMonotoneViolation:
    def test_mc_value_is_the_two_pass_formula(self, power1):
        # the paired difference is formed once; the value must not move a bit
        grid = bl.make_grid(power1, 41, mass_cap=8.0)
        bundle = bl.simulate_paths(grid, 1, 4000, seed=31)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        clipped = bl.truncate(prob.driver, 1.0, 1.0)
        lo, hi = bl.backward_sweep(prob, grid, [4.0, 8.0], bundle=bundle,
                                   driver_override=clipped)
        for a, b in ((lo, hi), (hi, lo)):
            mean = (a.y - b.y).mean(axis=0)
            stderr = (a.y - b.y).std(axis=0) / math.sqrt(a.y.shape[0])
            assert bl.comparison_check(a, b).max_violation == float(np.max(mean - 3.0 * stderr))

    def test_ode_value_is_the_exact_difference(self, power1):
        # one deterministic path: no standard error, the tolerance as given
        grid = bl.make_grid(power1, 41, mass_cap=8.0)
        prob = theorem_problem(power1, bl.DriverSpec.exp_utility(1.0))
        clipped = bl.truncate(prob.driver, 1.0, 1.0)
        lo, hi = bl.backward_sweep(prob, grid, [4.0, 8.0], driver_override=clipped)
        for a, b in ((lo, hi), (hi, lo)):
            for tolerance, t in ((None, 0.0), (1e-6, 1e-6)):
                rep = bl.comparison_check(a, b, tolerance=tolerance)
                assert rep.max_violation == float(np.max(a.y - b.y - t))
                assert rep.tolerance == t
