import math

import numpy as np
import pytest
from scipy.integrate import quad

import bsdelab as bl
from bsdelab.errors import InfeasibleGrid

from test_paths import uniform_grid


def quad_mass(model, t):
    """Independent oracle: adaptive quadrature of the raw intensity."""
    val, _ = quad(lambda s: float(model.value(s)), 0.0, t,
                  epsabs=1e-12, epsrel=1e-12, limit=400)
    return val


class TestCumulativeIntensity:
    def test_power_gap_at_zero(self):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        assert m.cumulative(0.0) == 0.0

    def test_power_gap_half_matches_quadrature(self):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        closed = m.cumulative(0.5)
        assert abs(closed - math.log(2)) < 1e-14
        assert abs(closed - quad_mass(m, 0.5)) < 1e-10

    def test_exp_gap_half_matches_quadrature(self):
        m = bl.IntensityModel.exp_gap(1.0, 1.0)
        closed = m.cumulative(0.5)
        # frozen from the antiderivative: ln[(1 - e^-1) / (1 - e^-0.5)]
        assert abs(closed - 0.4740769841801067) < 1e-12
        assert abs(closed - quad_mass(m, 0.5)) < 1e-10

    def test_bounded_is_linear(self):
        m = bl.IntensityModel.bounded(2.0, 1.0)
        assert m.cumulative(0.25) == pytest.approx(0.5, abs=1e-14)


class TestMakeGrid:
    def test_mass_equidistributed_example(self):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(m, 3, mass_cap=math.log(4))
        assert grid.points == pytest.approx([0.0, 0.5, 0.75, 1.0], abs=1e-9)
        assert grid.cap_index == 2
        assert grid.t_cap == pytest.approx(0.75, abs=1e-9)

    def test_uniform_two_points(self):
        grid = uniform_grid(2)
        assert list(grid.points) == [0.0, 1.0]

    def test_bounded_mass_infeasible(self):
        m = bl.IntensityModel.bounded(1.0, 1.0)
        with pytest.raises(InfeasibleGrid):
            bl.make_grid(m, 5, mass_cap=2.0)

    def test_mass_increments_constant(self):
        m = bl.IntensityModel.exp_gap(2.0, 1.0)
        grid = bl.make_grid(m, 41, mass_cap=10.0)
        masses = np.array([m.cumulative(t) for t in grid.points[:grid.cap_index + 1]])
        incs = np.diff(masses)
        assert np.max(np.abs(incs - incs[0])) < 1e-9


class TestDriverSpec:
    def test_identity_flags(self):
        d = bl.DriverSpec.identity()
        assert d.flags_ok(-10, 10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_exp_utility_flags(self, alpha):
        d = bl.DriverSpec.exp_utility(alpha)
        assert d.flags_ok(-10, 10)
        assert d.derivative_floor == 1.0
        assert float(d.f(0.0)) == 0.0
        # f' = exp(-alpha x) >= 1 on the negative axis
        xs = np.linspace(-10, 0, 101)
        assert np.all(np.asarray(d.fprime(xs)) >= 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_exp_utility_joint_form(self, alpha):
        # one expm1 for both: f bit for bit, f' = 1 + expm1 within an ulp of exp
        d = bl.DriverSpec.exp_utility(alpha)
        clipped = bl.truncate(d, 4.0, 1.0)     # clip at -4
        xs = np.linspace(-10.0, 0.0, 100_001)
        for driver in (d, clipped):
            f, fprime = driver.f_fprime(xs)
            separate = np.asarray(driver.fprime(xs))
            assert np.array_equal(f, driver.f(xs))
            assert np.all(np.abs(fprime - separate) <= np.spacing(separate))
        assert np.all(clipped.f_fprime(xs)[1][xs < -4.0] == 0.0)

    @pytest.mark.parametrize("name", ["exp_utility", "clipped", "identity"])
    @pytest.mark.parametrize("xs", [
        np.append(np.linspace(-10.0, 2.0, 1200), [np.nan, -4.0, 0.0, -0.0]),
        np.linspace(-3.9, 2.0, 1204)])          # nothing below the clip at -4
    def test_f_fprime_into_out_matches_the_allocating_form(self, name, xs):
        # bit for bit (NaN where NaN: its sign bit may differ), also when x
        # is the f buffer itself
        d = bl.DriverSpec.exp_utility(1.5)
        driver = {"exp_utility": d, "identity": bl.DriverSpec.identity(),
                  "clipped": bl.truncate(d, 4.0, 1.0)}[name]
        xs = xs.reshape(4, -1)
        want = driver.f_fprime(xs)
        out = (np.empty_like(xs), np.empty_like(xs))
        assert driver.f_fprime(xs, out=out) is out
        aliased = (xs.copy(), np.empty_like(xs))
        driver.f_fprime(aliased[0], out=aliased)
        for got in (out, aliased):
            for g, w in zip(got, want):
                nan = np.isnan(w)
                assert np.array_equal(np.isnan(g), nan)
                assert g[~nan].tobytes() == np.asarray(w)[~nan].tobytes()

    def test_f_fprime_without_joint_calls_both(self):
        d = bl.DriverSpec.identity()
        assert d.joint is None
        f, fprime = d.f_fprime(np.array([-2.0, 0.5]))
        assert f.tolist() == [-2.0, 0.5] and fprime.tolist() == [1.0, 1.0]

    def test_f_fprime_passes_out_to_joint_only_when_given(self):
        # a joint written as x -> (f, f') still serves the allocating form
        d = bl.DriverSpec(name="doubling", f=lambda x: 2.0 * x,
                          fprime=lambda x: np.full_like(x, 2.0),
                          joint=lambda x: (2.0 * x, np.full_like(x, 2.0)))
        f, fprime = d.f_fprime(np.array([-2.0, 0.5]))
        assert f.tolist() == [-4.0, 1.0] and fprime.tolist() == [2.0, 2.0]

    def test_neg_identity_is_nonincreasing(self):
        d = bl.DriverSpec.neg_identity()
        assert d.nonincreasing and not d.nondecreasing
        assert d.flags_ok(-10, 10)


class TestCoefficients:
    def test_exp_minus_mass_range(self):
        m = bl.IntensityModel.power_gap(2.0, 1.0)
        ts = np.linspace(0.0, 1.0, 101)
        vals = np.asarray(m.exp_minus_cumulative(ts))
        assert np.all(np.diff(vals) <= 0)
        assert vals[0] == 1.0 and vals[-1] == 0.0
        assert np.all(vals[:-1] > 0)

    def test_markovian_bound_checked(self):
        with pytest.raises(ValueError):
            bl.CoefficientProcess.markovian(lambda t, w: 2.0 + 0 * w, 1.0, sup_norm=1.0)

    def test_intensity_multiple_value(self):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        c = bl.CoefficientProcess.intensity_multiple(2.0, m)
        assert c.value(0.5) == pytest.approx(4.0)
        assert not c.nonnegative or c.value_const >= 0


class TestBsdeProblem:
    def test_nonlinear_requires_flags(self):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        phi = bl.CoefficientProcess.constant(1.0, 1.0)
        with pytest.raises(ValueError):
            bl.BsdeProblem(intensity=m, coefficient=phi, sign=bl.NONLINEAR_PLUS,
                           driver=bl.DriverSpec.neg_identity())   # zero terminal, wrong flags

    def test_flags_are_sampled_on_the_solution_box(self):
        # the solution lives in [-T sup phi, 0] = [-1, 0]: exp(-72 x) overflows
        # far below it, while a dip at -0.5 inside it still fails the check
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        phi = bl.CoefficientProcess.constant(1.0, 1.0)
        bl.BsdeProblem(intensity=m, coefficient=phi, sign=bl.NONLINEAR_PLUS,
                       driver=bl.DriverSpec.exp_utility(72.0))
        dip = bl.DriverSpec(
            name="dip",
            f=lambda x: x - 0.2 * np.maximum(0.0, 1.0 - np.abs(np.asarray(x) + 0.5) / 0.05),
            fprime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            zero_at_zero=True, nondecreasing=True, below_identity=True,
            derivative_floor=1.0)
        assert dip.check_flags(-1.0, 0.0) == {"zero_at_zero": True, "nondecreasing": False,
                                              "below_identity": True, "derivative_floor": True}
        with pytest.raises(ValueError, match="declared driver flags fail the sample check"):
            bl.BsdeProblem(intensity=m, coefficient=phi, sign=bl.NONLINEAR_PLUS, driver=dip)

    def test_nonlinear_requires_nonneg_coefficient(self):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        phi = bl.CoefficientProcess.constant(-1.0, 1.0)
        with pytest.raises(ValueError):
            bl.BsdeProblem(intensity=m, coefficient=phi, sign=bl.NONLINEAR_PLUS,
                           driver=bl.DriverSpec.exp_utility(1.0))

    def test_nonzero_terminal_allows_monotone_driver(self):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        phi = bl.CoefficientProcess.constant(1.0, 1.0)
        prob = bl.BsdeProblem(intensity=m, coefficient=phi, sign=bl.NONLINEAR_PLUS,
                              driver=bl.DriverSpec.neg_identity(),
                              terminal=bl.TerminalSpec.constant(-1.0))
        assert prob.terminal.value == -1.0


class TestBox:
    """``BsdeProblem.box``: the a-priori range of Y, w = (T - t) sup|phi|."""

    t = np.array([0.0, 0.25, 1.0])

    def _problem(self, phi, sign=bl.PLUS_LAMBDA_Y, **kw):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        if sign == bl.NONLINEAR_PLUS:
            kw.setdefault("driver", bl.DriverSpec.exp_utility(1.0))
        coeff = phi if isinstance(phi, bl.CoefficientProcess) \
            else bl.CoefficientProcess.constant(phi, 1.0)
        return bl.BsdeProblem(intensity=m, coefficient=coeff, sign=sign, **kw)

    @pytest.mark.parametrize("sign", [bl.PLUS_LAMBDA_Y, bl.NONLINEAR_PLUS])
    def test_nonnegative_phi_gives_the_lower_half(self, sign):
        lo, hi = self._problem(2.0, sign).box(self.t)
        assert np.array_equal(lo, [-2.0, -1.5, -0.0]) and np.array_equal(hi, [0.0] * 3)

    def test_signed_phi_under_the_plus_sign_gives_both_halves(self):
        lo, hi = self._problem(-2.0).box(self.t)
        assert np.array_equal(lo, [-2.0, -1.5, -0.0]) and np.array_equal(hi, [2.0, 1.5, 0.0])

    def test_scalar_time(self):
        lo, hi = self._problem(-2.0).box(0.25)
        assert (lo, hi) == (-1.5, 1.5)

    @pytest.mark.parametrize("case", ["y_slope", "terminal", "minus", "unbounded"])
    def test_no_box(self, case):
        m = bl.IntensityModel.power_gap(1.0, 1.0)
        problem = {
            "y_slope": lambda: self._problem(1.0, bl.NONLINEAR_PLUS, y_slope=-3.0),
            "terminal": lambda: self._problem(1.0, terminal=bl.TerminalSpec.constant(1.0)),
            "minus": lambda: self._problem(1.0, bl.MINUS_LAMBDA_Y),
            "unbounded": lambda: self._problem(
                bl.CoefficientProcess.intensity_multiple(1.0, m)),
        }[case]()
        assert problem.box(self.t) is None

    def test_z_slope_keeps_the_box(self):
        assert self._problem(1.0, z_slope=2.0).box(self.t) is not None

    def test_nan_sup_gives_a_nan_box(self):
        lo, hi = self._problem(math.nan).box(self.t)
        assert np.all(np.isnan(lo)) and np.all(np.isnan(hi))


class TestCoefficientBroadcast:
    @pytest.mark.parametrize("make", [
        lambda m: bl.CoefficientProcess.constant(0.7, 1.0),
        lambda m: bl.CoefficientProcess.from_function(lambda t: 1.0 + np.sin(t), 1.0),
        lambda m: bl.CoefficientProcess.intensity_multiple(2.0, m),
    ], ids=["constant", "time_function", "intensity_multiple"])
    def test_deterministic_value_broadcasts_over_w(self, make):
        coeff = make(bl.IntensityModel.power_gap(1.0, 1.0))
        at_t = coeff.value(0.3)
        assert type(at_t) is float
        assert coeff.value(0.3, 0.2) == at_t
        w = np.linspace(-1.0, 1.0, 5)
        spread = coeff.value(0.3, w)
        assert spread.shape == w.shape and spread.flags.writeable
        assert np.all(spread == at_t)
        ts = np.array([0.1, 0.5, 0.9])
        grid = coeff.value(ts, np.zeros((4, 3)))
        assert grid.shape == (4, 3)
        assert np.array_equal(grid, np.broadcast_to(coeff.value(ts), (4, 3)))
