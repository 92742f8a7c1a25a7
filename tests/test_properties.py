"""Property-based checks of the structural invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

import bsdelab as bl

positive = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)


def model_for(kind, param, horizon=1.0):
    if kind == "power":
        return bl.IntensityModel.power_gap(param, horizon)
    if kind == "exp":
        return bl.IntensityModel.exp_gap(param, horizon)
    return bl.IntensityModel.bounded(param, horizon)


@given(kind=st.sampled_from(["power", "exp", "bounded"]), param=positive)
@settings(max_examples=40, deadline=None)
def test_cumulative_mass_nondecreasing(kind, param):
    model = model_for(kind, param)
    ts = np.linspace(0.0, 0.999, 100)
    masses = np.array([model.cumulative(t) for t in ts])
    assert np.all(np.diff(masses) >= 0)


@given(kind=st.sampled_from(["power", "exp"]), param=positive, t=times)
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_quadrature(kind, param, t):
    model = model_for(kind, param)
    closed = float(model.cumulative(t))
    ref, _ = quad(lambda s: float(model.value(s)), 0.0, t,
                  epsabs=1e-12, epsrel=1e-12, limit=300)
    assert abs(closed - ref) < 1e-9


@given(kind=st.sampled_from(["power", "exp"]), param=positive)
@settings(max_examples=30, deadline=None)
def test_damping_factor_in_unit_interval(kind, param):
    model = model_for(kind, param)
    ts = np.linspace(0.0, 1.0, 64)
    vals = np.asarray(model.exp_minus_cumulative(ts))
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals[ts < 1.0] > 0.0)
    assert np.all(vals <= 1.0)


@given(kind=st.sampled_from(["power", "exp"]), param=positive,
       n=st.integers(min_value=5, max_value=60),
       cap=st.floats(min_value=1.0, max_value=12.0))
@settings(max_examples=25, deadline=None)
def test_grid_mass_increments_constant(kind, param, n, cap):
    model = model_for(kind, param)
    try:
        grid = bl.make_grid(model, n, mass_cap=cap)
    except bl.errors.InfeasibleGrid:
        assume(False)      # cap beyond the floating-point representable gap
    # the equal-mass property is resolvable while lam stays moderate at the cap
    assume(float(model.value(grid.t_cap)) <= 1e6)
    masses = np.array([model.cumulative(t) for t in grid.points[:grid.cap_index + 1]])
    incs = np.diff(masses)
    assert np.max(np.abs(incs - incs[0])) < 1e-9


@given(alpha=st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_exp_utility_flags_hold(alpha):
    d = bl.DriverSpec.exp_utility(alpha)
    assert d.flags_ok(-10.0, 10.0)


@given(a=st.floats(min_value=-5, max_value=5), b=st.floats(min_value=-5, max_value=5))
@settings(max_examples=30, deadline=None)
def test_family_linearity(a, b):
    model = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(model, 17, mass_cap=8.0)
    fa = bl.fundamental_family(model, a, grid)
    fb = bl.fundamental_family(model, b, grid)
    assert abs(fa.y[0] - fb.y[0]) == pytest.approx(abs(a - b), abs=1e-12)


@given(level=st.floats(min_value=0.5, max_value=200.0),
       phi=st.floats(min_value=0.0, max_value=3.0),
       alpha=st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_implicit_step_newton_residual(level, phi, alpha):
    # the implicit map has a unique root for monotone drivers; the solver must
    # certify it at the 1e-12 residual level on every node
    model = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(model, 31, mass_cap=8.0)
    prob = bl.BsdeProblem(
        intensity=model, coefficient=bl.CoefficientProcess.constant(phi, 1.0),
        sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(alpha))
    clipped = bl.truncate(prob.driver, phi, 1.0)
    sol = bl.solve_ode_mode(prob, grid, lambda_cap=level, driver_override=clipped)
    assert sol.diagnostics["residual_max"] < 1e-12


@given(y0=st.floats(min_value=-3, max_value=3),
       shift=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_distinct_starts_never_collide_before_horizon(y0, shift):
    model = bl.IntensityModel.exp_gap(1.0, 1.0)
    grid = bl.make_grid(model, 33, mass_cap=10.0)
    fa = bl.fundamental_family(model, y0, grid)
    fb = bl.fundamental_family(model, y0 + shift, grid)
    cap = grid.cap_index
    assert np.all(np.abs(fa.y[:cap + 1] - fb.y[:cap + 1]) > 0)


@given(kind=st.sampled_from(["power", "exp"]),
       param=st.floats(min_value=0.5, max_value=4.0),
       mass_cap=st.floats(min_value=0.25, max_value=16.0),
       n_grid=st.one_of(st.integers(min_value=3, max_value=17),     # coarse grids
                        st.integers(min_value=18, max_value=257)),
       phi=st.sampled_from([0.0, 1.0]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_nonexistence_witness_never_raises(kind, param, mass_cap, n_grid, phi, data):
    # any increasing schedule up to 256 whose lowest level lam(t_cap) exceeds:
    # the per-segment split keeps every implicit step monotone, so the witness
    # reports a series; an inconclusive one is allowed
    model = model_for(kind, param)
    try:
        grid = bl.make_grid(model, n_grid, mass_cap=mass_cap)
    except bl.errors.InfeasibleGrid:
        assume(False)
    lowest_max = min(float(model.value(grid.t_cap)), 256.0)
    low = data.draw(st.floats(min_value=0.0, max_value=lowest_max,
                              exclude_min=True, exclude_max=True), label="lowest level")
    rest = data.draw(st.lists(st.floats(min_value=low, max_value=256.0, exclude_min=True),
                              min_size=1, max_size=4, unique=True), label="higher levels")
    prob = bl.BsdeProblem(
        intensity=model, coefficient=bl.CoefficientProcess.constant(phi, 1.0),
        sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
    cert = bl.certify_nonexistence(prob, [low] + sorted(rest), grid)
    assert len(cert.growth_series) == 1 + len(rest)
