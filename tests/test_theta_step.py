"""The theta-step of the scheme's backward sweep: its distance to the
continuous equation, the monotone ordering of the levels, Monte Carlo against
ODE mode, the per-segment fallback to theta = 1, implicit Euler on the tail
segment, a scalar reference of the step, and the workspace invariant the
explicit half reads."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import bsdelab as bl
from bsdelab import cli, lipschitz_solver
from bsdelab.singular_scheme import SCHEME_THETA

import continuous_reference as cref
from stored_scheme_reference import scheme_sweep
from test_backward_sweep import _arctan_problem

SCHEDULE = [2.0 ** k for k in range(1, 9)]     # the nonlinear_exp default
DEFAULT_GRID = cli.SCENARIOS["nonlinear_exp"].defaults["n_grid"]
# the top-level sup gap of implicit Euler at the former 241-node default
IMPLICIT_EULER_GAP_241 = 5.8e-4


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


def _problem(model, alpha=1.0, b=0.0):
    return bl.BsdeProblem(intensity=model,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(alpha),
                          y_slope=b)


def _ode_report(model, n_grid, alpha=1.0):
    grid = bl.make_grid(model, n_grid, mass_cap=12.0)
    prob = _problem(model, alpha)
    return bl.run_scheme(prob, grid, SCHEDULE, config=bl.SchemeConfig()), prob


def test_default_grid_is_a_tenth_of_the_old_step_error(power1):
    report, prob = _ode_report(power1, DEFAULT_GRID)
    assert report.converged
    assert cref.top_level_gap(report.final, prob) <= IMPLICIT_EULER_GAP_241 / 10


def test_implicit_euler_on_the_default_grid_fails_that_bound(power1):
    grid = bl.make_grid(power1, DEFAULT_GRID, mass_cap=12.0)
    prob = _problem(power1)
    top = bl.backward_sweep(prob, grid, SCHEDULE,
                            driver_override=bl.truncate(prob.driver, 1.0, 1.0))[-1]
    assert cref.top_level_gap(top, prob) > 1e-4


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_reference_solves_a_level_crossing_inside_the_tail(p):
    # lam(t_cap) = p exp(12 / p) is 164 at p = 3 and 80 at p = 4: lam reaches the
    # top level 256 inside the tail segment, past every node the gap reads
    model = bl.IntensityModel.power_gap(p, 1.0)
    report, prob = _ode_report(model, DEFAULT_GRID)
    top = report.final
    assert cref.split_time(model, top.lambda_cap) > top.grid.t_cap
    assert cref.top_level_gap(top, prob) < 1e-3


@pytest.mark.parametrize("alpha", [1.0, 3.0])
@pytest.mark.parametrize("n_grid", [21, 31])
def test_levels_stay_exactly_monotone(power1, alpha, n_grid):
    report, _ = _ode_report(power1, n_grid, alpha)
    assert report.monotone_violation <= 1e-10
    assert report.bounds_ok
    assert report.final.diagnostics["theta_fallback_segments"] == 0


@pytest.mark.parametrize("alpha,n_grid", [(1.0, 5), (1.0, 9), (3.0, 11), (5.0, 21)])
def test_coarse_grid_falls_back_per_segment_and_stays_monotone(power1, alpha, n_grid):
    report, _ = _ode_report(power1, n_grid, alpha)
    fallbacks = report.final.diagnostics["theta_fallback_segments"]
    assert 0 < fallbacks < n_grid
    assert report.monotone_violation <= 1e-10
    assert report.bounds_ok


def test_mc_equals_ode_on_a_constant_coefficient(power1):
    grid = bl.make_grid(power1, DEFAULT_GRID, mass_cap=12.0)
    prob = _problem(power1)
    ode = bl.run_scheme(prob, grid, SCHEDULE, config=bl.SchemeConfig())
    mc = bl.run_scheme(prob, grid, SCHEDULE, config=bl.SchemeConfig(
        bundle=bl.simulate_paths(grid, 1, 2000, seed=4)))
    assert abs(float(mc.final.y[0]) - float(ode.final.y[0])) <= 1e-9
    assert mc.converged and ode.converged


def _reference_theta_sweep(problem, grid, cap, driver, theta):
    """The theta-step node by node in scalars, each implicit half by brentq, with
    the fallback to theta = 1 where the explicit half is not monotone and
    implicit Euler on the tail segment from t_cap to T."""
    pts = grid.points
    lam = problem.intensity.value(pts, cap)
    b = problem.y_slope

    def g(k, v):
        return float(problem.coefficient.value(pts[k])) + lam[k] * float(driver.f(v)) + b * v

    y = np.empty(len(pts))
    y[-1] = float(problem.terminal.values())
    for i in range(len(pts) - 2, -1, -1):
        dt = pts[i + 1] - pts[i]
        th = theta if i < grid.cap_index else 1.0
        if not 1.0 - (1.0 - th) * dt * (lam[i + 1] * float(driver.fprime(y[i + 1])) + b) >= 0:
            th = 1.0
        e = y[i + 1] - (1.0 - th) * dt * g(i + 1, y[i + 1])
        y[i] = brentq(lambda v: v - e + th * dt * g(i, v), e - 10.0, e + 10.0,
                      xtol=1e-16, rtol=4 * np.finfo(float).eps)
    return y


@pytest.mark.parametrize("n_grid,b,caps", [(31, 0.0, [4.0, 64.0, 256.0]),
                                           (31, 0.5, [4.0, 64.0, 256.0]),
                                           (9, 0.0, [256.0])])
def test_sweep_matches_the_scalar_theta_step(power1, n_grid, b, caps):
    grid = bl.make_grid(power1, n_grid, mass_cap=12.0)
    prob = _problem(power1, b=b)
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    sols = scheme_sweep(prob, grid, caps, driver_override=clipped)
    for cap, sol in zip(caps, sols):
        want = _reference_theta_sweep(prob, grid, cap, clipped, SCHEME_THETA)
        assert np.max(np.abs(sol.y - want)) <= 1e-12
    if n_grid == 9:
        assert sols[0].diagnostics["theta_fallback_segments"] > 0


@pytest.mark.parametrize("mass_cap", [5.0, 12.0])
def test_tail_segment_runs_implicit_euler(power1, mass_cap):
    # lam_n rises from lam(t_cap) to n inside [t_cap, T], where the grid does
    # not resolve it; the step there is implicit Euler's, bit for bit
    grid = bl.make_grid(power1, 31, mass_cap=mass_cap)
    prob = _problem(power1)
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    theta_step = scheme_sweep(prob, grid, SCHEDULE, driver_override=clipped)
    euler = bl.backward_sweep(prob, grid, SCHEDULE, driver_override=clipped)
    cap = grid.cap_index
    for a, b in zip(theta_step, euler):
        assert np.array_equal(a.y[cap:], b.y[cap:])
        assert not np.array_equal(a.y[:cap], b.y[:cap])


class WorkspaceAtTheRightNode:
    """Wraps the implicit step: at each call, the workspace must hold f and f'
    at the values the previous call returned (after any clamp)."""

    def __init__(self, monkeypatch, driver):
        self.step, self.driver = lipschitz_solver._implicit_step, driver
        self.previous, self.checked = None, 0
        monkeypatch.setattr(lipschitz_solver, "_implicit_step", self)

    def __call__(self, y_next, forcing, dt, lam, driver, b, work):
        if self.previous is not None:
            f, fprime = self.driver.f_fprime(self.previous)
            assert np.array_equal(work.f, f)
            assert np.array_equal(work.fprime, fprime)
            self.checked += 1
        out = self.step(y_next, forcing, dt, lam, driver, b, work)
        self.previous = out[0]
        return out


def test_workspace_is_refreshed_after_bisection(monkeypatch):
    prob, grid = _arctan_problem()
    check = WorkspaceAtTheRightNode(monkeypatch, prob.effective_driver())
    sweep = lipschitz_solver.NodeSweep(prob, grid, [None], theta=0.5)
    for _ in sweep.nodes():
        pass
    assert sweep.bisection_entries[0] > 0, "the case no longer falls back to bisection"
    assert check.checked == len(grid.points) - 2


def test_workspace_is_refreshed_after_the_clamp(power1, monkeypatch):
    # the Markovian fixture of test_backward_sweep: the regression moves the
    # values out of the box and the clamp pulls them back
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    prob = dataclasses.replace(_problem(power1), coefficient=bl.CoefficientProcess.markovian(
        lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True))
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    check = WorkspaceAtTheRightNode(monkeypatch, clipped)
    sweep = lipschitz_solver.NodeSweep(prob, grid, [2.0 ** k for k in range(1, 7)],
                                       bundle=bl.simulate_paths(grid, 1, 20_000, seed=1),
                                       driver_override=clipped, theta=0.5)
    for _ in sweep.nodes():
        pass
    assert np.max(sweep.box_excursion_raw) > sweep.clamp_margin, "the clamp no longer acts"
    assert check.checked == len(grid.points) - 2


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.5, math.nan])
def test_theta_outside_the_unit_interval_is_rejected(power1, theta):
    grid = bl.make_grid(power1, 9, mass_cap=12.0)
    with pytest.raises(ValueError, match="theta must lie in"):
        lipschitz_solver.NodeSweep(_problem(power1), grid, [4.0], theta=theta)


def test_theta_below_one_needs_no_z_slope(power1):
    grid = bl.make_grid(power1, 9, mass_cap=12.0)
    prob = dataclasses.replace(_problem(power1), z_slope=0.2)
    lipschitz_solver.NodeSweep(prob, grid, [4.0])
    with pytest.raises(ValueError, match="z_slope"):
        lipschitz_solver.NodeSweep(prob, grid, [4.0], theta=0.5)

