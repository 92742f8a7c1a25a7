"""Differential tests: the level-stacked backward sweep against the per-level
reference solvers in ``per_level_reference``."""

import numpy as np
import pytest

import bsdelab as bl
from bsdelab import lipschitz_solver
from bsdelab.errors import NumericsError

import per_level_reference as ref
import stored_scheme_reference
from test_paths import uniform_grid


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


@pytest.fixture(scope="module")
def markovian_case(power1):
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    coeff = bl.CoefficientProcess.markovian(
        lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
    prob = bl.BsdeProblem(intensity=power1, coefficient=coeff,
                          sign=bl.NONLINEAR_PLUS,
                          driver=bl.DriverSpec.exp_utility(1.0))
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=3)
    schedule = [2.0 ** k for k in range(1, 7)]
    return prob, grid, bundle, clipped, schedule


def _arctan_driver():
    # Newton on y + k atan(y) = r overshoots and cycles for large k, so the
    # implicit step has to fall back to its bracket
    return bl.DriverSpec(name="arctan",
                         f=lambda x: np.arctan(np.asarray(x, dtype=float)),
                         fprime=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2),
                         zero_at_zero=True, nondecreasing=True)


def _arctan_problem():
    model = bl.IntensityModel.bounded(2000.0, 1.0)
    grid = uniform_grid(11)
    prob = bl.BsdeProblem(intensity=model,
                          coefficient=bl.CoefficientProcess.constant(-50.0, 1.0),
                          sign=bl.NONLINEAR_PLUS, driver=_arctan_driver(),
                          terminal=bl.TerminalSpec.constant(30.0))
    return prob, grid


def test_ode_levels_match_reference(power1):
    # the schedule and grid of acceptance criterion 7
    grid = bl.make_grid(power1, 241, mass_cap=12.0)
    prob = bl.BsdeProblem(intensity=power1,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    schedule = [2.0 ** k for k in range(1, 16)]
    stacked = bl.backward_sweep(prob, grid, schedule, driver_override=clipped)
    assert [s.lambda_cap for s in stacked] == schedule
    for n, sol in zip(schedule, stacked):
        y_ref, resid_ref = ref.solve_ode_mode(prob, grid, lambda_cap=n,
                                              driver_override=clipped)
        assert sol.y.shape == y_ref.shape
        assert np.max(np.abs(sol.y - y_ref)) <= 1e-12
        assert sol.diagnostics["residual_max"] < bl.lipschitz_solver.NEWTON_TOL
        assert resid_ref < bl.lipschitz_solver.NEWTON_TOL


def test_mc_levels_match_reference(markovian_case):
    prob, grid, bundle, clipped, schedule = markovian_case
    stacked = bl.backward_sweep(prob, grid, schedule, bundle=bundle,
                                driver_override=clipped)
    for n, sol in zip(schedule, stacked):
        y_ref, z_ref, _ = ref.solve_regression_mc(prob, grid, bundle, lambda_cap=n,
                                                  driver_override=clipped)
        assert sol.y.shape == y_ref.shape and sol.z.shape == z_ref.shape
        assert np.max(np.abs(sol.y.mean(axis=0) - y_ref.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(sol.y - y_ref)) <= 1e-9
        assert np.max(np.abs(sol.z - z_ref)) <= 1e-9
        assert sol.diagnostics["residual_max"] < bl.lipschitz_solver.NEWTON_TOL


def test_scheme_level_equals_lone_solve(markovian_case):
    # run_scheme keeps the moments of its top level only; the levels' paths
    # are read from the stored-array reference, which runs the same sweep; the
    # lone solve runs the scheme's theta-step too
    prob, grid, bundle, clipped, schedule = markovian_case
    config = bl.SchemeConfig(tol=1.0, bundle=bundle)
    report = bl.run_scheme(prob, grid, schedule, config=config)
    stored = stored_scheme_reference.run_scheme(prob, grid, schedule, config=config)
    for k in (0, len(schedule) - 1):
        level = stored["solutions"][k]
        lone = stored_scheme_reference.scheme_sweep(prob, grid, [schedule[k]], bundle=bundle,
                                                    driver_override=clipped)[0]
        assert level.lambda_cap == schedule[k]
        assert np.max(np.abs(level.y - lone.y)) <= 1e-12
        assert np.max(np.abs(level.z - lone.z)) <= 1e-12
        assert abs(report.y0[k] - lone.diagnostics["y0_mean"]) <= 1e-12
    assert report.final.lambda_cap == schedule[-1]
    assert np.max(np.abs(report.final.y - lone.y.mean(axis=0))) <= 1e-12


def test_levels_are_views_of_one_buffer(markovian_case):
    prob, grid, bundle, clipped, schedule = markovian_case
    stacked = bl.backward_sweep(prob, grid, schedule[:2], bundle=bundle,
                                driver_override=clipped)
    assert stacked[0].y.base is not None
    assert stacked[0].y.base is stacked[1].y.base
    assert stacked[0].z.base is stacked[1].z.base


@pytest.mark.parametrize("mode", ["ode", "mc"])
def test_newton_fallback_matches_reference(mode, monkeypatch):
    prob, grid = _arctan_problem()
    fallbacks = []
    original = lipschitz_solver._bracket_and_bisect

    def counted(residual, start):
        fallbacks.append(start.size)
        return original(residual, start)

    monkeypatch.setattr(lipschitz_solver, "_bracket_and_bisect", counted)
    # deterministic data: every path carries the ODE solution.  The reference
    # regression solver finds no bracket on this case (its per-path search
    # widens by 1 per try from the diverged Newton iterate), so the scalar
    # reference is the oracle in both modes.
    y_ref, _ = ref.solve_ode_mode(prob, grid)
    if mode == "ode":
        sol = bl.solve_ode_mode(prob, grid)
    else:
        sol = bl.solve_regression_mc(prob, grid, bl.simulate_paths(grid, 1, 200, seed=5))
    assert fallbacks, "the case no longer exercises the bracket fallback"
    assert sol.diagnostics["residual_max"] < bl.lipschitz_solver.NEWTON_TOL
    assert np.max(np.abs(sol.y - y_ref)) <= 1e-11


def test_raw_box_excursion_exceeds_clamped(markovian_case):
    # tail paths of a cubic fit leave the a-priori box; the clamp pulls them
    # back, and the raw excursion is recorded before it does
    prob, grid, bundle, clipped, _ = markovian_case
    margin = 1e-3
    sol = bl.solve_regression_mc(prob, grid, bundle, lambda_cap=8.0,
                                 driver_override=clipped, clamp_margin=margin)
    lower = -(grid.horizon - grid.points) * prob.coefficient.sup_norm
    clamped = max(float(np.max(sol.y)), float(np.max(lower[None, :] - sol.y)), 0.0)
    raw = sol.diagnostics["box_excursion_raw"]
    assert clamped <= margin + 1e-12
    assert raw > clamped


def test_raw_box_excursion_is_the_ode_box_violation(power1):
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    prob = bl.BsdeProblem(intensity=power1,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))
    report = bl.run_scheme(prob, grid, [2, 4, 8], config=bl.SchemeConfig(tol=1.0))
    raw = max(report.box_excursion_raw)
    assert raw == report.box_violation


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_monotone_step_raises(power1):
    # power_gap: lam(t_cap) (T - t_cap) = p, so with p = 1 the minus-form step
    # on the last segment divides by 1 - dt lam = 0
    grid = bl.make_grid(power1, 9, mass_cap=0.5)
    prob = bl.BsdeProblem(intensity=power1,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
    with pytest.raises(NumericsError, match="not monotone"):
        lipschitz_solver.backward_sweep(prob, grid, [2.0, 4.0])
    # a finer last segment keeps dt lam below 1 and the step monotone
    fine = bl.make_grid(power1, 9, mass_cap=12.0)
    lipschitz_solver.backward_sweep(prob, fine, [2.0, 4.0])


def test_mc_box_certificate_reads_the_raw_excursion(markovian_case):
    # the clamp keeps the stored values within clamp_margin of the box; the
    # certificate must read the excursion before it, so here it fails
    prob, grid, bundle, _, schedule = markovian_case
    config = bl.SchemeConfig(tol=1.0, bundle=bundle)
    report = bl.run_scheme(prob, grid, schedule, config=config)
    raw = max(report.box_excursion_raw)
    assert report.box_violation == raw
    assert raw > config.clamp_margin
    assert not report.bounds_ok


def test_mc_diagnostics_carry_the_regression_condition_range(markovian_case, monkeypatch):
    # four chunks of 5000 paths, on one worker and on two
    monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", 5000)
    prob, grid, _, clipped, _ = markovian_case
    schedule = [2.0, 4.0]
    diagnostics = []
    for workers in (1, 2):
        bundle = bl.simulate_paths(grid, 1, 20_000, seed=3)
        report = bl.run_scheme(prob, grid, schedule,
                               config=bl.SchemeConfig(bundle=bundle, tol=1.0, workers=workers))
        cond_min = report.final.diagnostics["regression_cond_min"]
        cond_max = report.final.diagnostics["regression_cond_max"]
        assert 1.0 <= cond_min <= cond_max < lipschitz_solver._COND_LIMIT
        diagnostics.append(report.final.diagnostics)
    assert diagnostics[0] == diagnostics[1]
    # the range bounds every node's fit, whose condition the fit carries
    sweep = lipschitz_solver.NodeSweep(prob, grid, schedule, bundle=bundle,
                                       driver_override=clipped)
    conds = [node.fit.cond for node in sweep.nodes()
             if node.fit is not None and node.fit.cond is not None]
    assert len(conds) == len(grid.points) - 2       # node 0 is W_0 = 0: no regression
    assert (min(conds), max(conds)) == (diagnostics[0]["regression_cond_min"],
                                        diagnostics[0]["regression_cond_max"])
