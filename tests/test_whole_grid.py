"""Differential tests: the whole-grid certificate and table code against the
per-node reference kept in ``per_node_reference``.

Every compared value must match bit for bit, except the integrability
estimate, which the reference sums node by node and the array path with one
``np.sum``: it is compared within a relative 1e-14.
"""

import dataclasses
import math

import numpy as np
import pytest

import bsdelab as bl
from bsdelab.cli import _solution_rows

import per_node_reference as ref
import stored_scheme_reference


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


def minus_problem(model, coefficient=None, **kwargs):
    return bl.BsdeProblem(
        intensity=model, sign=bl.MINUS_LAMBDA_Y,
        coefficient=coefficient or bl.CoefficientProcess.constant(0.0, model.horizon),
        **kwargs)


def ek_red_case():
    model = bl.IntensityModel.exp_gap(1.0, 1.0)
    grid = bl.make_grid(model, 2001, mass_cap=12.0)
    problem = minus_problem(model, y_slope=0.05, z_slope=0.2)
    return [(bl.fundamental_family(model, y0, grid, y_slope=0.05), problem, None)
            for y0 in (0.0, 1.0)]


def fundamental_minus_case():
    model = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(model, 129, mass_cap=12.0)
    return [(bl.fundamental_family(model, y0, grid), minus_problem(model), None)
            for y0 in (0.0, 1.0, 3.0)]


def ode_family_case():
    model = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(model, 129, mass_cap=12.0)
    coeff = bl.CoefficientProcess.intensity_multiple(2.0, model)
    problem = minus_problem(model, coeff, terminal=bl.TerminalSpec.constant(2.0))
    classification = bl.classify_ode(model, coeff, 1e-6)
    return [(bl.ode_family_member(model, coeff, y0, grid, classification), problem, None)
            for y0 in (0.0, 1.0)]


def stochastic_member_case():
    model = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(model, 101, mass_cap=10.0)
    bundle = bl.simulate_paths(grid, 1, 3000, seed=3)
    beta = np.linspace(0.5, 1.5, grid.n_points - 1)
    member = bl.fundamental_family(model, 1.0, grid, beta=beta, bundle=bundle)
    return [(member, minus_problem(model, bl.CoefficientProcess.constant(0.5, 1.0)), bundle)]


def regression_case():
    model = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(model, 41, mass_cap=8.0)
    bundle = bl.simulate_paths(grid, 1, 4000, seed=5)
    coeff = bl.CoefficientProcess.markovian(
        lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
    problem = bl.BsdeProblem(intensity=model, coefficient=coeff, sign=bl.NONLINEAR_PLUS,
                             driver=bl.DriverSpec.exp_utility(1.0))
    sol = bl.solve_regression_mc(problem, grid, bundle, lambda_cap=16.0,
                                 driver_override=bl.truncate(problem.driver, 1.0, 1.0))
    return [(sol, problem, bundle)]


CASES = {"ek_red": ek_red_case, "fundamental_minus": fundamental_minus_case,
         "ode_family": ode_family_case, "stochastic_member": stochastic_member_case,
         "regression_mc": regression_case}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def test_residual_check_matches_per_node(case):
    for candidate, problem, bundle in case:
        got = bl.residual_check(candidate, problem, bundle=bundle)
        want = ref.residual_check(candidate, problem, bundle=bundle)
        assert got.max_residual == want.max_residual
        assert got.terminal_gap == want.terminal_gap
        assert got.integrability_estimate == pytest.approx(
            want.integrability_estimate, rel=1e-14, abs=0.0)


def test_solution_rows_match_per_node(case):
    # the rows take per-node moments: a pathwise candidate's are reduced node
    # by node, as run_scheme folds its top level
    for candidate, _, _ in case:
        last = np.linspace(0.0, 1.0, candidate.grid.n_points)
        y_mean, y_sd, z_mean = stored_scheme_reference.node_moments(candidate)
        for z, moment, column in ((candidate.z, z_mean, None), (candidate.z, z_mean, last),
                                  (None, None, None)):
            got = _solution_rows(candidate.grid, y_mean, y_sd, moment, column)
            want = ref.solution_rows(candidate.grid, candidate.y, z, column)
            assert got == want


def test_lambda_f_integral_matches_per_node(case):
    for candidate, problem, _ in case:
        if not isinstance(candidate, bl.SolutionEstimate):
            candidate = bl.SolutionEstimate(grid=candidate.grid, y=candidate.y,
                                            z=candidate.z, mode="ode_exact",
                                            problem=problem)
        for level in (4.0, 64.0):
            assert bl.estimate_lambda_f_integral(candidate, level) == \
                ref.estimate_lambda_f_integral(candidate, level)


def test_lambda_f_integral_of_an_ode_solution(power1):
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    problem = bl.BsdeProblem(intensity=power1, sign=bl.NONLINEAR_PLUS,
                             coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                             driver=bl.DriverSpec.exp_utility(1.0))
    sol = bl.solve_ode_mode(problem, grid, lambda_cap=32.0)
    assert bl.estimate_lambda_f_integral(sol) == ref.estimate_lambda_f_integral(sol)


def test_markovian_representation_matches_per_node(power1):
    grid = bl.make_grid(power1, 31, mass_cap=8.0)
    bundle = bl.simulate_paths(grid, 1, 3000, seed=17)
    coeff = bl.CoefficientProcess.markovian(
        lambda t, w: np.cos(t) * np.tanh(w), 1.0, sup_norm=1.0)
    problem = bl.BsdeProblem(intensity=power1, coefficient=coeff, sign=bl.PLUS_LAMBDA_Y)
    got = bl.solve_affine_plus(problem, grid, bundle=bundle)
    want = ref.solve_affine_plus_markovian(problem, grid, bundle)
    assert np.array_equal(got.y, want.y)
    assert np.array_equal(got.z, want.z)
    assert got.bound_margin == want.bound_margin


def test_pathwise_candidate_needs_the_bundle(power1):
    grid = bl.make_grid(power1, 21, mass_cap=6.0)
    bundle = bl.simulate_paths(grid, 1, 50, seed=1)
    member = bl.fundamental_family(power1, 1.0, grid, beta=np.ones(grid.n_points - 1),
                                   bundle=bundle)
    with pytest.raises(ValueError, match="path bundle"):
        bl.residual_check(member, minus_problem(power1))


def test_corrupted_pathwise_member_detected(power1):
    grid = bl.make_grid(power1, 41, mass_cap=8.0)
    bundle = bl.simulate_paths(grid, 1, 500, seed=2)
    member = bl.fundamental_family(power1, 1.0, grid, beta=np.ones(grid.n_points - 1),
                                   bundle=bundle)
    corrupted = dataclasses.replace(member, y=member.y + 0.01)
    problem = minus_problem(power1)
    got = bl.residual_check(corrupted, problem, bundle=bundle)
    assert got.max_residual == ref.residual_check(corrupted, problem, bundle=bundle).max_residual
    assert got.max_residual > bl.residual_check(member, problem, bundle=bundle).max_residual
    assert got.terminal_gap == pytest.approx(0.01)


def test_markovian_coefficient_must_take_arrays():
    with pytest.raises(ValueError, match="arrays"):
        bl.CoefficientProcess.markovian(lambda t, w: math.tanh(w), 1.0, sup_norm=1.0)


def test_nan_member_fails_the_certificate(power1, monkeypatch):
    # the per-node maximum skipped a NaN residual and reported 0.0; the
    # whole-grid one reports NaN, and the certificate rejects it
    grid = bl.make_grid(power1, 33, mass_cap=8.0)
    real = bl.fundamental_family

    def member_with_a_nan(model, y0, grid, **kwargs):
        member = real(model, y0, grid, **kwargs)
        y = member.y.copy()
        y[5] = np.nan
        return dataclasses.replace(member, y=y)

    monkeypatch.setattr("bsdelab.diagnostics.fundamental_family", member_with_a_nan)
    with np.errstate(invalid="ignore"):
        assert math.isnan(bl.residual_check(member_with_a_nan(power1, 1.0, grid),
                                            minus_problem(power1)).max_residual)
        with pytest.raises(bl.errors.CertificateFailed, match="fails verification"):
            bl.certify_nonuniqueness(bl.FundamentalMinus(model=power1, y0_list=(0.0, 1.0)),
                                     grid)
