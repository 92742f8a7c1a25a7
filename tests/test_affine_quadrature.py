"""The vectorized Gauss-Kronrod recursions of ``bsdelab.affine`` against scalar
QUADPACK, node by node.

The oracle is the per-node quadrature the library used before the recursions:
``scipy.integrate.quad`` over each node's own window in the mass coordinate,
evaluated one scalar point at a time.  Every value must agree within 1e-13.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import bsdelab as bl
from bsdelab import affine
from bsdelab.errors import NumericsError

from test_paths import uniform_grid

TOL = 1e-13
U_SPAN = affine.U_SPAN

MODELS = {
    "power_gap 0.5": bl.IntensityModel.power_gap(0.5, 1.0),
    "power_gap 1": bl.IntensityModel.power_gap(1.0, 1.0),
    "power_gap 2": bl.IntensityModel.power_gap(2.0, 1.0),
    "exp_gap 0.5": bl.IntensityModel.exp_gap(0.5, 1.0),
    "exp_gap 1": bl.IntensityModel.exp_gap(1.0, 1.0),
    "exp_gap 2": bl.IntensityModel.exp_gap(2.0, 1.0),
    "bounded, mass 20": bl.IntensityModel.bounded(20.0, 1.0),
    "bounded, mass 60": bl.IntensityModel.bounded(60.0, 1.0),
}
SINGULAR = [name for name, model in MODELS.items() if model.is_singular]


def coefficients(model):
    return {
        "constant": bl.CoefficientProcess.constant(1.0, 1.0),
        "from_function": bl.CoefficientProcess.from_function(
            lambda t: 0.5 + np.cos(7.0 * np.asarray(t, dtype=float)), 1.0),
        "intensity_multiple": bl.CoefficientProcess.intensity_multiple(0.7, model),
    }


def grid_of(model, n=17):
    return bl.make_grid(model, n, mass_cap=12.0)


def oracle_quad(fn, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400)[0]


def oracle_mass_factor(model, coeff):
    """g(u) = phi(s(u)) / lam(s(u)) on scalars."""
    if coeff.kind == "intensity_multiple":
        return lambda u: coeff.value_const
    return lambda u: float(coeff.value(model.mass_inverse(u))) * model.inverse_rate_at_mass(u)


def oracle_tail(model, t, coeff, b):
    """int_t^T exp(-(Lam(s) - Lam(t)) - b (s - t)) phi(s) ds over u = Lam(s) - Lam(t)."""
    base = float(model.cumulative(t)) if t > 0 else 0.0
    g = oracle_mass_factor(model, coeff)

    def integrand(u):
        drift = math.exp(-b * (model.mass_inverse(base + u) - t)) if b else 1.0
        return math.exp(-u) * drift * g(base + u)

    hi = U_SPAN if model.is_singular else model.total_mass() - base
    if hi <= 0:
        return 0.0
    val = oracle_quad(integrand, 0.0, min(hi, U_SPAN))
    if hi > U_SPAN:
        val += oracle_quad(integrand, U_SPAN, hi)
    return val


def oracle_prefix(model, t, coeff):
    """exp(-Lam(t)) int_0^t exp(Lam(s)) phi(s) ds over the window [Lam(t) - U_SPAN, Lam(t)]."""
    u_hi = float(model.cumulative(t))
    g = oracle_mass_factor(model, coeff)
    return oracle_quad(lambda u: math.exp(u - u_hi) * g(u), max(0.0, u_hi - U_SPAN), u_hi)


def oracle_weights(model, grid):
    mass = model.cumulative(grid.points[:grid.cap_index + 1])
    out = []
    for j, lo in enumerate(mass):
        hi = mass[j + 1] if j < len(mass) - 1 else (
            lo + U_SPAN if model.is_singular else model.total_mass())
        out.append(oracle_quad(lambda u: math.exp(-u) * model.inverse_rate_at_mass(u),
                               lo, min(hi, lo + U_SPAN)))
    return np.array(out)


def plus_values(model, grid, coeff, b):
    """Y at the regular nodes; an intensity multiple without slope has no finite
    a-priori bound to check, so its values come from the recursion directly."""
    if coeff.sup_norm == math.inf and b == 0:
        return -affine._tail_integrals(model, grid, coeff)
    problem = bl.BsdeProblem(intensity=model, coefficient=coeff, sign=bl.PLUS_LAMBDA_Y,
                             y_slope=b)
    return bl.solve_affine_plus(problem, grid).y[:grid.cap_index + 1]


def test_rule_constants():
    half = np.array(affine._GK_NODES)
    nodes = np.concatenate((-half, half[-2::-1]))
    kronrod = np.array(affine._GK_WEIGHTS + affine._GK_WEIGHTS[-2::-1])
    gauss = np.array(affine._GAUSS_WEIGHTS + affine._GAUSS_WEIGHTS[::-1])
    legendre_nodes, legendre_weights = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(nodes[1::2] - legendre_nodes)) <= 1e-15
    assert np.max(np.abs(gauss - legendre_weights)) <= 1e-15
    for j in range(32):         # the Kronrod rule is exact to degree 31
        assert abs(kronrod @ nodes ** j - (1 - (-1) ** (j + 1)) / (j + 1)) <= 1e-15


def test_polynomials_integrate_in_one_pass():
    passes = []

    def poly(v, k):
        passes.append(v.shape)
        return v ** 19 + (k + 1.0) * v ** 2

    values, errors = affine.quad(poly, np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
    assert passes == [(2, 21)]          # the empty segment [2, 2] is never evaluated
    assert np.allclose(values, [1 / 20 + 1 / 3, 4 / 3, 0.0], rtol=0, atol=1e-15)
    assert np.all(errors <= 1e-15)


@pytest.mark.parametrize("b", [-0.4, 0.0, 0.6])
@pytest.mark.parametrize("name", list(MODELS))
def test_affine_plus_matches_per_node_quadpack(name, b):
    model = MODELS[name]
    grid = grid_of(model)
    for kind, coeff in coefficients(model).items():
        got = plus_values(model, grid, coeff, b)
        want = [-oracle_tail(model, float(t), coeff, b)
                for t in grid.points[:grid.cap_index + 1]]
        assert np.max(np.abs(got - want)) <= TOL, kind


def test_affine_plus_on_a_uniform_grid_matches_quadpack():
    model = MODELS["power_gap 1"]
    grid = uniform_grid(21)
    coeff = coefficients(model)["from_function"]
    got = plus_values(model, grid, coeff, 0.6)
    want = [-oracle_tail(model, float(t), coeff, 0.6)
            for t in grid.points[:grid.cap_index + 1]]
    assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("name", SINGULAR)
def test_classify_ode_estimates_match_quadpack(name):
    model = MODELS[name]
    for kind, coeff in coefficients(model).items():
        out = bl.classify_ode(model, coeff, tolerance=1e-6)
        for t, m in out.estimates:
            assert abs(m - oracle_prefix(model, t, coeff)) <= TOL, (kind, t)


@pytest.mark.parametrize("name", SINGULAR)
def test_ode_family_member_matches_quadpack(name):
    model = MODELS[name]
    grid = grid_of(model)
    cap = grid.cap_index
    settled = affine.OdeClassification(converges=True, limit=0.0, estimates=())
    damp = np.asarray(model.exp_minus_cumulative(grid.points), dtype=float)
    for kind, coeff in coefficients(model).items():
        member = bl.ode_family_member(model, coeff, 1.5, grid, classification=settled)
        want = [damp[i] * 1.5 + (oracle_prefix(model, float(t), coeff) if t > 0 else 0.0)
                for i, t in enumerate(grid.points[:cap + 1])]
        assert np.max(np.abs(member.y[:cap + 1] - want)) <= TOL, kind


@pytest.mark.parametrize("name", list(MODELS))
def test_markovian_weights_match_quadpack(name):
    model = MODELS[name]
    grid = grid_of(model)
    got = affine._interval_weights(model, grid)
    assert np.max(np.abs(got - oracle_weights(model, grid))) <= TOL


def test_one_kernel_call_per_solve(monkeypatch):
    calls = []
    kernel = affine.quad
    monkeypatch.setattr(affine, "quad", lambda *args: calls.append(1) or kernel(*args))
    model = MODELS["power_gap 1"]
    grid = bl.make_grid(model, 129, mass_cap=12.0)
    coeff = bl.CoefficientProcess.constant(1.0, 1.0)
    bl.solve_affine_plus(bl.BsdeProblem(intensity=model, coefficient=coeff,
                                        sign=bl.PLUS_LAMBDA_Y), grid)
    classification = bl.classify_ode(model, coeff, tolerance=1e-6)
    bl.ode_family_member(model, coeff, 0.0, grid, classification=classification)
    assert len(calls) == 3


class TestGate:
    """A coefficient with a jump inside a mass interval: the 21-point rule alone
    cannot integrate it, bisection can."""

    @staticmethod
    def jump_problem():
        model = MODELS["power_gap 1"]
        coeff = bl.CoefficientProcess.from_function(
            lambda t: np.where(np.asarray(t) < 0.3, 1.0, -0.5), 1.0)
        problem = bl.BsdeProblem(intensity=model, coefficient=coeff, sign=bl.PLUS_LAMBDA_Y)
        return problem, bl.make_grid(model, 33, mass_cap=12.0)

    def test_without_bisection_the_estimate_trips_the_gate(self, monkeypatch):
        monkeypatch.setattr(affine, "_MAX_DEPTH", 0)
        problem, grid = self.jump_problem()
        with pytest.raises(NumericsError, match="quadrature error estimate"):
            bl.solve_affine_plus(problem, grid)

    def test_with_bisection_the_jump_matches_quadpack(self):
        problem, grid = self.jump_problem()
        got = bl.solve_affine_plus(problem, grid).y[:grid.cap_index + 1]
        want = [-oracle_tail(problem.intensity, float(t), problem.coefficient, 0.0)
                for t in grid.points[:grid.cap_index + 1]]
        assert np.max(np.abs(got - want)) <= TOL
