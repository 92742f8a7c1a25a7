"""The workspace implicit step against the allocating one kept in
``per_level_reference``: bit-identical values, driver values, residuals and
Newton counters on every node of a sweep, the same error where the step is not
monotone, and the memory the workspace saves."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import bsdelab as bl
from bsdelab import lipschitz_solver
from bsdelab.errors import NumericsError

import per_level_reference as ref
from test_backward_sweep import _arctan_problem


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class CheckedSteps:
    """Replaces the sweep's implicit step by one that also runs the oracle on the
    same inputs and asserts that both agree; keeps the oracle's per-node counts."""

    def __init__(self, monkeypatch):
        self.step = lipschitz_solver._implicit_step
        self.iterations, self.fallbacks, self.errors = [], [], []
        monkeypatch.setattr(lipschitz_solver, "_implicit_step", self)

    def __call__(self, y_next, forcing, dt, lam, driver, b, work):
        try:
            want = ref.implicit_step(y_next, forcing, dt, lam, driver, b)
        except NumericsError as exc:
            with pytest.raises(NumericsError) as got:
                self.step(y_next, forcing, dt, lam, driver, b, work)
            assert str(got.value) == str(exc)
            self.errors.append(str(exc))
            raise
        got = self.step(y_next, forcing, dt, lam, driver, b, work)
        assert len(got) == len(want) == 5
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        self.iterations.append(want[3])
        self.fallbacks.append(want[4])
        return got

    def assert_counters(self, sweep):
        assert self.iterations, "no implicit step ran"
        assert np.array_equal(sweep.newton_iterations, np.sum(self.iterations, axis=0))
        assert np.array_equal(sweep.newton_max_per_node, np.max(self.iterations, axis=0))
        assert np.array_equal(sweep.bisection_entries, np.sum(self.fallbacks, axis=0))
        for k in range(len(sweep.caps)):
            diagnostics = sweep.solution(k, np.zeros(1), None).diagnostics
            assert diagnostics["newton_iterations"] == sweep.newton_iterations[k]
            assert diagnostics["newton_max_per_node"] == sweep.newton_max_per_node[k]
            assert diagnostics["bisection_entries"] == sweep.bisection_entries[k]


def run_checked(monkeypatch, problem, grid, caps, **kwargs):
    checked = CheckedSteps(monkeypatch)
    sweep = lipschitz_solver.NodeSweep(problem, grid, caps, **kwargs)
    for _ in sweep.nodes():
        pass
    checked.assert_counters(sweep)
    return sweep


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


def _exp_problem(model, coefficient):
    prob = bl.BsdeProblem(intensity=model, coefficient=coefficient,
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))
    return prob, bl.truncate(prob.driver, coefficient.sup_norm, 1.0)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_ode_state_matches_oracle(power1, monkeypatch, b):
    # b = 0 skips the b y and + b terms; b = 0.5 runs them
    grid = bl.make_grid(power1, 241, mass_cap=12.0)
    prob, clipped = _exp_problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    prob = dataclasses.replace(prob, y_slope=b)
    sweep = run_checked(monkeypatch, prob, grid, [2.0 ** k for k in range(1, 16)],
                        driver_override=clipped)
    assert np.all(sweep.newton_iterations > 0)


@pytest.mark.parametrize("b,sigma", [(0.0, 0.0), (-0.3, 0.2)])
def test_constant_coefficient_mc_state_matches_oracle(power1, monkeypatch, b, sigma):
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    prob, clipped = _exp_problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    prob = dataclasses.replace(prob, y_slope=b, z_slope=sigma)
    run_checked(monkeypatch, prob, grid, [2.0 ** k for k in range(1, 9)],
                bundle=bl.simulate_paths(grid, 1, 4000, seed=2), driver_override=clipped)


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_markovian_state_matches_oracle(power1, monkeypatch, seed):
    # the Markovian fixture of test_backward_sweep: its regression moves the
    # values out of the box, so the clip and the clamp both act
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    prob, clipped = _exp_problem(power1, bl.CoefficientProcess.markovian(
        lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True))
    run_checked(monkeypatch, prob, grid, [2.0 ** k for k in range(1, 7)],
                bundle=bl.simulate_paths(grid, 1, 20_000, seed=seed),
                driver_override=clipped)


@pytest.mark.parametrize("mode", ["ode", "mc"])
def test_newton_fallback_matches_oracle(mode, monkeypatch):
    prob, grid = _arctan_problem()
    bundle = bl.simulate_paths(grid, 1, 200, seed=5) if mode == "mc" else None
    sweep = run_checked(monkeypatch, prob, grid, [None], bundle=bundle)
    assert sweep.bisection_entries[0] > 0, "the case no longer falls back to bisection"


def test_non_monotone_step_raises_the_oracle_error(power1, monkeypatch):
    # the failing step of `affine_plus --terminal 1 --mass-cap 0.5 --n-grid 9
    # --schedule 2,4`: the minus form on the last segment, where dt lam = 1
    grid = bl.make_grid(power1, 9, mass_cap=0.5)
    prob = bl.BsdeProblem(intensity=power1,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
    checked = CheckedSteps(monkeypatch)
    with pytest.raises(NumericsError, match="not monotone"):
        lipschitz_solver.backward_sweep(prob, grid, [2.0, 4.0])
    assert len(checked.errors) == 1


def _traced_peak(step, *args) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = step(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak - base


def test_warm_step_allocates_at_most_three_states():
    # an (8, 20000) state of the MC defaults: eight levels, several Newton iterates
    rng = np.random.default_rng(7)
    shape = (8, 20_000)
    y_next = -rng.uniform(0.0, 0.5, shape)
    forcing = rng.uniform(0.0, 1.0, shape)
    lam = 2.0 ** np.arange(1, 9, dtype=float)[:, None]
    driver = bl.truncate(bl.DriverSpec.exp_utility(1.0), 1.0, 1.0)
    args = (y_next, forcing, 0.01, lam, driver, 0.0)
    work = lipschitz_solver._NewtonWorkspace(shape)
    warm = lipschitz_solver._implicit_step(*args, work)
    assert np.all(warm[3] > 1)
    state = y_next.nbytes
    assert _traced_peak(lipschitz_solver._implicit_step, *args, work) <= 3 * state
    # the allocating step peaks at about nine states on the same input
    assert _traced_peak(ref.implicit_step, *args) > 3 * state


def test_warm_mc_node_allocates_at_most_two_states():
    _assert_warm_mc_node_allocates_at_most_two_states(theta=1.0)


def test_warm_theta_step_mc_node_allocates_at_most_two_states():
    # the explicit half goes into the targets, reading f and f' from the workspace
    _assert_warm_mc_node_allocates_at_most_two_states(theta=0.5)


def _assert_warm_mc_node_allocates_at_most_two_states(theta):
    # one node of the MC defaults' shape, eight levels of 20000 paths, once the
    # sweep's buffers exist: the targets, fitted values, step values and clamp
    # masks go into them, and the node allocates its design and its QR factors
    # (1.5 states; the sweep body that allocated them per node peaked at 5.4)
    power1 = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(power1, 41, mass_cap=10.0)
    prob = bl.BsdeProblem(intensity=power1,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=3)
    caps = [2.0 ** k for k in range(1, 9)]
    sweep = lipschitz_solver.NodeSweep(prob, grid, caps, bundle=bundle,
                                       driver_override=clipped, theta=theta)
    nodes = sweep.nodes()
    for _ in range(4):
        next(nodes)
    state = len(caps) * 20_000 * 8
    assert _traced_peak(next, nodes) <= 2 * state
