"""The streaming truncation scheme against the stored-array one in
``stored_scheme_reference``: every ``SchemeReport`` field, the kept top level and
the final estimate, plus the memory the fold saves."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import bsdelab as bl
from bsdelab import lipschitz_solver, singular_scheme

import stored_scheme_reference as stored_ref


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


def _problem(model, coefficient):
    return bl.BsdeProblem(intensity=model, coefficient=coefficient,
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))


def _markovian(model):
    return _problem(model, bl.CoefficientProcess.markovian(
        lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True))


def assert_matches_stored(report, stored):
    """Every ``SchemeReport`` field bit for bit; a stored top level with its
    paths is reduced node by node first."""
    for f in dataclasses.fields(bl.SchemeReport):
        got, want = getattr(report, f.name), stored[f.name]
        if f.name == "final":
            y_mean, _, z_mean = stored_ref.node_moments(want)
            assert got.lambda_cap == want.lambda_cap
            assert np.array_equal(got.y, y_mean)
            assert np.array_equal(got.z, z_mean)
            assert got.diagnostics == want.diagnostics
        elif f.name == "y_sd":
            assert np.array_equal(got, want)
        else:
            assert got == want, f.name


def test_ode_mode_equals_stored(power1):
    grid = bl.make_grid(power1, 241, mass_cap=12.0)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    schedule = [2.0 ** k for k in range(1, 9)]
    config = bl.SchemeConfig(tol=1e-3)
    assert_matches_stored(bl.run_scheme(prob, grid, schedule, config=config),
                          stored_ref.run_scheme(prob, grid, schedule, config=config))


def test_constant_coefficient_mc_equals_stored(power1):
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    bundle = bl.simulate_paths(grid, 1, 4000, seed=17)
    schedule = [2.0, 4.0, 8.0, 16.0]
    config = bl.SchemeConfig(tol=5e-2, bundle=bundle)
    assert_matches_stored(bl.run_scheme(prob, grid, schedule, config=config),
                          stored_ref.run_scheme(prob, grid, schedule, config=config))


@pytest.mark.parametrize("degree", [3, 5])
@pytest.mark.parametrize("seed", [1, 3, 5])
def test_markovian_mc_equals_stored(power1, seed, degree):
    # the fixture of test_backward_sweep: every regression carries real error
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    prob = _markovian(power1)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=seed)
    schedule = [2.0 ** k for k in range(1, 7)]
    config = bl.SchemeConfig(tol=1.0, bundle=bundle,
                             basis=bl.RegressionBasis.polynomial(degree))
    assert_matches_stored(bl.run_scheme(prob, grid, schedule, config=config),
                          stored_ref.run_scheme(prob, grid, schedule, config=config))


@pytest.mark.parametrize("workers", [1, 3])
def test_a_bundle_alone_runs_monte_carlo(power1, workers, monkeypatch):
    # four path chunks, which the reference sweeps on one thread
    monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", 5000)
    grid = bl.make_grid(power1, 31, mass_cap=10.0)
    prob, schedule = _markovian(power1), [2.0, 8.0, 32.0]
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=29)
    config = bl.SchemeConfig(tol=1.0, bundle=bundle, workers=workers)
    report = bl.run_scheme(prob, grid, schedule, config=config)
    assert report.final.mode == "regression_mc"
    assert_matches_stored(report, stored_ref.run_scheme(prob, grid, schedule, config=config))


def test_top_level_paths_equal_stored(power1):
    # the report keeps the top level's moments; its paths are the sweep's
    # nodes, run as run_scheme runs them, bit for bit the stored top level
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    prob = _markovian(power1)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=3)
    schedule = [2.0 ** k for k in range(1, 7)]
    config = bl.SchemeConfig(tol=1.0, bundle=bundle)
    top = stored_ref.run_scheme(prob, grid, schedule, config=config)["final"]
    sweep = lipschitz_solver.NodeSweep(
        prob, grid, schedule, bundle=bundle, driver_override=bl.truncate(prob.driver, 1.0, 1.0),
        clamp_margin=config.clamp_margin, theta=singular_scheme.SCHEME_THETA,
        level_quantiles=singular_scheme._BMO_QUANTILES)
    seen = []
    for node in sweep.nodes():
        seen.append(node.index)
        assert np.array_equal(node.y[-1], top.y[:, node.index])
        if node.z is not None:
            assert np.array_equal(node.z[-1], top.z[:, node.index])
    assert seen == list(range(len(grid.points) - 1, -1, -1))


def test_bmo_standard_error_is_formed_once(power1, monkeypatch):
    # the fold keeps the maximising node's fit and forms its standard error at
    # the end: one pseudo-inverse per run, however often the maximum moves
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    bundle = bl.simulate_paths(grid, 1, 4000, seed=17)
    config = bl.SchemeConfig(tol=1.0, bundle=bundle)
    pinv, calls = np.linalg.pinv, []

    def counted(*args, **kwargs):
        calls.append(1)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    report = bl.run_scheme(_markovian(power1), grid, [2.0, 4.0, 8.0], config=config)
    assert len(calls) == 1
    assert report.bmo_stderr > 0.0


def test_bmo_standard_error_builds_one_design():
    # the maximising node's (M, K) design is built once, in C order; the
    # residual's two (M,) temporaries come on top.  A Fortran-order design
    # copied to C order held two designs at once
    basis = bl.RegressionBasis.polynomial(3)
    rng = np.random.default_rng(5)
    m = 50_000
    w = rng.standard_normal(m)
    fold = singular_scheme._BmoFold(basis)
    fold.add(w, 1.0 + 0.5 * np.sin(w) + 0.1 * rng.standard_normal(m), 0.01)
    assert fold.stderr > 0.0                   # warm: LAPACK's first call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fold.stderr
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    design = m * (basis.degree + 1) * 8
    assert design <= peak <= design + 2 * m * 8 + 65_536


def test_peak_memory_does_not_grow_with_nodes(power1):
    # the top level is folded into N floats per moment: 60 more nodes add
    # less than one (M,) row in all (0.04 rows here).  Keeping its (N, M) Y
    # and (N - 1, M) Z added two rows per node
    m = 20_000
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    nodes, peaks = [], []
    for n_grid in (21, 81):
        grid = bl.make_grid(power1, n_grid, mass_cap=10.0)
        config = bl.SchemeConfig(tol=1.0,
                                 bundle=bl.simulate_paths(grid, 1, m, seed=7))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bl.run_scheme(prob, grid, [2.0, 4.0], config=config)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        nodes.append(grid.n_points)
    assert nodes[1] - nodes[0] == 60
    assert peaks[1] - peaks[0] < m * 8
    assert peaks[1] < nodes[1] * m * 8          # less than one (N, M) array


def test_peak_memory_does_not_grow_with_levels(power1):
    # the stored sweep holds (N, L, M) y and z: 2 x 6 more (M, N) arrays at
    # L = 8 than at L = 2; the fold holds no (M, N) array at any L.  What grows
    # with L are (L, M) buffers, 6 rows of M floats each from L = 2 to 8:
    # - NodeSweep: the Newton workspace's residual, deriv, scratch, f, fprime
    #   and two value buffers, the first y_next, the sigma Z buffer and the 2L
    #   regression targets: 11 float arrays;
    # - run_scheme: the level differences' scratch, the per-path gaps and the
    #   temporary of their standard error: 3 float arrays;
    # - bool masks, an eighth of a float row each: the Newton mask, the two
    #   clamp masks and the clipped driver's mask.
    grid = bl.make_grid(power1, 61, mass_cap=10.0)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=7)
    config = bl.SchemeConfig(tol=1.0, bundle=bundle)
    peaks = {}
    tracemalloc.start()
    try:
        for schedule in ([2.0, 4.0], [2.0 ** k for k in range(1, 9)]):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            bl.run_scheme(prob, grid, schedule, config=config)
            peaks[len(schedule)] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    one_array = bundle.n_paths * grid.n_points * 8
    level_buffers = (11 + 3 + 4 / 8) * 6 * bundle.n_paths * 8
    assert peaks[2] < one_array
    assert peaks[8] - peaks[2] <= level_buffers
