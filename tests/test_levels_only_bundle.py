"""The levels-only path bundle: one (N, d, M) array per simulation.

Differential tests against the two-array simulation it replaces
(``two_array_paths_reference``), the cost of reading ``increments`` (one
redraw per read, none in a Monte Carlo scheme run), and the simulation's
traced memory peak.
"""

import tracemalloc

import numpy as np
import pytest

import bsdelab as bl
from bsdelab import cli, paths

from two_array_paths_reference import simulate_two_arrays


def uneven_grid(n):
    # gaps that shrink towards T, so each node's scale differs
    return bl.TimeGrid(points=1.0 - np.linspace(1.0, 0.0, n) ** 2, cap_index=n - 2)


@pytest.fixture
def philox_calls(monkeypatch):
    """Counts the calls of ``paths._philox_raw``."""
    calls = []
    real = paths._philox_raw

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(paths, "_philox_raw", spy)
    return calls


def draws_per_read(bundle, calls):
    """The ``_philox_raw`` calls of one read of ``bundle.increments``."""
    before = len(calls)
    bundle.increments
    return len(calls) - before


def one_block_more(n_points, dim):
    return paths.DRAW_BLOCK // ((n_points - 1) * dim) + 1


class TestAgainstTwoArrays:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_points, n_paths", [
        (2, 1), (2, 3), (2, one_block_more(2, 2)),
        (11, 1), (11, 3), (11, one_block_more(11, 1)), (11, one_block_more(11, 2))])
    def test_levels_and_increments_bit_identical(self, n_points, n_paths, dim, workers):
        grid = uneven_grid(n_points)
        bundle = bl.simulate_paths(grid, dim, n_paths, seed=2**63 + 5, workers=workers)
        want_inc, want_levels = simulate_two_arrays(grid, dim, n_paths, 2**63 + 5, workers)
        assert bundle.levels.shape == want_levels.shape
        assert bundle.levels.tobytes() == want_levels.tobytes()
        assert bundle.increments.tobytes() == want_inc.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_differenced_levels_within_one_ulp(self, dim):
        bundle = bl.simulate_paths(uneven_grid(21), dim, 20_000, seed=13)
        w = bundle.levels
        ulp = np.spacing(np.maximum(np.abs(w[:, :-1]), np.abs(w[:, 1:])))
        gap = np.abs((w[:, 1:] - w[:, :-1]) - bundle.increments)
        assert np.all(gap <= ulp)


class TestIncrementsRead:
    def test_hand_built_bundle_returns_its_array(self, philox_calls):
        grid = uneven_grid(6)
        increments = np.full((4, 5, 1), 0.25)
        levels = np.zeros((4, 6, 1))
        bundle = bl.PathBundle(grid=grid, dim=1, n_paths=4, increments=increments,
                               levels=levels, seed=0)
        assert bundle.increments is increments
        assert bundle.levels is levels
        assert philox_calls == []

    def test_each_read_redraws(self, philox_calls):
        bundle = bl.simulate_paths(uneven_grid(6), 1, 50, seed=1)
        assert draws_per_read(bundle, philox_calls) == 1
        a, b = bundle.increments, bundle.increments
        assert a is not b and a.tobytes() == b.tobytes()

    def test_markovian_affine_plus_redraws_once(self, philox_calls):
        model = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(model, 21, mass_cap=8.0)
        bundle = bl.simulate_paths(grid, 1, 20_000, seed=31)
        coeff = bl.CoefficientProcess.markovian(
            lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
        problem = bl.BsdeProblem(intensity=model, coefficient=coeff, sign=bl.PLUS_LAMBDA_Y)
        per_read = draws_per_read(bundle, philox_calls)
        assert per_read > 1                 # more than one block: a count, not a flag
        before = len(philox_calls)
        bl.solve_affine_plus(problem, grid, bundle=bundle)
        assert len(philox_calls) - before == per_read

    def test_stochastic_member_and_its_check_redraw_once_each(self, philox_calls):
        model = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(model, 21, mass_cap=8.0)
        bundle = bl.simulate_paths(grid, 1, 20_000, seed=3)
        problem = bl.BsdeProblem(intensity=model, sign=bl.MINUS_LAMBDA_Y,
                                 coefficient=bl.CoefficientProcess.constant(0.0, 1.0))
        per_read = draws_per_read(bundle, philox_calls)
        before = len(philox_calls)
        fam = bl.fundamental_family(model, 1.0, grid, beta=np.ones(grid.n_points - 1),
                                    bundle=bundle)
        assert len(philox_calls) - before == per_read
        before = len(philox_calls)
        bl.residual_check(fam, problem, bundle=bundle)
        assert len(philox_calls) - before == per_read

    def test_monte_carlo_scheme_run_draws_only_in_the_simulation(
            self, philox_calls, monkeypatch, tmp_path):
        simulated = []

        def simulate(*args, **kwargs):
            bundle = paths.simulate_paths(*args, **kwargs)
            simulated.append(len(philox_calls))
            return bundle

        monkeypatch.setattr(cli, "simulate_paths", simulate)
        assert cli.main(["run", "nonlinear_exp", "--mode", "mc", "--m-paths", "20000",
                         "--n-grid", "21", "--schedule", "4,16", "--tol", "0.5",
                         "--threads", "2", "--out", str(tmp_path)]) == 0
        assert len(simulated) == 1 and simulated[0] > 0
        assert len(philox_calls) == simulated[0]


def test_simulation_peak_is_one_bundle_array():
    # the (21, 1, 200k) levels are 33.6 MB; the two-array simulation peaked
    # at 65.6 MB, both of its arrays
    grid = bl.TimeGrid(points=np.linspace(0.0, 1.0, 21), cap_index=19)
    n_paths = 200_000
    bl.simulate_paths(grid, 1, 10, seed=3)      # scipy.special imported untraced
    tracemalloc.start()
    try:
        bundle = bl.simulate_paths(grid, 1, n_paths, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = 21 * 1 * n_paths * 8
    assert bundle.levels.nbytes == array
    assert peak <= array + 8 * paths.DRAW_BLOCK * 8
