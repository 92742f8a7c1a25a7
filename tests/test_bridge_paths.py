"""The backward Brownian bridge of ``bsdelab.paths``, and the sweep that
streams it one node at a time.

The rows a sweep streams against a bundle's ``levels`` read, bit for bit; the
levels against a per-row oracle over numpy's Philox streams; the bridge's law
against the forward construction it replaced (``forward_paths_reference``);
increments as differences of the levels; the cost of a read; and the traced
memory of a Monte Carlo run, which holds no (N, d, M) array.
"""

import math
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import bsdelab as bl
from bsdelab import cli, lipschitz_solver, paths
from bsdelab.cli import level_grid

from forward_paths_reference import forward_levels
from test_streaming_scheme import _markovian, _problem, assert_matches_stored

SWEEP_BLOCK = lipschitz_solver.SWEEP_BLOCK


def uneven_grid(n):
    # gaps that shrink towards T, so each node's bridge weights differ
    return bl.TimeGrid(points=1.0 - np.linspace(1.0, 0.0, n) ** 2, cap_index=n - 2)


def node_major(levels):
    """A bundle's (M, N, d) levels as contiguous node-major (N, d, M) bytes."""
    return np.ascontiguousarray(levels.transpose(1, 2, 0)).tobytes()


@contextmanager
def counted_rows():
    """Counts the row draws, ``paths._standard_normals`` calls, in ``["rows"]``."""
    counts, draw = {"rows": 0}, paths._standard_normals

    def spy(*args):
        counts["rows"] += 1
        return draw(*args)

    with mock.patch.object(paths, "_standard_normals", spy):
        yield counts


def streamed(bundle, workers):
    """Every node's row as a sweep streams it, from T backward, as node-major
    (N, d, M) bytes: the stream draws each row on this thread, and the path
    chunks of a sweep on ``workers`` threads copy it out.  W_{i+1} is read
    again once node i is drawn, as the sweep reads it, and each row is drawn
    once."""
    chunks = lipschitz_solver._chunks(bundle.n_paths)
    tasks = lipschitz_solver._ChunkQueue(chunks, workers, lambda: None)
    stream, n = paths.LevelStream(bundle), bundle.grid.n_points
    out = np.empty((n, bundle.dim, bundle.n_paths))
    try:
        with counted_rows() as counts:
            for i in range(n - 1, -1, -1):
                row = stream.level(i)
                tasks.run(lambda rows, _: np.copyto(out[i][:, rows], row[:, rows]))
                if i < n - 1:
                    assert stream.level(i + 1).tobytes() == out[i + 1].tobytes()
    finally:
        tasks.close()
    assert counts["rows"] == (n - 1) * bundle.dim
    return out.tobytes()


GRIDS = {"two_point": bl.TimeGrid(points=np.array([0.0, 0.7]), cap_index=0),
         "uneven_11": level_grid(bl.IntensityModel.power_gap(1.0, 1.0), 11, 4.0),
         "uneven_4": uneven_grid(4), "uneven_5": uneven_grid(5)}


class TestStreamedRows:
    @pytest.mark.parametrize("n_paths", [1, 3, SWEEP_BLOCK + 1, 2 * SWEEP_BLOCK])
    @pytest.mark.parametrize("grid", sorted(GRIDS))    # N = 2, 11, 4, 5
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stream_equals_levels_read(self, dim, workers, grid, n_paths):
        bundle = bl.simulate_paths(GRIDS[grid], dim, n_paths, seed=2**63 + 5)
        assert streamed(bundle, workers) == node_major(bundle.levels)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sweep_nodes_carry_the_levels_read(self, monkeypatch, workers):
        # the levels read with one chunk; the sweep runs four chunks of 5000
        # paths on a 22-node grid, and the levels read after it is the same
        power1 = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(power1, 21, mass_cap=10.0)
        bundle = bl.simulate_paths(grid, 1, 20_000, seed=9)
        levels = bundle.levels
        monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", 5000)
        sweep = lipschitz_solver.NodeSweep(_markovian(power1), grid, [2.0, 8.0],
                                           bundle=bundle, workers=workers)
        rows = {node.index: node.w.copy() for node in sweep.nodes()}
        assert sorted(rows) == list(range(grid.n_points))
        for i, w in rows.items():
            assert w.tobytes() == levels[:, i, 0].tobytes()
        assert node_major(bundle.levels) == node_major(levels)


def reference_levels(grid, dim, n_paths, seed):
    """The bridge row by row in plain Python: coordinate j of node N - 1 - k
    takes the standard normals of numpy's ``Philox`` keyed by (seed, k d + j),
    path m the m-th.  (n_paths, N, d)."""
    pts, n = grid.points, grid.n_points
    out = np.zeros((n_paths, n, dim))
    for k in range(n - 1):
        i = n - 1 - k
        t = float(pts[i])
        for j in range(dim):
            key = np.array([seed, k * dim + j], dtype=np.uint64)
            xi = np.random.Generator(np.random.Philox(key=key)).standard_normal(n_paths)
            for m in range(n_paths):
                if i == n - 1:
                    out[m, i, j] = xi[m] * math.sqrt(t)
                else:
                    t_next = float(pts[i + 1])
                    out[m, i, j] = (out[m, i + 1, j] * (t / t_next)
                                    + xi[m] * math.sqrt(t * (t_next - t) / t_next))
    return out


class TestConstruction:
    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_levels_bit_identical_to_the_per_row_oracle(self, dim, seed):
        grid = uneven_grid(11)
        bundle = bl.simulate_paths(grid, dim, 257, seed=seed)
        want = reference_levels(grid, dim, 257, seed)
        assert np.ascontiguousarray(bundle.levels).tobytes() == want.tobytes()

    def test_a_bundle_is_the_first_paths_of_a_larger_one(self):
        grid = uneven_grid(11)
        small = bl.simulate_paths(grid, 1, 20_000, seed=17).levels
        large = bl.simulate_paths(grid, 1, 50_000, seed=17).levels
        assert large[:20_000].tobytes() == small.tobytes()

    def test_seeds_at_both_ends_of_the_domain_differ_without_warning(self):
        # a key given as a Python list would wrap 2^64 - 3 to 0, with a warning
        grid = uneven_grid(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high = (bl.simulate_paths(grid, 1, 100, seed=seed).levels
                         for seed in (0, 2**64 - 3))
        assert not np.any(low[:, 1:] == high[:, 1:])

    @pytest.mark.parametrize("construction", ["bridge", "forward"])
    def test_law_matches_the_forward_construction(self, construction):
        # Cov(W_s, W_t) = min(s, t), and the increments are uncorrelated with
        # variance the gap, within 4 standard errors of each sample mean of
        # products: Var(XY) = Var X Var Y + Cov(X, Y)^2 for centred Gaussians
        grid, m = uneven_grid(11), 100_000
        if construction == "bridge":
            w = bl.simulate_paths(grid, 1, m, seed=41).levels[:, :, 0]
        else:
            w = forward_levels(grid, 1, m, seed=41)[:, :, 0]
        assert np.all(w[:, 0] == 0.0)
        t = grid.points[1:]
        for values, want in ((w[:, 1:], np.minimum.outer(t, t)),
                             (np.diff(w, axis=1), np.diag(grid.gaps))):
            cov = values.T @ values / m
            se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want ** 2) / m)
            assert np.all(np.abs(cov - want) <= 4.0 * se)

    def test_node_zero_is_zero_and_takes_no_word(self):
        grid = uneven_grid(5)
        with counted_rows() as counts:
            bundle = bl.simulate_paths(grid, 1, 4, seed=3)
            assert np.all(bundle.levels[:, 0, 0] == 0.0)
        assert counts["rows"] == 4
        longer = bl.simulate_paths(uneven_grid(6), 1, 4, seed=3)
        # the same stream drives W_{N-1} of both grids: the same xi scaled by sqrt(T)
        assert np.array_equal(bundle.levels[:, -1], longer.levels[:, -1])


class TestIncrements:
    def test_hand_built_levels_without_increments(self):
        grid = uneven_grid(5)
        levels = np.tile(np.arange(5.0)[None, :, None], (3, 1, 1))
        bundle = bl.PathBundle(grid, 1, 3, levels, seed=0)
        assert np.array_equal(bundle.increments, np.ones((3, 4, 1)))

    def test_hand_built_bundle_returns_its_arrays(self):
        grid = uneven_grid(6)
        levels = np.zeros((4, 6, 1))
        bundle = bl.PathBundle(grid=grid, dim=1, n_paths=4, levels=levels, seed=0)
        assert bundle.levels is levels

    @pytest.mark.parametrize("dim", [1, 2])
    def test_drawn_increments_are_the_level_differences(self, dim):
        bundle = bl.simulate_paths(uneven_grid(21), dim, 2000, seed=13)
        w = bundle.levels
        assert bundle.increments.tobytes() == (w[:, 1:] - w[:, :-1]).tobytes()
        for j in range(dim):
            assert all(bundle.increments[:, i, j].flags.c_contiguous for i in range(20))


@pytest.fixture
def reads(monkeypatch):
    """Counts the whole-bundle draws, ``paths._draw_levels``, and the row
    draws, ``paths._standard_normals`` calls."""
    draw_levels = paths._draw_levels

    def levels_spy(*args):
        counts["levels"] += 1
        return draw_levels(*args)

    monkeypatch.setattr(paths, "_draw_levels", levels_spy)
    with counted_rows() as counts:
        counts["levels"] = 0
        yield counts


class TestReads:
    def test_each_read_draws_once(self, reads):
        # five rows per read: node 0 takes no stream
        bundle = bl.simulate_paths(uneven_grid(6), 1, 50, seed=1)
        assert reads == {"levels": 0, "rows": 0}
        a, b = bundle.levels, bundle.increments
        assert reads == {"levels": 2, "rows": 10}
        assert a is not bundle.levels
        bundle.levels_and_increments()
        assert reads == {"levels": 4, "rows": 20}

    def test_markovian_affine_plus_reads_once(self, reads):
        model = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(model, 21, mass_cap=8.0)
        bundle = bl.simulate_paths(grid, 1, 20_000, seed=31)
        coeff = bl.CoefficientProcess.markovian(
            lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
        problem = bl.BsdeProblem(intensity=model, coefficient=coeff, sign=bl.PLUS_LAMBDA_Y)
        bl.solve_affine_plus(problem, grid, bundle=bundle)
        assert reads["levels"] == 1

    def test_stochastic_member_and_its_check_read_once_each(self, reads):
        model = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.make_grid(model, 21, mass_cap=8.0)
        bundle = bl.simulate_paths(grid, 1, 20_000, seed=3)
        problem = bl.BsdeProblem(intensity=model, sign=bl.MINUS_LAMBDA_Y,
                                 coefficient=bl.CoefficientProcess.constant(0.0, 1.0))
        fam = bl.fundamental_family(model, 1.0, grid, beta=np.ones(grid.n_points - 1),
                                    bundle=bundle)
        assert reads["levels"] == 1
        bl.residual_check(fam, problem, bundle=bundle)
        assert reads["levels"] == 2

    def test_monte_carlo_scheme_run_draws_each_row_once(self, reads, tmp_path):
        # 40000 paths are two chunks on two threads; 21 nodes are 20 rows and node 0
        assert cli.main(["run", "nonlinear_exp", "--mode", "mc", "--m-paths", "40000",
                         "--n-grid", "21", "--schedule", "4,16", "--tol", "0.5",
                         "--threads", "2", "--out", str(tmp_path)]) == 0
        assert reads == {"levels": 0, "rows": 20}


def test_simulation_holds_no_path_array():
    grid = bl.TimeGrid(points=np.linspace(0.0, 1.0, 21), cap_index=19)
    tracemalloc.start()
    try:
        bundle = bl.simulate_paths(grid, 1, 200_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000
    assert bundle.levels.shape == (200_000, 21, 1)


def test_scheme_run_peak_holds_no_bundle_array():
    # the mc_wide shape: 21 nodes, 200k paths, two levels on two threads.  The
    # levels would be 33.6 MB; simulation and sweep together traced 71.7 MB
    # while a bundle held them
    model = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = level_grid(model, 21, 4.0)
    prob = _problem(model, bl.CoefficientProcess.constant(1.0, 1.0))

    def run(n_paths):
        bundle = bl.simulate_paths(grid, 1, n_paths, seed=2302)
        config = bl.SchemeConfig(tol=0.1, bundle=bundle, workers=2)
        bl.run_scheme(prob, grid, [2.0, 4.0], config=config)

    run(20_000)             # scipy's modules load outside the trace
    tracemalloc.start()
    try:
        run(200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50e6


@pytest.mark.parametrize("workers", [1, 3])
def test_hand_built_bundle_of_the_drawn_levels_runs_the_same_scheme(workers, monkeypatch):
    # the sweep indexes a stored bundle's levels and streams a drawn one's
    monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", 5000)
    power1 = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(power1, 31, mass_cap=10.0)
    drawn = bl.simulate_paths(grid, 1, 20_000, seed=23)
    stored = bl.PathBundle(grid, 1, 20_000, drawn.levels, seed=23)
    reports = [bl.run_scheme(_markovian(power1), grid, [2.0, 8.0, 32.0],
                             config=bl.SchemeConfig(tol=1.0, bundle=bundle,
                                                    workers=workers))
               for bundle in (drawn, stored)]
    assert reports[0].bmo_estimate > 0.0
    assert_matches_stored(reports[0], {name: getattr(reports[1], name)
                                       for name in reports[1].__dataclass_fields__})
