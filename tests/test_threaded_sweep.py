"""The threaded Monte Carlo sweep against the one-worker sweep: the same
``SchemeReport``, the same bits at every node, the same errors, a pool capped at
one thread per path chunk and shut down however the sweep ends, chunks that
other workers take while one is held, and the memory a sweep holds."""

import sys
import threading
import tracemalloc
from concurrent.futures import Future
from functools import reduce

import numpy as np
import pytest

import bsdelab as bl
from bsdelab import lipschitz_solver
from bsdelab.errors import BasisDegenerate, NumericsError

from test_backward_sweep import _arctan_problem
from test_streaming_scheme import _markovian, _problem, assert_matches_stored

BLOCK = 4096        # a 20000-path bundle spans four chunks of this size
WORKERS = (1, 2, 3)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", BLOCK)


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


def _fields(report):
    """``SchemeReport`` fields in the form ``assert_matches_stored`` reads."""
    return {name: getattr(report, name) for name in report.__dataclass_fields__}


def _chunks_of(sweep):
    return lipschitz_solver._chunks(sweep.m_paths, sweep.basis.degree + 1)


def _first_column(view):
    """The column of its whole (L, M) array at which a chunk's view starts."""
    return (view.ctypes.data - view.base.ctypes.data) // view.itemsize


def _run_reports(prob, grid, bundle, schedule, **config):
    reports = {}
    for workers in WORKERS:
        cfg = bl.SchemeConfig(bundle=bundle, workers=workers, **config)
        reports[workers] = bl.run_scheme(prob, grid, schedule, config=cfg)
    return reports


def test_constant_coefficient_report_independent_of_workers(power1, small_blocks):
    grid = bl.make_grid(power1, 21, mass_cap=10.0)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=17)
    reports = _run_reports(_problem(power1, bl.CoefficientProcess.constant(1.0, 1.0)),
                           grid, bundle, [2.0, 4.0, 8.0, 16.0], tol=5e-2)
    for workers in WORKERS[1:]:
        assert_matches_stored(reports[workers], _fields(reports[1]))


@pytest.mark.parametrize("degree", [3, 5])
def test_markovian_report_independent_of_workers(power1, small_blocks, degree):
    # the clip and the clamp both act, and every regression carries real error
    grid = bl.make_grid(power1, 31, mass_cap=10.0)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=3)
    reports = _run_reports(_markovian(power1), grid, bundle,
                           [2.0 ** k for k in range(1, 7)], tol=1.0,
                           basis=bl.RegressionBasis.polynomial(degree))
    assert max(reports[1].box_excursion_raw) > 0.0
    for workers in WORKERS[1:]:
        assert_matches_stored(reports[workers], _fields(reports[1]))


def _node_bits(sweep):
    out = []
    for node in sweep.nodes():
        fit = node.fit
        out.append((node.index, node.y.tobytes(), node.f.tobytes(),
                    None if node.z is None else node.z.tobytes(),
                    None if fit is None else (fit.cond, fit.solve(node.y.T).tobytes())))
    counters = ("residual_max", "box_excursion_raw", "y_min", "y_max", "y0_mean",
                "newton_iterations", "newton_max_per_node", "bisection_entries")
    return out, [getattr(sweep, name).tobytes() for name in counters], \
        (sweep.regression_cond_min, sweep.regression_cond_max,
         sweep.theta_fallback_segments)


def test_sweep_nodes_bit_identical_with_bisection_in_several_blocks(small_blocks,
                                                                   monkeypatch):
    # the arctan case falls back to the bracket; record which paths fell back
    prob, grid = _arctan_problem()
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=5)
    bisect, columns = lipschitz_solver._bisect_failures, set()

    def recorded(y, y_next, forcing, dt, lam, driver, b, work, resid):
        # ``y`` is a chunk's view of the node's values: its columns start there
        bad = np.nonzero(~(work.scratch < lipschitz_solver.NEWTON_TOL))[1]
        columns.update(_first_column(y) + bad)
        return bisect(y, y_next, forcing, dt, lam, driver, b, work, resid)

    monkeypatch.setattr(lipschitz_solver, "_bisect_failures", recorded)
    runs = {}
    for workers in WORKERS:
        sweep = lipschitz_solver.NodeSweep(prob, grid, [None, 1000.0], bundle=bundle,
                                           workers=workers)
        runs[workers] = _node_bits(sweep)
        assert sweep.bisection_entries.sum() > 0
        if workers == 3:
            cols = _chunks_of(sweep)
            assert len(cols) == 4
            hit = [c for c in cols if any(c.start <= m < c.stop for m in columns)]
            assert len(hit) >= 2, "bisection no longer spans several chunks"
    for workers in WORKERS[1:]:
        assert runs[workers] == runs[1]


def test_markovian_theta_sweep_nodes_bit_identical(power1, small_blocks):
    grid = bl.make_grid(power1, 31, mass_cap=10.0)
    prob = _markovian(power1)
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=1)
    runs = [_node_bits(lipschitz_solver.NodeSweep(
        prob, grid, [2.0, 8.0, 32.0], bundle=bundle, driver_override=clipped, theta=0.5,
        workers=workers, level_quantiles=(0.005, 0.995))) for workers in WORKERS]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_more_workers_than_cores_under_fast_switching(power1, monkeypatch):
    # eight blocks of 2500 paths and a thread switch every microsecond: a lost
    # write to a block or a factorisation read early would change the bits
    monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", 2500)
    grid = bl.make_grid(power1, 21, mass_cap=10.0)
    prob = _markovian(power1)
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=9)

    def bits(workers):
        return _node_bits(lipschitz_solver.NodeSweep(
            prob, grid, [2.0, 8.0], bundle=bundle, driver_override=clipped, theta=0.5,
            workers=workers, level_quantiles=(0.005, 0.995)))

    want = bits(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bits(8)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _non_monotone_driver():
    # slope -1/2, except within 1e-6 of 0 where f' reads -5: an entry whose
    # Newton step lands on 0 has converged on a non-monotone iterate; above 5
    # a cubic keeps other entries iterating
    def f(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x + np.where(x > 5.0, (x - 5.0) ** 3 / 3.0, 0.0)

    def fprime(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 1e-6, -5.0,
                        -0.5 + np.where(x > 5.0, (x - 5.0) ** 2, 0.0))

    return bl.DriverSpec(name="kinked", f=f, fprime=fprime)


def test_converged_block_last_iterate_is_checked(small_blocks):
    # chunk 0 converges in one pass onto f' = -5, where 1 + dt lam f' = -4;
    # the whole state checks that iterate on the passes chunk 1 still runs,
    # and each chunk checks its last iterate
    m = 2 * BLOCK
    y_next = np.where(np.arange(m) < BLOCK, 2.0, 10.0)[None, :]
    forcing = np.where(np.arange(m) < BLOCK, 2.0, 0.0)[None, :]
    lam, driver = np.ones((1, 1)), _non_monotone_driver()
    work = lipschitz_solver._NewtonWorkspace((1, m))
    with pytest.raises(NumericsError) as serial:
        lipschitz_solver._implicit_step(y_next, forcing, 1.0, lam, driver, 0.0, work)
    assert "= -4 <= 0" in str(serial.value)

    def step(rows, scratch):
        return lipschitz_solver._implicit_step(
            y_next[:, rows], forcing[:, rows], 1.0, lam, driver, 0.0,
            lipschitz_solver._NewtonWorkspace((1, rows.stop - rows.start)))

    tasks = lipschitz_solver._ChunkQueue(lipschitz_solver._chunks(m), 2, lambda: None)
    try:
        assert len(tasks.chunks) == 2
        with pytest.raises(NumericsError) as threaded:
            tasks.run(step)
    finally:
        tasks.close()
    assert str(threaded.value) == str(serial.value)


def test_non_monotone_sweep_raises_the_serial_error(power1, small_blocks):
    # the minus form on the last segment of `affine_plus --terminal 1
    # --mass-cap 0.5 --n-grid 9`, over a bundle
    grid = bl.make_grid(power1, 9, mass_cap=0.5)
    prob = bl.BsdeProblem(intensity=power1,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=2)
    messages = []
    for workers in WORKERS:
        sweep = lipschitz_solver.NodeSweep(prob, grid, [2.0, 4.0], bundle=bundle,
                                           workers=workers)
        with pytest.raises(NumericsError, match="not monotone") as err:
            list(sweep.nodes())
        messages.append(str(err.value))
    assert messages[1] == messages[0] and messages[2] == messages[0]


def _degenerate_bundle(grid, node):
    # the powers of a narrow level are near collinear: condition ~3e10 at degree 4
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=4)
    levels = bundle.levels.copy()
    levels[:, node, 0] = np.random.default_rng(4).uniform(2.0, 2.05, bundle.n_paths)
    return bl.PathBundle(grid=grid, dim=1, n_paths=bundle.n_paths,
                         levels=levels, seed=bundle.seed)


def test_prefetched_basis_degenerate_names_its_node(power1, small_blocks):
    grid = bl.make_grid(power1, 11, mass_cap=10.0)
    bundle = _degenerate_bundle(grid, 4)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    for workers in WORKERS:
        sweep = lipschitz_solver.NodeSweep(prob, grid, [2.0, 4.0], bundle=bundle,
                                           basis=bl.RegressionBasis.polynomial(4),
                                           workers=workers)
        seen = []
        with pytest.raises(BasisDegenerate) as err:
            for node in sweep.nodes():
                seen.append(node.index)
        assert err.value.node_index == 4
        assert seen == list(range(len(grid.points) - 1, 4, -1))


def test_pool_threads_end_with_the_sweep(power1, small_blocks):
    baseline = threading.active_count()
    grid = bl.make_grid(power1, 11, mass_cap=10.0)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=6)

    def sweep(b=bundle, basis=None):
        return lipschitz_solver.NodeSweep(prob, grid, [2.0, 4.0], bundle=b, basis=basis,
                                          workers=3)

    list(sweep().nodes())
    assert threading.active_count() == baseline
    with pytest.raises(BasisDegenerate):
        list(sweep(_degenerate_bundle(grid, 4), bl.RegressionBasis.polynomial(4)).nodes())
    assert threading.active_count() == baseline
    nodes = sweep().nodes()
    for _ in range(3):
        next(nodes)
    assert threading.active_count() > baseline
    nodes.close()
    assert threading.active_count() == baseline


def test_pool_capped_at_block_count(power1, small_blocks, monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(lipschitz_solver, "ThreadPoolExecutor", SerialPool)
    baseline = threading.active_count()
    grid = bl.make_grid(power1, 11, mass_cap=10.0)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))

    def report(n_paths, workers):
        bundle = bl.simulate_paths(grid, 1, n_paths, seed=8)
        config = bl.SchemeConfig(tol=1.0, bundle=bundle, workers=workers)
        return bl.run_scheme(prob, grid, [2.0, 4.0], config=config)

    many = report(3 * BLOCK + 1, 10 ** 6)
    few = report(2 * BLOCK - 1, 10 ** 6)
    assert sizes == [3]                 # one-block runs start no pool at all
    assert threading.active_count() == baseline
    assert_matches_stored(many, _fields(report(3 * BLOCK + 1, 1)))
    assert_matches_stored(few, _fields(report(2 * BLOCK - 1, 1)))


def test_workers_must_be_positive(power1):
    grid = bl.make_grid(power1, 11, mass_cap=10.0)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        lipschitz_solver.NodeSweep(prob, grid, [2.0], workers=0)


@pytest.mark.parametrize("workers", [1, 2])
def test_warm_mc_node_allocates_at_most_half_a_state(monkeypatch, workers):
    # the node shape of the MC defaults, eight levels of 20000 paths in two
    # chunks, with the BMO quantiles: Q and the chunks' designs and QRs live
    # in per-sweep buffers, where a node used to allocate all three (1.5
    # states); what is left is phi and the driver clip's masks (0.19 states at
    # one worker, 0.20 at two)
    monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", 10_000)
    power1 = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(power1, 41, mass_cap=10.0)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=3)
    caps = [2.0 ** k for k in range(1, 9)]
    sweep = lipschitz_solver.NodeSweep(prob, grid, caps, bundle=bundle,
                                       driver_override=clipped, theta=0.5,
                                       workers=workers, level_quantiles=(0.005, 0.995))
    nodes = sweep.nodes()
    try:
        for _ in range(4):
            next(nodes)
        assert len(_chunks_of(sweep)) == 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            next(nodes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    finally:
        nodes.close()
    state = len(caps) * 20_000 * 8
    assert peak <= 0.5 * state


def test_held_chunk_leaves_the_other_chunks_to_the_other_worker(power1, small_blocks,
                                                                monkeypatch):
    # the sweep's first implicit step waits until the node's three other chunks
    # are stepped: the pool's other thread takes them from the queue, and the
    # nodes keep the bits of one worker
    grid = bl.make_grid(power1, 11, mass_cap=10.0)
    prob = _markovian(power1)
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    bundle = bl.simulate_paths(grid, 1, 20_000, seed=11)

    def bits(workers):
        return _node_bits(lipschitz_solver.NodeSweep(
            prob, grid, [2.0, 8.0], bundle=bundle, driver_override=clipped, theta=0.5,
            workers=workers, level_quantiles=(0.005, 0.995)))

    want = bits(1)
    step, lock = lipschitz_solver._implicit_step, threading.Lock()
    threads, done, others_done, released = [], [], threading.Event(), []

    def held(*args):
        with lock:
            k = len(threads)
            threads.append(threading.get_ident())
        if k == 0:
            released.append(others_done.wait(timeout=30))
        out = step(*args)
        with lock:
            done.append(k)
            if sorted(done) == [1, 2, 3]:
                others_done.set()
        return out

    monkeypatch.setattr(lipschitz_solver, "_implicit_step", held)
    got = bits(2)
    assert released == [True], "the other chunks waited for the held one"
    assert len(set(threads[1:4])) == 1 and threads[1] != threads[0]
    assert got == want


def test_sweep_holds_chunk_scratch_not_whole_state_buffers(power1):
    # two levels of 4 SWEEP_BLOCK paths, four chunks on two workers, traced
    # from the simulation on.  Counted in (L, M) states, L = 2 and K = 4
    # columns of the cubic design:
    # - NodeSweep: y, f and Z (3), Q (K / L = 2) and the level's copy for the
    #   quantiles (1 / L): 5.5;
    # - the level stream's window, two levels: 1;
    # - each worker's chunk scratch, a quarter of the paths: the residual,
    #   deriv, scratch, forcing and f' rows, the 2L targets and the (c, K) QR,
    #   (7 + K / L) / 4 = 2.25, and two bool masks, 1 / 16: 4.625 for two;
    # - run_scheme: the level differences' scratch (1), the per-path gaps and
    #   their standard error's temporary (1 / L each), the BMO fold's tail,
    #   its z^2 dt term, and the tail and level kept at its maximum (1 / L
    #   each): 4.
    # That is 15.1 states (phi is a scalar, the top level's moments N floats
    # each); the bound allows 15.5, and it reads 15.2.  A window of five
    # levels and per-worker bridge draws added 4.75 states (it read 19.9); a
    # bundle that held its (N, M) levels added 11 states at N = 22; whole-state
    # f' and phi copies per path add 2.
    grid = bl.make_grid(power1, 21, mass_cap=10.0)
    prob = _problem(power1, bl.CoefficientProcess.constant(1.0, 1.0))
    m = 4 * lipschitz_solver.SWEEP_BLOCK

    def run():
        bundle = bl.simulate_paths(grid, 1, m, seed=7)
        config = bl.SchemeConfig(tol=1.0, bundle=bundle, workers=2)
        bl.run_scheme(prob, grid, [2.0, 4.0], config=config)

    run()                   # loads numpy.random and scipy.linalg
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    state = 2 * m * 8
    assert peak <= 15.5 * state


def test_counters_and_errors_do_not_depend_on_chunking(monkeypatch):
    # one, two and four chunks: on the same step inputs, the chunks' Newton and
    # bisection counters, merged in chunk order, are the whole state's (a
    # sweep's inputs move with the chunks only by the TSQR's rounding), and
    # the non-monotone sweep raises the same error
    driver = _arctan_problem()[0].effective_driver()
    rng = np.random.default_rng(5)
    m = 20_000
    y_next, forcing = rng.uniform(-5.0, 5.0, (2, m)), rng.uniform(-60.0, -40.0, m)
    lam = np.array([[1.0], [2000.0]])
    whole = lipschitz_solver._implicit_step(y_next, forcing, 0.1, lam, driver, 0.0,
                                            lipschitz_solver._NewtonWorkspace((2, m)))
    assert 0 < whole[3][0] < whole[3][1] and whole[4][1] > 0 == whole[4][0]

    def step(rows, scratch):
        return lipschitz_solver._implicit_step(
            y_next[:, rows], forcing[rows], 0.1, lam, driver, 0.0,
            lipschitz_solver._NewtonWorkspace((2, rows.stop - rows.start)))

    power1 = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(power1, 9, mass_cap=0.5)
    minus = bl.BsdeProblem(intensity=power1,
                           coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                           sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
    bundle = bl.simulate_paths(grid, 1, m, seed=2)
    messages = []
    for block in (m, m // 2, m // 4):
        monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", block)
        tasks = lipschitz_solver._ChunkQueue(lipschitz_solver._chunks(m), 2, lambda: None)
        try:
            parts = tasks.run(step)
        finally:
            tasks.close()
        assert len(parts) == m // block
        assert np.array_equal(reduce(np.maximum, [part[3] for part in parts]), whole[3])
        assert np.array_equal(sum(part[4] for part in parts), whole[4])
        with pytest.raises(NumericsError, match="not monotone") as err:
            list(lipschitz_solver.NodeSweep(minus, grid, [2.0, 4.0], bundle=bundle,
                                            workers=2).nodes())
        messages.append(str(err.value))
    assert messages[1] == messages[0] and messages[2] == messages[0]
