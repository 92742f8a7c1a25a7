"""The chunked factorisation of ``fit_coefficients`` and the sweep (a TSQR: a
QR per path chunk, then one QR of the chunks' stacked R factors) against
whole-array ``np.linalg.qr`` and a triangular solve, at one chunk against the
single economic QR it replaces, bit for bit, and chunk by chunk against
``geqrf``/``orgqr`` called in place by hand, bit for bit; and the triangular
solve against scipy's ``solve_triangular``, the solve it replaced."""

import math

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, solve_triangular

import bsdelab as bl
from bsdelab import lipschitz_solver
from bsdelab.errors import BasisDegenerate

M = 12_000
CHUNKS = (1, 2, 12)
# coefficients within this multiple of the largest one: the tolerance of the
# single-QR oracle test in test_lipschitz_solver; measured here, the TSQR is
# within 1.1e-14 of np.linalg.qr at degrees 0-5 and conditions up to 4e5
COEF_RTOL = 1e-12
# np.linalg.solve on one right-hand column against solve_triangular: within this
# multiple of the largest coefficient (measured: at most 1.5e-14 over 3,000 random
# polynomial TSQR fits, K = 1-8, 1-12 chunks)
SOLVE_RTOL = 1e-13


@pytest.fixture
def chunks(request, monkeypatch):
    """``SWEEP_BLOCK`` set so that ``M`` paths make ``request.param`` chunks."""
    monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", M // request.param)
    assert len(lipschitz_solver._chunks(M)) == request.param
    return request.param


def _in_place(routine, *args):
    """A LAPACK ``routine`` run in place on its first argument, with the
    workspace size its query returns."""
    lwork = routine(*args, lwork=-1, overwrite_a=1)[-2][0].real.astype(np.int_)
    *out, info = routine(*args, lwork=lwork, overwrite_a=1)
    assert info == 0
    return out[:-1]


def _lapack_qr(a):
    """Economic QR of the Fortran-ordered ``a`` by ``geqrf``/``orgqr`` in place:
    ``(R, Q)``, Q in ``a``'s memory."""
    geqrf, orgqr = get_lapack_funcs(("geqrf", "orgqr"), (a,))
    factored, tau = _in_place(geqrf, a)
    r = np.triu(factored[:a.shape[1]])
    q, = _in_place(orgqr, factored, tau)
    return r, q


def _single_qr_fit(basis, w, target, node_index=-1):
    """The one economic QR that ``fit_coefficients`` made before the chunks:
    LAPACK ``geqrf``/``orgqr`` in place on the Fortran-ordered design, Q copied
    to C order, R's condition guarded; ``(coef, cond)``."""
    design = basis.design(w)
    qr = np.empty_like(design)
    basis.design(w, out=qr)
    r, q = _lapack_qr(qr)
    svals = np.linalg.svd(r, compute_uv=False)
    cond = svals[0] / svals[-1]
    if svals[-1] <= 0 or cond > lipschitz_solver._COND_LIMIT:
        raise BasisDegenerate(node_index, math.inf if svals[-1] <= 0 else cond)
    return solve_triangular(r, np.ascontiguousarray(q).T @ target), float(cond)


def _level_and_target(degree, scale):
    rng = np.random.default_rng(10 * degree + int(scale * 10))
    w = rng.standard_normal(M) * scale
    target = np.column_stack([np.sin(w / scale), np.exp(-w), rng.standard_normal(M)])
    return w, target


@pytest.mark.parametrize("chunks", CHUNKS, indirect=True)
@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("scale", [0.05, 1.0])
def test_chunked_fit_agrees_with_whole_array_qr(chunks, degree, scale):
    w, target = _level_and_target(degree, scale)
    basis = bl.RegressionBasis.polynomial(degree)
    coef, fit = lipschitz_solver.fit_coefficients(basis, w, target)
    design = basis.design(w)
    q, r = np.linalg.qr(np.ascontiguousarray(design))
    want = solve_triangular(r, q.T @ target)
    svals = np.linalg.svd(r, compute_uv=False)
    assert np.max(np.abs(coef - want)) <= COEF_RTOL * np.max(np.abs(want))
    assert fit.cond == pytest.approx(svals[0] / svals[-1], rel=1e-9)
    assert len(fit.chunks) == chunks and (fit.stack_q is None) == (chunks == 1)
    # further targets on the same factorisation, as the BMO fold fits its tail
    tail = np.cos(w)[:, None]
    assert np.allclose(fit.solve(tail), solve_triangular(r, q.T @ tail),
                       rtol=0, atol=COEF_RTOL * np.max(np.abs(want)))


@pytest.mark.parametrize("degree", range(6))
def test_one_chunk_is_the_single_qr_bit_for_bit(degree):
    w, target = _level_and_target(degree, 1.0)
    basis = bl.RegressionBasis.polynomial(degree)
    assert len(lipschitz_solver._chunks(M)) == 1
    coef, fit = lipschitz_solver.fit_coefficients(basis, w, target)
    want, cond = _single_qr_fit(basis, w, target)
    assert coef.tobytes() == want.tobytes()
    assert fit.cond == cond


@pytest.mark.parametrize("chunks", CHUNKS, indirect=True)
def test_degenerate_level_fits_the_mean(chunks):
    # W_0 = 0 on every path: the intercept holds the mean, summed in chunk order
    target = np.random.default_rng(1).standard_normal((M, 3))
    basis = bl.RegressionBasis.polynomial(3)
    coef, fit = lipschitz_solver.fit_coefficients(basis, np.zeros(M), target)
    assert fit.q is None and fit.cond is None
    assert not np.any(coef[1:])
    mean = target.mean(axis=0)
    if chunks == 1:
        assert coef[0].tobytes() == mean.tobytes()
    assert np.allclose(coef[0], mean, rtol=0, atol=1e-15)


@pytest.mark.parametrize("chunks", CHUNKS, indirect=True)
def test_near_singular_level_raises_at_its_node(chunks):
    # powers of a narrow level are near collinear: condition ~3e10 at degree 4
    w = np.random.default_rng(4).uniform(2.0, 2.05, M)
    basis = bl.RegressionBasis.polynomial(4)
    with pytest.raises(BasisDegenerate) as want:
        _single_qr_fit(basis, w, np.ones((M, 1)), node_index=7)
    with pytest.raises(BasisDegenerate) as got:
        lipschitz_solver.fit_coefficients(basis, w, np.ones((M, 1)), node_index=7)
    assert got.value.node_index == want.value.node_index == 7
    assert got.value.condition == pytest.approx(want.value.condition, rel=1e-4)


@pytest.mark.parametrize("chunks", [2, 12])
def test_sweep_degenerate_node_names_its_index(chunks, monkeypatch):
    # the near-singular level at node 4 of a sweep, whose W_0 = 0 level at
    # node 0 is never reached: the error names node 4 at any chunk count
    power1 = bl.IntensityModel.power_gap(1.0, 1.0)
    grid = bl.make_grid(power1, 11, mass_cap=10.0)
    bundle = bl.simulate_paths(grid, 1, M, seed=4)
    levels = bundle.levels.copy()
    levels[:, 4, 0] = np.random.default_rng(4).uniform(2.0, 2.05, M)
    bundle = bl.PathBundle(grid=grid, dim=1, n_paths=M,
                           levels=levels, seed=bundle.seed)
    prob = bl.BsdeProblem(intensity=power1,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))
    monkeypatch.setattr(lipschitz_solver, "SWEEP_BLOCK", M // chunks)
    sweep = lipschitz_solver.NodeSweep(prob, grid, [2.0, 4.0], bundle=bundle,
                                       basis=bl.RegressionBasis.polynomial(4), workers=2)
    with pytest.raises(BasisDegenerate) as err:
        list(sweep.nodes())
    assert err.value.node_index == 4


def _lapack_tsqr(design, chunks):
    """The TSQR of ``design`` over ``chunks`` as hand-called LAPACK made it:
    ``(q, rs, stack_q, r, cond)`` with Q in C order."""
    q = np.empty(design.shape)
    rs = []
    for rows in chunks:
        r, q[rows] = _lapack_qr(np.array(design[rows], order="F"))
        rs.append(r)
    stack_q, r = None, rs[0]
    if len(rs) > 1:
        r, stack_q = _lapack_qr(np.asfortranarray(np.vstack(rs)))
        stack_q = np.ascontiguousarray(stack_q)
    svals = np.linalg.svd(r, compute_uv=False)
    return q, rs, stack_q, r, float(svals[0] / svals[-1])


@pytest.mark.parametrize("chunks", CHUNKS, indirect=True)
@pytest.mark.parametrize("degree", range(6))
def test_factor_and_merge_match_hand_called_lapack_bit_for_bit(chunks, degree):
    w, _ = _level_and_target(degree, 1.0)
    basis = bl.RegressionBasis.polynomial(degree)
    design = basis.design(w)
    slices = lipschitz_solver._chunks(M, degree + 1)
    want_q, want_rs, want_stack_q, want_r, want_cond = _lapack_tsqr(design, slices)
    q = np.empty(design.shape)
    rs = []
    for rows, want in zip(slices, want_rs):
        chunk = np.array(design[rows], order="F")
        r = lipschitz_solver._factor(chunk, q[rows])
        assert r.tobytes() == want.tobytes()
        assert q[rows].tobytes() == want_q[rows].tobytes()
        assert np.triu(chunk[:degree + 1]).tobytes() == want.tobytes()  # R, factored in place
        rs.append(r)
    stack_q, r, cond = lipschitz_solver._merge(rs, node_index=3)
    assert r.tobytes() == want_r.tobytes()
    assert cond == want_cond
    assert (stack_q is None) == (want_stack_q is None) == (chunks == 1)
    if stack_q is not None:
        assert stack_q.tobytes() == want_stack_q.tobytes()
    # and as fit_coefficients assembles them
    _, fit = lipschitz_solver.fit_coefficients(basis, w, np.ones((M, 1)))
    assert fit.q.tobytes() == want_q.tobytes() and fit.r.tobytes() == want_r.tobytes()
    assert fit.cond == want_cond


@pytest.mark.parametrize("chunks", CHUNKS, indirect=True)
@pytest.mark.parametrize("width", range(1, 9))
def test_solve_matches_the_triangular_solve_it_replaced(chunks, width):
    # NodeFit.combine solves R c = Q^T y with np.linalg.solve (LU of a triangular
    # R, which never pivots); scipy's solve_triangular was the solve before it
    w, target = _level_and_target(width - 1, 1.0)
    basis = bl.RegressionBasis.polynomial(width - 1)
    for columns in (target[:, :2], target, target[:, 0]):
        coef, fit = lipschitz_solver.fit_coefficients(basis, w, columns)
        partials = [fit.q[rows].T @ columns[rows] for rows in fit.chunks]
        rhs = partials[0] if fit.stack_q is None else fit.stack_q.T @ np.concatenate(partials)
        want = solve_triangular(fit.r, rhs)
        if columns.ndim == 2:
            assert coef.tobytes() == want.tobytes()
        else:
            assert np.abs(coef - want).max() <= SOLVE_RTOL * np.abs(want).max()


@pytest.mark.parametrize("rows", [16_384, 16_667, 20_000])
def test_factor_matches_hand_called_lapack_at_sweep_chunk_sizes(rows):
    # the chunk sizes of 16384, 50000 and 200000 paths
    w = np.random.default_rng(rows).standard_normal(rows)
    design = bl.RegressionBasis.polynomial(5).design(w)
    want_r, want_q = _lapack_qr(np.array(design, order="F"))
    q = np.empty(design.shape)
    r = lipschitz_solver._factor(np.array(design, order="F"), q)
    assert r.tobytes() == want_r.tobytes()
    assert q.tobytes() == np.ascontiguousarray(want_q).tobytes()


@pytest.mark.parametrize("chunks", CHUNKS, indirect=True)
def test_nan_level_fails_the_svd_as_hand_called_lapack_does(chunks):
    w = np.random.default_rng(5).standard_normal(M)
    w[M // 3] = np.nan
    basis = bl.RegressionBasis.polynomial(3)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _lapack_tsqr(basis.design(w), lipschitz_solver._chunks(M, 4))
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        lipschitz_solver.fit_coefficients(basis, w, np.ones((M, 1)))
