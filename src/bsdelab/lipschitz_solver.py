"""Classical bounded-coefficient BSDE solver: backward theta-step.

y_i = y_{i+1} - dt [theta G_i(y_i) + (1 - theta) G_{i+1}(y_{i+1})]: implicit
Euler at theta = 1, the trapezoid rule at theta = 1/2.  Deterministic data
reduce to a stiff backward ODE solved node by node with a safeguarded Newton
iteration.  Markovian data run least-squares Monte Carlo:
conditional expectations are fitted on basis functions of the Brownian level,
the implicit step is solved per path with the regressed Z frozen.  All levels
of a truncation schedule share one backward pass and one factorisation of
each node's design.

The implicit treatment of the intensity term is what keeps the scheme stable
as the truncation level grows; an explicit step would need dt ~ 1/n.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .coefficients import BsdeProblem, DriverSpec, TimeGrid
from .errors import BasisDegenerate, NumericsError
from .paths import PathBundle

NEWTON_TOL = 1e-12
_COND_LIMIT = 1e10
SWEEP_BLOCK = 1 << 14     # smallest path block a threaded Monte Carlo sweep steps


# ---------------------------------------------------------------------------
# Regression basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionBasis:
    """Feature map applied to the Brownian level at each node."""

    kind: str                     # polynomial
    degree: int = 3

    @classmethod
    def polynomial(cls, degree: int) -> "RegressionBasis":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls(kind="polynomial", degree=degree)

    def design(self, w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Monomials 1, w, ..., w^degree of a one-dimensional level, built column
        by column in Fortran order: the products np.vander forms.  They go into
        ``out`` when it is given."""
        w = np.asarray(w, dtype=float)
        x = np.empty((len(w), self.degree + 1), order="F") if out is None else out
        x[:, 0] = 1.0
        for k in range(1, self.degree + 1):
            np.multiply(x[:, k - 1], w, out=x[:, k])
        return x


def _degenerate_level(w: np.ndarray) -> bool:
    """True when the level carries no information (e.g. W_0 = 0 on every path)."""
    w = np.asarray(w, dtype=float)
    hi, lo = w.max(), w.min()
    # max |w| without an |w| array
    return bool(hi - lo < 1e-14 * (1.0 + np.maximum(hi, -lo)))


@dataclass(frozen=True)
class NodeFit:
    """A node's design, its QR factors and the condition number of R; ``q`` and
    ``cond`` are None on a level that carries no information, where every fit
    is the plain mean.  ``quantiles`` are the level's quantiles a sweep was
    asked for (None otherwise)."""

    design: np.ndarray
    q: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    cond: Optional[float] = None
    quantiles: Optional[np.ndarray] = None

    def solve(self, target: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of every column of ``target`` (M, T)."""
        if self.q is None:
            coef = np.zeros((self.design.shape[1], target.shape[1]))
            coef[0] = target.mean(axis=0)
            return coef
        from scipy.linalg import solve_triangular      # loaded by _qr_routines
        return solve_triangular(self.r, self.q.T @ target)


def _qr_routines(a: np.ndarray) -> tuple:
    """LAPACK's ``geqrf`` and ``orgqr`` for arrays like ``a``.  scipy.linalg is
    imported here, at a regression's first factorisation, not with the module:
    it is most of the package's import time, and runs without a regression
    never load it."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(("geqrf", "orgqr"), (a,))


def _in_place(routine, *args):
    """A LAPACK ``routine`` run in place on its first argument, with the
    workspace size its query returns: the calls ``scipy.linalg.qr`` makes."""
    lwork = routine(*args, lwork=-1, overwrite_a=1)[-2][0].real.astype(np.int_)
    *out, info = routine(*args, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of a LAPACK call")
    return out[:-1]


def _factor(basis: RegressionBasis, w: np.ndarray, node_index: int,
            qr: np.ndarray, routines: tuple) -> tuple:
    """Economic QR of the design on the level ``w``, in place in ``qr``, an
    (M, K) buffer in Fortran order, by the LAPACK ``routines`` of
    ``_qr_routines(qr)``.

    Returns ``(q, r, cond)``: ``q`` is Q in Fortran order, in ``qr``, and
    ``cond`` the ratio of the singular values of R that the condition-number
    guard reads.  On a level that carries no information the sigma-algebra is
    trivial and the fit is the plain mean, held by the intercept:
    ``(None, None, None)``.
    """
    if _degenerate_level(w):
        return None, None, None
    if qr.shape[0] < qr.shape[1]:
        raise BasisDegenerate(node_index, math.inf)
    # the Fortran-ordered design reaches LAPACK without a copy; no finiteness
    # scan: a NaN in the design propagates into R and its SVD
    basis.design(w, out=qr)
    geqrf, orgqr = routines
    factored, tau = _in_place(geqrf, qr)
    r = np.triu(factored[:qr.shape[1]])
    q, = _in_place(orgqr, factored, tau)
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > _COND_LIMIT:
        cond = math.inf if svals[-1] <= 0 else svals[0] / svals[-1]
        raise BasisDegenerate(node_index, cond)
    return q, r, float(svals[0] / svals[-1])


def fit_coefficients(basis: RegressionBasis, w: np.ndarray, target: np.ndarray,
                     node_index: int = -1) -> tuple:
    """Least-squares fit of every column of ``target`` (M, T) on ``basis.design(w)``.

    One economic QR factorisation (``_factor``) serves all columns.  Returns
    ``(coef, fit)``: the fitted values are ``fit.design @ coef``, and
    ``fit.solve`` fits further targets on the same factorisation.
    """
    design = basis.design(w)
    qr = np.empty_like(design)
    q, r, cond = _factor(basis, w, node_index, qr, _qr_routines(qr))
    # Q in C order: BLAS sums ``q.T @ target`` in an order set by the layout,
    # and this one matches the C-ordered factor of np.linalg.qr bit for bit
    fit = NodeFit(design, None if q is None else np.ascontiguousarray(q), r, cond)
    return fit.solve(target), fit


class _NodeFactors:
    """A sweep's buffers for its nodes' regressions, allocated once: the design
    and the QR (Fortran order), Q (C order) and a copy of the level that the
    quantiles partition.

    ``factor`` works in the QR buffer alone, so it can run for the next node
    while the current node, whose design and Q ``fill_rows`` put in their
    buffers, is stepped.  The LAPACK routines are looked up, and scipy.linalg
    imported, when the buffers are made, in the thread that makes them."""

    def __init__(self, basis: RegressionBasis, n_paths: int, quantiles: Sequence = ()):
        shape = (n_paths, basis.degree + 1)
        self.basis, self.quantiles = basis, quantiles
        self.design, self.qr = np.empty(shape, order="F"), np.empty(shape, order="F")
        self.q = np.empty(shape)
        self._routines = _qr_routines(self.qr)
        self._sorted = np.empty(n_paths) if quantiles else None
        self._factored = None       # the last factored node's Q, in Fortran order

    def factor(self, w: np.ndarray, node_index: int) -> NodeFit:
        """Node ``node_index``'s fit on the level ``w``, with the level's
        ``quantiles``; its design and Q are valid once ``fill_rows`` has filled
        every row, until the next node's."""
        self._factored, r, cond = _factor(self.basis, w, node_index, self.qr,
                                          self._routines)
        quantiles = None
        if self.quantiles:
            np.copyto(self._sorted, w)
            quantiles = np.quantile(self._sorted, self.quantiles, overwrite_input=True)
        q = None if self._factored is None else self.q
        return NodeFit(self.design, q, r, cond, quantiles)

    def fill_rows(self, w: np.ndarray, rows: slice) -> None:
        """The rows ``rows`` of the last factored node's design on ``w`` and of
        its Q, copied in C order (see ``fit_coefficients``)."""
        self.basis.design(w[rows], out=self.design[rows])
        if self._factored is not None:
            np.copyto(self.q[rows], self._factored[rows])


# ---------------------------------------------------------------------------
# Solution container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionEstimate:
    """Backward-solve output.  ``y`` is nodal (N,) in ODE mode, path-nodal (M, N)
    in regression mode; ``z`` lives on the left nodes (None for a level whose Z
    a scheme run did not keep)."""

    grid: TimeGrid
    y: np.ndarray
    z: Optional[np.ndarray]
    mode: str                               # ode_exact | regression_mc
    problem: BsdeProblem
    lambda_cap: Optional[float] = None      # truncation level applied, if any
    driver_used: Optional[DriverSpec] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def pathwise(self) -> bool:
        return self.y.ndim == 2

    def nodal_mean(self) -> np.ndarray:
        return self.y.mean(axis=0) if self.pathwise else self.y


# ---------------------------------------------------------------------------
# Implicit step
# ---------------------------------------------------------------------------

def _bracket_and_bisect(residual, start):
    """Widen a bracket around ``start`` until the residual changes sign, then bisect."""
    width = np.maximum(1.0, np.abs(start))
    for _ in range(200):
        lo, hi = start - width, start + width
        f_lo, f_hi = residual(lo), residual(hi)
        open_ = ~(f_lo * f_hi <= 0)
        if not open_.any():
            break
        width = np.where(open_, 2.0 * width, width)
    else:
        raise NumericsError("implicit step: no sign change found for bisection")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if np.all((np.abs(f_mid) < NEWTON_TOL)
                  | (hi - lo < 1e-15 * np.maximum(1.0, np.abs(mid)))):
            return mid
        left = f_lo * f_mid <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        f_lo = np.where(left, f_lo, f_mid)
    raise NumericsError("implicit step failed to converge")


class _NewtonWorkspace:
    """The (L, M) buffers one sweep's implicit steps work in, allocated once.

    ``f`` holds the driver at the latest Newton iterate; the step returns it
    as the driver's values at the solution, valid until the next step.  The
    values go into one of two buffers that alternate, so a step's values can
    be the next step's ``y_next``; they are valid until the step after next."""

    _BUFFERS = ("residual", "deriv", "scratch", "f", "fprime", "active")

    def __init__(self, shape):
        self.residual = np.empty(shape)
        self.deriv = np.empty(shape)
        self.scratch = np.empty(shape)
        self.f = np.empty(shape)
        self.fprime = np.empty(shape)
        self.active = np.empty(shape, dtype=bool)
        self._values = [np.empty(shape), np.empty(shape)]

    def values(self) -> np.ndarray:
        """The values buffer for the next step: the one the last step did not use."""
        self._values.reverse()
        return self._values[0]

    def columns(self, cols: slice) -> "_NewtonWorkspace":
        """The columns ``cols`` of these buffers, the values buffers excepted:
        the workspace of ``_newton`` on a block of paths."""
        view = object.__new__(_NewtonWorkspace)
        for name in self._BUFFERS:
            setattr(view, name, getattr(self, name)[:, cols])
        return view


class _NewtonRun(NamedTuple):
    """What ``_newton`` reports on its block."""

    iterations: np.ndarray      # per row: the passes in which the row had an active entry
    resid: np.ndarray           # per row: the largest |residual| (NaN in a row with a NaN)
    smallest: list              # per pass: the smallest 1 + dt (lam f' + b); the
                                # block stops at the first that is not > 0
    final: Optional[float]      # the same at the converged iterate, when asked for


def _newton(y, y_next, forcing, dt, lam, driver, b, work, check_final=False) -> _NewtonRun:
    """Newton iterations for y = y_next - dt (forcing + lam f(y) + b y) into ``y``.

    Starts from ``y_next``, with f and f' from one joint evaluation per
    iterate; an entry stops moving once its residual is below ``NEWTON_TOL``,
    and the iterations stop when no entry moves, after 100 passes, or at a
    pass where 1 + dt (lam f'(y) + b) > 0 fails somewhere.  Leaves the
    residual in ``work.residual``, its absolute value in ``work.scratch`` and
    f and f' at ``y`` in ``work.f`` and ``work.fprime``.  An entry's iterates
    do not depend on the other entries, so column blocks of a state run the
    passes of the whole state; ``check_final`` also reports the smallest
    derivative at a converged block's last iterate, which the whole state
    checks on the passes the block no longer runs.
    """
    np.copyto(y, y_next)
    F, deriv, tmp, fy, dfy, active = (work.residual, work.deriv, work.scratch,
                                      work.f, work.fprime, work.active)

    def residual():
        # F = y - y_next + dt (forcing + lam fy + b y), in that order
        np.multiply(lam, fy, out=tmp)
        np.add(forcing, tmp, out=tmp)
        if b != 0.0:
            np.multiply(b, y, out=F)
            np.add(tmp, F, out=tmp)
        np.multiply(dt, tmp, out=tmp)
        np.subtract(y, y_next, out=F)
        np.add(F, tmp, out=F)

    def derivative():
        # deriv = 1 + dt (lam f' + b); its smallest entry, NaN when any entry is
        np.multiply(lam, dfy, out=deriv)
        if b != 0.0:
            np.add(deriv, b, out=deriv)
        np.multiply(dt, deriv, out=deriv)
        np.add(1.0, deriv, out=deriv)
        return float(np.min(deriv))

    iterations = np.zeros(y.shape[0], dtype=int)
    smallest, final = [], None
    driver.f_fprime(y, out=(fy, dfy))
    residual()
    for _ in range(100):
        np.greater_equal(np.abs(F, out=tmp), NEWTON_TOL, out=active)
        rows = active.any(axis=1)
        if not rows.any():
            if check_final:
                final = derivative()
            break
        iterations += rows
        smallest.append(derivative())
        if not smallest[-1] > 0:
            break
        np.subtract(y, np.divide(F, deriv, out=tmp), out=y, where=active)
        driver.f_fprime(y, out=(fy, dfy))
        residual()
    resid = np.abs(F, out=tmp).max(axis=1)
    return _NewtonRun(iterations, resid, smallest, final)


def _check_monotone(runs: Sequence, dt: float) -> None:
    """Raise where the Newton passes of the blocks in ``runs``, taken as one
    state, meet a derivative 1 + dt (lam f' + b) that is not > 0."""
    # a block stops at its first failing pass: without one, nothing fails
    if all((not run.smallest or run.smallest[-1] > 0)
           and (run.final is None or run.final > 0) for run in runs):
        return
    for k in range(max(len(run.smallest) for run in runs)):
        # a block that stopped earlier sits at its last iterate
        smallest = np.min([run.smallest[k] if k < len(run.smallest) else run.final
                           for run in runs])
        if not smallest > 0:
            raise NumericsError(f"implicit step not monotone: 1 + dt (lam f' + b) = "
                                f"{float(smallest):.3g} <= 0 at dt = {dt:.3g}")


def _bisect_failures(y, y_next, forcing, dt, lam, driver, b, work, resid) -> tuple:
    """The entries of a Newton result ``y`` whose residual is not below
    ``NEWTON_TOL`` (``work.scratch`` holds |residual|), solved again by one
    bracket and bisection on them all.  Returns per row the worst residual and
    the entries that fell back."""
    fallbacks = np.zeros(y.shape[0], dtype=int)
    if np.all(resid < NEWTON_TOL):
        return resid, fallbacks
    bad = np.logical_not(np.less(work.scratch, NEWTON_TOL, out=work.active), out=work.active)
    fallbacks = bad.sum(axis=1)

    def full_residual(v, fv, y_next, forcing, lam):
        return v - y_next + dt * (forcing + lam * fv + b * v)

    y_next_bad, forcing_bad, lam_bad = (np.broadcast_to(a, y.shape)[bad]
                                        for a in (y_next, forcing, lam))
    y[bad] = _bracket_and_bisect(
        lambda v: full_residual(v, driver.f(v), y_next_bad, forcing_bad, lam_bad),
        y_next_bad)
    driver.f_fprime(y, out=(work.f, work.fprime))
    resid = np.max(np.abs(full_residual(y, work.f, y_next, forcing, lam)), axis=1)
    return resid, fallbacks


def _implicit_step(y_next, forcing, dt, lam, driver, b, work, blocks=None):
    """Solve y = y_next - dt (forcing + lam f(y) + b y) entrywise for a (L, M) state.

    Newton from ``y_next`` (``_newton``).  Entries that leave the finite range
    or do not converge fall back to a bracket and bisection; where
    1 + dt (lam f'(y) + b) <= 0 at a Newton iterate the step is not monotone
    in ``y_next``: ``NumericsError``.
    Every Newton operation writes into ``work``, a ``_NewtonWorkspace`` of the
    state's shape, and so do the values it returns; ``work.f`` and
    ``work.fprime`` are left holding f and f' at the values.
    Returns the values, f at the values, and per level (row) the worst
    residual, the Newton iterates and the entries that fell back to bisection.
    With ``blocks``, a ``_PathBlocks``, the Newton passes run on column blocks
    of the state and the counters are the largest over the blocks; the
    monotonicity check and the bisection see the whole state, so the results
    and errors are the same.
    """
    y = work.values()
    if blocks is None:
        runs = [_newton(y, y_next, forcing, dt, lam, driver, b, work)]
    else:
        def block(k):
            cols = blocks.cols[k]
            return _newton(y[:, cols], y_next[:, cols], _columns(forcing, cols), dt, lam,
                           driver, b, blocks.work[k], check_final=True)

        runs = blocks.run(block)
    _check_monotone(runs, dt)
    # maxima over the blocks; np.maximum keeps a NaN residual
    resid, fallbacks = _bisect_failures(y, y_next, forcing, dt, lam, driver, b, work,
                                        reduce(np.maximum, [run.resid for run in runs]))
    return y, work.f, resid, reduce(np.maximum, [run.iterations for run in runs]), fallbacks


def _columns(a, cols: slice):
    """The columns ``cols`` of a per-path array; a scalar is every path's."""
    return a[..., cols] if np.ndim(a) else a


def _block_columns(n_paths: int, workers: int) -> list:
    """Column slices of ``min(workers, n_paths // SWEEP_BLOCK)`` blocks of
    nearly equal width, at least one."""
    count = max(1, min(workers, n_paths // SWEEP_BLOCK))
    edges = [n_paths * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class _PathBlocks:
    """Column blocks of a sweep's (L, M) state (``_block_columns``), stepped by
    a thread pool.

    ``work`` holds each block's view of the sweep's ``_NewtonWorkspace``.  The
    pool has one thread per block and exists only with two blocks or more;
    ``close`` shuts it down."""

    def __init__(self, n_paths: int, workers: int, work: _NewtonWorkspace):
        self.cols = _block_columns(n_paths, workers)
        self.work = [work.columns(cols) for cols in self.cols]
        count = len(self.cols)
        self.pool = ThreadPoolExecutor(max_workers=count) if count > 1 else None

    def run(self, fn) -> list:
        """``fn(k)`` for every block k, in block order; this thread runs block 0
        and the pool the others."""
        if self.pool is None:
            return [fn(0)]
        futures = [self.pool.submit(fn, k) for k in range(1, len(self.cols))]
        try:
            first = fn(0)
        finally:
            wait(futures)
        return [first] + [future.result() for future in futures]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)


def _explicit_half(y_next, phi_next, lam_next, b, h, work, out):
    """The theta-step's explicit half y_next - h (phi_next + lam_next f + b y_next)
    into ``out``, with f at ``y_next`` read from ``work.f``."""
    np.multiply(lam_next, work.f, out=out)
    np.add(phi_next, out, out=out)
    if b != 0.0:
        np.add(out, np.multiply(b, y_next, out=work.scratch), out=out)
    np.multiply(h, out, out=out)
    return np.subtract(y_next, out, out=out)


def _box_clamp_applies(problem: BsdeProblem) -> bool:
    d = problem.effective_driver()
    return (problem.terminal.is_zero and problem.coefficient.nonnegative
            and d.zero_at_zero and d.nondecreasing and d.below_identity)


# ---------------------------------------------------------------------------
# Backward sweep over a schedule of truncation levels
# ---------------------------------------------------------------------------

class SweepNode(NamedTuple):
    """Every level's values at one grid node of a backward sweep."""

    index: int
    y: np.ndarray                     # (L, M) values, after the Monte Carlo clamp,
                                      # until the next node
    f: np.ndarray                     # (L, M) driver f at y, until the next node
    z: Optional[np.ndarray] = None    # (L, M) Z on the left node, until the next
                                      # node; None at T
    fit: Optional[NodeFit] = None     # the node's regression (Monte Carlo mode),
                                      # until the next node


class NodeSweep:
    """Backward theta-step for every truncation level in ``caps``, node by node.

    The state at a node has shape (L, M): L levels and M paths, M = 1 without a
    bundle (ODE mode, deterministic data).  With a bundle the conditional
    expectations are least-squares Monte Carlo fits on the Brownian level: each
    node's design is built and factored once and all 2L targets (Y and the Z
    increment products of every level) are fitted against it.  Z is frozen
    inside the implicit step (it enters linearly with a bounded slope, one pass
    is enough at these accuracy targets).  When the problem's flags prove the
    a-priori box, each level's largest excursion from it is recorded before
    the Monte Carlo clamp pulls the values into the box with ``clamp_margin``
    slack.  With ``level_quantiles`` each node's fit carries those quantiles
    of the Brownian level.

    The implicit half of the step runs ``_implicit_step`` over ``theta dt``;
    ``theta`` = 1, the default and ``backward_sweep``'s, is implicit Euler.
    For ``theta`` < 1 the explicit half y_{i+1} - (1 - theta) dt G_{i+1}(y_{i+1})
    becomes the step's input, and in Monte Carlo mode the Y regression target;
    f and f' at y_{i+1} are the previous step's, kept in its workspace.  Where
    the explicit half is not monotone in y_{i+1}, that is
    1 - (1 - theta) dt max(lam_{i+1} f'(y_{i+1}) + b) < 0 (or NaN), the segment
    runs at theta = 1; ``theta_fallback_segments`` counts such segments.  The
    tail from ``t_cap`` to T always runs at theta = 1 and is not counted: lam_n
    rises from lam(t_cap) to n inside it, which the grid does not resolve.  A
    ``level_grid`` has no tail.

    ``workers`` > 1 threads a Monte Carlo sweep of at least two
    ``SWEEP_BLOCK``-path blocks: the per-path work (the regression targets,
    the fitted values, the Newton passes, the box excursion, the clamp and the
    extremes) runs on column blocks of the state, one per worker, and each
    node's factorisation runs while the node before it in the sweep is
    stepped.  Every reduction over the paths runs on the whole state, so the
    values and counters do not depend on ``workers``.

    ``nodes()`` yields one ``SweepNode`` per grid index, from T backward; only
    the current node is held, and its ``y``, ``f``, ``z`` and ``fit`` live in
    per-sweep buffers until the next node is computed.  Once it is exhausted,
    ``residual_max``, ``box_excursion_raw``, ``y_min``, ``y_max``,
    ``y0_mean`` and the Newton counters hold one value per level:
    ``newton_iterations`` (summed over nodes), ``newton_max_per_node`` and
    ``bisection_entries`` (entries that fell back to the bracket, summed).
    ``regression_cond_min`` and ``regression_cond_max`` bound the condition
    numbers of the nodes' regressions (NaN where no node regressed).
    ``theta_fallback_segments`` is one count for the sweep.
    """

    def __init__(self, problem: BsdeProblem, grid: TimeGrid, caps: Sequence,
                 bundle: Optional[PathBundle] = None,
                 basis: Optional[RegressionBasis] = None,
                 driver_override: Optional[DriverSpec] = None,
                 clamp_margin: float = 1e-3, theta: float = 1.0, workers: int = 1,
                 level_quantiles: Sequence = ()):
        if not 0 < theta <= 1:
            raise ValueError(f"theta must lie in (0, 1], got {theta}")
        if theta < 1 and problem.z_slope != 0.0:
            raise ValueError("theta < 1 needs z_slope = 0: Z is frozen in the implicit half")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.mc = bundle is not None
        if self.mc:
            if basis is None:
                basis = RegressionBasis.polynomial(3)
            if bundle.grid is not grid and not np.array_equal(bundle.grid.points,
                                                              grid.points):
                raise ValueError("bundle was simulated on a different grid")
        elif problem.coefficient.is_markovian:
            raise ValueError("ODE mode needs deterministic coefficients")
        elif problem.terminal.kind == "random":
            raise ValueError("ODE mode needs a deterministic terminal value")
        lam = []
        for cap in caps:
            if cap is None and problem.intensity.is_singular:
                raise ValueError("the classical solver needs a bounded (truncated) intensity")
            lam.append(np.asarray(problem.intensity.value(grid.points, cap), dtype=float))
        if self.mc and bundle.dim != 1:
            raise ValueError("regression mode currently supports one Brownian dimension")
        self.problem, self.grid, self.caps = problem, grid, list(caps)
        self.bundle, self.basis, self.clamp_margin = bundle, basis, clamp_margin
        self.theta, self.workers, self.level_quantiles = theta, workers, level_quantiles
        self.driver = driver_override if driver_override is not None \
            else problem.effective_driver()
        self.m_paths = bundle.n_paths if self.mc else 1
        self.box = _box_clamp_applies(problem)
        self._lam = np.array(lam)              # (L, N + 1): lam_n at every node
        n_levels = len(lam)
        self.residual_max = np.zeros(n_levels)
        self.box_excursion_raw = np.zeros(n_levels)
        self.y_min = np.full(n_levels, np.inf)
        self.y_max = np.full(n_levels, -np.inf)
        self.y0_mean = np.full(n_levels, np.nan)
        self.newton_iterations = np.zeros(n_levels, dtype=int)
        self.newton_max_per_node = np.zeros(n_levels, dtype=int)
        self.bisection_entries = np.zeros(n_levels, dtype=int)
        self.regression_cond_min = self.regression_cond_max = math.nan
        self.theta_fallback_segments = 0

    def nodes(self):
        """Yield a ``SweepNode`` per grid index, from the terminal node backward."""
        work = _NewtonWorkspace((len(self.caps), self.m_paths))
        blocks = _PathBlocks(self.m_paths, self.workers if self.mc else 1, work)
        try:
            yield from self._sweep(work, blocks)
        finally:
            blocks.close()

    def _sweep(self, work: _NewtonWorkspace, blocks: _PathBlocks):
        problem, grid, driver, theta = self.problem, self.grid, self.driver, self.theta
        pts = grid.points
        n_levels = len(self.caps)
        sup = problem.coefficient.sup_norm
        b, sigma = problem.y_slope, problem.z_slope
        y_next = np.empty((n_levels, self.m_paths))
        sigma_z = np.empty_like(y_next)             # per-sweep buffer for phi + sigma Z
        phi = None          # phi at the right node until the node's own replaces it
        if self.mc:
            levels = self.bundle.levels[:, :, 0]
            increments = self.bundle.increments[:, :, 0]
            # the targets Y (or the explicit half) and Y dW / dt; each node's fit
            # overwrites them with the fitted Y and Z
            targets = np.empty((2 * n_levels, self.m_paths))
            y_fit, z_i = targets[:n_levels], targets[n_levels:]
            # the Monte Carlo clamp's masks
            moved, above = np.empty(y_next.shape, bool), np.empty(y_next.shape, bool)
            factors = _NodeFactors(self.basis, self.m_paths, self.level_quantiles)
            ahead = None        # the next node's factorisation, running in the pool
            y_next[:] = problem.terminal.values(levels[:, -1])
            if theta < 1:
                phi = np.asarray(problem.coefficient.value(pts[-1], levels[:, -1]),
                                 dtype=float)
        else:
            z_i = np.zeros_like(y_next)                 # Z vanishes on deterministic data
            explicit = np.empty_like(y_next)            # per-sweep buffer, theta < 1
            y_next[:] = float(problem.terminal.values())
            if theta < 1:
                phi = float(problem.coefficient.value(pts[-1]))
        self._extremes(y_next)
        # f and f' at the right node stay in the workspace from step to step
        driver.f_fprime(y_next, out=(work.f, work.fprime))
        yield SweepNode(len(pts) - 1, y_next, work.f)
        for i in range(len(pts) - 2, -1, -1):
            t_i = float(pts[i])
            dt = float(pts[i + 1] - t_i)
            lam_next = self._lam[:, i + 1, None]
            theta_i = theta if i < grid.cap_index else 1.0      # the tail: implicit Euler
            if theta_i < 1:
                slope = np.max(np.multiply(lam_next, work.fprime, out=work.scratch)) + b
                if not 1.0 - (1.0 - theta) * dt * slope >= 0:      # NaN fails too
                    theta_i = 1.0
                    self.theta_fallback_segments += 1
            fit = None
            if self.mc:
                w_i = levels[:, i]
                # a BasisDegenerate of a node factored ahead surfaces here, at its node
                fit = ahead.result() if ahead is not None else factors.factor(w_i, i)
                h = (1.0 - theta_i) * dt

                def regression_targets(k):
                    cols = blocks.cols[k]
                    factors.fill_rows(w_i, cols)
                    if theta_i < 1:
                        _explicit_half(y_next[:, cols], _columns(phi, cols), lam_next, b, h,
                                       blocks.work[k], out=y_fit[:, cols])
                    else:
                        np.copyto(y_fit[:, cols], y_next[:, cols])
                    np.multiply(y_next[:, cols], increments[cols, i], out=z_i[:, cols])
                    np.divide(z_i[:, cols], dt, out=z_i[:, cols])

                blocks.run(regression_targets)
                # the QR buffer is free: factor the next node while this one is stepped
                if blocks.pool is not None and i > 0:
                    ahead = blocks.pool.submit(factors.factor, levels[:, i - 1], i - 1)
                coef = fit.solve(targets.T)

                def fitted_values(k):
                    # (design @ coef).T, laid out level-major
                    design = fit.design[blocks.cols[k]].T
                    np.matmul(coef[:, :n_levels].T, design, out=y_fit[:, blocks.cols[k]])
                    np.matmul(coef[:, n_levels:].T, design, out=z_i[:, blocks.cols[k]])

                blocks.run(fitted_values)
                if fit.cond is not None:
                    self.regression_cond_min = float(np.fmin(self.regression_cond_min,
                                                             fit.cond))
                    self.regression_cond_max = float(np.fmax(self.regression_cond_max,
                                                             fit.cond))
                phi = np.asarray(problem.coefficient.value(t_i, w_i), dtype=float)
            else:
                y_fit = y_next
                if theta_i < 1:
                    y_fit = _explicit_half(y_next, phi, lam_next, b, (1.0 - theta_i) * dt,
                                           work, out=explicit)
                phi = np.asarray(problem.coefficient.value(t_i), dtype=float)
            forcing = phi
            if sigma != 0.0:        # skipped at 0, as the step skips b
                forcing = np.add(phi, np.multiply(sigma, z_i, out=sigma_z), out=sigma_z)
            step = (y_fit, forcing, theta_i * dt, self._lam[:, i, None], driver, b, work)
            y_i, f_i, resid, iterations, fallbacks = (
                _implicit_step(*step) if blocks.pool is None else _implicit_step(*step, blocks))
            np.maximum(self.residual_max, resid, out=self.residual_max)
            self.newton_iterations += iterations
            np.maximum(self.newton_max_per_node, iterations, out=self.newton_max_per_node)
            self.bisection_entries += fallbacks
            lower = -(grid.horizon - t_i) * sup

            def box_and_extremes(k):
                # the excursion from the box, the Monte Carlo clamp, then the extremes
                cols = blocks.cols[k]
                y, excursion = y_i[:, cols], None
                if self.box:
                    excursion = np.maximum(y.max(axis=1), lower - y.min(axis=1))
                    if self.mc:
                        lo, hi = lower - self.clamp_margin, self.clamp_margin
                        out = moved[:, cols]
                        np.logical_or(np.less(y, lo, out=out),
                                      np.greater(y, hi, out=above[:, cols]), out=out)
                        np.clip(y, lo, hi, out=y)
                        if out.any():
                            f_i[:, cols][out], work.fprime[:, cols][out] = \
                                driver.f_fprime(y[out])
                return excursion, y.min(axis=1), y.max(axis=1)

            excursions, mins, maxs = zip(*blocks.run(box_and_extremes))
            if self.box:
                np.maximum(self.box_excursion_raw, reduce(np.maximum, excursions),
                           out=self.box_excursion_raw)
            np.minimum(self.y_min, reduce(np.minimum, mins), out=self.y_min)
            np.maximum(self.y_max, reduce(np.maximum, maxs), out=self.y_max)
            yield SweepNode(i, y_i, f_i, z_i, fit)
            y_next = y_i
        self.y0_mean = y_next.mean(axis=1)

    def _extremes(self, y: np.ndarray) -> None:
        np.minimum(self.y_min, y.min(axis=1), out=self.y_min)
        np.maximum(self.y_max, y.max(axis=1), out=self.y_max)

    def solution(self, k: int, y: np.ndarray, z: Optional[np.ndarray]) -> SolutionEstimate:
        """Level ``k``'s ``SolutionEstimate`` around the given arrays, with its diagnostics."""
        diagnostics = {"residual_max": float(self.residual_max[k]),
                       "y_min": float(self.y_min[k]), "y_max": float(self.y_max[k]),
                       "newton_iterations": int(self.newton_iterations[k]),
                       "newton_max_per_node": int(self.newton_max_per_node[k]),
                       "bisection_entries": int(self.bisection_entries[k]),
                       "theta_fallback_segments": self.theta_fallback_segments}
        if self.box:
            diagnostics["box_excursion_raw"] = float(self.box_excursion_raw[k])
        if self.mc:
            diagnostics.update(paths=self.m_paths, basis=self.basis.kind,
                               basis_degree=self.basis.degree, seed=self.bundle.seed,
                               y0_mean=float(self.y0_mean[k]),
                               regression_cond_min=self.regression_cond_min,
                               regression_cond_max=self.regression_cond_max)
        return SolutionEstimate(
            grid=self.grid, y=y, z=z, mode="regression_mc" if self.mc else "ode_exact",
            problem=self.problem, lambda_cap=self.caps[k], driver_used=self.driver,
            diagnostics=diagnostics)


def backward_sweep(problem: BsdeProblem, grid: TimeGrid, caps: Sequence,
                   bundle: Optional[PathBundle] = None,
                   basis: Optional[RegressionBasis] = None,
                   driver_override: Optional[DriverSpec] = None,
                   clamp_margin: float = 1e-3) -> list:
    """Backward implicit Euler for every truncation level in ``caps``, in one pass.

    Runs a ``NodeSweep`` and stacks its nodes into node-major (N, L, M)
    buffers.  Returns one ``SolutionEstimate`` per level, whose ``y`` and ``z``
    are views into the stacked buffers.
    """
    sweep = NodeSweep(problem, grid, caps, bundle=bundle, basis=basis,
                      driver_override=driver_override, clamp_margin=clamp_margin)
    n_pts, n_levels = len(grid.points), len(sweep.caps)
    y = np.empty((n_pts, n_levels, sweep.m_paths))
    z = np.zeros((n_pts - 1, n_levels, sweep.m_paths))
    for node in sweep.nodes():
        y[node.index] = node.y
        if node.z is not None:
            z[node.index] = node.z
    if sweep.mc:
        return [sweep.solution(k, y[:, k, :].T, z[:, k, :].T) for k in range(n_levels)]
    return [sweep.solution(k, y[:, k, 0], z[:, k, 0]) for k in range(n_levels)]


def solve_ode_mode(problem: BsdeProblem, grid: TimeGrid,
                   lambda_cap: Optional[float] = None,
                   driver_override: Optional[DriverSpec] = None) -> SolutionEstimate:
    """Backward implicit Euler for deterministic data: y_i = y_{i+1} - dt G(t_i, y_i).

    The one-level case of ``backward_sweep``.
    """
    return backward_sweep(problem, grid, [lambda_cap],
                          driver_override=driver_override)[0]


def solve_regression_mc(problem: BsdeProblem, grid: TimeGrid, bundle: PathBundle,
                        basis: Optional[RegressionBasis] = None,
                        lambda_cap: Optional[float] = None,
                        driver_override: Optional[DriverSpec] = None,
                        clamp_margin: float = 1e-3) -> SolutionEstimate:
    """Least-squares Monte Carlo backward induction on the bundle's paths.

    The one-level case of ``backward_sweep``; when the problem's flags prove
    the a-priori box, the values are clamped into it with ``clamp_margin`` slack.
    """
    return backward_sweep(problem, grid, [lambda_cap], bundle=bundle, basis=basis,
                          driver_override=driver_override,
                          clamp_margin=clamp_margin)[0]


# ---------------------------------------------------------------------------
# Comparison check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    max_violation: float
    tolerance: float
    ok: bool


def paired_moments(diff: np.ndarray, axis: int) -> tuple:
    """Mean and Monte Carlo standard error of paired differences along the path ``axis``."""
    return diff.mean(axis=axis), diff.std(axis=axis) / math.sqrt(diff.shape[axis])


def comparison_check(sol_low: SolutionEstimate, sol_high: SolutionEstimate,
                     tolerance: Optional[float] = None) -> ComparisonReport:
    """Check the ordering sol_low.Y <= sol_high.Y node by node.

    Exact (tolerance 0) in ODE mode; within three Monte Carlo standard errors
    of the paired difference otherwise.
    """
    if not np.array_equal(sol_low.grid.points, sol_high.grid.points):
        raise ValueError("solutions live on different grids")
    if sol_low.pathwise != sol_high.pathwise:
        raise ValueError("solutions come from different modes")
    # deterministic data are one path, whose standard error is 0
    mean, stderr = paired_moments(np.atleast_2d(sol_low.y - sol_high.y), axis=0)
    tol = 3.0 * stderr if tolerance is None else tolerance
    max_violation = float(np.max(mean - tol))
    return ComparisonReport(max_violation=max_violation,
                            tolerance=float(np.max(np.atleast_1d(tol))),
                            ok=max_violation <= 0.0)
