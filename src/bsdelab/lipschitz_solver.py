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
import queue
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import NamedTuple, Optional, Sequence

import numpy as np
# LAPACK dgeqrf and dorgqr, the gufuncs np.linalg.qr wraps, for _factor to call
# in place: the wrapper copies its input and allocates a new Q on every call
from numpy.linalg import _umath_linalg

from .coefficients import BsdeProblem, DriverSpec, TimeGrid
from .errors import BasisDegenerate, NumericsError
from .paths import LevelStream, PathBundle

NEWTON_TOL = 1e-12
_COND_LIMIT = 1e10
SWEEP_BLOCK = 1 << 14     # the smallest path chunk of a Monte Carlo regression


# ---------------------------------------------------------------------------
# Regression basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial feature map applied to the Brownian level at each node."""

    degree: int = 3

    def __post_init__(self):
        if not isinstance(self.degree, int):
            raise ValueError(f"degree must be an integer, got {self.degree!r}")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")

    @classmethod
    def polynomial(cls, degree: int) -> "RegressionBasis":
        return cls(degree=degree)

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


DEFAULT_BASIS = RegressionBasis.polynomial(3)     # where a caller passes none


def _degenerate_level(w: np.ndarray, width: int = 1, node_index: int = -1) -> bool:
    """True when the level carries no information (e.g. W_0 = 0 on every path):
    the sigma-algebra is trivial and the fit is the plain mean, held by the
    intercept.  ``BasisDegenerate`` where there are fewer paths than the
    ``width`` columns of the design."""
    w = np.asarray(w, dtype=float)
    hi, lo = w.max(), w.min()
    # max |w| without an |w| array
    if hi - lo < 1e-14 * (1.0 + np.maximum(hi, -lo)):
        return True
    if len(w) < width:
        raise BasisDegenerate(node_index, math.inf)
    return False


def _chunks(n_paths: int, width: int = 1) -> list:
    """Row slices of ``max(1, n_paths // SWEEP_BLOCK)`` chunks of nearly equal
    size: the paths' split depends on their count alone.  A chunk never has
    fewer rows than ``width``, the columns of the design it is factored on."""
    count = max(1, n_paths // max(SWEEP_BLOCK, width))
    edges = [n_paths * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _partial(q: Optional[np.ndarray], target: np.ndarray) -> np.ndarray:
    """One chunk's share of a fit: Q_k^T target on the chunk's rows ``q`` of Q,
    or the column sums of ``target`` on a level without information."""
    return target.sum(axis=0) if q is None else q.T @ target


@dataclass(frozen=True)
class NodeFit:
    """A node's least-squares factorisation as a TSQR over the row ``chunks``
    (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012): the
    rows of ``q`` hold each chunk's Q_k (C order), ``stack_q`` the Q of the
    chunks' R factors stacked in chunk order (None with one chunk: Q and R
    are then the design's economic QR), ``r`` the node's R and ``cond`` its
    condition number.  ``q`` is None on a level that carries no information,
    where every fit is the plain mean.  ``design`` is the whole design of
    ``fit_coefficients`` (None in a sweep), ``quantiles`` the level's
    quantiles a sweep was asked for."""

    chunks: tuple
    width: int                              # K: the design's columns
    q: Optional[np.ndarray] = None
    stack_q: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    cond: Optional[float] = None
    design: Optional[np.ndarray] = None
    quantiles: Optional[np.ndarray] = None

    def combine(self, partials: Sequence) -> np.ndarray:
        """The coefficients from the chunks' ``_partial`` shares, in chunk order."""
        if self.q is None:
            coef = np.zeros((self.width,) + np.shape(partials[0]))
            coef[0] = reduce(np.add, partials) / self.chunks[-1].stop
            return coef
        if self.stack_q is None:
            return np.linalg.solve(self.r, partials[0])
        return np.linalg.solve(self.r, self.stack_q.T @ np.concatenate(partials))

    def solve(self, target: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of every column of ``target`` (M, T)."""
        return self.combine([_partial(None if self.q is None else self.q[rows],
                                      target[rows]) for rows in self.chunks])


def _factor(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Economic QR of the (rows, K) array ``a``: returns R, writes Q into the
    C-ordered rows ``q`` and leaves the Householder factor in ``a``.  No
    finiteness scan: a NaN propagates into R and its SVD."""
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    _umath_linalg.qr_reduced(a, tau, signature="dd->d", out=q)
    return np.triu(a[:a.shape[1]])


def _merge(rs: Sequence, node_index: int) -> tuple:
    """The TSQR's last step: one QR of the chunks' R factors ``rs`` stacked in
    chunk order.  Returns ``(stack_q, r, cond)`` (``stack_q`` None with one
    chunk), ``cond`` the ratio of the singular values of R that the
    condition-number guard reads (``BasisDegenerate`` past ``_COND_LIMIT``)."""
    stack_q, r = None, rs[0]
    if len(rs) > 1:
        stack_q = np.empty((len(rs) * r.shape[0], r.shape[0]))
        r = _factor(np.vstack(rs), stack_q)
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > _COND_LIMIT:
        raise BasisDegenerate(node_index,
                              math.inf if svals[-1] <= 0 else svals[0] / svals[-1])
    return stack_q, r, float(svals[0] / svals[-1])


def fit_coefficients(basis: RegressionBasis, w: np.ndarray, target: np.ndarray,
                     node_index: int = -1) -> tuple:
    """Least-squares fit of every column of ``target`` (M, T) on ``basis.design(w)``.

    The TSQR of a sweep's nodes, chunk after chunk, serves all columns, or the
    plain mean on a level without information (``_degenerate_level``).
    Returns ``(coef, fit)``: the fitted values are ``fit.design @ coef``, and
    ``fit.solve`` fits further targets on the same factorisation.
    """
    design = basis.design(w)
    n_paths, width = design.shape
    chunks = tuple(_chunks(n_paths, width))
    fit = NodeFit(chunks, width, design=design)
    if not _degenerate_level(w, width, node_index):
        # Q in C order: BLAS sums ``q.T @ target`` in an order set by the layout,
        # and this one matches the C-ordered factor of np.linalg.qr bit for bit
        q = np.empty((n_paths, width))
        rs = [_factor(np.array(design[rows], order="F"), q[rows]) for rows in chunks]
        fit = NodeFit(chunks, width, q, *_merge(rs, node_index), design=design)
    return fit.solve(target), fit


# ---------------------------------------------------------------------------
# Solution container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionEstimate:
    """Backward-solve output.  ``y`` is nodal (N,) in ODE mode, path-nodal (M, N)
    in regression mode, and the nodal means (N,) for a scheme's top level;
    ``z`` lives on the left nodes."""

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


# ---------------------------------------------------------------------------
# Implicit step
# ---------------------------------------------------------------------------

def _bracket_and_bisect(residual, start):
    """Widen a bracket around ``start`` until the residual changes sign, then bisect."""
    width = np.maximum(1.0, np.abs(start))
    for _ in range(200):
        lo, hi = start - width, start + width
        f_lo, f_hi = residual(lo), residual(hi)
        open_ = ~(np.sign(f_lo) * np.sign(f_hi) <= 0)    # no product to overflow
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
        left = np.sign(f_lo) * np.sign(f_mid) <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        f_lo = np.where(left, f_lo, f_mid)
    raise NumericsError("implicit step failed to converge")


class _NewtonWorkspace:
    """The buffers of one implicit step: the Newton residual, derivative,
    scratch and mask, f and f' (left at the values) and the values ``y``, each
    allocated at ``shape`` unless given as a view (``_ChunkScratch.work``)."""

    def __init__(self, shape=None, **views):
        for name in ("residual", "deriv", "scratch", "f", "fprime", "y", "active"):
            if name not in views:
                views[name] = np.empty(shape, dtype=bool if name == "active" else float)
        self.__dict__.update(views)


class _NotMonotone(NumericsError):
    """A Newton pass met 1 + dt (lam f' + b) <= 0 (or NaN): its ``smallest``
    value at pass ``newton_pass``."""

    def __init__(self, smallest: float, dt: float, newton_pass: int):
        super().__init__(f"implicit step not monotone: 1 + dt (lam f' + b) = "
                         f"{smallest:.3g} <= 0 at dt = {dt:.3g}")
        self.smallest, self.dt, self.newton_pass = smallest, dt, newton_pass


def _newton(y, y_next, forcing, dt, lam, driver, b, work) -> tuple:
    """Newton iterations for y = y_next - dt (forcing + lam f(y) + b y) into ``y``.

    Starts from ``y_next``, with f and f' from one joint evaluation per
    iterate; an entry stops moving once its residual is below ``NEWTON_TOL``,
    and the iterations stop when no entry moves or after 100 passes.
    1 + dt (lam f'(y) + b) > 0 is checked at every iterate, the last included,
    else ``_NotMonotone``: entries never read each other, so the passes a
    chunk of the state runs, and its errors, are those of the whole state.
    Leaves the residual in ``work.residual``, its absolute value in
    ``work.scratch`` and f and f' at ``y`` in ``work.f`` and ``work.fprime``.
    Returns per row the passes in which the row had an active entry and the
    largest |residual| (NaN in a row with a NaN).
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

    iterations = np.zeros(y.shape[0], dtype=int)
    driver.f_fprime(y, out=(fy, dfy))
    residual()
    for newton_pass in range(100):
        np.greater_equal(np.abs(F, out=tmp), NEWTON_TOL, out=active)
        rows = active.any(axis=1)
        # deriv = 1 + dt (lam f' + b); its smallest entry, NaN when any entry is
        np.multiply(lam, dfy, out=deriv)
        if b != 0.0:
            np.add(deriv, b, out=deriv)
        np.multiply(dt, deriv, out=deriv)
        np.add(1.0, deriv, out=deriv)
        smallest = float(deriv.min())
        if not smallest > 0:
            raise _NotMonotone(smallest, dt, newton_pass)
        if not rows.any():
            break
        iterations += rows
        np.subtract(y, np.divide(F, deriv, out=tmp), out=y, where=active)
        driver.f_fprime(y, out=(fy, dfy))
        residual()
    return iterations, np.abs(F, out=tmp).max(axis=1)


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


def _implicit_step(y_next, forcing, dt, lam, driver, b, work):
    """Solve y = y_next - dt (forcing + lam f(y) + b y) entrywise for a (L, M) state.

    Newton from ``y_next`` (``_newton``); entries that leave the finite range
    or do not converge fall back to a bracket and bisection.  Every operation
    writes into ``work``, a ``_NewtonWorkspace`` of the state's shape, and so
    do the values; ``work.f`` and ``work.fprime`` are left at the values.
    Returns the values, f at the values, and per level (row) the worst
    residual, the Newton iterates and the entries that fell back to bisection.
    """
    y = work.y
    # an overflow leaves a residual that is not finite: Newton hands its entry
    # to the bisection, which solves it or raises NumericsError
    with np.errstate(over="ignore", invalid="ignore"):
        iterations, resid = _newton(y, y_next, forcing, dt, lam, driver, b, work)
        resid, fallbacks = _bisect_failures(y, y_next, forcing, dt, lam, driver, b, work, resid)
    return y, work.f, resid, iterations, fallbacks


def _columns(a, cols: slice):
    """The columns ``cols`` of a per-path array; a scalar is every path's."""
    return a[..., cols] if np.ndim(a) else a


class _ChunkScratch:
    """One worker's buffers for the chunks it steps, flat, so that each view a
    chunk takes of them is contiguous.  ``whole`` holds the sweep's f and
    values; f' is chunk scratch, read only by the job that computed it."""

    def __init__(self, n_levels: int, rows: int, width: int, whole: dict):
        self.n_levels, self.width, self.whole, self._work = n_levels, width, whole, {}
        self.flat = {name: np.empty(n_levels * rows, dtype=bool if name in ("active", "above")
                                    else float)
                     for name in ("residual", "deriv", "scratch", "forcing", "fprime",
                                  "active", "above")}
        self.flat["targets"] = np.empty(2 * n_levels * rows)    # Y and Z, then the fitted Y
        self.flat["qr"] = np.empty(rows * width)        # the QR of the design, then the design

    def work(self, rows: slice) -> _NewtonWorkspace:
        """The workspace of the chunk ``rows``, made once: its columns of the
        whole f and values, and (L, n) views of this worker's buffers, with
        2L rows of ``targets`` and an (n, K) ``design`` in Fortran order."""
        if rows.start not in self._work:
            n, heights = rows.stop - rows.start, {"targets": 2 * self.n_levels, "qr": self.width}
            views = {name: buf[:heights.get(name, self.n_levels) * n].reshape(-1, n)
                     for name, buf in self.flat.items()}
            views["design"] = views.pop("qr").T
            views.update((name, a[:, rows]) for name, a in self.whole.items())
            self._work[rows.start] = _NewtonWorkspace(**views)
        return self._work[rows.start]


class _ChunkQueue:
    """The path chunks of a sweep, whose jobs a pool of ``min(workers, chunks)``
    threads pulls from one queue, each job holding one worker's scratch.  One
    worker runs them in the calling thread and starts no pool."""

    def __init__(self, chunks: list, workers: int, scratch):
        self.chunks = chunks
        count = min(workers, len(chunks))
        self.pool = ThreadPoolExecutor(max_workers=count) if count > 1 else None
        self.scratches, self._free = [scratch() for _ in range(count)], queue.SimpleQueue()
        for buffers in self.scratches:
            self._free.put(buffers)

    def _job(self, fn, rows):
        scratch = self._free.get()
        try:
            return fn(rows, scratch)
        except Exception as exc:    # kept: the whole state's error needs every chunk's
            return exc
        finally:
            self._free.put(scratch)

    def run(self, fn, first=None) -> list:
        """``fn(rows, scratch)`` for every chunk, results in chunk order, after
        ``first()`` where it is given, queued ahead of the chunks.  An error is
        raised once every chunk has ended: the ``_NotMonotone`` of the earliest
        Newton pass, else the first in chunk order."""
        jobs = [first] if first else []
        jobs += [partial(self._job, fn, rows) for rows in self.chunks]
        results = [job() for job in jobs] if self.pool is None else \
            [self.pool.submit(job) for job in jobs]
        if self.pool is not None:
            wait(results)
            results = [future.result() for future in results]
        results = results[1:] if first else results
        errors = [r for r in results if isinstance(r, _NotMonotone)]
        if errors:     # the whole state's: the earliest pass, its smallest value
            earliest = min(err.newton_pass for err in errors)
            smallest = np.min([err.smallest for err in errors if err.newton_pass == earliest])
            raise _NotMonotone(float(smallest), errors[0].dt, earliest)
        for r in results:
            if isinstance(r, Exception):
                raise r
        return results

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)


def _explicit_half(y_next, phi_next, lam_next, b, h, f_next, scratch, out):
    """The theta-step's explicit half y_next - h (phi_next + lam_next f + b y_next)
    into ``out``, with f at ``y_next`` read from ``f_next``."""
    np.multiply(lam_next, f_next, out=out)
    np.add(phi_next, out, out=out)
    if b != 0.0:
        np.add(out, np.multiply(b, y_next, out=scratch), out=out)
    np.multiply(h, out, out=out)
    return np.subtract(y_next, out, out=out)


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
    w: Optional[np.ndarray] = None    # (M,) Brownian level (Monte Carlo mode),
                                      # until the stream draws the node two below


class NodeSweep:
    """Backward theta-step for every truncation level in ``caps``, node by node.

    The state at a node has shape (L, M): L levels and M paths, M = 1 without a
    bundle (ODE mode, deterministic data).  With a bundle the conditional
    expectations are least-squares Monte Carlo fits on the Brownian level: each
    node's design is built and factored once and all 2L targets (Y and the Z
    increment products of every level) are fitted against it.  Z is frozen
    inside the implicit step (it enters linearly with a bounded slope, one pass
    is enough at these accuracy targets).  Where the problem has an a-priori
    box (``BsdeProblem.box``), each level's largest excursion from it is
    recorded before the Monte Carlo clamp pulls the values into the box with
    ``clamp_margin`` slack.  With ``level_quantiles`` each node's fit carries
    those quantiles of the Brownian level.

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

    The paths are split into fixed chunks (``_chunks``, a function of M
    alone) that ``min(workers, chunks)`` threads pull from one queue, in two
    passes per node: the targets, a QR of each chunk's design and Q_k^T
    targets, merged into the node's TSQR (``NodeFit``); then the fitted
    values, the implicit step, the box excursion, the clamp and the extremes.
    Reductions over the chunks are combined in chunk order, so nothing
    depends on ``workers``.  Only f, the values, Z and Q are whole arrays;
    the rest is per-worker chunk scratch (``_ChunkScratch``).  The Brownian
    levels come from a ``LevelStream``: a drawn bundle's row is drawn on the
    calling thread when the sweep reaches its node, so the sweep holds two
    levels, node i's and node i + 1's, not N.  A deterministic coefficient
    enters as the scalar phi(t_i).

    ``nodes()`` yields one ``SweepNode`` per grid index, from T backward; only
    the current node is held, and its ``y``, ``f``, ``z``, ``fit`` and ``w``
    live in per-sweep buffers until the next node is computed.  Once it is
    exhausted, ``residual_max``, ``box_excursion_raw``, ``y_min``, ``y_max``,
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
            basis = basis or DEFAULT_BASIS
            bundle.check_grid(grid)
        elif problem.coefficient.is_markovian:
            raise ValueError("ODE mode needs deterministic coefficients")
        elif problem.terminal.kind == "random":
            raise ValueError("ODE mode needs a deterministic terminal value")
        lam = []
        for cap in caps:
            if cap is None and problem.intensity.is_singular:
                raise ValueError("the classical solver needs a bounded (truncated) intensity")
            lam.append(np.asarray(problem.intensity.value(grid.points, cap), dtype=float))
        self.problem, self.grid, self.caps = problem, grid, list(caps)
        self.bundle, self.basis, self.clamp_margin = bundle, basis, clamp_margin
        self.theta, self.workers, self.level_quantiles = theta, workers, level_quantiles
        self.driver = driver_override if driver_override is not None \
            else problem.effective_driver()
        self.m_paths = bundle.n_paths if self.mc else 1
        self.box = problem.box(grid.points)     # lo and hi at every node, or None
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
        width = self.basis.degree + 1 if self.mc else 1
        chunks = _chunks(self.m_paths, width)
        rows = -(-self.m_paths // len(chunks))             # the largest chunk
        # f at the right node stays in its buffer from step to step, and a
        # node's values overwrite the right node's once the first pass read them
        whole = {name: np.empty((len(self.caps), self.m_paths)) for name in ("y", "f")}
        tasks = _ChunkQueue(chunks, self.workers,
                            lambda: _ChunkScratch(len(self.caps), rows, width, whole))
        try:
            yield from self._sweep(tasks, **whole)
        finally:
            tasks.close()

    def _sweep(self, tasks: _ChunkQueue, y, f):
        problem, grid, driver, theta = self.problem, self.grid, self.driver, self.theta
        mc, coefficient = self.mc, problem.coefficient
        pts, n_levels, shape = grid.points, len(self.caps), (len(self.caps), self.m_paths)
        b, sigma = problem.y_slope, problem.z_slope
        phi = w_i = None    # phi and the level at the last node stepped

        def phi_at(t, w):
            # a deterministic coefficient is the scalar phi(t), not one copy per path
            return np.asarray(coefficient.value(t, w) if coefficient.is_markovian
                              else coefficient.value(t), dtype=float)

        if mc:
            stream = LevelStream(self.bundle)
            basis, width = self.basis, self.basis.degree + 1
            q = np.empty((self.m_paths, width))         # each chunk's Q_k, in C order
            if self.level_quantiles:
                level_copy, quantiles = np.empty(self.m_paths), np.empty(len(self.level_quantiles))
            # with one chunk, Z is the Z half of its targets, which the fit overwrites
            z = np.empty(shape) if len(tasks.chunks) > 1 else \
                tasks.scratches[0].work(tasks.chunks[0]).targets[n_levels:]
            w_i = stream.level(len(pts) - 1)[0]
            y[:] = problem.terminal.values(w_i)
        else:
            z = np.zeros(shape)                         # Z vanishes on deterministic data
            y[:] = float(problem.terminal.values())
        if theta < 1:
            phi = phi_at(pts[-1], w_i)

        def finish(work, lam_c):
            # the extremes, and the largest lam f' that the next explicit half reads
            slope = None
            if theta < 1:
                slope = np.multiply(lam_c, work.fprime, out=work.scratch).max()
            return work.y.min(axis=1), work.y.max(axis=1), slope

        def terminal(rows, s):
            work = s.work(rows)
            driver.f_fprime(work.y, out=(work.f, work.fprime))
            return finish(work, self._lam[:, -1, None])

        def y_target(rows, work, out):
            # Y at the right node, or the explicit half of the theta-step
            if theta_i < 1:
                _explicit_half(work.y, _columns(phi_next, rows), lam_next, b, h, work.f,
                               work.scratch, out=out)
            else:
                np.copyto(out, work.y)

        slope = self._merge_ends(*zip(*tasks.run(terminal)))
        yield SweepNode(len(pts) - 1, y, f, w=w_i)
        for i in range(len(pts) - 2, -1, -1):
            t_i = float(pts[i])
            dt = float(pts[i + 1] - t_i)
            lam_next, lam_i = self._lam[:, i + 1, None], self._lam[:, i, None]
            theta_i = theta if i < grid.cap_index else 1.0      # the tail: implicit Euler
            if theta_i < 1 and not 1.0 - (1.0 - theta) * dt * (slope + b) >= 0:  # NaN fails
                theta_i = 1.0
                self.theta_fallback_segments += 1
            h, phi_next, fit = (1.0 - theta_i) * dt, phi, None
            if mc:
                w_i = stream.level(i)[0]
                w_next = stream.level(i + 1)[0]
                degenerate = _degenerate_level(w_i, width, i)

                def targets(rows, s):
                    # Y (or the explicit half) and Y dW / dt, with dW = W_{i+1} - W_i
                    # in a row of the scratch; the chunk's QR and share
                    work = s.work(rows)
                    t, dw = work.targets, work.scratch[0]
                    y_target(rows, work, t[:n_levels])
                    np.subtract(w_next[rows], w_i[rows], out=dw)
                    np.multiply(work.y, dw, out=t[n_levels:])
                    np.divide(t[n_levels:], dt, out=t[n_levels:])
                    if degenerate:
                        return None, _partial(None, t.T)
                    design = basis.design(w_i[rows], out=work.design)
                    return _factor(design, q[rows]), _partial(q[rows], t.T)

                def level_quantiles():
                    np.copyto(level_copy, w_i)
                    np.quantile(level_copy, self.level_quantiles, overwrite_input=True,
                                out=quantiles)

                r_parts, partials = zip(*tasks.run(
                    targets, first=level_quantiles if self.level_quantiles else None))
                factors = (None,) * 4 if degenerate else (q,) + _merge(r_parts, i)
                fit = NodeFit(tuple(tasks.chunks), width, *factors,
                              quantiles=quantiles if self.level_quantiles else None)
                coef = fit.combine(partials)
                if fit.cond is not None:
                    cond = (self.regression_cond_min, self.regression_cond_max)
                    self.regression_cond_min = float(np.fmin(cond[0], fit.cond))
                    self.regression_cond_max = float(np.fmax(cond[1], fit.cond))
            phi = phi_at(t_i, w_i)

            def step(rows, s):
                # the fitted values, the implicit step, the excursion from the
                # box, the Monte Carlo clamp, then the extremes
                work = s.work(rows)
                y_c, y_fit = work.y, work.targets[:n_levels]
                if mc:
                    # (design @ coef).T, laid out level-major
                    design = basis.design(w_i[rows], out=work.design).T
                    np.matmul(coef[:, :n_levels].T, design, out=y_fit)
                    np.matmul(coef[:, n_levels:].T, design, out=z[:, rows])
                else:
                    y_target(rows, work, y_fit)
                forcing = _columns(phi, rows)
                if sigma != 0.0:        # skipped at 0, as the step skips b
                    out = work.forcing
                    forcing = np.add(forcing, np.multiply(sigma, z[:, rows], out=out), out=out)
                _, f_c, resid, iterations, fallbacks = _implicit_step(
                    y_fit, forcing, theta_i * dt, lam_i, driver, b, work)
                excursion = None
                if self.box is not None:
                    lo, hi = self.box[0][i], self.box[1][i]
                    excursion = np.maximum(y_c.max(axis=1) - hi, lo - y_c.min(axis=1))
                    if mc:
                        lo, hi = lo - self.clamp_margin, hi + self.clamp_margin
                        moved = work.active
                        np.logical_or(np.less(y_c, lo, out=moved),
                                      np.greater(y_c, hi, out=work.above), out=moved)
                        np.clip(y_c, lo, hi, out=y_c)
                        if moved.any():
                            f_c[moved], work.fprime[moved] = driver.f_fprime(y_c[moved])
                return (resid, iterations, fallbacks, excursion) + finish(work, lam_i)

            resid, iterations, fallbacks, excursion, *ends = zip(*tasks.run(step))
            # maxima over the chunks; np.maximum keeps a NaN residual
            np.maximum(self.residual_max, reduce(np.maximum, resid), out=self.residual_max)
            iterations = reduce(np.maximum, iterations)
            self.newton_iterations += iterations
            np.maximum(self.newton_max_per_node, iterations, out=self.newton_max_per_node)
            self.bisection_entries += reduce(np.add, fallbacks)
            if self.box is not None:
                np.maximum(self.box_excursion_raw, reduce(np.maximum, excursion),
                           out=self.box_excursion_raw)
            slope = self._merge_ends(*ends)
            yield SweepNode(i, y, f, z, fit, w_i)
        self.y0_mean = y.mean(axis=1)

    def _merge_ends(self, mins, maxs, slopes):
        """Folds the chunks' extremes into ``y_min`` and ``y_max``; returns the
        largest of their ``slopes`` (None without)."""
        np.minimum(self.y_min, reduce(np.minimum, mins), out=self.y_min)
        np.maximum(self.y_max, reduce(np.maximum, maxs), out=self.y_max)
        return None if slopes[0] is None else reduce(np.maximum, slopes)

    def solution(self, k: int, y: np.ndarray, z: Optional[np.ndarray]) -> SolutionEstimate:
        """Level ``k``'s ``SolutionEstimate`` around the given arrays, with its diagnostics."""
        diagnostics = {"residual_max": float(self.residual_max[k]),
                       "y_min": float(self.y_min[k]), "y_max": float(self.y_max[k]),
                       "newton_iterations": int(self.newton_iterations[k]),
                       "newton_max_per_node": int(self.newton_max_per_node[k]),
                       "bisection_entries": int(self.bisection_entries[k]),
                       "theta_fallback_segments": self.theta_fallback_segments}
        if self.box is not None:
            diagnostics["box_excursion_raw"] = float(self.box_excursion_raw[k])
        if self.mc:
            diagnostics.update(paths=self.m_paths, basis_degree=self.basis.degree,
                               seed=self.bundle.seed, y0_mean=float(self.y0_mean[k]),
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

    The one-level case of ``backward_sweep``; where ``BsdeProblem.box`` gives a
    box, the values are clamped into it with ``clamp_margin`` slack.
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
    if "regression_mc" in (sol_low.mode, sol_high.mode) and not sol_low.pathwise:
        raise ValueError("the Monte Carlo comparison needs the solutions' paths")
    # deterministic data are one path, whose standard error is 0
    mean, stderr = paired_moments(np.atleast_2d(sol_low.y - sol_high.y), axis=0)
    tol = 3.0 * stderr if tolerance is None else tolerance
    max_violation = float(np.max(mean - tol))
    return ComparisonReport(max_violation=max_violation,
                            tolerance=float(np.max(np.atleast_1d(tol))),
                            ok=max_violation <= 0.0)
