"""Closed-form and quadrature solutions of the affine equations.

All singular-horizon integrals are computed after the change of variable
u = Lam(s): the weight exp(-(Lam(s) - Lam(t))) becomes exp(-u) and the
integrand phi(s)/lam(s) stays regular up to the horizon.  Each integral is a
recursion over the grid's mass intervals, every interval integrated once by
one vectorized Gauss-Kronrod kernel (``quad``).  Beyond a finite u-span the
exp(-u) tail is dropped; with the default span of 45 the neglected mass is
below 3e-20 times the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import (
    PLUS_LAMBDA_Y,
    BsdeProblem,
    CoefficientProcess,
    IntensityModel,
    TimeGrid,
)
from .errors import LabError, NoSolution, NumericsError
from .paths import PathBundle

U_SPAN = 45.0                 # exp(-45) ~ 2.9e-20: below every tolerance in use
_QUAD_ERR_CAP = 1e-9          # backstop: anything above this is a real breakdown
_ABS_TOL, _REL_TOL = 1e-15, 1e-12     # a part splits while |K - G| exceeds both
_MAX_DEPTH = 50               # bisections of a segment; a jump needs about 45
_MAX_SPLITS = 4096            # parts split in one pass; more accept their estimates

# Gauss-Kronrod 21/10 on [-1, 1] (QUADPACK's qk21): the nonnegative Kronrod
# abscissae, decreasing, and their weights; the Gauss weights belong to the
# abscissae 1, 3, ..., 9, the 10-point Gauss nodes
_GK_NODES = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
             0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
             0.2943928627014602, 0.14887433898163122, 0.0)
_GK_WEIGHTS = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
               0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
               0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
               0.14773910490133849, 0.1494455540029169)
_GAUSS_WEIGHTS = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                  0.26926671930999635, 0.29552422471475287)


def quad(fn, lo, hi):
    """Integrals of ``fn`` over the segments [lo[k], hi[k]] and their error estimates.

    ``fn(v, k)`` receives the rule's nodes ``v`` of shape (m, 21) and the
    segment index ``k`` of each row, shape (m, 1), so one call evaluates every
    part.  A part's estimate is |K - G| of its Kronrod and Gauss sums, for a
    half at least half the change of value from its parent; parts above
    max(_ABS_TOL, _REL_TOL |K|, 50 eps int|fn|) are bisected together, at most
    _MAX_DEPTH times, and a segment's value and estimate are the sums over its
    accepted parts.  NaN estimates are accepted.  Empty segments give 0.
    """
    half = np.array(_GK_NODES)
    nodes = np.concatenate((-half, half[-2::-1]))
    kronrod = np.array(_GK_WEIGHTS + _GK_WEIGHTS[-2::-1])
    gauss = np.array(_GAUSS_WEIGHTS + _GAUSS_WEIGHTS[::-1])     # at nodes[1::2]

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    values, errors = np.zeros(lo.size), np.zeros(lo.size)
    owner = np.flatnonzero(hi > lo)
    a, b = lo[owner], hi[owner]
    for depth in range(_MAX_DEPTH + 1):
        if not owner.size:
            break
        mid, rad = 0.5 * (a + b), 0.5 * (b - a)
        f = fn(mid[:, None] + rad[:, None] * nodes, owner[:, None])
        with np.errstate(invalid="ignore", over="ignore"):   # inf and NaN pass through
            k_sum = rad * (f @ kronrod)
            est = np.abs(k_sum - rad * (f[:, 1::2] @ gauss))
            stuck = np.zeros(est.shape, dtype=bool)
            if depth:       # rows [:n] and [n:] are the halves of the parts split last
                n = parent_k.size
                delta = np.abs(k_sum[:n] + k_sum[n:] - parent_k)
                # halves that lower neither the estimate nor, beyond 1e-5, the
                # value of their parent show the noise of fn (QUADPACK's
                # roundoff test): keep the parent
                stuck = np.tile((est[:n] + est[n:] >= 0.99 * parent_est)
                                & (delta <= 1e-5 * np.abs(parent_k)), 2)
                # a jump just inside an end of a half escapes all 21 nodes, but
                # not the change of value from the parent
                est = np.where(stuck, np.append(parent_est, np.zeros(n)),
                               np.maximum(est, 0.5 * np.tile(delta, 2)))
                k_sum = np.where(stuck, np.append(parent_k, np.zeros(n)), k_sum)
            floor = np.maximum(_REL_TOL * np.abs(k_sum), 50 * np.finfo(float).eps
                               * rad * (np.abs(f) @ kronrod))
            split = (est > np.maximum(floor, _ABS_TOL)) & ~stuck
            if depth == _MAX_DEPTH or np.count_nonzero(split) > _MAX_SPLITS:
                split[:] = False
            done = ~split
            values += np.bincount(owner[done], k_sum[done], minlength=lo.size)
            errors += np.bincount(owner[done], est[done], minlength=lo.size)
        parent_k, parent_est = k_sum[split], est[split]
        owner = np.concatenate((owner[split], owner[split]))
        a, b = np.concatenate((a[split], mid[split])), np.concatenate((mid[split], b[split]))
    return values, errors


def _gated(values, errors, nodes, err_cap=_QUAD_ERR_CAP):
    """``values``, once every error estimate is within max(err_cap, 1e-9 |value|);
    a NaN estimate or value passes, for the caller to judge the value."""
    over = errors > np.fmax(err_cap, 1e-9 * np.abs(values))
    if over.any():
        k = int(np.argmax(over))
        raise NumericsError(f"quadrature error estimate {errors[k]:.3e} too large for "
                            f"value {values[k]:.6e} at t = {nodes[k]:.6g}")
    return values


def _decayed_sums(parts, decay):
    """s_0 = parts_0 and s_k = parts_k + decay_k s_(k-1): the recursion that
    chains the segment integrals into the integrals up to (or from) each node."""
    out, decay = parts.tolist(), decay.tolist()
    for k in range(1, len(out)):
        out[k] += decay[k] * out[k - 1]
    return np.array(out)


@dataclass(frozen=True)
class AffineSolution:
    """Nodal (or path-nodal) values of an affine solution."""

    grid: TimeGrid
    y: np.ndarray               # (N,) deterministic or (M, N) pathwise
    z: np.ndarray               # (N,) deterministic, (N-1,) left nodes, or (M, N) pathwise
    y0: Optional[float] = None
    bound_margin: Optional[float] = None   # max(|Y| - bound), representation formula only

    @property
    def pathwise(self) -> bool:
        return self.y.ndim == 2


def _coefficient_fn(coefficient) -> Callable:
    if isinstance(coefficient, CoefficientProcess):
        if coefficient.is_markovian:
            raise ValueError("deterministic coefficient required here")
        return lambda s: coefficient.value(s)
    return coefficient


def _mass_factor(model: IntensityModel, coefficient) -> Callable:
    """g(u) = phi(s(u)) / lam(s(u)) as a function of the mass coordinate, on arrays.

    A constant multiple of the intensity evaluates exactly for arbitrarily
    large u, where the time coordinate s(u) is no longer resolvable in floating
    point.
    """
    if isinstance(coefficient, CoefficientProcess) and coefficient.model == model \
            and coefficient.kind == "intensity_multiple":
        factor = coefficient.value_const
        return lambda u: factor
    fn = _coefficient_fn(coefficient)
    return lambda u: fn(model.mass_inverse(u)) * model.inverse_rate_at_mass(u)


def _mass_segments(model: IntensityModel, nodes: np.ndarray):
    """The mass coordinates u_i of ``nodes`` and the ends of their segments:
    u_(i+1), and for the last node a tail of U_SPAN (up to the total mass of a
    bounded kind)."""
    u = np.asarray(model.cumulative(nodes), dtype=float)
    top = u[-1] + U_SPAN if model.is_singular else model.total_mass()
    return u, np.append(u[1:], top)


def _tail_integrals(model: IntensityModel, grid: TimeGrid, coefficient,
                    y_slope: float = 0.0) -> np.ndarray:
    """I_i = int_(t_i)^T exp(-(Lam(s) - Lam(t_i)) - b (s - t_i)) phi(s) ds at the
    regular nodes, by the backward recursion over their mass segments

        I_i = int_(u_i)^(u_(i+1)) exp(-(v - u_i) - b (s(v) - t_i)) g(v) dv
              + exp(-(u_(i+1) - u_i) - b (t_(i+1) - t_i)) I_(i+1).

    A y-slope b acts as a constant addition to the intensity, so it joins the
    damping with a minus sign.  The error estimates follow the same recursion
    and are gated per node.
    """
    cap = grid.cap_index
    t, t_next = grid.points[:cap + 1], grid.points[1:cap + 2]
    u, ends = _mass_segments(model, t)
    g = _mass_factor(model, coefficient)

    def integrand(v, k):
        out = np.exp(u[k] - v) * g(v)
        if y_slope:
            out *= np.exp(-y_slope * (model.mass_inverse(v) - t[k]))
        return out

    parts, errors = quad(integrand, u, ends)
    decay = np.exp(u - ends - y_slope * (t_next - t))[::-1]
    values = _decayed_sums(parts[::-1], decay)[::-1]
    return _gated(values, _decayed_sums(errors[::-1], decay)[::-1], t)


def _interval_weights(model: IntensityModel, grid: TimeGrid) -> np.ndarray:
    """E_j = int_(t_j)^(t_(j+1)) exp(-Lam(s)) ds at the regular nodes, the last
    one up to T: exp(-u_j) times the integral of exp(-(v - u_j)) / lam over the
    node's mass segment."""
    nodes = grid.points[:grid.cap_index + 1]
    u, ends = _mass_segments(model, nodes)
    parts, errors = quad(lambda v, k: np.exp(u[k] - v) * model.inverse_rate_at_mass(v),
                         u, ends)
    return np.exp(-u) * _gated(parts, errors, nodes)


def solve_affine_plus(problem: BsdeProblem, grid: TimeGrid,
                      bundle: Optional[PathBundle] = None,
                      basis=None) -> AffineSolution:
    """Representation-formula solution of dY = (phi + lam Y) dt + Z dW, Y_T = 0.

    A nonzero terminal value is rejected outright: the weighted terminal factor
    exp(-(Lam_T - Lam_t)) vanishes, so no solution can honor it.
    Deterministic coefficients integrate in closed quadrature; markovian ones
    estimate the conditional expectation by least-squares regression on the
    Brownian level.
    """
    if problem.sign != PLUS_LAMBDA_Y:
        raise ValueError("solve_affine_plus needs a plus-sign affine problem")
    if not problem.terminal.is_zero:
        raise NoSolution("terminal value must vanish")
    # deterministic data have Z = 0, so a z-slope term is inert there
    model, coeff = problem.intensity, problem.coefficient
    pts, cap = grid.points, grid.cap_index
    box = problem.box(pts)      # None with a y-slope or an unbounded phi

    if not coeff.is_markovian:
        y = np.zeros(len(pts))
        y[:cap + 1] = -_tail_integrals(model, grid, coeff, y_slope=problem.y_slope)
        # max(|Y| - w) over the nodes, w = (T - t) sup|phi| = -lo
        margin = None if box is None else float(np.max(np.abs(y) + box[0]))
        if margin is not None and not margin <= 1e-12:      # NaN fails too
            raise NumericsError(
                f"representation values exceed the a-priori bound by {margin:.3e}")
        return AffineSolution(grid=grid, y=y, z=np.zeros(len(pts)), bound_margin=margin)

    if bundle is None:
        raise ValueError("markovian coefficients need a path bundle")
    if box is None or problem.z_slope:
        raise ValueError("markovian representation needs a bounded phi, no slope terms")
    bundle.check_grid(grid)
    return _solve_affine_plus_markovian(problem, grid, bundle, basis, *box)


def _solve_affine_plus_markovian(problem, grid, bundle, basis, lo, hi):
    from .lipschitz_solver import DEFAULT_BASIS, fit_coefficients

    basis = basis or DEFAULT_BASIS
    model, coeff = problem.intensity, problem.coefficient
    pts, cap = grid.points, grid.cap_index
    n_pts = len(pts)
    mass = model.cumulative(pts[:cap + 1])
    weights = _interval_weights(model, grid)

    levels, incs = (a[:, :, 0] for a in bundle.levels_and_increments())
    m_paths = bundle.n_paths
    phi_nodes = coeff.value(pts[:cap + 1], levels[:, :cap + 1])

    # backward cumulative pathwise integral, then conditional expectation per node
    y = np.zeros((m_paths, n_pts))
    z = np.zeros((m_paths, n_pts))
    tail = np.zeros(m_paths)
    fitted_next = np.zeros(m_paths)
    margin = 0.0
    for i in range(cap, -1, -1):
        tail += phi_nodes[:, i] * weights[i]
        dt = pts[i + 1] - pts[i]
        targets = np.column_stack([-math.exp(mass[i]) * tail,
                                   fitted_next * incs[:, i] / dt])
        coef, fit = fit_coefficients(basis, levels[:, i], targets, node_index=i)
        fitted, z[:, i] = (fit.design @ coef).T
        # the representation formula proves Y in the box [lo, hi]: enforce it,
        # recording how far the raw regression strayed past |Y| <= w = -lo
        margin = max(margin, float(np.max(np.abs(fitted) + lo[i])))
        y[:, i] = np.clip(fitted, lo[i], hi[i])
        fitted_next = y[:, i]
    return AffineSolution(grid=grid, y=y, z=z, bound_margin=margin)


def fundamental_family(model: IntensityModel, y0: float, grid: TimeGrid,
                       beta: Optional[Sequence[float]] = None,
                       bundle: Optional[PathBundle] = None,
                       y_slope: float = 0.0) -> AffineSolution:
    """Members of the vanishing-terminal family of the minus-sign equation.

    Deterministic member: Y_t = y0 exp(b t - Lam(t)), Z = 0.  With ``beta`` and
    a path bundle: Y_t = exp(-Lam(t)) (y0 + int_0^t beta dW), Z = exp(-Lam) beta.
    The terminal node is assigned exactly 0 (the damping factor vanishes there).
    """
    if not model.is_singular:
        raise ValueError("the family vanishes at T only for singular intensities")
    pts = grid.points
    damp = np.asarray(model.exp_minus_cumulative(pts), dtype=float)
    if y_slope:
        damp = damp * np.exp(y_slope * pts)
    damp[-1] = 0.0

    if beta is None:
        y = y0 * damp
        return AffineSolution(grid=grid, y=y, z=np.zeros(len(pts)), y0=y0)

    if y_slope:
        raise ValueError("stochastic members are only built without slope terms")
    if bundle is None:
        raise ValueError("a beta integrand needs a path bundle")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(pts) - 1,):
        raise ValueError("beta must hold one value per left node")
    bundle.check_grid(grid)
    incs = bundle.increments[:, :, 0]
    martingale = np.concatenate(
        [np.zeros((bundle.n_paths, 1)), np.cumsum(beta[None, :] * incs, axis=1)],
        axis=1)
    y = damp[None, :] * (y0 + martingale)
    z = np.append(damp[:-1] * beta, 0.0)
    return AffineSolution(grid=grid, y=y, z=z, y0=y0)


# ---------------------------------------------------------------------------
# Deterministic ODE trichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeClassification:
    converges: bool                        # the last three estimates within the tolerance
    limit: Optional[float]                 # the last estimate, None when diverging
    estimates: tuple                       # ((t, m(t)), ...) approaching the horizon


def _prefix_means(model: IntensityModel, times: np.ndarray, coefficient,
                  err_cap=_QUAD_ERR_CAP) -> np.ndarray:
    """m(t_k) = exp(-Lam(t_k)) int_0^(t_k) exp(Lam(s)) phi(s) ds at increasing
    times, evaluated stably in u by the forward recursion

        m_k = int_(u_(k-1))^(u_k) exp(v - u_k) g(v) dv + exp(-(u_k - u_(k-1))) m_(k-1),

    with u_(-1) = 0; the error estimates follow it and are gated per time."""
    u = np.asarray(model.cumulative(times), dtype=float)
    starts = np.append(0.0, u[:-1])
    g = _mass_factor(model, coefficient)
    parts, errors = quad(lambda v, k: np.exp(v - u[k]) * g(v), starts, u)
    decay = np.exp(starts - u)
    return _gated(_decayed_sums(parts, decay), _decayed_sums(errors, decay), times,
                  err_cap)


def classify_ode(model: IntensityModel, coefficient, tolerance: float) -> OdeClassification:
    """Decide whether the averaged prefix integral settles to a limit at the horizon.

    A NaN or negative ``tolerance`` raises ``ValueError``; a prefix estimate
    that is not finite raises ``NumericsError``."""
    if not model.is_singular:
        raise ValueError("the trichotomy concerns singular intensities")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    eps = np.geomspace(1e-1, 1e-10, 10)
    times = model.horizon - eps
    try:
        means = _prefix_means(model, times, coefficient, err_cap=max(tolerance / 100, 1e-9))
    except (LabError, ArithmeticError) as exc:      # quadrature breakdown
        raise NumericsError(f"prefix integral failed: {exc}") from exc
    for e, m in zip(eps, means.tolist()):
        if not math.isfinite(m):
            raise NumericsError(f"prefix integral is {m} at eps={e:g}")
    estimates = tuple(zip(times.tolist(), means.tolist()))
    tailvals = means[-3:].tolist()
    converges = max(tailvals) - min(tailvals) <= tolerance
    return OdeClassification(converges=converges, estimates=estimates,
                             limit=estimates[-1][1] if converges else None)


def ode_family_member(model: IntensityModel, coefficient, y0: float, grid: TimeGrid,
                      classification: OdeClassification) -> AffineSolution:
    """One member Y_t = exp(-Lam(t)) (y0 + int_0^t exp(Lam(s)) phi(s) ds).

    The terminal node is assigned the limit of ``classification``, the verdict
    of ``classify_ode`` on the same model and coefficient; a divergent prefix
    integral is a domain error.
    """
    if not classification.converges:
        raise ValueError("the family exists only when the prefix integral converges")
    pts, cap = grid.points, grid.cap_index
    damp = np.asarray(model.exp_minus_cumulative(pts), dtype=float)
    y = np.zeros(len(pts))
    y[:cap + 1] = damp[:cap + 1] * y0 + _prefix_means(model, pts[:cap + 1], coefficient)
    y[-1] = classification.limit
    if cap + 1 < len(pts) - 1:
        y[cap + 1:-1] = classification.limit   # nodes past the cap collapse to the limit
    return AffineSolution(grid=grid, y=y, z=np.zeros(len(pts)), y0=y0)
