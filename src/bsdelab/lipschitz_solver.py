"""Classical bounded-coefficient BSDE solver: backward implicit Euler.

Deterministic data reduce to a stiff backward ODE solved node by node with a
safeguarded Newton iteration.  Markovian data run least-squares Monte Carlo:
conditional expectations are fitted on basis functions of the Brownian level,
the implicit step is solved per path with the regressed Z frozen.  All levels
of a truncation schedule share one backward pass and one factorisation of
each node's design.

The implicit treatment of the intensity term is what keeps the scheme stable
as the truncation level grows; an explicit step would need dt ~ 1/n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .coefficients import BsdeProblem, DriverSpec, TimeGrid
from .errors import BasisDegenerate, NumericsError
from .paths import PathBundle

NEWTON_TOL = 1e-12
_COND_LIMIT = 1e10


# ---------------------------------------------------------------------------
# Regression basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionBasis:
    """Feature map applied to the Brownian level at each node."""

    kind: str                     # polynomial | piecewise_linear
    degree: int = 3
    knots: tuple = ()

    @classmethod
    def polynomial(cls, degree: int) -> "RegressionBasis":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls(kind="polynomial", degree=degree)

    @classmethod
    def piecewise_linear(cls, knots) -> "RegressionBasis":
        ks = tuple(sorted(float(k) for k in knots))
        if len(ks) < 2:
            raise ValueError("piecewise basis needs at least two knots")
        return cls(kind="piecewise_linear", knots=ks)

    def design(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if self.kind == "polynomial":
            if w.ndim == 1:
                return np.vander(w, self.degree + 1, increasing=True)
            # total-degree monomials over coordinates
            m, d = w.shape
            cols = [np.ones(m)]
            for deg in range(1, self.degree + 1):
                for combo in itertools.combinations_with_replacement(range(d), deg):
                    col = np.ones(m)
                    for j in combo:
                        col = col * w[:, j]
                    cols.append(col)
            return np.column_stack(cols)
        if w.ndim != 1:
            raise ValueError("piecewise basis is one dimensional")
        ks = np.asarray(self.knots)
        cols = [np.ones_like(w), w]
        cols += [np.maximum(w - k, 0.0) for k in ks[1:-1]]
        return np.column_stack(cols)


def _degenerate_level(w: np.ndarray) -> bool:
    """True when the level carries no information (e.g. W_0 = 0 on every path)."""
    w = np.asarray(w, dtype=float)
    return bool(np.ptp(w) < 1e-14 * (1.0 + np.max(np.abs(w))))


def fit_coefficients(basis: RegressionBasis, w: np.ndarray, target: np.ndarray,
                     node_index: int = -1) -> tuple:
    """Least-squares fit of every column of ``target`` (M, T) on ``basis.design(w)``.

    One QR factorisation serves all columns; the condition-number guard reads
    the singular values of R.  On a level that carries no information the
    sigma-algebra is trivial and the fit is the plain mean, held by the
    intercept.  Returns ``(coef, design)``: the fitted values are ``design @ coef``.
    """
    design = basis.design(w)
    if _degenerate_level(w):
        coef = np.zeros((design.shape[1], target.shape[1]))
        coef[0] = target.mean(axis=0)
        return coef, design
    if design.shape[0] < design.shape[1]:
        raise BasisDegenerate(node_index, math.inf)
    q, r = np.linalg.qr(design)
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > _COND_LIMIT:
        cond = math.inf if svals[-1] <= 0 else svals[0] / svals[-1]
        raise BasisDegenerate(node_index, cond)
    return solve_triangular(r, q.T @ target), design


# ---------------------------------------------------------------------------
# Solution container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionEstimate:
    """Backward-solve output.  ``y`` is nodal (N,) in ODE mode, path-nodal (M, N)
    in regression mode; ``z`` lives on the left nodes."""

    grid: TimeGrid
    y: np.ndarray
    z: np.ndarray
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

    def nodal_sd(self) -> np.ndarray:
        return self.y.std(axis=0) if self.pathwise else np.zeros_like(self.y)


def _effective_parts(problem: BsdeProblem, lambda_cap, driver_override):
    intensity = problem.intensity
    if lambda_cap is not None:
        intensity = intensity.truncated(float(lambda_cap))
    if not intensity.is_bounded:
        raise ValueError("the classical solver needs a bounded (truncated) intensity")
    driver = driver_override if driver_override is not None else problem.effective_driver()
    return intensity, driver


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


def _implicit_step(y_next, forcing, dt, lam, driver, b):
    """Solve y = y_next - dt (forcing + lam f(y) + b y) entrywise for a (L, M) state.

    Newton from ``y_next``; an entry stops moving once its residual is below
    ``NEWTON_TOL``.  Entries that leave the finite range or do not converge
    fall back to a bracket and bisection.  Returns the values and the worst
    residual of each level (row).
    """
    def residual(y, y_next=y_next, forcing=forcing, lam=lam):
        return y - y_next + dt * (forcing + lam * driver.f(y) + b * y)

    y = np.array(y_next, dtype=float)
    F = residual(y)
    for _ in range(100):
        active = np.abs(F) >= NEWTON_TOL
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            step = F / (1.0 + dt * (lam * driver.fprime(y) + b))
        np.subtract(y, step, out=y, where=active)
        F = residual(y)
    bad = ~(np.abs(F) < NEWTON_TOL)
    if bad.any():
        y_next_bad, forcing_bad, lam_bad = (np.broadcast_to(a, y.shape)[bad]
                                            for a in (y_next, forcing, lam))
        y[bad] = _bracket_and_bisect(
            lambda v: residual(v, y_next_bad, forcing_bad, lam_bad), y_next_bad)
        F = residual(y)
    return y, np.max(np.abs(F), axis=1)


def _box_clamp_applies(problem: BsdeProblem) -> bool:
    d = problem.effective_driver()
    return (problem.terminal.is_zero and problem.coefficient.nonnegative
            and d.zero_at_zero and d.nondecreasing and d.below_identity)


# ---------------------------------------------------------------------------
# Backward sweep over a schedule of truncation levels
# ---------------------------------------------------------------------------

def backward_sweep(problem: BsdeProblem, grid: TimeGrid, caps: Sequence,
                   bundle: Optional[PathBundle] = None,
                   basis: Optional[RegressionBasis] = None,
                   driver_override: Optional[DriverSpec] = None,
                   clamp_margin: float = 1e-3) -> list:
    """Backward implicit Euler for every truncation level in ``caps``, in one pass.

    The state is node-major with shape (N, L, M): L levels and M paths, M = 1
    without a bundle (ODE mode, deterministic data).  With a bundle the
    conditional expectations are least-squares Monte Carlo fits on the
    Brownian level: each node's design is built and factored once and all 2L
    targets (Y and the Z increment products of every level) are fitted
    against it.  Z is frozen inside the implicit step (it enters linearly with
    a bounded slope, one pass is enough at these accuracy targets).  When the
    problem's flags prove the a-priori box, each level's largest excursion
    from it is recorded as ``box_excursion_raw``; in Monte Carlo mode the
    values are then clamped into the box with ``clamp_margin`` slack.

    Returns one ``SolutionEstimate`` per level, whose ``y`` and ``z`` are views
    into the stacked buffers.
    """
    mc = bundle is not None
    if mc:
        if basis is None:
            basis = RegressionBasis.polynomial(3)
        if bundle.grid is not grid and not np.array_equal(bundle.grid.points, grid.points):
            raise ValueError("bundle was simulated on a different grid")
    elif problem.coefficient.is_markovian:
        raise ValueError("ODE mode needs deterministic coefficients")
    elif problem.terminal.kind == "random":
        raise ValueError("ODE mode needs a deterministic terminal value")
    parts = [_effective_parts(problem, cap, driver_override) for cap in caps]
    driver = parts[0][1]
    if mc and bundle.dim != 1:
        raise ValueError("regression mode currently supports one Brownian dimension")
    pts = grid.points
    n_pts, n_levels = len(pts), len(parts)
    m_paths = bundle.n_paths if mc else 1
    lam_nodes = np.array([np.asarray(intensity.value(pts[:-1]), dtype=float)
                          for intensity, _ in parts])
    box = _box_clamp_applies(problem)
    sup = problem.coefficient.sup_norm
    b, sigma = problem.y_slope, problem.z_slope

    y = np.empty((n_pts, n_levels, m_paths))
    z = np.zeros((n_pts - 1, n_levels, m_paths))
    if mc:
        levels = bundle.levels[:, :, 0]
        increments = bundle.increments[:, :, 0]
        y[-1] = problem.terminal.values(levels[:, -1])
    else:
        y[-1] = float(problem.terminal.values())
    worst_resid = np.zeros(n_levels)
    excursion = np.zeros(n_levels)
    for i in range(n_pts - 2, -1, -1):
        t_i = float(pts[i])
        dt = float(pts[i + 1] - t_i)
        if mc:
            w_i = levels[:, i]
            targets = np.concatenate([y[i + 1], y[i + 1] * increments[:, i] / dt])
            coef, design = fit_coefficients(basis, w_i, targets.T, node_index=i)
            del targets
            # fitted values (design @ coef).T, laid out level-major
            y_fit = coef[:, :n_levels].T @ design.T
            np.matmul(coef[:, n_levels:].T, design.T, out=z[i])
            phi = np.asarray(problem.coefficient.value(t_i, w_i), dtype=float)
        else:
            y_fit = y[i + 1]
            phi = np.asarray(problem.coefficient.value(t_i), dtype=float)
        y_i, resid = _implicit_step(y_fit, phi + sigma * z[i], dt, lam_nodes[:, i, None],
                                    driver, b)
        np.maximum(worst_resid, resid, out=worst_resid)
        if box:
            lower = -(grid.horizon - t_i) * sup
            np.maximum(excursion, np.maximum(y_i.max(axis=1), lower - y_i.min(axis=1)),
                       out=excursion)
            if mc:
                np.clip(y_i, lower - clamp_margin, clamp_margin, out=y_i)
        y[i] = y_i

    solutions = []
    for k, cap in enumerate(caps):
        y_k, z_k = (y[:, k, :].T, z[:, k, :].T) if mc else (y[:, k, 0], z[:, k, 0])
        diagnostics = {"residual_max": float(worst_resid[k]),
                       "y_min": float(y_k.min()), "y_max": float(y_k.max())}
        if box:
            diagnostics["box_excursion_raw"] = float(excursion[k])
        if mc:
            diagnostics.update(paths=m_paths, basis=basis.kind,
                               basis_degree=basis.degree, seed=bundle.seed,
                               y0_mean=float(y[0, k].mean()))
        solutions.append(SolutionEstimate(
            grid=grid, y=y_k, z=z_k, mode="regression_mc" if mc else "ode_exact",
            problem=problem, lambda_cap=cap, driver_used=driver,
            diagnostics=diagnostics))
    return solutions


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
    if sol_low.pathwise:
        diff = sol_low.y - sol_high.y
        mean = diff.mean(axis=0)
        stderr = diff.std(axis=0) / math.sqrt(diff.shape[0])
        tol = 3.0 * stderr if tolerance is None else tolerance
        excess = mean - tol
        max_violation = float(np.max(excess))
        return ComparisonReport(max_violation=max_violation,
                                tolerance=float(np.max(np.atleast_1d(tol))),
                                ok=max_violation <= 0.0)
    tol = 0.0 if tolerance is None else tolerance
    max_violation = float(np.max(sol_low.y - sol_high.y - tol))
    return ComparisonReport(max_violation=max_violation, tolerance=tol,
                            ok=max_violation <= 0.0)
