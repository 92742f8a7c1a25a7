"""Per-level backward solvers kept as the reference for the stacked sweep.

These are the one-level-at-a-time bodies that ``solve_ode_mode`` and
``solve_regression_mc`` had before the stacked sweep replaced them: a scalar
Newton step with a bisection fallback in ODE mode, and in regression mode two
separate ``lstsq`` fits per node and a per-path bisection for Newton
stragglers.  The differential tests compare the library's stacked kernel
against them level by level.

``implicit_step`` is the stacked kernel's implicit step as it was before it
worked in a reused workspace: every Newton iterate allocates its residual,
derivative and driver values afresh.  It counts its Newton iterates and
bisection-fallback entries per level the way the sweep's counters define them.
"""

import math

import numpy as np

from bsdelab.errors import BasisDegenerate, NumericsError
from bsdelab.lipschitz_solver import (
    _COND_LIMIT,
    NEWTON_TOL,
    RegressionBasis,
    _bracket_and_bisect,
    _degenerate_level,
)


def fit_coefficients(basis, w, target, node_index=-1):
    design = basis.design(w)
    coef, _, rank, svals = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1] or svals[-1] <= 0 \
            or svals[0] / svals[-1] > _COND_LIMIT:
        cond = math.inf if svals[-1] <= 0 else svals[0] / svals[-1]
        raise BasisDegenerate(node_index, cond)
    return coef


def fit_conditional(basis, w, target, node_index=-1):
    if _degenerate_level(w):
        return np.full(len(np.asarray(target)), float(np.mean(target)))
    coef = fit_coefficients(basis, w, target, node_index)
    return basis.design(w) @ coef


def implicit_scalar_step(y_next, dt, phi_i, lam_i, driver, b):
    """Solve y = y_next - dt * (phi + lam f(y) + b y) by Newton, bisection fallback."""
    def F(y):
        return y - y_next + dt * (phi_i + lam_i * float(driver.f(y)) + b * y)

    def Fp(y):
        return 1.0 + dt * (lam_i * float(driver.fprime(y)) + b)

    y = y_next
    for _ in range(100):
        fy = F(y)
        if abs(fy) < NEWTON_TOL:
            return y, abs(fy)
        slope = Fp(y)
        if abs(slope) < 1e-14:
            break
        step = fy / slope
        if not math.isfinite(step):
            break
        y -= step

    width = max(1.0, abs(y_next))
    lo = hi = y_next
    flo = fhi = F(y_next)
    for _ in range(200):
        lo -= width
        hi += width
        flo, fhi = F(lo), F(hi)
        if flo == 0.0:
            return lo, 0.0
        if fhi == 0.0:
            return hi, 0.0
        if flo * fhi < 0:
            break
        width *= 2.0
    else:
        raise NumericsError("implicit step: no sign change found for bisection")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fm = F(mid)
        if abs(fm) < NEWTON_TOL or hi - lo < 1e-15 * max(1.0, abs(mid)):
            return mid, abs(fm)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    raise NumericsError("implicit step failed to converge")


def solve_ode_mode(problem, grid, lambda_cap=None, driver_override=None):
    """Nodal values (N,) and the worst Newton residual of one level."""
    driver = driver_override if driver_override is not None else problem.effective_driver()
    pts = grid.points
    lam_nodes = np.asarray(problem.intensity.value(pts[:-1], lambda_cap), dtype=float)
    phi_nodes = np.asarray([problem.coefficient.value(float(t)) for t in pts[:-1]])
    y = np.empty(len(pts))
    y[-1] = float(problem.terminal.values())
    worst_resid = 0.0
    for i in range(len(pts) - 2, -1, -1):
        dt = float(pts[i + 1] - pts[i])
        y[i], resid = implicit_scalar_step(
            y[i + 1], dt, float(phi_nodes[i]), float(lam_nodes[i]),
            driver, problem.y_slope)
        worst_resid = max(worst_resid, resid)
    return y, worst_resid


def implicit_vector_step(y_next_fit, dt, phi_vals, lam_i, driver, b, sigma, z_vals):
    rhs = y_next_fit - dt * (phi_vals + sigma * z_vals)

    y = np.array(y_next_fit, dtype=float)
    for _ in range(80):
        F = y + dt * (lam_i * driver.f(y) + b * y) - rhs
        worst = float(np.max(np.abs(F)))
        if worst < NEWTON_TOL:
            return y, worst
        Fp = 1.0 + dt * (lam_i * driver.fprime(y) + b)
        y = y - F / Fp
    F = y + dt * (lam_i * driver.f(y) + b * y) - rhs
    stuck = np.abs(F) >= NEWTON_TOL
    for idx in np.nonzero(stuck)[0]:
        def F1(v, r=rhs[idx]):
            return v + dt * (lam_i * float(driver.f(v)) + b * v) - r
        lo, hi = y[idx] - 1.0, y[idx] + 1.0
        for _ in range(200):
            if F1(lo) * F1(hi) < 0:
                break
            lo -= 1.0
            hi += 1.0
        else:
            raise NumericsError("pathwise implicit step found no bracket")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if F1(lo) * F1(mid) <= 0:
                hi = mid
            else:
                lo = mid
            if abs(F1(mid)) < NEWTON_TOL:
                break
        y[idx] = 0.5 * (lo + hi)
    F = y + dt * (lam_i * driver.f(y) + b * y) - rhs
    return y, float(np.max(np.abs(F)))


def solve_regression_mc(problem, grid, bundle, basis=None, lambda_cap=None,
                        driver_override=None, clamp_margin=1e-3):
    """Path-nodal values (M, N), Z (M, N - 1) and the worst Newton residual of one level."""
    if basis is None:
        basis = RegressionBasis.polynomial(3)
    driver = driver_override if driver_override is not None else problem.effective_driver()
    pts = grid.points
    n_pts, m_paths = len(pts), bundle.n_paths
    levels = bundle.levels[:, :, 0]
    increments = bundle.increments[:, :, 0]
    clamp = problem.box(grid.points) is not None
    sup = problem.coefficient.sup_norm

    y = np.zeros((m_paths, n_pts))
    z = np.zeros((m_paths, n_pts - 1))
    y[:, -1] = problem.terminal.values(levels[:, -1])
    worst_resid = 0.0
    for i in range(n_pts - 2, -1, -1):
        dt = float(pts[i + 1] - pts[i])
        lam_i = float(problem.intensity.value(float(pts[i]), lambda_cap))
        w_i = levels[:, i]
        y_fit = fit_conditional(basis, w_i, y[:, i + 1], node_index=i)
        z_fit = fit_conditional(basis, w_i, y[:, i + 1] * increments[:, i] / dt,
                                node_index=i)
        z[:, i] = z_fit
        phi_vals = np.asarray(problem.coefficient.value(float(pts[i]), w_i), dtype=float)
        if phi_vals.ndim == 0:
            phi_vals = np.full(m_paths, float(phi_vals))
        y_i, resid = implicit_vector_step(y_fit, dt, phi_vals, lam_i, driver,
                                          problem.y_slope, problem.z_slope, z_fit)
        worst_resid = max(worst_resid, resid)
        if clamp:
            lo = -(grid.horizon - float(pts[i])) * sup - clamp_margin
            y_i = np.clip(y_i, lo, clamp_margin)
        y[:, i] = y_i
    return y, z, worst_resid


def implicit_step(y_next, forcing, dt, lam, driver, b):
    """Solve y = y_next - dt (forcing + lam f(y) + b y) entrywise for a (L, M) state.

    Returns the values, f at the values, and per level (row) the worst
    residual, the Newton iterates and the entries that fell back to bisection.
    """
    def residual(y, fy, y_next=y_next, forcing=forcing, lam=lam):
        return y - y_next + dt * (forcing + lam * fy + b * y)

    y = np.array(y_next, dtype=float)
    iterations = np.zeros(y.shape[0], dtype=int)
    fy, dfy = driver.f_fprime(y)
    F = residual(y, fy)
    for _ in range(100):
        active = np.abs(F) >= NEWTON_TOL
        if not active.any():
            break
        iterations += active.any(axis=1)
        deriv = 1.0 + dt * (lam * dfy + b)
        if not np.all(deriv > 0):
            raise NumericsError(f"implicit step not monotone: 1 + dt (lam f' + b) = "
                                f"{float(np.min(deriv)):.3g} <= 0 at dt = {dt:.3g}")
        np.subtract(y, F / deriv, out=y, where=active)
        fy, dfy = driver.f_fprime(y)
        F = residual(y, fy)
    bad = ~(np.abs(F) < NEWTON_TOL)
    if bad.any():
        y_next_bad, forcing_bad, lam_bad = (np.broadcast_to(a, y.shape)[bad]
                                            for a in (y_next, forcing, lam))
        y[bad] = _bracket_and_bisect(
            lambda v: residual(v, driver.f(v), y_next_bad, forcing_bad, lam_bad),
            y_next_bad)
        fy = driver.f(y)
        F = residual(y, fy)
    return y, fy, np.max(np.abs(F), axis=1), iterations, bad.sum(axis=1)
