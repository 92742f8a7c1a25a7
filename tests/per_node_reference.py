"""The per-node certificate and table code kept as the reference for the
whole-grid array path.

These are ``residual_check``, the CLI's ``_solution_rows``, the driver-mass
loop of ``estimate_lambda_f_integral`` and the Markovian representation
solve as they were when each ran one Python iteration per grid node, with
separate branches for deterministic ``(N,)`` and pathwise ``(M, N)``
solutions.  The Markovian solve takes its interval weights from the
library's quadrature, so that the comparison covers its regression loop
alone.  The differential tests compare the array path against them bit for
bit; only the integrability estimate, a sequential sum here and one
``np.sum`` there, is compared within a relative 1e-14.
"""

import math

import numpy as np

from bsdelab.affine import AffineSolution, _interval_weights
from bsdelab.diagnostics import ResidualReport
from bsdelab.lipschitz_solver import RegressionBasis, fit_coefficients
from bsdelab.singular_scheme import _lambda_f_integrals, _mean_abs


def _left_z(candidate, i):
    z = candidate.z
    if z.ndim == 2:
        return z[:, i]
    return z[i]


def residual_check(candidate, problem, bundle=None):
    grid = candidate.grid
    pts, cap = grid.points, grid.cap_index
    lam_cap = getattr(candidate, "lambda_cap", None)
    driver = getattr(candidate, "driver_used", None) or problem.effective_driver()
    lam = np.asarray(problem.intensity.value(pts[:cap + 1], lam_cap), dtype=float)

    y = candidate.y
    pathwise = y.ndim == 2
    if pathwise and bundle is None:
        raise ValueError("pathwise candidates need the path bundle for the Ito term")
    levels = bundle.levels[:, :, 0] if pathwise else None

    def g(i):
        yi = y[:, i] if pathwise else y[i]
        w = levels[:, i] if pathwise else None
        phi = problem.coefficient.value(float(pts[i]), w)
        zi = _left_z(candidate, min(i, (candidate.z.shape[-1]) - 1))
        return (np.asarray(phi, dtype=float) + lam[i] * np.asarray(driver.f(yi))
                + problem.y_slope * yi + problem.z_slope * zi)

    max_resid = 0.0
    integr = 0.0
    g_vals = [g(i) for i in range(cap + 1)]
    for i in range(cap):
        dt = float(pts[i + 1] - pts[i])
        dy = (y[:, i + 1] - y[:, i]) if pathwise else (y[i + 1] - y[i])
        resid = dy - 0.5 * (g_vals[i] + g_vals[i + 1]) * dt
        if pathwise:
            resid = resid - _left_z(candidate, i) * bundle.increments[:, i, 0]
            max_resid = max(max_resid, float(np.mean(np.abs(resid))))
        else:
            max_resid = max(max_resid, abs(float(resid)))
        mid = 0.5 * (np.abs(g_vals[i]) + np.abs(g_vals[i + 1]))
        integr += float(np.mean(mid)) * dt

    terminal = problem.terminal.values(levels[:, -1] if pathwise else None)
    y_term = y[:, -1] if pathwise else y[-1]
    terminal_gap = float(np.max(np.abs(y_term - terminal)))
    return ResidualReport(max_residual=max_resid, terminal_gap=terminal_gap,
                          integrability_estimate=integr)


def solution_rows(grid, y, z, last_column=None):
    y2 = np.atleast_2d(y)
    z2 = None if z is None else np.atleast_2d(z)
    rows = []
    for i, t in enumerate(grid.points):
        if z2 is None or not z2.size:
            z_mean = 0.0
        else:
            z_mean = float(np.mean(z2[..., min(i, z2.shape[-1] - 1)]))
        last = "" if last_column is None else last_column[i]
        rows.append((t, float(np.mean(y2[:, i])), float(np.std(y2[:, i])),
                     z_mean, last))
    return rows


def estimate_lambda_f_integral(sol, level=None):
    driver = sol.driver_used or sol.problem.effective_driver()
    y = np.atleast_2d(sol.y)
    mean_abs_f = np.array([_mean_abs(driver.f(y[None, :, i])) for i in range(y.shape[1])])
    cap = level if level is not None else sol.lambda_cap
    return _lambda_f_integrals(sol.problem, sol.grid, [cap], mean_abs_f)[0]


def solve_affine_plus_markovian(problem, grid, bundle, basis=None):
    if basis is None:
        basis = RegressionBasis.polynomial(3)
    model, coeff = problem.intensity, problem.coefficient
    pts, cap = grid.points, grid.cap_index
    n_pts = len(pts)
    mass = np.array([model.cumulative(float(t)) for t in pts[:cap + 1]])

    weights = _interval_weights(model, grid)

    levels = bundle.levels[:, :, 0]
    m_paths = bundle.n_paths
    phi_nodes = np.empty((m_paths, cap + 1))
    for j in range(cap + 1):
        phi_nodes[:, j] = coeff.value(float(pts[j]), levels[:, j])

    y = np.zeros((m_paths, n_pts))
    z = np.zeros((m_paths, n_pts))
    tail = np.zeros(m_paths)
    fitted_next = np.zeros(m_paths)
    horizon = grid.horizon
    margin = 0.0
    for i in range(cap, -1, -1):
        tail += phi_nodes[:, i] * weights[i]
        dt = pts[i + 1] - pts[i]
        targets = np.column_stack([-math.exp(mass[i]) * tail,
                                   fitted_next * bundle.increments[:, i, 0] / dt])
        coef, fit = fit_coefficients(basis, levels[:, i], targets, node_index=i)
        fitted, z[:, i] = (fit.design @ coef).T
        bound = coeff.sup_norm * (horizon - float(pts[i]))
        margin = max(margin, float(np.max(np.abs(fitted) - bound)))
        # the box: [-bound, 0] under phi >= 0, [-bound, bound] under a signed phi
        y[:, i] = np.clip(fitted, -bound, 0.0 if coeff.nonnegative else bound)
        fitted_next = y[:, i]
    return AffineSolution(grid=grid, y=y, z=z, bound_margin=margin)
