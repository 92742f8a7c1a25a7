"""The stored-array truncation scheme kept as the reference for the streaming one.

This is ``run_scheme`` as it was before the certificates were folded into the
backward sweep: ``backward_sweep`` keeps every level's full ``y``/``z``, and
the sup gaps, the ordering check, the driver-mass integrals and the BMO
functional are then computed by reading those arrays back.  One change from
that body: the BMO regression uses the configured basis (it was always
cubic), so that the reference also holds for other basis degrees.  Another:
the levels come from ``scheme_sweep``, the sweep at the scheme's theta-step.
The differential tests compare every ``SchemeReport`` field against it.
"""

import math

import numpy as np

from bsdelab.lipschitz_solver import NodeSweep, RegressionBasis, fit_coefficients
from bsdelab.singular_scheme import (
    BOX_SLACK_ODE,
    SCHEME_THETA,
    SchemeConfig,
    truncate,
)


def scheme_sweep(problem, grid, caps, **kwargs):
    """``backward_sweep`` at ``SCHEME_THETA``: a ``NodeSweep`` at the scheme's
    theta, its nodes stacked into one ``SolutionEstimate`` per level."""
    sweep = NodeSweep(problem, grid, caps, theta=SCHEME_THETA, **kwargs)
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


def node_moments(sol):
    """Per-node mean and sd of Y and mean of Z of a stored solution, each node
    reduced as its own contiguous row, as ``run_scheme`` folds its top level;
    a one-path solution is its own mean, with sd 0."""
    if not sol.pathwise:
        return sol.y, np.zeros(len(sol.y)), sol.z
    y_rows, z_rows = np.ascontiguousarray(sol.y.T), np.ascontiguousarray(sol.z.T)
    return (np.array([row.mean() for row in y_rows]), np.array([row.std() for row in y_rows]),
            np.array([row.mean() for row in z_rows]))


def sup_gap(a, b, upto):
    if a.pathwise:
        d = np.abs(a.y[:, :upto + 1] - b.y[:, :upto + 1])
        return float(math.sqrt(np.mean(np.max(d, axis=1) ** 2)))
    return float(np.max(np.abs(a.y[:upto + 1] - b.y[:upto + 1])))


def monotone_violation(lower, higher):
    """Exact ordering violation in ODE mode; in Monte Carlo mode the mean of the
    paired difference in excess of three standard errors."""
    if lower.pathwise:
        diff = lower.y - higher.y
        mean = diff.mean(axis=0)
        stderr = diff.std(axis=0) / math.sqrt(diff.shape[0])
        return float(np.max(mean - 3.0 * stderr))
    return float(np.max(lower.y - higher.y - 0.0))


def estimate_bmo(sol, bundle, basis, quantile=0.005, n_eval=41):
    gaps = sol.grid.gaps
    z2 = sol.z ** 2 * gaps[None, :]
    tail = np.cumsum(z2[:, ::-1], axis=1)[:, ::-1]
    levels = bundle.levels[:, :, 0]
    best, best_se = 0.0, 0.0
    for i in range(sol.z.shape[1]):
        w = levels[:, i]
        coef, fit = fit_coefficients(basis, w, tail[:, i:i + 1], node_index=i)
        design = fit.design
        coef = coef[:, 0]
        # the designs in C order, as ``_BmoFold``'s: BLAS sums a product in an
        # order set by the layout
        fitted = np.ascontiguousarray(design) @ coef
        resid = tail[:, i] - fitted
        sigma2 = float(resid @ resid) / max(len(w) - design.shape[1], 1)
        lo, hi = np.quantile(w, [quantile, 1.0 - quantile])
        w_eval = np.linspace(lo, hi, n_eval)
        x_eval = np.ascontiguousarray(basis.design(w_eval))
        est = x_eval @ coef
        j = int(np.argmax(est))
        if est[j] > best:
            gram_inv = np.linalg.pinv(design.T @ design)
            best = float(est[j])
            best_se = float(math.sqrt(max(sigma2 * x_eval[j] @ gram_inv @ x_eval[j], 0.0)))
    return best, best_se


def estimate_lambda_f_integral(sol):
    lam_vals = np.asarray(sol.problem.intensity.value(sol.grid.points, float(sol.lambda_cap)),
                          dtype=float)
    fy = np.abs(np.asarray(sol.driver_used.f(sol.y), dtype=float))
    mean_fy = fy.mean(axis=0) if sol.pathwise else fy
    return float(np.trapezoid(lam_vals * mean_fy, sol.grid.points))


def run_scheme(problem, grid, schedule, t0=None, config=None):
    """Every level stored, then read back.  Returns a dict with the fields of
    ``SchemeReport``, ``final`` with its paths, and ``solutions``: every level."""
    config = config or SchemeConfig()
    schedule = [float(n) for n in schedule]
    t0 = grid.t_cap if t0 is None else t0
    upto = max(int(np.searchsorted(grid.points, t0 + 1e-15) - 1), 0)
    sup = problem.coefficient.sup_norm
    clipped = truncate(problem.driver, sup, problem.horizon)
    bundle = config.bundle
    solutions = scheme_sweep(problem, grid, schedule, bundle=bundle, basis=config.basis,
                             driver_override=clipped, clamp_margin=config.clamp_margin)

    gaps = tuple(sup_gap(a, b, upto) for a, b in zip(solutions, solutions[1:]))
    mono = max(max(monotone_violation(a, b) for a, b in zip(solutions, solutions[1:])), 0.0)
    box_slack = BOX_SLACK_ODE if config.bundle is None else config.clamp_margin + 1e-12
    box_viol = max(s.diagnostics["box_excursion_raw"] for s in solutions)
    if config.bundle is not None:
        bmo_value, bmo_stderr = estimate_bmo(
            solutions[-1], bundle, config.basis or RegressionBasis.polynomial(3))
    else:
        bmo_value, bmo_stderr = 0.0, 0.0
    return dict(
        schedule=tuple(schedule), solutions=tuple(solutions), t0=float(t0),
        cauchy_gaps=gaps, monotone_violation=mono, bounds_ok=box_viol <= box_slack,
        box_violation=box_viol, final=solutions[-1], y_sd=node_moments(solutions[-1])[1],
        converged=gaps[-1] < config.tol,
        tolerance=config.tol, bmo_estimate=bmo_value, bmo_stderr=bmo_stderr,
        lambda_f_integrals=tuple(estimate_lambda_f_integral(s) for s in solutions),
        y0=tuple(float(np.mean(np.atleast_2d(s.y)[:, 0])) for s in solutions),
        residual_max=tuple(s.diagnostics["residual_max"] for s in solutions),
        box_excursion_raw=tuple(s.diagnostics["box_excursion_raw"] for s in solutions),
        y_min=tuple(float(s.y.min()) for s in solutions),
        y_max=tuple(float(s.y.max()) for s in solutions),
        notes={"mode": "mc" if config.bundle is not None else "ode"})
