"""Monotone truncation scheme for the singular nonlinear equation.

Cap the intensity at a level n, clip the driver map to a Lipschitz surrogate,
solve the classical equation for every level in one backward sweep, and
certify along the way: the levels must increase monotonically, stay inside the
analytic box, have decaying sup-norm gaps on [0, t_cap], keep a uniformly bounded
driver mass, and (in Monte Carlo mode) a bounded conditional tail of the Z
quadratic variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coefficients import NONLINEAR_PLUS, BsdeProblem, DriverSpec, TimeGrid, check_schedule
from .diagnostics import by_node
from .errors import NoSolution
from .lipschitz_solver import (
    DEFAULT_BASIS,
    NodeSweep,
    RegressionBasis,
    SolutionEstimate,
    fit_coefficients,
    paired_moments,
)
from .paths import PathBundle

ODE_MONOTONE_SLACK = 1e-10
BOX_SLACK_ODE = 1e-10
BMO_QUANTILE = 0.005          # the BMO surface is maximised between the level's
BMO_EVAL_POINTS = 41          # q and 1 - q quantiles, on this many points
_BMO_QUANTILES = (BMO_QUANTILE, 1.0 - BMO_QUANTILE)
SCHEME_THETA = 0.5            # the sweep's theta-step: the trapezoid rule


# ---------------------------------------------------------------------------
# Driver truncation
# ---------------------------------------------------------------------------

def truncate(driver: DriverSpec, coefficient_bound: float, horizon: float) -> DriverSpec:
    """Lipschitz surrogate: f clipped below the a-priori lower bound of Y.

    f_tilde(x) = f(max(x, L)) with L = -horizon * coefficient_bound, and f' zeroed
    below L; identical to f on [L, 0], where the solutions provably live, and
    constant below L.  The joint form clips once for f and f'; with
    ``out=(f, fprime)`` the clipped argument goes into ``f`` first.
    """
    if not (driver.zero_at_zero and driver.nondecreasing and driver.below_identity):
        raise ValueError("driver truncation needs the monotone-driver flags")
    if coefficient_bound < 0 or horizon <= 0:
        raise ValueError("coefficient bound must be nonnegative, horizon positive")
    clip = -horizon * coefficient_bound

    def f(x):
        return driver.f(np.maximum(np.asarray(x, dtype=float), clip))

    def fprime(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= clip, driver.fprime(np.maximum(x, clip)), 0.0)

    def joint(x, out=None):
        x = np.asarray(x, dtype=float)
        if out is None:
            fx, dfx = driver.f_fprime(np.maximum(x, clip))
            return fx, np.where(x >= clip, dfx, 0.0)
        # one mask, negated in place, formed before ``x`` (which may be
        # ``out[0]``) is overwritten; NaN >= clip is False, so NaN is outside
        outside = np.greater_equal(x, clip)
        np.logical_not(outside, out=outside)
        driver.f_fprime(np.maximum(x, clip, out=out[0]), out=out)
        np.copyto(out[1], 0.0, where=outside)
        return out

    return DriverSpec(
        name=f"clipped[{driver.name}]", f=f, fprime=fprime, joint=joint,
        zero_at_zero=driver.zero_at_zero, nondecreasing=driver.nondecreasing,
        below_identity=False,   # the clip breaks f <= x below L; irrelevant on [L, 0]
        derivative_floor=0.0)


# ---------------------------------------------------------------------------
# Scheme report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeReport:
    cauchy_gaps: tuple               # sup-norm gaps on [0, t_cap] between consecutive levels
    monotone_violation: float        # worst ordering violation across consecutive levels
    bounds_ok: bool
    box_violation: float
    final: SolutionEstimate          # the top level: per-node means of Y and Z
    y_sd: np.ndarray                 # per node: sd of the top level's Y over the paths
    converged: bool
    bmo_estimate: float
    bmo_stderr: float
    lambda_f_integrals: tuple
    y0: tuple                        # per level: mean of Y at t = 0
    residual_max: tuple              # per level: worst implicit-step residual
    box_excursion_raw: tuple         # per level: excursion from the box before the clamp
    y_min: tuple                     # per level: smallest Y over nodes and paths
    y_max: tuple                     # per level: largest Y over nodes and paths

    @property
    def status(self) -> str:
        return "converged" if self.converged else "not_converged"


@dataclass(frozen=True)
class SchemeConfig:
    tol: float = 1e-3
    bundle: Optional[PathBundle] = None   # Monte Carlo mode with one, ODE mode without
    basis: Optional[RegressionBasis] = None
    clamp_margin: float = 1e-3
    workers: int = 1                 # threads of the Monte Carlo sweep; the
                                     # report does not depend on them


def run_scheme(problem: BsdeProblem, grid: TimeGrid, schedule: Sequence[float],
               config: Optional[SchemeConfig] = None) -> SchemeReport:
    """Run the full truncation program over an increasing level schedule.

    The certificates are folded into the backward sweep node by node: the
    ordering of consecutive levels, their sup gaps on [0, t_cap], the driver mass
    integrands, and in Monte Carlo mode the BMO tail of the top level, fitted
    on the regression the sweep factored at each node.  The top level, the
    report's ``final`` answer, is folded the same way into its per-node mean
    and sd of Y and mean of Z; its paths are ``NodeSweep.nodes()``'s.  The
    sweep runs the theta-step at ``SCHEME_THETA``, which needs ``z_slope`` = 0.

    A nonzero terminal value is a certified failure (``NoSolution``), a problem
    without ``BsdeProblem.box``, whose lower end clips the driver, a ``ValueError``;
    schedule exhaustion above the tolerance is an informative ``not_converged``
    report, not an exception, and so is a grid on which lam exceeds the
    second-highest level at no node before T: the top two levels are one array.
    """
    config = config or SchemeConfig()
    if problem.sign != NONLINEAR_PLUS:
        raise ValueError("the scheme runs the nonlinear plus-sign problem")
    if not problem.terminal.is_zero:
        raise NoSolution("the nonlinear singular equation has no solution with "
                         "a nonvanishing terminal value")
    if problem.box(0.0) is None:
        raise ValueError("the scheme needs the a-priori box: no y-slope, a bounded phi")
    schedule = check_schedule(schedule)
    if not config.tol >= 0:                   # NaN fails too
        raise ValueError(f"tolerance must be nonnegative, got {config.tol}")
    clipped = truncate(problem.driver, problem.coefficient.sup_norm, problem.horizon)

    # in Monte Carlo mode the sweep's fits carry the BMO fold's quantile range
    sweep = NodeSweep(problem, grid, schedule, bundle=config.bundle, basis=config.basis,
                      driver_override=clipped, clamp_margin=config.clamp_margin,
                      theta=SCHEME_THETA, workers=config.workers,
                      level_quantiles=_BMO_QUANTILES if config.bundle is not None else ())

    mc, dts = sweep.mc, grid.gaps
    n_pts, n_levels, m_paths = len(grid.points), len(schedule), sweep.m_paths
    excess = np.full(n_levels - 1, -np.inf)    # worst ordering excess per level pair
    gap = np.zeros((n_levels - 1, m_paths))    # per-path sup |Y^k - Y^(k+1)| on [0, t_cap]
    mean_abs_f = np.empty((n_pts, n_levels))
    y_mean, y_sd = np.empty(n_pts), np.empty(n_pts)     # the top level's moments
    z_mean = np.zeros(n_pts - 1)
    bmo = _BmoFold(sweep.basis)               # stays at 0 in ODE mode
    # per-sweep scratch: the paired level differences, then |f|
    scratch = np.empty((n_levels, m_paths))
    diff = scratch[:-1]
    for node in sweep.nodes():
        i = node.index
        np.subtract(node.y[:-1], node.y[1:], out=diff)
        if mc:
            mean, stderr = paired_moments(diff, axis=1)
            np.maximum(excess, mean - 3.0 * stderr, out=excess)
        else:
            np.maximum(excess, diff[:, 0], out=excess)
        if i <= grid.cap_index:
            np.maximum(gap, np.abs(diff, out=diff), out=gap)
        mean_abs_f[i] = _mean_abs(node.f, out=scratch)
        # a contiguous row sums as ``np.mean`` sums a node of ``by_node``
        y_mean[i], y_sd[i] = node.y[-1].mean(), node.y[-1].std()
        if node.z is not None:
            z_mean[i] = node.z[-1].mean()
            if mc:
                bmo.add(node.w, node.z[-1], dts[i], node.fit)

    # RMS over the paths; with one path sqrt(g^2) is g exactly
    gaps = tuple(float(math.sqrt(np.mean(g ** 2))) for g in gap)
    final = sweep.solution(n_levels - 1, y_mean, z_mean)
    bmo_value, bmo_stderr = bmo.value, bmo.stderr
    mono = max(float(np.max(excess)), 0.0)
    box_slack = config.clamp_margin + 1e-12 if mc else BOX_SLACK_ODE
    # the sweep's excursion before the Monte Carlo clamp, not the clamped values
    box_viol = float(np.max(sweep.box_excursion_raw))
    bounds_ok = box_viol <= box_slack

    masses = _lambda_f_integrals(problem, grid, schedule, mean_abs_f)
    resolved = float(np.max(problem.intensity.value(grid.points[:-1]))) > schedule[-2]
    converged = resolved and gaps[-1] < config.tol

    def per_level(values):
        return tuple(float(v) for v in values)

    return SchemeReport(
        cauchy_gaps=gaps, monotone_violation=mono, bounds_ok=bounds_ok,
        box_violation=box_viol, final=final, y_sd=y_sd, converged=converged,
        bmo_estimate=bmo_value, bmo_stderr=bmo_stderr, lambda_f_integrals=masses,
        y0=per_level(sweep.y0_mean), residual_max=per_level(sweep.residual_max),
        box_excursion_raw=per_level(sweep.box_excursion_raw),
        y_min=per_level(sweep.y_min), y_max=per_level(sweep.y_max))


# ---------------------------------------------------------------------------
# Certified functionals: one per-node step each, folded by run_scheme during
# the sweep and by the public estimators over a stored solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BmoEstimate:
    value: float
    stderr: float


class _BmoFold:
    """Largest conditional remaining Z quadratic variation, folded backward over nodes.

    Carries the pathwise tail sum of |Z|^2 dt, updated in place; at each node
    the tail is regressed on the Brownian level and the fitted surface is
    maximised over an inner-quantile range of evaluation points.
    """

    def __init__(self, basis: RegressionBasis):
        self.basis = basis
        self.tail = self._term = None
        self.value = 0.0
        self._argmax = None     # (level, tail, coef, evaluation row) at the maximum

    def add(self, w, z, dt, fit=None, node_index: int = -1) -> None:
        """Fold in the node with Brownian level ``w`` and Z values ``z`` over a step
        ``dt``; ``fit`` is the node's factored design on ``w`` when a sweep built
        it, carrying the level's quantiles at ``BMO_QUANTILE`` and its complement."""
        if self.tail is None:
            self.tail, self._term = np.zeros(len(z)), np.empty(len(z))
        # tail + z ** 2 * dt, in place
        term = np.multiply(np.square(z, out=self._term), dt, out=self._term)
        np.add(self.tail, term, out=self.tail)
        target = self.tail.reshape(-1, 1)
        if fit is None:
            coef, fit = fit_coefficients(self.basis, w, target, node_index=node_index)
            lo, hi = np.quantile(w, _BMO_QUANTILES)
        else:
            coef = fit.solve(target)
            lo, hi = fit.quantiles
        coef = coef[:, 0]
        # C order: BLAS sums a matrix-vector product in an order set by the
        # layout, and the estimates are pinned to the row-major one
        x_eval = np.ascontiguousarray(self.basis.design(np.linspace(lo, hi, BMO_EVAL_POINTS)))
        est = x_eval @ coef
        j = int(np.argmax(est))
        # ties go to the earliest node, as in a forward scan
        if est[j] > self.value or est[j] == self.value > 0.0:
            # the tail moves on and a sweep's level row is reused, so both are
            # copied, into the buffers of an earlier maximum where there is one.
            # The design is rebuilt from the level at the end: holding the node's
            # own design through the sweep raised the peak resident memory of a
            # 200k-path, 21-node run by about 7%
            self.value = float(est[j])
            kept = (np.empty(len(w)), np.empty(len(w))) if self._argmax is None \
                else self._argmax[:2]
            np.copyto(kept[0], w)
            np.copyto(kept[1], self.tail)
            self._argmax = kept + (coef, x_eval[j])

    @property
    def stderr(self) -> float:
        """Standard error of the fitted surface at the maximum, from that node's regression."""
        if self._argmax is None:
            return 0.0
        w, tail, coef, x_max = self._argmax
        # in C order, as the estimates are pinned to the row-major layout
        design = self.basis.design(w, out=np.empty((len(w), len(coef))))
        resid = tail - design @ coef
        sigma2 = float(resid @ resid) / max(len(tail) - design.shape[1], 1)
        gram_inv = np.linalg.pinv(design.T @ design)
        return float(math.sqrt(max(sigma2 * x_max @ gram_inv @ x_max, 0.0)))


def estimate_bmo(sol: SolutionEstimate, bundle: Optional[PathBundle],
                 basis: Optional[RegressionBasis] = None) -> BmoEstimate:
    """Largest conditional remaining Z quadratic variation over the grid nodes.

    For each node, the pathwise tail sum of |Z|^2 dt is regressed on the
    Brownian level and the fitted surface is maximised over an inner-quantile
    range of evaluation points.  The essential supremum over stopping times is
    approximated by this node-wise maximum.
    """
    if sol.mode == "ode_exact":
        return BmoEstimate(0.0, 0.0)
    if not sol.pathwise:
        raise ValueError("the Monte Carlo estimate needs the solution's paths")
    if bundle is None:
        raise ValueError("the Monte Carlo estimate needs the path bundle")
    bundle.check_grid(sol.grid)
    fold = _BmoFold(basis or DEFAULT_BASIS)
    gaps, levels = sol.grid.gaps, bundle.levels      # one read: a drawn bundle redraws
    for i in range(sol.z.shape[1] - 1, -1, -1):
        fold.add(levels[:, i, 0], sol.z[:, i], gaps[i], node_index=i)
    return BmoEstimate(fold.value, fold.stderr)


def _mean_abs(f: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean over the paths of |f| at one node, per level: (L, M) -> (L,);
    |f| goes into ``out`` when it is given."""
    return np.abs(f, out=out).mean(axis=1)


def _lambda_f_integrals(problem: BsdeProblem, grid: TimeGrid, caps: Sequence,
                        mean_abs_f: np.ndarray) -> tuple:
    """Trapezoid of lam^n E|f(Y^n)| over the grid for each level n in ``caps``,
    from the node means ``mean_abs_f`` (one column per level)."""
    out = []
    for k, cap in enumerate(caps):
        lam_vals = np.asarray(problem.intensity.value(grid.points, cap), dtype=float)
        out.append(float(np.trapezoid(lam_vals * mean_abs_f[:, k], grid.points)))
    return tuple(out)


def estimate_lambda_f_integral(sol: SolutionEstimate,
                               level: Optional[float] = None) -> float:
    """Trapezoidal estimate of E int lam^n |f(Y^n)| dt along the solution.

    The level is ``level``, else the solution's own ``lambda_cap``; a singular
    intensity without either raises ``ValueError`` (its mass is infinite)."""
    if sol.mode == "regression_mc" and not sol.pathwise:
        raise ValueError("the Monte Carlo estimate needs the solution's paths")
    cap = level if level is not None else sol.lambda_cap
    if cap is None and sol.problem.intensity.is_singular:
        raise ValueError("a singular intensity needs a truncation level")
    driver = sol.driver_used or sol.problem.effective_driver()
    mean_abs_f = _mean_abs(driver.f(by_node(sol.y)))[:, None]
    return _lambda_f_integrals(sol.problem, sol.grid, [cap], mean_abs_f)[0]
