"""Monotone truncation scheme for the singular nonlinear equation.

Cap the intensity at a level n, clip the driver map to a Lipschitz surrogate,
solve the classical equation for every level in one backward sweep, and
certify along the way: the levels must increase monotonically, stay inside the
analytic box, have decaying sup-norm gaps on [0, t0], keep a uniformly bounded
driver mass, and (in Monte Carlo mode) a bounded conditional tail of the Z
quadratic variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import NONLINEAR_PLUS, BsdeProblem, DriverSpec, TimeGrid
from .errors import NoSolution
from .lipschitz_solver import (
    RegressionBasis,
    SolutionEstimate,
    backward_sweep,
    comparison_check,
    fit_coefficients,
)
from .paths import PathBundle

ODE_MONOTONE_SLACK = 1e-10
BOX_SLACK_ODE = 1e-10


# ---------------------------------------------------------------------------
# Driver truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedDriver:
    """Lipschitz surrogate: f clipped below the a-priori lower bound of Y.

    f_tilde(x) = f(max(x, L)) with L = -T * sup|phi|; identical to f on [L, 0],
    where the solutions provably live, and constant below L.
    """

    base: DriverSpec
    lower_clip: float
    lipschitz_constant: float

    def f_tilde(self, x):
        return self.base.f(np.maximum(np.asarray(x, dtype=float), self.lower_clip))

    def fprime_tilde(self, x):
        x = np.asarray(x, dtype=float)
        inside = x >= self.lower_clip
        return np.where(inside, self.base.fprime(np.maximum(x, self.lower_clip)), 0.0)

    def to_driver_spec(self) -> DriverSpec:
        return DriverSpec(
            name=f"clipped[{self.base.name}]",
            f=self.f_tilde,
            fprime=self.fprime_tilde,
            zero_at_zero=self.base.zero_at_zero,
            nondecreasing=self.base.nondecreasing,
            below_identity=False,   # the clip breaks f <= x below L; irrelevant on [L, 0]
            derivative_floor=0.0,
        )


def truncate(driver: DriverSpec, coefficient_bound: float, horizon: float) -> TruncatedDriver:
    """Clip the driver at L = -horizon * coefficient_bound and record its Lipschitz constant."""
    if not (driver.zero_at_zero and driver.nondecreasing and driver.below_identity):
        raise ValueError("driver truncation needs the monotone-driver flags")
    if coefficient_bound < 0 or horizon <= 0:
        raise ValueError("coefficient bound must be nonnegative, horizon positive")
    clip = -horizon * coefficient_bound
    xs = np.linspace(clip, 0.0, 2001)
    slopes = np.abs(np.asarray(driver.fprime(xs), dtype=float))
    lipschitz = float(max(slopes.max(), abs(float(driver.fprime(clip))),
                          abs(float(driver.fprime(0.0)))))
    return TruncatedDriver(base=driver, lower_clip=clip, lipschitz_constant=lipschitz)


# ---------------------------------------------------------------------------
# Scheme report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeReport:
    schedule: tuple
    solutions: tuple                 # SolutionEstimate per level
    t0: float
    cauchy_gaps: tuple               # sup-norm gaps on [0, t0] between consecutive levels
    monotone_violation: float        # worst ordering violation across consecutive levels
    bounds_ok: bool
    box_violation: float
    final: SolutionEstimate          # extrapolated last pair, clamped into the box
    converged: bool
    tolerance: float
    bmo_estimate: float
    bmo_stderr: float
    lambda_f_integrals: tuple
    envelope_bound: float            # sup|phi|: on (t_cap, T] the solution sits in
    t_cap: float                     # [-(T-t) * envelope_bound, 0]
    notes: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "converged" if self.converged else "not_converged"


@dataclass(frozen=True)
class SchemeConfig:
    mode: str = "ode"                # ode | mc
    tol: float = 1e-3
    bundle: Optional[PathBundle] = None
    basis: Optional[RegressionBasis] = None
    clamp_margin: float = 1e-3
    extrapolate_final: bool = True


def _sup_gap(a: SolutionEstimate, b: SolutionEstimate, upto: int) -> float:
    if a.pathwise:
        d = np.abs(a.y[:, :upto + 1] - b.y[:, :upto + 1])
        return float(math.sqrt(np.mean(np.max(d, axis=1) ** 2)))
    return float(np.max(np.abs(a.y[:upto + 1] - b.y[:upto + 1])))


def _monotone_violation(lower: SolutionEstimate, higher: SolutionEstimate) -> float:
    """Exact ordering violation in ODE mode; in Monte Carlo mode the mean of the
    paired difference in excess of three standard errors."""
    return comparison_check(lower, higher).max_violation


def run_scheme(problem: BsdeProblem, grid: TimeGrid, schedule: Sequence[float],
               t0: Optional[float] = None,
               config: Optional[SchemeConfig] = None) -> SchemeReport:
    """Run the full truncation program over an increasing level schedule.

    A nonzero terminal value is a certified failure (``NoSolution``); schedule
    exhaustion above the tolerance is an informative ``not_converged`` report,
    not an exception.
    """
    config = config or SchemeConfig()
    if problem.sign != NONLINEAR_PLUS:
        raise ValueError("the scheme runs the nonlinear plus-sign problem")
    if not problem.terminal.is_zero:
        raise NoSolution("the nonlinear singular equation has no solution with "
                         "a nonvanishing terminal value")
    schedule = [float(n) for n in schedule]
    if len(schedule) < 2 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be increasing with at least two levels")
    t_cap = grid.t_cap
    if t0 is None:
        t0 = t_cap
    if not (0 < t0 <= t_cap):
        raise ValueError("t0 must lie in (0, t_cap]")
    upto = int(np.searchsorted(grid.points, t0 + 1e-15) - 1)
    upto = max(upto, 0)

    sup = problem.coefficient.sup_norm
    clipped = truncate(problem.driver, sup, problem.horizon).to_driver_spec()

    if config.mode not in ("ode", "mc"):
        raise ValueError(f"unknown scheme mode {config.mode!r}")
    bundle = config.bundle if config.mode == "mc" else None
    if config.mode == "mc" and bundle is None:
        raise ValueError("mc mode needs a path bundle")
    solutions = backward_sweep(problem, grid, schedule, bundle=bundle, basis=config.basis,
                               driver_override=clipped, clamp_margin=config.clamp_margin)

    gaps = tuple(_sup_gap(a, b, upto) for a, b in zip(solutions, solutions[1:]))
    mono = max(max(_monotone_violation(a, b) for a, b in zip(solutions, solutions[1:])), 0.0)
    box_slack = BOX_SLACK_ODE if config.mode == "ode" else config.clamp_margin + 1e-12
    # the sweep's excursion before the Monte Carlo clamp, not the clamped values
    box_viol = max(s.diagnostics["box_excursion_raw"] for s in solutions)
    bounds_ok = box_viol <= box_slack

    final = _extrapolated_final(solutions, schedule, sup) \
        if config.extrapolate_final else solutions[-1]
    masses = tuple(estimate_lambda_f_integral(s) for s in solutions)
    if config.mode == "mc":
        bmo = estimate_bmo(solutions[-1], config.bundle)
        bmo_value, bmo_stderr = bmo.value, bmo.stderr
    else:
        bmo_value, bmo_stderr = 0.0, 0.0
    converged = gaps[-1] < config.tol

    return SchemeReport(
        schedule=tuple(schedule), solutions=tuple(solutions), t0=float(t0),
        cauchy_gaps=gaps, monotone_violation=mono, bounds_ok=bounds_ok,
        box_violation=box_viol, final=final, converged=converged,
        tolerance=config.tol, bmo_estimate=bmo_value, bmo_stderr=bmo_stderr,
        lambda_f_integrals=masses, envelope_bound=sup, t_cap=t_cap,
        notes={"mode": config.mode,
               "envelope": "on (t_cap, T] the solution lies between "
                           "-(T-t)*envelope_bound and 0"})


def _extrapolated_final(solutions, schedule, sup) -> SolutionEstimate:
    """Richardson step on the last pair: the level error decays like 1/n."""
    last, prev = solutions[-1], solutions[-2]
    r = schedule[-1] / schedule[-2]
    y = (r * last.y - prev.y) / (r - 1.0)
    lower = -(last.grid.horizon - last.grid.points) * sup
    y = np.clip(y, lower if y.ndim == 1 else lower[None, :], 0.0)
    return SolutionEstimate(
        grid=last.grid, y=y, z=last.z, mode=last.mode, problem=last.problem,
        lambda_cap=last.lambda_cap, driver_used=last.driver_used,
        diagnostics=dict(last.diagnostics, extrapolated_from=(schedule[-2], schedule[-1])))


# ---------------------------------------------------------------------------
# Certified functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BmoEstimate:
    value: float
    stderr: float


def estimate_bmo(sol: SolutionEstimate, bundle: Optional[PathBundle],
                 basis: Optional[RegressionBasis] = None,
                 quantile: float = 0.005, n_eval: int = 41) -> BmoEstimate:
    """Largest conditional remaining Z quadratic variation over the grid nodes.

    For each node, the pathwise tail sum of |Z|^2 dt is regressed on the
    Brownian level and the fitted surface is maximised over an inner-quantile
    range of evaluation points.  The essential supremum over stopping times is
    approximated by this node-wise maximum.
    """
    if sol.mode == "ode_exact":
        return BmoEstimate(0.0, 0.0)
    if bundle is None:
        raise ValueError("the Monte Carlo estimate needs the path bundle")
    if basis is None:
        basis = RegressionBasis.polynomial(3)
    gaps = sol.grid.gaps
    z2 = sol.z ** 2 * gaps[None, :]
    tail = np.cumsum(z2[:, ::-1], axis=1)[:, ::-1]
    levels = bundle.levels[:, :, 0]
    best, best_se = 0.0, 0.0
    for i in range(sol.z.shape[1]):
        w = levels[:, i]
        coef, design = fit_coefficients(basis, w, tail[:, i:i + 1], node_index=i)
        coef = coef[:, 0]
        fitted = design @ coef
        resid = tail[:, i] - fitted
        sigma2 = float(resid @ resid) / max(len(w) - design.shape[1], 1)
        lo, hi = np.quantile(w, [quantile, 1.0 - quantile])
        w_eval = np.linspace(lo, hi, n_eval)
        x_eval = basis.design(w_eval)
        est = x_eval @ coef
        j = int(np.argmax(est))
        if est[j] > best:
            gram_inv = np.linalg.pinv(design.T @ design)
            best = float(est[j])
            best_se = float(math.sqrt(max(sigma2 * x_eval[j] @ gram_inv @ x_eval[j], 0.0)))
    return BmoEstimate(best, best_se)


def estimate_lambda_f_integral(sol: SolutionEstimate,
                               level: Optional[float] = None) -> float:
    """Trapezoidal estimate of E int lam^n |f(Y^n)| dt along the solution."""
    cap = level if level is not None else sol.lambda_cap
    intensity = sol.problem.intensity
    if cap is not None:
        intensity = intensity.truncated(float(cap))
    lam_vals = np.asarray(intensity.value(sol.grid.points), dtype=float)
    driver = sol.driver_used or sol.problem.effective_driver()
    fy = np.abs(np.asarray(driver.f(sol.y), dtype=float))
    mean_fy = fy.mean(axis=0) if sol.pathwise else fy
    return float(np.trapezoid(lam_vals * mean_fy, sol.grid.points))
