"""Numerical certificates for the pathologies: non-existence growth series,
residual-verified non-uniqueness families, and the class-(D) norm.

Non-existence is certified by divergence of the truncated-solution driver mass
along the level schedule, the computable shadow of the contradiction argument.
The true obstruction involves a random time that is not a stopping time, so the
divergence-in-n series is a proxy; the certificate records that in its metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .affine import (
    AffineSolution,
    classify_ode,
    fundamental_family,
    ode_family_member,
)
from .coefficients import (
    MINUS_LAMBDA_Y,
    NONLINEAR_PLUS,
    PLUS_LAMBDA_Y,
    BsdeProblem,
    CoefficientProcess,
    IntensityModel,
    TerminalSpec,
    TimeGrid,
)
from .errors import CertificateFailed
from .lipschitz_solver import SolutionEstimate, backward_sweep
from .paths import PathBundle

Candidate = Union[AffineSolution, SolutionEstimate]

GROWTH_RATIO_THRESHOLD = 10.0


# ---------------------------------------------------------------------------
# Residual verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    terminal_gap: float
    integrability_estimate: float       # trapezoidal E int |driver| dt on [0, t_cap]


def _left_z(candidate: Candidate, i: int):
    z = candidate.z
    if z.ndim == 2:
        return z[:, i]
    return z[i]


def residual_check(candidate: Candidate, problem: BsdeProblem,
                   bundle: Optional[PathBundle] = None,
                   rule: Optional[str] = None) -> ResidualReport:
    """Plug the candidate back into the discrete equation on [0, t_cap].

    ``trapezoid`` (default for closed-form candidates) integrates the driver by
    the trapezoidal rule over each step; ``implicit_left`` (default for solver
    output) uses the solver's own left-point quadrature.  Pathwise candidates
    subtract the Ito term Z dW and report the path-averaged absolute residual.
    """
    if rule is None:
        rule = "implicit_left" if isinstance(candidate, SolutionEstimate) else "trapezoid"
    grid = candidate.grid
    pts, cap = grid.points, grid.cap_index
    intensity = problem.intensity
    lam_cap = getattr(candidate, "lambda_cap", None)
    if lam_cap is not None:
        intensity = intensity.truncated(float(lam_cap))
    driver = getattr(candidate, "driver_used", None) or problem.effective_driver()
    lam = np.asarray(intensity.value(pts[:cap + 1]), dtype=float)

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
        if rule == "trapezoid":
            drift = 0.5 * (g_vals[i] + g_vals[i + 1]) * dt
        elif rule == "implicit_left":
            drift = g_vals[i] * dt      # the solver's own quadrature point
        else:
            raise ValueError(f"unknown residual rule {rule!r}")
        resid = dy - drift
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


# ---------------------------------------------------------------------------
# Class (D) norm
# ---------------------------------------------------------------------------

def class_d_norm(sol: Candidate, sup_bound: Optional[float] = None) -> float:
    """sup over a stopping-time family of E|Y_tau|.

    Deterministic solutions: maximum nodal |Y|.  Pathwise solutions add
    first-hitting times of eight evenly spaced |Y| levels to the deterministic
    nodes; the result is a lower bound of the true supremum.
    """
    y = sol.y
    if y.ndim == 1:
        return float(np.max(np.abs(y)))
    node_best = float(np.max(np.mean(np.abs(y), axis=0)))
    if sup_bound is None and isinstance(sol, SolutionEstimate):
        sup_bound = sol.problem.coefficient.sup_norm * sol.grid.horizon
    if not sup_bound:
        return node_best
    best = node_best
    m, n = y.shape
    rows = np.arange(m)
    for k in range(1, 9):
        level = k * sup_bound / 8.0
        hit = np.abs(y) >= level
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), n - 1)
        best = max(best, float(np.mean(np.abs(y[rows, first]))))
    return best


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathologyCertificate:
    kind: str                               # non_existence | non_uniqueness
    scenario_id: str
    growth_series: tuple = ()               # ((n, driver-mass estimate), ...)
    monotone_divergent: bool = False
    members: tuple = ()
    member_residuals: tuple = ()
    pairwise_sup_distance: tuple = ()       # ((i, j, distance), ...)
    metadata: dict = field(default_factory=dict)


def certify_nonexistence(problem: BsdeProblem, schedule: Sequence[float],
                         grid: TimeGrid,
                         ratio_threshold: float = GROWTH_RATIO_THRESHOLD,
                         scenario_id: str = "nonexistence") -> PathologyCertificate:
    """Solve the truncated problems along the schedule and report the mass series
    int lam^n |Y^n| dt, which must blow up when no solution exists.

    Restricted to the minus-sign composition (directly, or through a monotone
    nonlinear driver): there the terminal value is amplified backward at rate
    exp(int lam^n) and the series grows without bound.  The plus-sign equation
    rejects nonzero terminals through the representation formula instead.
    """
    if problem.terminal.kind != "constant":
        raise ValueError("the certificate needs a nonzero constant terminal value")
    if not problem.intensity.is_singular:
        raise CertificateFailed(
            "not a singular intensity: the standing assumption fails, classical "
            "theory applies and no pathology certificate is warranted"
        )
    if problem.sign == PLUS_LAMBDA_Y:
        raise ValueError(
            "plus-sign non-existence is certified by the representation formula "
            "(solve_affine_plus raises NoSolution); the mass series stays bounded there"
        )
    if problem.sign == NONLINEAR_PLUS and not problem.driver.monotone:
        raise ValueError("nonlinear certificates need a monotone driver")

    schedule = [float(n) for n in schedule]
    if len(schedule) < 2:
        raise ValueError("the schedule needs at least two levels to witness growth")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be increasing")
    series = []
    for n, sol in zip(schedule, backward_sweep(problem, grid, schedule)):
        lam_vals = np.asarray(problem.intensity.truncated(n).value(grid.points))
        mass = float(np.trapezoid(lam_vals * np.abs(sol.y), grid.points))
        series.append((n, mass))
    values = [m for _, m in series]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    divergent = increasing and values[-1] > ratio_threshold * values[0]
    return PathologyCertificate(
        kind="non_existence", scenario_id=scenario_id,
        growth_series=tuple(series), monotone_divergent=divergent,
        metadata={
            "ratio": values[-1] / values[0] if values[0] > 0 else math.inf,
            "ratio_threshold": ratio_threshold,
            "proxy_note": (
                "divergence in the truncation level stands in for the exact "
                "argument, whose exceptional time is not a stopping time and "
                "admits no direct numerical analogue"),
        })


# -- non-uniqueness scenarios ------------------------------------------------

@dataclass(frozen=True)
class FundamentalMinus:
    model: IntensityModel
    y0_list: tuple
    tol: float = 1e-8


@dataclass(frozen=True)
class OdeFamilyScenario:
    model: IntensityModel
    coefficient: object                  # CoefficientProcess or callable of time
    limit: float
    y0_list: tuple
    tol: float = 1e-8                    # member residual tolerance
    classify_tol: float = 1e-6           # limit-detection tolerance


@dataclass(frozen=True)
class EkRed:
    """Drifted family on the exponential-gap intensity with bounded slopes."""
    r: float
    sigma: float
    gamma: float
    y0_list: tuple = (0.0, 1.0)
    horizon: float = 1.0
    tol: float = 1e-6


def certify_nonuniqueness(scenario, grid: TimeGrid,
                          bundle: Optional[PathBundle] = None,
                          scenario_id: Optional[str] = None) -> PathologyCertificate:
    """Construct at least two family members, verify each by residual check,
    and report their pairwise sup distances."""
    if isinstance(scenario, FundamentalMinus):
        model = scenario.model
        members = [fundamental_family(model, y0, grid) for y0 in scenario.y0_list]
        problem = BsdeProblem(
            intensity=model,
            coefficient=CoefficientProcess.constant(0.0, model.horizon),
            sign=MINUS_LAMBDA_Y)
        tol = scenario.tol
        sid = scenario_id or "fundamental_minus"
    elif isinstance(scenario, OdeFamilyScenario):
        model = scenario.model
        classification = classify_ode(model, scenario.coefficient,
                                      tolerance=scenario.classify_tol)
        if not classification.converges:
            raise CertificateFailed("the prefix integral diverges: no family exists")
        if abs(classification.limit - scenario.limit) > 100 * scenario.tol:
            raise CertificateFailed(
                f"classified limit {classification.limit:.6g} disagrees with the "
                f"scenario limit {scenario.limit:.6g}")
        members = [ode_family_member(model, scenario.coefficient, y0, grid,
                                     classification=classification)
                   for y0 in scenario.y0_list]
        coeff = scenario.coefficient if isinstance(scenario.coefficient, CoefficientProcess) \
            else CoefficientProcess.from_function(scenario.coefficient, model.horizon)
        problem = BsdeProblem(
            intensity=model, coefficient=coeff, sign=MINUS_LAMBDA_Y,
            terminal=TerminalSpec.constant(scenario.limit))
        tol = scenario.tol
        sid = scenario_id or "ode_family"
    elif isinstance(scenario, EkRed):
        model = IntensityModel.exp_gap(scenario.gamma, scenario.horizon)
        members = [fundamental_family(model, y0, grid, y_slope=scenario.r)
                   for y0 in scenario.y0_list]
        problem = BsdeProblem(
            intensity=model,
            coefficient=CoefficientProcess.constant(0.0, model.horizon),
            sign=MINUS_LAMBDA_Y, y_slope=scenario.r, z_slope=scenario.sigma)
        tol = scenario.tol
        sid = scenario_id or "ek_red"
    else:
        raise ValueError(f"unknown non-uniqueness scenario {type(scenario).__name__}")

    if len(members) < 2:
        raise ValueError("a non-uniqueness certificate needs at least two members")
    residuals = []
    for member in members:
        rep = residual_check(member, problem, bundle=bundle, rule="trapezoid")
        if rep.max_residual > tol:
            raise CertificateFailed(
                f"member y0={member.y0} fails verification: residual "
                f"{rep.max_residual:.3e} > {tol:.1e}")
        if rep.terminal_gap > tol:
            raise CertificateFailed(
                f"member y0={member.y0} misses the terminal value by "
                f"{rep.terminal_gap:.3e}")
        residuals.append(rep.max_residual)

    distances = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            ya, yb = np.atleast_2d(members[i].y), np.atleast_2d(members[j].y)
            dist = float(np.max(np.abs(ya - yb)))
            if dist <= 10 * tol:
                raise CertificateFailed(
                    f"members {i} and {j} are numerically indistinct ({dist:.3e})")
            distances.append((i, j, dist))

    return PathologyCertificate(
        kind="non_uniqueness", scenario_id=sid,
        members=tuple(members), member_residuals=tuple(residuals),
        pairwise_sup_distance=tuple(distances),
        metadata={"tolerance": tol, "member_count": len(members)})
