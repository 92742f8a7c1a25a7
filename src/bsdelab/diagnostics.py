"""Numerical certificates for the pathologies: non-existence growth series and
residual-verified non-uniqueness families.

Non-existence is certified by divergence of the truncated-solution driver mass
along the level schedule, the computable shadow of the contradiction argument.
The true obstruction involves a random time that is not a stopping time and
admits no direct numerical analogue, so the divergence-in-n series is a proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .affine import (
    AffineSolution,
    OdeClassification,
    fundamental_family,
    ode_family_member,
)
from .coefficients import (
    MINUS_LAMBDA_Y,
    PLUS_LAMBDA_Y,
    BsdeProblem,
    CoefficientProcess,
    IntensityModel,
    TerminalSpec,
    TimeGrid,
    check_schedule,
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


def by_node(values: np.ndarray) -> np.ndarray:
    """A (rows, nodes) array, or a (nodes,) one as its one row, as contiguous
    (nodes, rows): each node's reduction then sums as ``np.mean`` sums a column."""
    return np.ascontiguousarray(np.atleast_2d(values).T)


def residual_check(candidate: Candidate, problem: BsdeProblem,
                   bundle: Optional[PathBundle] = None) -> ResidualReport:
    """Plug the candidate back into the discrete equation on [0, t_cap].

    The driver is integrated by the trapezoidal rule over each step, on the
    whole grid at once: a deterministic candidate is the one row of the
    (rows, nodes) array that a pathwise one fills.  Pathwise candidates
    subtract the Ito term Z dW and report the path-averaged absolute residual.
    A Monte Carlo scheme's ``final``, its nodal means, is neither.
    """
    if getattr(candidate, "mode", None) == "regression_mc" and candidate.y.ndim == 1:
        raise ValueError("the Monte Carlo residual check needs the solution's paths")
    cap = candidate.grid.cap_index
    t = candidate.grid.points[:cap + 1]
    lam_cap = getattr(candidate, "lambda_cap", None)
    driver = getattr(candidate, "driver_used", None) or problem.effective_driver()
    lam = np.asarray(problem.intensity.value(t, lam_cap), dtype=float)
    levels = None
    if candidate.y.ndim == 2:
        if bundle is None:
            raise ValueError("pathwise candidates need the path bundle for the Ito term")
        bundle.check_grid(candidate.grid)
        levels, increments = (a[:, :, 0] for a in bundle.levels_and_increments())
    y, z = np.atleast_2d(candidate.y), np.atleast_2d(candidate.z)
    z = z[:, np.minimum(np.arange(cap + 1), z.shape[-1] - 1)]    # Z at each left node
    yc = y[:, :cap + 1]
    phi = problem.coefficient.value(t, None if levels is None else levels[:, :cap + 1])
    dt = np.diff(t)
    # a member too large for the driver reads an inf or NaN residual, and no warning
    with np.errstate(over="ignore", invalid="ignore"):
        g = (np.asarray(phi, dtype=float) + lam * np.asarray(driver.f(yc))
             + problem.y_slope * yc + problem.z_slope * z)
        resid = np.diff(yc, axis=1) - 0.5 * (g[:, :-1] + g[:, 1:]) * dt
        if levels is not None:
            resid = resid - z[:, :-1] * increments[:, :cap]
        mid = 0.5 * (np.abs(g[:, :-1]) + np.abs(g[:, 1:]))
    terminal = problem.terminal.values(None if levels is None else levels[:, -1])
    return ResidualReport(
        max_residual=float(np.max(by_node(np.abs(resid)).mean(axis=1), initial=0.0)),
        terminal_gap=float(np.max(np.abs(y[:, -1] - terminal))),
        integrability_estimate=float(np.sum(by_node(mid).mean(axis=1) * dt)))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathologyCertificate:
    growth_series: tuple = ()               # ((n, driver-mass estimate), ...)
    monotone_divergent: bool = False
    members: tuple = ()
    member_residuals: tuple = ()
    pairwise_sup_distance: tuple = ()       # ((i, j, distance), ...)
    metadata: dict = field(default_factory=dict)


def certify_nonexistence(problem: BsdeProblem, schedule: Sequence[float],
                         grid: TimeGrid) -> PathologyCertificate:
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

    schedule = check_schedule(schedule)     # two levels at least, to witness growth
    # split each segment [t_i, t_i+1) into ceil(2 dt min(n, lam(t_i+1))) equal
    # pieces, lam(T) = inf: then dt min(n, lam) <= 1/2 at the top level and the
    # implicit step stays monotone on any grid.  Only where the regular nodes reach
    # past lam = n for the lowest level; on a coarser grid every level truncates
    # inside the one tail step, and a non-monotone step there is reported as it is
    pts = grid.points
    if problem.intensity.value(grid.t_cap) > schedule[0]:
        lam = np.minimum(problem.intensity.value(pts[1:]), schedule[-1])
        pieces = np.maximum(np.ceil(2.0 * np.diff(pts) * lam), 1).astype(int)
        pts = np.concatenate([np.linspace(a, b, k, endpoint=False)
                              for a, b, k in zip(pts[:-1], pts[1:], pieces)] + [pts[-1:]])
        grid = TimeGrid(points=pts, cap_index=int(np.sum(pieces[:grid.cap_index])))
    series = []
    for n, sol in zip(schedule, backward_sweep(problem, grid, schedule)):
        lam_vals = np.asarray(problem.intensity.value(grid.points, n))
        mass = float(np.trapezoid(lam_vals * np.abs(sol.y), grid.points))
        series.append((n, mass))
    values = [m for _, m in series]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    divergent = increasing and values[-1] > GROWTH_RATIO_THRESHOLD * values[0]
    return PathologyCertificate(
        growth_series=tuple(series), monotone_divergent=divergent,
        metadata={"ratio": values[-1] / values[0] if values[0] > 0 else math.inf})


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
    classification: OdeClassification    # classify_ode's verdict on model and coefficient
    y0_list: tuple
    tol: float = 1e-8                    # member residual tolerance


@dataclass(frozen=True)
class EkRed:
    """Drifted family on the exponential-gap intensity on [0, 1] with bounded slopes."""
    r: float
    sigma: float
    gamma: float
    y0_list: tuple = (0.0, 1.0)
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.sigma)):
            raise ValueError(f"ek_red slopes must be finite, got r = {self.r}, "
                             f"sigma = {self.sigma}")
        if self.r > math.log(np.finfo(float).max):      # the members carry e^(r t)
            raise ValueError(f"ek_red needs e^r to be finite, got r = {self.r}")


def certify_nonuniqueness(scenario, grid: TimeGrid) -> PathologyCertificate:
    """Construct at least two family members, verify each by residual check,
    and report their pairwise sup distances."""
    if isinstance(scenario, FundamentalMinus):
        model = scenario.model
        members = [fundamental_family(model, y0, grid) for y0 in scenario.y0_list]
        problem = BsdeProblem(
            intensity=model,
            coefficient=CoefficientProcess.constant(0.0, model.horizon),
            sign=MINUS_LAMBDA_Y)
    elif isinstance(scenario, OdeFamilyScenario):
        model, classification = scenario.model, scenario.classification
        if not classification.converges:
            raise CertificateFailed("the prefix integral diverges: no family exists")
        members = [ode_family_member(model, scenario.coefficient, y0, grid,
                                     classification=classification)
                   for y0 in scenario.y0_list]
        coeff = scenario.coefficient if isinstance(scenario.coefficient, CoefficientProcess) \
            else CoefficientProcess.from_function(scenario.coefficient, model.horizon)
        problem = BsdeProblem(
            intensity=model, coefficient=coeff, sign=MINUS_LAMBDA_Y,
            terminal=TerminalSpec.constant(classification.limit))
    elif isinstance(scenario, EkRed):
        model = IntensityModel.exp_gap(scenario.gamma, 1.0)
        members = [fundamental_family(model, y0, grid, y_slope=scenario.r)
                   for y0 in scenario.y0_list]
        problem = BsdeProblem(
            intensity=model,
            coefficient=CoefficientProcess.constant(0.0, model.horizon),
            sign=MINUS_LAMBDA_Y, y_slope=scenario.r, z_slope=scenario.sigma)
    else:
        raise ValueError(f"unknown non-uniqueness scenario {type(scenario).__name__}")
    tol = scenario.tol

    if len(members) < 2:
        raise ValueError("a non-uniqueness certificate needs at least two members")
    residuals = []
    for member in members:
        rep = residual_check(member, problem)
        if not rep.max_residual <= tol:      # a NaN residual fails too
            raise CertificateFailed(
                f"member y0={member.y0} fails verification: residual "
                f"{rep.max_residual:.3e} > {tol:.1e}")
        if not rep.terminal_gap <= tol:
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
        members=tuple(members), member_residuals=tuple(residuals),
        pairwise_sup_distance=tuple(distances))
