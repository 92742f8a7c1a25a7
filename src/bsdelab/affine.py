"""Closed-form and quadrature solutions of the affine equations.

All singular-horizon integrals are computed after the change of variable
u = Lam(s): the weight exp(-(Lam(s) - Lam(t))) becomes exp(-u) and the
integrand phi(s)/lam(s) stays regular up to the horizon, so ordinary adaptive
quadrature applies.  Beyond a finite u-span the exp(-u) tail is dropped; with
the default span of 45 the neglected mass is below 3e-20 times the bound.
"""

from __future__ import annotations

import math
import warnings
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
_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
_QUAD_ERR_CAP = 1e-9          # backstop: anything above this is a real breakdown


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported at its first call: the import takes
    most of a second, and runs that integrate nothing never pay it."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


def _gated_quad(fn, lo, hi, err_cap=None) -> float:
    """quad with quadpack's roundoff chatter silenced but its error estimate enforced."""
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(fn, lo, hi, **_QUAD_OPTS)
    cap = _QUAD_ERR_CAP if err_cap is None else err_cap
    if err > max(cap, 1e-9 * abs(val)):
        raise NumericsError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}")
    return val


REPRESENTATION = "representation_formula"
FUNDAMENTAL = "fundamental_family"
STOCHASTIC_FUNDAMENTAL = "stochastic_fundamental_family"
ODE_FAMILY = "ode_family"


@dataclass(frozen=True)
class AffineSolution:
    """Nodal (or path-nodal) values of an affine solution with its provenance."""

    grid: TimeGrid
    y: np.ndarray               # (N,) deterministic or (M, N) pathwise
    z: np.ndarray               # (N,) deterministic, (N-1,) left nodes, or (M, N) pathwise
    provenance: str
    terminal_value: float = 0.0
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
    """g(u) = phi(s(u)) / lam(s(u)) as a function of the mass coordinate.

    A constant multiple of the intensity evaluates exactly for arbitrarily
    large u, where the time coordinate s(u) is no longer resolvable in floating
    point.
    """
    if isinstance(coefficient, CoefficientProcess) and coefficient.model == model \
            and coefficient.kind == "intensity_multiple":
        factor = coefficient.value_const
        return lambda u: factor
    fn = _coefficient_fn(coefficient)

    def g(u):
        rate = model.inverse_rate_at_mass(u)
        if rate <= 0.0:
            return 0.0
        return float(fn(model.mass_inverse(u))) * rate

    return g


def _decaying_tail_integral(model: IntensityModel, t: float, coefficient,
                            y_slope: float = 0.0) -> float:
    """int_t^T exp(-(Lam(s) - Lam(t)) - b (s - t)) phi(s) ds via u = Lam(s) - Lam(t).

    A y-slope b acts as a constant addition to the intensity, so it joins the
    damping with a minus sign.
    """
    base = float(model.cumulative(t)) if t > 0 else 0.0
    g = _mass_factor(model, coefficient)

    def integrand(u):
        drift = math.exp(-y_slope * (model.mass_inverse(base + u) - t)) if y_slope else 1.0
        return math.exp(-u) * drift * g(base + u)

    if model.is_singular:
        hi = U_SPAN
    else:
        hi = model.total_mass() - base
        if hi <= 0:
            return 0.0
    val = _gated_quad(integrand, 0.0, min(hi, U_SPAN))
    if not model.is_singular and hi > U_SPAN:
        val += _gated_quad(integrand, U_SPAN, hi)
    return val


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
    pts = grid.points
    cap = grid.cap_index

    if not coeff.is_markovian:
        y = np.zeros(len(pts))
        for i in range(cap + 1):
            y[i] = -_decaying_tail_integral(model, float(pts[i]), coeff,
                                            y_slope=problem.y_slope)
        margin = _bound_margin(grid, y, coeff.sup_norm) if problem.y_slope == 0 else None
        if margin is not None and not margin <= 1e-12:      # NaN fails too
            raise NumericsError(
                f"representation values exceed the a-priori bound by {margin:.3e}")
        return AffineSolution(grid=grid, y=y, z=np.zeros(len(pts)),
                              provenance=REPRESENTATION, bound_margin=margin)

    if bundle is None:
        raise ValueError("markovian coefficients need a path bundle")
    if problem.y_slope or problem.z_slope:
        raise ValueError("markovian representation supports no slope terms")
    if bundle.dim != 1:
        raise ValueError("markovian representation is one dimensional")
    return _solve_affine_plus_markovian(problem, grid, bundle, basis)


def _bound_margin(grid: TimeGrid, y: np.ndarray, sup_norm: float) -> float:
    """max(|Y| - sup_norm (T - t)) over the nodes."""
    return float(np.max(np.abs(y) - sup_norm * (grid.horizon - grid.points)))


def _solve_affine_plus_markovian(problem, grid, bundle, basis):
    from .lipschitz_solver import RegressionBasis, fit_coefficients

    if basis is None:
        basis = RegressionBasis.polynomial(3)
    model, coeff = problem.intensity, problem.coefficient
    pts, cap = grid.points, grid.cap_index
    n_pts = len(pts)
    mass = model.cumulative(pts[:cap + 1])

    # interval weights E_j = int_{t_j}^{t_{j+1}} exp(-Lam(s)) ds, last one up to T
    weights = np.empty(cap + 1)
    for j in range(cap + 1):
        lo = mass[j]
        hi = mass[j + 1] if j < cap else (lo + U_SPAN if model.is_singular
                                          else model.total_mass())

        def integrand(u):
            return math.exp(-u) * model.inverse_rate_at_mass(u)

        weights[j] = _gated_quad(integrand, lo, min(hi, lo + U_SPAN))

    levels = bundle.levels[:, :, 0]
    m_paths = bundle.n_paths
    phi_nodes = coeff.value(pts[:cap + 1], levels[:, :cap + 1])

    # backward cumulative pathwise integral, then conditional expectation per node
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
        # the representation formula proves |Y| <= sup (T - t): enforce it,
        # recording how far the raw regression strayed
        bound = coeff.sup_norm * (horizon - float(pts[i]))
        margin = max(margin, float(np.max(np.abs(fitted) - bound)))
        y[:, i] = np.clip(fitted, -bound, 0.0)
        fitted_next = y[:, i]
    return AffineSolution(grid=grid, y=y, z=z, provenance=REPRESENTATION,
                          bound_margin=margin)


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
        return AffineSolution(grid=grid, y=y, z=np.zeros(len(pts)),
                              provenance=FUNDAMENTAL, y0=y0)

    if y_slope:
        raise ValueError("stochastic members are only built without slope terms")
    if bundle is None:
        raise ValueError("a beta integrand needs a path bundle")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(pts) - 1,):
        raise ValueError("beta must hold one value per left node")
    if bundle.dim != 1:
        raise ValueError("stochastic members are one dimensional")
    incs = bundle.increments[:, :, 0]
    martingale = np.concatenate(
        [np.zeros((bundle.n_paths, 1)), np.cumsum(beta[None, :] * incs, axis=1)],
        axis=1)
    y = damp[None, :] * (y0 + martingale)
    z = np.append(damp[:-1] * beta, 0.0)
    return AffineSolution(grid=grid, y=y, z=z,
                          provenance=STOCHASTIC_FUNDAMENTAL, y0=y0)


# ---------------------------------------------------------------------------
# Deterministic ODE trichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeClassification:
    case: str                              # "converges" | "diverges"
    limit: Optional[float]
    estimates: tuple                       # ((t, m(t)), ...) approaching the horizon

    @property
    def converges(self) -> bool:
        return self.case == "converges"


def _averaged_prefix(model: IntensityModel, t: float, coefficient,
                     err_cap=None) -> float:
    """m(t) = exp(-Lam(t)) int_0^t exp(Lam(s)) phi(s) ds, evaluated stably in u."""
    u_hi = float(model.cumulative(t))
    g = _mass_factor(model, coefficient)

    def integrand(u):
        return math.exp(u - u_hi) * g(u)

    lo = max(0.0, u_hi - U_SPAN)
    return _gated_quad(integrand, lo, u_hi, err_cap=err_cap)


def classify_ode(model: IntensityModel, coefficient, tolerance: float) -> OdeClassification:
    """Decide whether the averaged prefix integral settles to a limit at the horizon.

    A NaN or negative ``tolerance`` raises ``ValueError``; a prefix estimate
    that is not finite raises ``NumericsError``."""
    if not model.is_singular:
        raise ValueError("the trichotomy concerns singular intensities")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    estimates = []
    for e in np.geomspace(1e-1, 1e-10, 10):
        t = float(model.horizon - e)
        try:
            m = _averaged_prefix(model, t, coefficient, err_cap=max(tolerance / 100, 1e-9))
        except (LabError, ArithmeticError) as exc:      # quadrature breakdown
            raise NumericsError(f"prefix integral failed at eps={e:g}: {exc}") from exc
        if not math.isfinite(m):
            raise NumericsError(f"prefix integral is {m} at eps={e:g}")
        estimates.append((t, m))
    tailvals = [v for _, v in estimates[-3:]]
    spread = max(tailvals) - min(tailvals)
    if spread <= tolerance:
        return OdeClassification(case="converges", limit=estimates[-1][1],
                                 estimates=tuple(estimates))
    return OdeClassification(case="diverges", limit=None, estimates=tuple(estimates))


def ode_family_member(model: IntensityModel, coefficient, y0: float,
                      grid: TimeGrid,
                      classification: Optional[OdeClassification] = None,
                      tolerance: float = 1e-6) -> AffineSolution:
    """One member Y_t = exp(-Lam(t)) (y0 + int_0^t exp(Lam(s)) phi(s) ds).

    The terminal node is assigned the classified limit; a divergent prefix
    integral is a domain error.
    """
    if classification is None:
        classification = classify_ode(model, coefficient, tolerance)
    if not classification.converges:
        raise ValueError("the family exists only when the prefix integral converges")
    pts, cap = grid.points, grid.cap_index
    damp = np.asarray(model.exp_minus_cumulative(pts), dtype=float)
    y = np.zeros(len(pts))
    for i in range(cap + 1):
        t = float(pts[i])
        y[i] = damp[i] * y0 + (_averaged_prefix(model, t, coefficient) if t > 0 else 0.0)
    y[-1] = classification.limit
    if cap + 1 < len(pts) - 1:
        y[cap + 1:-1] = classification.limit   # nodes past the cap collapse to the limit
    return AffineSolution(grid=grid, y=y, z=np.zeros(len(pts)),
                          provenance=ODE_FAMILY, y0=y0,
                          terminal_value=classification.limit)
