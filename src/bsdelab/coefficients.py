"""Problem data: intensity models, coefficient processes, driver maps and time grids.

The central object is a nonnegative deterministic intensity ``lam(t)`` on ``[0, T)``
whose cumulative mass ``Lam(t) = int_0^t lam`` is finite before ``T`` but blows up
at ``T`` for the singular kinds.  Everything downstream (closed forms, truncation
schemes, certificates) is driven by ``Lam`` and its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import InfeasibleGrid, SingularEvaluation

QUAD_ABS_TOL = 1e-10          # adaptive quadrature target for custom intensities
BISECTION_TOL = 1e-12         # bracket width for inverting the cumulative mass
MASS_TOL = 1e-10              # mass residual for inverting the cumulative mass
_EPS_GAP = 1e-14              # never evaluate a singular intensity closer to T than this


# ---------------------------------------------------------------------------
# Intensity models
# ---------------------------------------------------------------------------

POWER_GAP = "power_gap"
EXP_GAP = "exp_gap"
BOUNDED = "bounded"
CUSTOM = "custom"
TRUNCATED = "truncated"


@dataclass(frozen=True)
class IntensityModel:
    """Deterministic intensity on ``[0, T)`` with known cumulative mass.

    Built via the classmethods; ``power_gap`` and ``exp_gap`` blow up at the
    horizon, ``bounded`` does not, ``custom`` wraps a user function (integrated
    by adaptive quadrature) and ``truncated`` caps another model at a level.
    """

    kind: str
    horizon: float
    p: float = 0.0
    gamma: float = 0.0
    level: float = 0.0
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    singular: bool = False
    base: Optional["IntensityModel"] = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def power_gap(cls, p: float, horizon: float) -> "IntensityModel":
        """lam(t) = p / (T - t); cumulative mass p * ln(T / (T - t))."""
        if p <= 0 or horizon <= 0:
            raise ValueError("power_gap requires p > 0 and horizon > 0")
        return cls(kind=POWER_GAP, horizon=horizon, p=p, singular=True)

    @classmethod
    def exp_gap(cls, gamma: float, horizon: float) -> "IntensityModel":
        """lam(t) = gamma / (exp(gamma (T - t)) - 1)."""
        if gamma <= 0 or horizon <= 0:
            raise ValueError("exp_gap requires gamma > 0 and horizon > 0")
        return cls(kind=EXP_GAP, horizon=horizon, gamma=gamma, singular=True)

    @classmethod
    def bounded(cls, level: float, horizon: float) -> "IntensityModel":
        """Constant intensity lam(t) = level."""
        if level < 0 or horizon <= 0:
            raise ValueError("bounded requires level >= 0 and horizon > 0")
        return cls(kind=BOUNDED, horizon=horizon, level=level)

    @classmethod
    def custom(cls, fn: Callable, horizon: float, singular: bool) -> "IntensityModel":
        """Wrap a user intensity; the caller declares whether it blows up at T."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return cls(kind=CUSTOM, horizon=horizon, fn=fn, singular=singular)

    def truncated(self, level: float) -> "IntensityModel":
        """min(lam, level): the bounded model used by the classical solvers."""
        if level <= 0:
            raise ValueError("truncation level must be positive")
        if self.kind == TRUNCATED:
            return replace(self, level=min(self.level, level))
        return IntensityModel(
            kind=TRUNCATED, horizon=self.horizon, level=level, base=self,
        )

    # -- evaluation ---------------------------------------------------------

    @property
    def is_singular(self) -> bool:
        return self.singular

    @property
    def is_bounded(self) -> bool:
        return self.kind in (BOUNDED, TRUNCATED) or (self.kind == CUSTOM and not self.singular)

    def value(self, t):
        """lam(t), vectorised; returns +inf at the horizon for singular kinds."""
        t = np.asarray(t, dtype=float)
        gap = self.horizon - t
        if np.any(t < 0) or np.any(gap < -1e-12 * max(1.0, self.horizon)):
            raise ValueError("intensity evaluated outside [0, T]")
        if self.kind == POWER_GAP:
            with np.errstate(divide="ignore"):
                out = np.where(gap > 0, self.p / np.where(gap > 0, gap, 1.0), np.inf)
        elif self.kind == EXP_GAP:
            with np.errstate(divide="ignore", over="ignore"):
                denom = np.expm1(self.gamma * np.maximum(gap, 0.0))
                out = np.where(gap > 0, self.gamma / np.where(denom > 0, denom, 1.0), np.inf)
        elif self.kind == BOUNDED:
            out = np.full_like(t, self.level, dtype=float)
        elif self.kind == TRUNCATED:
            out = np.minimum(self.base.value(t), self.level)
        elif self.singular:
            # never hand the user function the horizon itself
            t_safe = np.minimum(t, self.horizon * (1.0 - _EPS_GAP))
            out = np.where(gap > 0, np.asarray(self.fn(t_safe), dtype=float), np.inf)
        else:
            out = np.asarray(self.fn(t), dtype=float)
        return out if out.ndim else float(out)

    def cumulative(self, t):
        """Lam(t) = int_0^t lam(s) ds.

        Closed form for the built-in kinds, adaptive quadrature (abs tol 1e-10)
        for custom ones.  Raises ``SingularEvaluation`` at or past T for
        singular kinds; bounded kinds evaluate up to and including T.
        """
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        T = self.horizon
        if np.any(t < 0):
            raise ValueError("cumulative mass requested at negative time")
        if np.any(t > T * (1 + 1e-12)):
            raise ValueError("cumulative mass requested beyond the horizon")
        if self.is_singular and np.any(t >= T):
            raise SingularEvaluation("cumulative intensity is infinite at the horizon")
        gap = np.maximum(T - t, 0.0)
        if self.kind == POWER_GAP:
            out = self.p * np.log(T / gap)    # gap > 0: singular kinds raised above
        elif self.kind == EXP_GAP:
            g = self.gamma
            out = np.log(-np.expm1(-g * T)) - np.log(-np.expm1(-g * gap))
        elif self.kind == BOUNDED:
            out = self.level * t
        elif self.kind == TRUNCATED:
            out = self._truncated_cumulative(t)
        else:
            out = np.array([self._quad_mass(0.0, float(ti)) for ti in t])
        return float(out[0]) if scalar else out

    def _quad_mass(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        hi = min(hi, self.horizon - _EPS_GAP * self.horizon)
        val, _ = quad(lambda s: float(self.value(s)), lo, hi,
                      epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=400)
        return val

    def _crossing_time(self) -> Optional[float]:
        """First time the base intensity reaches the truncation level (closed kinds)."""
        base, n, T = self.base, self.level, self.horizon
        if base.kind == POWER_GAP:
            t_star = T - base.p / n
            return t_star if t_star > 0 else 0.0
        if base.kind == EXP_GAP:
            t_star = T - math.log1p(base.gamma / n) / base.gamma
            return t_star if t_star > 0 else 0.0
        if base.kind == BOUNDED:
            return None if base.level <= n else 0.0
        return None  # custom: no closed crossing, fall back to quadrature

    def _truncated_cumulative(self, t: np.ndarray) -> np.ndarray:
        base, n = self.base, self.level
        if base.kind == CUSTOM:
            return np.array([
                quad(lambda s: min(float(base.value(s)), n), 0.0, float(ti),
                     epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=400)[0]
                for ti in t
            ])
        t_star = self._crossing_time()
        if t_star is None:       # truncation never binds
            return np.atleast_1d(base.cumulative(t))
        out = np.empty_like(t)
        below = t <= t_star
        if t_star > 0:
            out[below] = np.atleast_1d(base.cumulative(t[below]))
            mass_at_star = float(base.cumulative(t_star))
        else:
            out[below] = n * t[below]
            mass_at_star = 0.0
        out[~below] = mass_at_star + n * (t[~below] - t_star)
        return out

    def total_mass(self) -> float:
        """Lam(T-): +inf for singular kinds, the closed/quadrature value otherwise."""
        if self.is_singular:
            return math.inf
        if self.kind == BOUNDED:
            return self.level * self.horizon
        if self.kind == TRUNCATED:
            return float(self._truncated_cumulative(np.array([self.horizon]))[0])
        return self._quad_mass(0.0, self.horizon)

    def exp_minus_cumulative(self, t):
        """exp(-Lam(t)) in a form that is exact down to t = T (where it vanishes)."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        gap = np.maximum(self.horizon - t, 0.0)
        if self.kind == POWER_GAP:
            out = (gap / self.horizon) ** self.p
        elif self.kind == EXP_GAP:
            g = self.gamma
            out = np.expm1(-g * gap) / np.expm1(-g * self.horizon)
        else:
            out = np.array([
                math.exp(-self.cumulative(float(ti))) if ti < self.horizon
                else (0.0 if self.is_singular else math.exp(-self.total_mass()))
                for ti in t
            ])
        return float(out[0]) if scalar else out

    def mass_inverse(self, target: float) -> float:
        """The inverse of Lam: the time where the cumulative mass reaches ``target``.

        Closed form for power_gap, exp_gap and bounded intensities (clamped to
        [0, T]), bisection for custom and truncated ones.
        """
        T = self.horizon
        if self.kind == POWER_GAP:
            t = T * (1.0 - math.exp(-target / self.p))
        elif self.kind == EXP_GAP:
            g = self.gamma
            t = T + math.log1p(math.expm1(-g * T) * math.exp(-target)) / g
        elif self.kind == BOUNDED and self.level > 0:
            t = target / self.level
        else:
            return self._bisect_inverse(target)
        return min(max(t, 0.0), T)

    def _bisect_inverse(self, target: float) -> float:
        """Solve Lam(t) = target by bisection (the kinds without a closed form).

        Stops once the bracket is below ``BISECTION_TOL`` in time AND the mass
        residual below ``MASS_TOL`` (where the intensity is steep, time alone
        cannot control the mass error).  A target beyond the total mass gives ~T.
        """
        if target < 0:
            raise ValueError("target mass must be nonnegative")
        if target == 0.0:
            return 0.0
        T = self.horizon
        hi = T * (1.0 - _EPS_GAP)
        if self.is_singular:
            # walk the bracket toward T until the mass exceeds the target
            hi = T * 0.5
            while self.cumulative(hi) < target:
                hi = T - 0.5 * (T - hi)
                if T - hi < _EPS_GAP * T:
                    raise InfeasibleGrid("target mass unreachable in floating point")
        lo = 0.0
        # ~170 halvings exhaust double precision on any bracket
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            mass = self.cumulative(mid)
            if hi - lo <= BISECTION_TOL and abs(mass - target) <= MASS_TOL:
                return mid
            if mid <= lo or mid >= hi:      # bracket exhausted in floating point
                return mid
            if mass < target:
                lo = mid
            else:
                hi = mid
        return mid

    def inverse_rate_at_mass(self, u: float) -> float:
        """1 / lam(t) evaluated at the time where Lam(t) = u.

        Closed forms avoid the cancellation of forming T - t once the gap drops
        below one ulp; this is what keeps exploding-weight integrals exact for
        arbitrarily large mass coordinates.
        """
        if self.kind == POWER_GAP:
            return (self.horizon / self.p) * math.exp(-u / self.p)
        if self.kind == EXP_GAP:
            g = self.gamma
            w = -math.expm1(-g * self.horizon) * math.exp(-u)   # exp(-gamma gap) deficit
            return w / (g * (1.0 - w))
        if self.kind == BOUNDED:
            return 1.0 / self.level if self.level > 0 else math.inf
        if self.kind == TRUNCATED:
            base_rate = self.base.inverse_rate_at_mass(self._base_mass_at(u)) \
                if self.base.kind != CUSTOM else None
            if base_rate is not None:
                return max(base_rate, 1.0 / self.level)
        s = self.mass_inverse(u)
        lam = float(self.value(s))
        return 1.0 / lam if math.isfinite(lam) and lam > 0 else 0.0

    def _base_mass_at(self, u: float) -> float:
        """Translate a truncated-mass coordinate into the base model's one."""
        t_star = self._crossing_time()
        if t_star is None:
            return u
        mass_star = float(self.base.cumulative(t_star)) if t_star > 0 else 0.0
        if u <= mass_star:
            return u
        t = t_star + (u - mass_star) / self.level
        t = min(t, self.horizon * (1 - _EPS_GAP))
        return float(self.base.cumulative(t))


def cumulative_intensity(model: IntensityModel, t: float) -> float:
    """Lam(t) under the strict contract 0 <= t < T."""
    if t < 0:
        raise ValueError(f"time {t} is negative")
    if t >= model.horizon:
        raise SingularEvaluation(
            f"time {t} is at or beyond the horizon {model.horizon}"
        )
    return float(model.cumulative(t))


# ---------------------------------------------------------------------------
# Standing-assumption probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandingAssumptionReport:
    epsilons: tuple
    mass_values: tuple        # Lam(T - eps) for each eps
    all_finite: bool
    increasing: bool
    exceeds_threshold: bool
    diverges: bool


def validate_standing_assumption(model: IntensityModel,
                                 epsilons: Sequence[float],
                                 threshold: float) -> StandingAssumptionReport:
    """Probe Lam(T - eps) along shrinking eps and flag blow-up at the horizon."""
    eps = [float(e) for e in epsilons]
    if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be positive and strictly decreasing")
    vals = [float(model.cumulative(model.horizon - e)) for e in eps]
    all_finite = all(math.isfinite(v) for v in vals)
    increasing = all(b > a for a, b in zip(vals, vals[1:])) if len(vals) > 1 else True
    exceeds = vals[-1] > threshold
    return StandingAssumptionReport(
        epsilons=tuple(eps),
        mass_values=tuple(vals),
        all_finite=all_finite,
        increasing=increasing,
        exceeds_threshold=exceeds,
        diverges=all_finite and increasing and exceeds,
    )


# ---------------------------------------------------------------------------
# Coefficient processes
# ---------------------------------------------------------------------------

_SUP_SAMPLES = 2001


@dataclass(frozen=True)
class CoefficientProcess:
    """The bounded forcing term of the driver.

    Deterministic kinds depend on time only; the markovian kind is a bounded
    function of (t, Brownian level).
    """

    kind: str                                  # constant | time_function | markovian | exp_minus_mass
    horizon: float
    value_const: float = 0.0
    fn: Optional[Callable] = None
    model: Optional[IntensityModel] = None
    sup_norm: float = 0.0
    nonnegative: bool = False

    @classmethod
    def constant(cls, v: float, horizon: float) -> "CoefficientProcess":
        return cls(kind="constant", horizon=horizon, value_const=float(v),
                   sup_norm=abs(float(v)), nonnegative=v >= 0)

    @classmethod
    def from_function(cls, fn: Callable, horizon: float,
                      sup_norm: Optional[float] = None) -> "CoefficientProcess":
        """Deterministic map of time; the sup norm is sampled unless supplied."""
        ts = np.linspace(0.0, horizon * (1 - 1e-9), _SUP_SAMPLES)
        sampled = np.asarray(fn(ts), dtype=float)
        bound = float(np.max(np.abs(sampled))) if sup_norm is None else float(sup_norm)
        return cls(kind="time_function", horizon=horizon, fn=fn,
                   sup_norm=bound, nonnegative=bool(np.min(sampled) >= 0))

    @classmethod
    def markovian(cls, fn: Callable, horizon: float, sup_norm: float,
                  nonnegative: bool = False) -> "CoefficientProcess":
        """fn(t, w) with a declared bound; the bound is spot checked on a sample."""
        ts = np.linspace(0.0, horizon * (1 - 1e-9), 41)
        ws = np.linspace(-8.0 * math.sqrt(horizon), 8.0 * math.sqrt(horizon), 81)
        sample = np.asarray([[fn(t, w) for w in ws] for t in ts], dtype=float)
        if np.max(np.abs(sample)) > sup_norm * (1 + 1e-9):
            raise ValueError("markovian coefficient exceeds its declared sup norm")
        if nonnegative and np.min(sample) < 0:
            raise ValueError("markovian coefficient declared nonnegative but samples negative")
        return cls(kind="markovian", horizon=horizon, fn=fn,
                   sup_norm=float(sup_norm), nonnegative=nonnegative)

    @classmethod
    def exp_minus_mass(cls, model: IntensityModel) -> "CoefficientProcess":
        """phi(t) = exp(-Lam(t)); bounded by 1 and vanishing at a singular horizon."""
        return cls(kind="exp_minus_mass", horizon=model.horizon, model=model,
                   sup_norm=1.0, nonnegative=True)

    @classmethod
    def intensity_multiple(cls, factor: float, model: IntensityModel) -> "CoefficientProcess":
        """phi(t) = factor * lam(t): unbounded for singular models, but exactly
        representable in mass coordinates (phi / lam is the constant factor)."""
        return cls(kind="intensity_multiple", horizon=model.horizon, model=model,
                   value_const=float(factor), sup_norm=math.inf,
                   nonnegative=factor >= 0)

    @property
    def is_markovian(self) -> bool:
        return self.kind == "markovian"

    def value(self, t, w=None):
        if self.kind == "constant":
            base = np.full(np.shape(t) or (), self.value_const, dtype=float)
            if w is not None and np.ndim(w):
                return np.broadcast_to(base, np.shape(w)).copy()
            return base if base.ndim else float(base)
        if self.kind == "time_function":
            out = np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)
            if w is not None and np.ndim(w):
                return np.broadcast_to(out, np.shape(w)).copy()
            return out if out.ndim else float(out)
        if self.kind == "exp_minus_mass":
            out = self.model.exp_minus_cumulative(t)
            if w is not None and np.ndim(w):
                return np.broadcast_to(np.asarray(out), np.shape(w)).copy()
            return out
        if self.kind == "intensity_multiple":
            out = self.value_const * np.asarray(self.model.value(t), dtype=float)
            if w is not None and np.ndim(w):
                return np.broadcast_to(np.asarray(out), np.shape(w)).copy()
            return out if out.ndim else float(out)
        if w is None:
            raise ValueError("markovian coefficient needs the Brownian level")
        return np.asarray(self.fn(t, np.asarray(w, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# Driver maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriverSpec:
    """Scalar map multiplying the intensity inside the driver, with its derivative
    and the structural flags the solvers rely on."""

    name: str
    f: Callable
    fprime: Callable
    zero_at_zero: bool = False
    nondecreasing: bool = False
    nonincreasing: bool = False
    below_identity: bool = False
    derivative_floor: float = 0.0      # lower bound of f' on the negative axis

    @classmethod
    def identity(cls) -> "DriverSpec":
        return cls(name="identity",
                   f=lambda x: np.asarray(x, dtype=float) + 0.0,
                   fprime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                   zero_at_zero=True, nondecreasing=True, below_identity=True,
                   derivative_floor=1.0)

    @classmethod
    def neg_identity(cls) -> "DriverSpec":
        return cls(name="neg_identity",
                   f=lambda x: -np.asarray(x, dtype=float),
                   fprime=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
                   zero_at_zero=True, nonincreasing=True,
                   derivative_floor=-1.0)

    @classmethod
    def exp_utility(cls, alpha: float) -> "DriverSpec":
        """f(x) = (1 - exp(-alpha x)) / alpha; f' = exp(-alpha x) >= 1 on x <= 0."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return cls(name=f"exp_utility({alpha:g})",
                   f=lambda x: -np.expm1(-alpha * np.asarray(x, dtype=float)) / alpha,
                   fprime=lambda x: np.exp(-alpha * np.asarray(x, dtype=float)),
                   zero_at_zero=True, nondecreasing=True, below_identity=True,
                   derivative_floor=1.0)

    @property
    def monotone(self) -> bool:
        return self.nondecreasing or self.nonincreasing

    def check_flags(self, lo: float = -10.0, hi: float = 10.0,
                    n: int = 2001, slack: float = 1e-12) -> dict:
        """Sample-based verification of the declared flags on [lo, hi]."""
        xs = np.linspace(lo, hi, n)
        fx = np.asarray(self.f(xs), dtype=float)
        out = {}
        if self.zero_at_zero:
            out["zero_at_zero"] = abs(float(self.f(0.0))) <= slack
        if self.nondecreasing:
            out["nondecreasing"] = bool(np.all(np.diff(fx) >= -slack))
        if self.nonincreasing:
            out["nonincreasing"] = bool(np.all(np.diff(fx) <= slack))
        if self.below_identity:
            out["below_identity"] = bool(np.all(fx - xs <= slack))
        if self.derivative_floor > 0:
            neg = xs[xs <= 0]
            out["derivative_floor"] = bool(
                np.all(np.asarray(self.fprime(neg), dtype=float)
                       >= self.derivative_floor - slack))
        return out

    def flags_ok(self, lo: float = -10.0, hi: float = 10.0) -> bool:
        return all(self.check_flags(lo, hi).values())


# ---------------------------------------------------------------------------
# Time grids
# ---------------------------------------------------------------------------

UNIFORM = "uniform"
INTENSITY_MASS = "intensity_mass"
GEOMETRIC_TAIL = "geometric_tail"


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing partition of [0, T].

    ``cap_index`` marks the last regular node; quadrature and regression stop
    there and the segment up to T is handled analytically.
    """

    points: np.ndarray
    cap_index: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError("grid needs at least two points")
        if pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if not (0 <= self.cap_index < len(pts)):
            raise ValueError("cap_index out of range")

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def t_cap(self) -> float:
        return float(self.points[self.cap_index])

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.points)


def make_grid(model: IntensityModel, n: int, scheme: str = INTENSITY_MASS, *,
              mass_cap: float = 12.0, ratio: float = 0.5,
              eps_min: float = 1e-6) -> TimeGrid:
    """Build a partition of [0, T] adapted to the intensity.

    ``uniform``: n equally spaced points.
    ``intensity_mass``: n nodes with equal increments of Lam up to ``mass_cap``
    (placed by ``mass_inverse``), then the terminal node appended.  The equal-mass
    property holds to 1e-9 while lam at the cap stays below ~1e6/T; beyond
    that the time coordinate can no longer resolve the mass increments.
    ``geometric_tail``: distances to T shrink geometrically down to ``eps_min``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    T = model.horizon
    if scheme == UNIFORM:
        pts = np.linspace(0.0, T, n)
        return TimeGrid(points=pts, cap_index=max(0, n - 2))
    if scheme == INTENSITY_MASS:
        if mass_cap <= 0:
            raise ValueError("mass_cap must be positive")
        if not model.is_singular and model.total_mass() < mass_cap:
            raise InfeasibleGrid(
                f"cumulative mass tops out at {model.total_mass():.6g} < {mass_cap:.6g}")
        targets = np.linspace(0.0, mass_cap, n)
        pts = np.array([0.0] + [model.mass_inverse(float(u)) for u in targets[1:]] + [T])
        if np.any(np.diff(pts) <= 0):
            raise InfeasibleGrid("mass-equidistributed nodes collide near the horizon")
        return TimeGrid(points=pts, cap_index=n - 1)
    if scheme == GEOMETRIC_TAIL:
        if not (0 < ratio < 1):
            raise ValueError("ratio must lie in (0, 1)")
        if not (0 < eps_min < T):
            raise ValueError("eps_min must lie in (0, T)")
        dists = T * ratio ** np.arange(n - 1)
        dists = np.maximum(dists, eps_min)
        dists = np.unique(dists)[::-1]
        pts = np.append(T - dists, T)
        return TimeGrid(points=pts, cap_index=len(pts) - 2)
    raise ValueError(f"unknown grid scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------

PLUS_LAMBDA_Y = "plus_lambda_y"        # driver phi + lam * y
MINUS_LAMBDA_Y = "minus_lambda_y"      # driver phi - lam * y
NONLINEAR_PLUS = "nonlinear_plus"      # driver phi + lam * f(y)


@dataclass(frozen=True)
class TerminalSpec:
    kind: str                       # zero | constant | random
    value: float = 0.0
    fn: Optional[Callable] = None

    @classmethod
    def zero(cls) -> "TerminalSpec":
        return cls(kind="zero")

    @classmethod
    def constant(cls, a: float) -> "TerminalSpec":
        return cls(kind="zero") if a == 0.0 else cls(kind="constant", value=float(a))

    @classmethod
    def random(cls, fn: Callable) -> "TerminalSpec":
        return cls(kind="random", fn=fn)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def values(self, w_terminal=None):
        if self.kind == "zero":
            return 0.0 if w_terminal is None else np.zeros(np.shape(w_terminal)[0])
        if self.kind == "constant":
            return self.value if w_terminal is None else np.full(np.shape(w_terminal)[0], self.value)
        if w_terminal is None:
            raise ValueError("random terminal value needs the terminal Brownian level")
        return np.asarray(self.fn(np.asarray(w_terminal, dtype=float)), dtype=float)


@dataclass(frozen=True)
class BsdeProblem:
    """Terminal-value problem dY = (phi + lam f(Y) + b Y + sigma Z) dt + Z dW, Y_T = A.

    ``sign`` fixes f for the affine forms; ``nonlinear_plus`` uses ``driver``.
    ``y_slope`` and ``z_slope`` are the bounded linear perturbations b and sigma.
    """

    intensity: IntensityModel
    coefficient: CoefficientProcess
    sign: str
    driver: Optional[DriverSpec] = None
    terminal: TerminalSpec = field(default_factory=TerminalSpec.zero)
    y_slope: float = 0.0
    z_slope: float = 0.0

    def __post_init__(self):
        if self.sign not in (PLUS_LAMBDA_Y, MINUS_LAMBDA_Y, NONLINEAR_PLUS):
            raise ValueError(f"unknown sign {self.sign!r}")
        if not (math.isfinite(self.y_slope) and math.isfinite(self.z_slope)):
            raise ValueError("slope coefficients must be finite")
        if abs(self.intensity.horizon - self.coefficient.horizon) > 1e-12:
            raise ValueError("intensity and coefficient horizons disagree")
        if self.sign == NONLINEAR_PLUS:
            if self.driver is None:
                raise ValueError("nonlinear problems need a driver")
            if self.terminal.is_zero:
                self._require_theorem_flags()
            elif not self.driver.monotone or not self.driver.zero_at_zero:
                raise ValueError(
                    "nonlinear problems with nonzero terminal need a monotone driver with f(0)=0"
                )

    def _require_theorem_flags(self):
        d = self.driver
        if not (d.zero_at_zero and d.nondecreasing and d.below_identity
                and d.derivative_floor > 0):
            raise ValueError(
                "zero-terminal nonlinear problems need flags: f(0)=0, nondecreasing, "
                "f(x)<=x and a positive derivative floor"
            )
        if not self.coefficient.nonnegative:
            raise ValueError("zero-terminal nonlinear problems need a nonnegative coefficient")
        lo = -10.0 * max(self.horizon * self.coefficient.sup_norm, 1.0)
        if not d.flags_ok(lo=lo, hi=10.0):
            raise ValueError("declared driver flags fail the sample check")

    @property
    def horizon(self) -> float:
        return self.intensity.horizon

    def effective_driver(self) -> DriverSpec:
        if self.sign == PLUS_LAMBDA_Y:
            return DriverSpec.identity()
        if self.sign == MINUS_LAMBDA_Y:
            return DriverSpec.neg_identity()
        return self.driver

    def with_intensity(self, model: IntensityModel) -> "BsdeProblem":
        return replace(self, intensity=model)

    def with_driver(self, driver: DriverSpec) -> "BsdeProblem":
        return replace(self, sign=NONLINEAR_PLUS, driver=driver)

    def with_terminal(self, terminal: TerminalSpec) -> "BsdeProblem":
        return replace(self, terminal=terminal)
