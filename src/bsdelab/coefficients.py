"""Problem data: intensity models, coefficient processes, driver maps and time grids.

The central object is a nonnegative deterministic intensity ``lam(t)`` on ``[0, T)``
whose cumulative mass ``Lam(t) = int_0^t lam`` is finite before ``T`` but blows up
at ``T`` for the singular kinds.  Everything downstream (closed forms, truncation
schemes, certificates) is driven by ``Lam`` and its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InfeasibleGrid, SingularEvaluation


# ---------------------------------------------------------------------------
# Intensity models
# ---------------------------------------------------------------------------

POWER_GAP = "power_gap"
EXP_GAP = "exp_gap"
BOUNDED = "bounded"


@dataclass(frozen=True)
class IntensityModel:
    """Deterministic intensity on ``[0, T)`` with closed-form cumulative mass.

    Built via the classmethods; ``power_gap`` and ``exp_gap`` blow up at the
    horizon, ``bounded`` does not.
    """

    kind: str
    horizon: float
    p: float = 0.0
    gamma: float = 0.0
    level: float = 0.0

    # -- constructors -------------------------------------------------------

    @classmethod
    def power_gap(cls, p: float, horizon: float) -> "IntensityModel":
        """lam(t) = p / (T - t); cumulative mass p * ln(T / (T - t))."""
        if not (0 < p < math.inf and 0 < horizon < math.inf):
            raise ValueError(f"power_gap requires p > 0 and horizon > 0, both finite, "
                             f"got p = {p}, horizon = {horizon}")
        return cls(kind=POWER_GAP, horizon=horizon, p=p)

    @classmethod
    def exp_gap(cls, gamma: float, horizon: float) -> "IntensityModel":
        """lam(t) = gamma / (exp(gamma (T - t)) - 1)."""
        if not (0 < gamma < math.inf and 0 < horizon < math.inf):
            raise ValueError(f"exp_gap requires gamma > 0 and horizon > 0, both finite, "
                             f"got gamma = {gamma}, horizon = {horizon}")
        return cls(kind=EXP_GAP, horizon=horizon, gamma=gamma)

    @classmethod
    def bounded(cls, level: float, horizon: float) -> "IntensityModel":
        """Constant intensity lam(t) = level."""
        if not (level >= 0 and horizon > 0):
            raise ValueError("bounded requires level >= 0 and horizon > 0")
        return cls(kind=BOUNDED, horizon=horizon, level=level)

    # -- evaluation ---------------------------------------------------------

    @property
    def is_singular(self) -> bool:
        return self.kind != BOUNDED

    def value(self, t, cap=None):
        """lam(t), vectorised; returns +inf at the horizon for singular kinds.

        With a ``cap`` it is the truncated intensity min(lam(t), cap) that the
        classical solvers run on."""
        if cap is not None and cap <= 0:
            raise ValueError("truncation level must be positive")
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
        else:
            out = np.full_like(t, self.level, dtype=float)
        if cap is not None:
            out = np.minimum(out, cap)
        return out if out.ndim else float(out)

    def cumulative(self, t):
        """Lam(t) = int_0^t lam(s) ds in closed form.

        Raises ``SingularEvaluation`` at or past T for singular kinds; bounded
        kinds evaluate up to and including T.
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
        else:
            out = self.level * t
        return float(out[0]) if scalar else out

    def total_mass(self) -> float:
        """Lam(T-): +inf for singular kinds, level * T for bounded ones."""
        return self.level * self.horizon if self.kind == BOUNDED else math.inf

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
            out = np.exp(-self.level * t)
        return float(out[0]) if scalar else out

    def mass_inverse(self, target):
        """The inverse of Lam: the time where the cumulative mass reaches
        ``target``, in closed form and clamped to [0, T].  A zero bounded
        level reaches no positive mass: such a target gives T.

        An array evaluates with numpy, a scalar with ``math``: the two can
        differ in the last bit, and grids are built from scalars."""
        xp = np if np.ndim(target) else math
        T = self.horizon
        if self.kind == POWER_GAP:
            t = T * (1.0 - xp.exp(-target / self.p))
        elif self.kind == EXP_GAP:
            g = self.gamma
            t = T + xp.log1p(math.expm1(-g * T) * xp.exp(-target)) / g
        else:
            t = target / self.level if self.level > 0 else T * (target > 0)
        return np.clip(t, 0.0, T) if xp is np else min(max(t, 0.0), T)

    def level_time(self, level: float) -> float:
        """The time t_N in [0, T] where lam reaches the level N: min(lam, N) is lam
        before t_N and N after it (a bounded kind: 0 at or above N, else T)."""
        if self.kind == POWER_GAP:
            gap = self.p / level
        elif self.kind == EXP_GAP:
            gap = math.log1p(self.gamma / level) / self.gamma
        else:
            gap = self.horizon if self.level >= level else 0.0
        return max(self.horizon - gap, 0.0)

    def inverse_rate_at_mass(self, u):
        """1 / lam(t) evaluated at the time where Lam(t) = u (arrays with numpy,
        scalars with ``math``).

        Closed forms avoid the cancellation of forming T - t once the gap drops
        below one ulp; this is what keeps exploding-weight integrals exact for
        arbitrarily large mass coordinates.
        """
        xp = np if np.ndim(u) else math
        if self.kind == POWER_GAP:
            return (self.horizon / self.p) * xp.exp(-u / self.p)
        if self.kind == EXP_GAP:
            g = self.gamma
            w = -math.expm1(-g * self.horizon) * xp.exp(-u)   # exp(-gamma gap) deficit
            return w / (g * (1.0 - w))
        return 1.0 / self.level if self.level > 0 else math.inf


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

    kind: str                # constant | time_function | markovian | intensity_multiple
    horizon: float
    value_const: float = 0.0
    fn: Optional[Callable] = None
    model: Optional[IntensityModel] = None
    sup_norm: float = 0.0
    nonnegative: bool = False

    @classmethod
    def constant(cls, v: float, horizon: float) -> "CoefficientProcess":
        if math.isinf(v):
            raise ValueError(f"coefficient value phi must not be infinite, got {v}")
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
        """fn(t, w) with a declared bound, spot checked in one call on a (41, 81)
        sample: ``fn`` takes arrays of t and w that broadcast against each other."""
        ts = np.linspace(0.0, horizon * (1 - 1e-9), 41)
        ws = np.linspace(-8.0 * math.sqrt(horizon), 8.0 * math.sqrt(horizon), 81)
        try:
            sample = np.asarray(fn(ts[:, None], ws[None, :]), dtype=float)
        except TypeError as exc:
            raise ValueError("markovian coefficient must accept arrays of t and w") from exc
        if np.max(np.abs(sample)) > sup_norm * (1 + 1e-9):
            raise ValueError("markovian coefficient exceeds its declared sup norm")
        if nonnegative and np.min(sample) < 0:
            raise ValueError("markovian coefficient declared nonnegative but samples negative")
        return cls(kind="markovian", horizon=horizon, fn=fn,
                   sup_norm=float(sup_norm), nonnegative=nonnegative)

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
            out = np.full(np.shape(t) or (), self.value_const, dtype=float)
        elif self.kind == "time_function":
            out = np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)
        elif self.kind == "intensity_multiple":
            out = self.value_const * np.asarray(self.model.value(t), dtype=float)
        else:
            if w is None:
                raise ValueError("markovian coefficient needs the Brownian level")
            return np.asarray(self.fn(t, np.asarray(w, dtype=float)), dtype=float)
        if w is not None and np.ndim(w):
            return np.broadcast_to(np.asarray(out), np.shape(w)).copy()
        return out if np.ndim(out) else float(out)


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
    joint: Optional[Callable] = None   # (x, out=None) -> (f(x), f'(x)) from one evaluation

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
        """f(x) = (1 - exp(-alpha x)) / alpha; f' = exp(-alpha x) >= 1 on x <= 0.

        The joint form takes both from one ``expm1``: f' = 1 + expm1(-alpha x),
        within an ulp of ``exp``, and f keeps the ``expm1`` accuracy near 0.
        """
        if not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")

        def joint(x, out=None):
            if out is None:
                e = np.expm1(-alpha * np.asarray(x, dtype=float))
                return -e / alpha, 1.0 + e
            f, fprime = out
            e = np.multiply(x, -alpha, out=fprime)      # x is read here only
            np.expm1(e, out=e)
            np.divide(e, -alpha, out=f)                 # e / -alpha == -e / alpha
            np.add(e, 1.0, out=fprime)
            return out

        return cls(name=f"exp_utility({alpha:g})",
                   f=lambda x: -np.expm1(-alpha * np.asarray(x, dtype=float)) / alpha,
                   fprime=lambda x: np.exp(-alpha * np.asarray(x, dtype=float)),
                   zero_at_zero=True, nondecreasing=True, below_identity=True,
                   derivative_floor=1.0, joint=joint)

    def f_fprime(self, x, out=None) -> tuple:
        """(f(x), f'(x)): one call of ``joint`` where the driver declares it.

        With ``out=(f, fprime)`` the values are written into those arrays and
        ``out`` is returned; ``x`` may be ``out[0]``.  ``joint`` is called with
        ``out`` only when it is given.  A driver without a joint form evaluates
        ``f`` and ``fprime`` into new arrays and copies them.
        """
        if self.joint is not None:
            return self.joint(x) if out is None else self.joint(x, out=out)
        f, fprime = self.f(x), self.fprime(x)
        if out is None:
            return f, fprime
        np.copyto(out[0], f)
        np.copyto(out[1], fprime)
        return out

    @property
    def monotone(self) -> bool:
        return self.nondecreasing or self.nonincreasing

    def check_flags(self, lo: float = -10.0, hi: float = 10.0) -> dict:
        """Sample-based verification of the declared flags on 2001 points of
        [lo, hi], each within 1e-12.  A sample that overflows raises no numpy
        warning: a NaN it leaves fails its flag."""
        slack = 1e-12
        xs = np.linspace(lo, hi, 2001)
        out = {}
        with np.errstate(over="ignore", invalid="ignore"):
            fx = np.asarray(self.f(xs), dtype=float)
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


def make_grid(model: IntensityModel, n: int, *, mass_cap: float = 12.0) -> TimeGrid:
    """Build a partition of [0, T] adapted to the intensity: n nodes with equal
    increments of Lam up to ``mass_cap`` (placed by ``mass_inverse``), then the
    terminal node appended.  The equal-mass property holds to 1e-9 while lam
    at the cap stays below ~1e6/T; beyond that the time coordinate can no
    longer resolve the mass increments.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < mass_cap < math.inf:
        raise ValueError(f"mass_cap must be positive and finite, got {mass_cap}")
    if not model.is_singular and model.total_mass() < mass_cap:
        raise InfeasibleGrid(
            f"cumulative mass tops out at {model.total_mass():.6g} < {mass_cap:.6g}")
    inner = [model.mass_inverse(float(u)) for u in np.linspace(0.0, mass_cap, n)[1:]]
    pts = np.array([0.0] + inner + [model.horizon])
    if np.any(np.diff(pts) <= 0):
        raise InfeasibleGrid("mass-equidistributed nodes collide near the horizon")
    return TimeGrid(points=pts, cap_index=n - 1)


def level_grid(model: IntensityModel, n: int, level: float) -> TimeGrid:
    """n nodes from 0 to T at equal steps of the truncated mass
    Lam_N(t) = int_0^t min(lam, N) ds of the level N = ``level``, which is
    finite at T: the last node is T and the ``cap_index``, so no segment is
    left unresolved.  Below t_N = ``model.level_time(N)`` a node is
    ``mass_inverse`` of its mass; above it the nodes are equally spaced."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < level < math.inf:                # NaN fails too
        raise ValueError("truncation levels must be finite and positive")
    t_level = model.level_time(level)
    u_level = model.cumulative(t_level)
    masses = np.linspace(0.0, u_level + level * (model.horizon - t_level), n)
    inner = [model.mass_inverse(u) if u <= u_level else t_level + (u - u_level) / level
             for u in map(float, masses[1:-1])]
    return TimeGrid(points=np.array([0.0, *inner, model.horizon]), cap_index=n - 1)


def check_schedule(schedule) -> list:
    """The truncation levels as floats: finite, positive, increasing, two at least."""
    levels = [float(n) for n in schedule]
    if not all(0 < n < math.inf for n in levels):     # NaN fails too
        raise ValueError("truncation levels must be finite and positive")
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("schedule must be increasing with at least two levels")
    return levels


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
        if not math.isfinite(a):
            raise ValueError(f"terminal value must be finite, got {a}")
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
        # the box [-T sup phi, 0] that holds the solution, widened by a tenth of
        # its width and 1e-3 on each side
        width = self.horizon * self.coefficient.sup_norm
        if not d.flags_ok(lo=-1.1 * width - 1e-3, hi=0.1 * width + 1e-3):
            raise ValueError("declared driver flags fail the sample check")

    @property
    def horizon(self) -> float:
        return self.intensity.horizon

    def box(self, t):
        """The a-priori range (lo, hi) of Y at the times ``t``, w = (T - t) sup|phi|:
        (-w, 0) under phi >= 0 for the plus sign and for a driver with f(0) = 0,
        nondecreasing and f(x) <= x; (-w, w) for the plus sign under a signed phi;
        else None, as with a nonzero terminal value, a y-slope or an infinite sup."""
        phi, d = self.coefficient, self.effective_driver()
        if not self.terminal.is_zero or self.y_slope != 0 or math.isinf(phi.sup_norm):
            return None
        w = (self.horizon - t) * phi.sup_norm
        if phi.nonnegative and d.zero_at_zero and d.nondecreasing and d.below_identity:
            return -w, np.zeros_like(w)
        return (-w, w) if self.sign == PLUS_LAMBDA_Y else None

    def effective_driver(self) -> DriverSpec:
        if self.sign == PLUS_LAMBDA_Y:
            return DriverSpec.identity()
        if self.sign == MINUS_LAMBDA_Y:
            return DriverSpec.neg_identity()
        return self.driver
