"""The truncated equations of the scheme, solved as continuous ODEs.

On deterministic data, level n of ``run_scheme`` discretises the backward ODE

    y'(t) = phi(t) + lam_n(t) f(y) + b y,   y(T) = A,   lam_n = min(lam, n),

and its step error is the distance between the two.  ``solve_level``
integrates the ODE with scipy's Radau at tight tolerances, in two pieces split
where lam crosses n, so the kink of lam_n is an end point of both pieces and
never falls inside a step.  ``scipy.integrate`` is imported here only: the
library itself does not load it.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

RTOL = 1e-12
ATOL = 1e-14


def split_time(intensity, n: float) -> float:
    """The time where the increasing intensity reaches the level n (0 if it starts above)."""
    horizon = intensity.horizon
    if intensity.value(0.0) >= n:
        return 0.0
    return brentq(lambda t: intensity.value(t) - n, 0.0, np.nextafter(horizon, 0.0),
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)


def solve_level(problem, driver, n: float, times) -> np.ndarray:
    """Y of the level-n equation at ``times`` (increasing, inside [0, T]), with the
    driver map ``driver`` (the scheme's clipped one)."""
    intensity, b = problem.intensity, problem.y_slope
    horizon = intensity.horizon
    times = np.asarray(times, dtype=float)

    def rhs(t, y):
        lam = intensity.value(t, n)
        return float(problem.coefficient.value(t)) + lam * driver.f(y) + b * y

    def jac(t, y):
        return np.atleast_2d(intensity.value(t, n) * driver.fprime(y) + b)

    out = np.empty_like(times)
    y_start = np.array([float(problem.terminal.values())])
    t_split = split_time(intensity, n)
    for lo, hi in ((t_split, horizon), (0.0, t_split)):
        if hi <= lo:
            continue
        inside = (times >= lo) & (times <= hi)
        t_eval = times[inside][::-1]          # backward: decreasing times
        sol = solve_ivp(rhs, (hi, lo), y_start, method="Radau", jac=jac, t_eval=t_eval,
                        rtol=RTOL, atol=ATOL, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"Radau failed on level {n}: {sol.message}")
        if inside.any():        # lam may cross n past the last of ``times``
            out[inside] = sol.y[0][::-1]
        y_start = sol.sol(lo)
    return out


def top_level_gap(top, problem) -> float:
    """Sup over the nodes of [0, t_cap] of |Y - y| for the level ``top`` (a
    ``SolutionEstimate`` of nodal values, such as a report's top level)."""
    grid = top.grid
    nodes = grid.points[:grid.cap_index + 1]
    reference = solve_level(problem, top.driver_used, top.lambda_cap, nodes)
    return float(np.max(np.abs(top.y[:grid.cap_index + 1] - reference)))
