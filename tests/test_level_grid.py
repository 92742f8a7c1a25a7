"""The truncation scheme's grid, ``level_grid``: equal steps of the top level's
truncated mass up to T.  Its properties for every intensity kind, and what
``nonlinear_exp`` reads on it against a Radau solve of the top level's
equation (``continuous_reference``); plus ``run_scheme`` on a library grid
whose top two levels are one array."""

import csv

import numpy as np
import pytest

import bsdelab as bl
from bsdelab import cli

import continuous_reference as cref

DEFAULTS = cli.SCENARIOS["nonlinear_exp"].defaults
SCHEDULE = cli._parse_schedule(DEFAULTS["schedule"])
TOP = SCHEDULE[-1]


def _truncated_mass(model, level, t):
    """Lam_N(t) = Lam(min(t, t_N)) + N max(t - t_N, 0), from the closed forms."""
    t_level = model.level_time(level)
    below = np.minimum(t, t_level)
    return np.asarray(model.cumulative(below)) + level * np.maximum(t - t_level, 0.0)


@pytest.mark.parametrize("model", [
    *(bl.IntensityModel.power_gap(p, 1.0) for p in (0.5, 1.0, 2.0, 4.0, 300.0)),
    *(bl.IntensityModel.exp_gap(g, 1.0) for g in (0.5, 1.0, 2.0)),
    bl.IntensityModel.bounded(3.0, 1.0), bl.IntensityModel.bounded(500.0, 1.0),
], ids=lambda m: f"{m.kind}-{m.p or m.gamma or m.level:g}")
@pytest.mark.parametrize("n", [5, 31])
def test_equal_truncated_mass_steps_up_to_T(model, n):
    grid = bl.level_grid(model, n, TOP)
    pts = grid.points
    assert pts[-1] == model.horizon and grid.cap_index == n - 1
    assert np.all(np.diff(pts) > 0)
    steps = np.diff(_truncated_mass(model, TOP, pts))
    assert np.max(np.abs(steps - steps.mean())) <= 1e-9


def test_level_time_of_each_kind():
    assert bl.IntensityModel.power_gap(1.0, 1.0).level_time(256.0) == 1.0 - 1.0 / 256.0
    assert bl.IntensityModel.power_gap(300.0, 1.0).level_time(256.0) == 0.0
    exp_gap = bl.IntensityModel.exp_gap(2.0, 1.0)
    assert exp_gap.value(exp_gap.level_time(256.0)) == pytest.approx(256.0, rel=1e-9)
    assert bl.IntensityModel.bounded(3.0, 1.0).level_time(256.0) == 1.0
    assert bl.IntensityModel.bounded(256.0, 1.0).level_time(256.0) == 0.0


@pytest.mark.parametrize("level", [0.0, -1.0, float("nan"), float("inf")])
def test_level_must_be_finite_and_positive(level):
    with pytest.raises(ValueError, match="truncation levels must be finite and positive"):
        bl.level_grid(bl.IntensityModel.power_gap(1.0, 1.0), 31, level)


def _run(tmp_path, p=1.0, alpha=1.0, n_grid=None, mode="ode"):
    """``nonlinear_exp`` at its defaults but for the given values: the exit code,
    the report's ``key = value`` fields, and solution.csv's t and Y_mean."""
    args = ["--p", str(p), "--alpha", str(alpha), "--mode", mode]
    if n_grid is not None:
        args += ["--n-grid", str(n_grid)]
    out = tmp_path / "_".join(args).replace("-", "")
    code = cli.main(["run", "nonlinear_exp", *args, "--out", str(out)])
    fields = dict(line.strip().split(" = ", 1)
                  for line in (out / "report.txt").read_text().splitlines() if " = " in line)
    with open(out / "solution.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    y = np.array([float(r["Y_mean"]) for r in rows])
    return code, fields, t, y


def _radau_gap(p, alpha, t, y):
    """Sup over the nodes of |Y - y| for the top level's equation."""
    prob = bl.BsdeProblem(intensity=bl.IntensityModel.power_gap(p, 1.0),
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(alpha))
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    return float(np.max(np.abs(y - cref.solve_level(prob, clipped, TOP, t))))


def test_steep_intensity_reports_a_nonzero_last_gap(tmp_path):
    # a grid stopped at mass 12 held levels 128 and 256 as one array here
    code, fields, _, _ = _run(tmp_path, p=4.0)
    assert code == cli.EXIT_NOT_CONVERGED
    assert float(fields["final_gap"]) > float(DEFAULTS["tol"])


def test_flat_intensity_with_a_steep_driver_is_near_radau(tmp_path):
    code, _, t, y = _run(tmp_path, p=0.5, alpha=5.0)
    assert code == cli.EXIT_OK
    assert _radau_gap(0.5, 5.0, t, y) <= 1e-3


def test_error_falls_with_the_node_count(tmp_path):
    gaps = [_radau_gap(2.0, 1.0, *_run(tmp_path, p=2.0, n_grid=n)[2:])
            for n in (21, 31, 61, 121)]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps


def test_error_below_the_certified_gap(tmp_path):
    code, fields, t, y = _run(tmp_path, alpha=5.0, n_grid=21)
    assert code == cli.EXIT_OK
    assert _radau_gap(1.0, 5.0, t, y) < float(fields["final_gap"])


def test_monte_carlo_equals_ode_mode(tmp_path):
    # a constant phi makes every regression exact
    _, ode, _, _ = _run(tmp_path)
    code, mc, _, _ = _run(tmp_path, mode="mc")
    assert code == cli.EXIT_OK
    assert abs(float(mc["y_at_0"]) - float(ode["y_at_0"])) <= 1e-9


def test_levels_the_grid_cannot_tell_apart_do_not_converge():
    # mass 12 ends where lam = 4 e^3 = 80 < 128: levels 128 and 256 are one array
    model = bl.IntensityModel.power_gap(4.0, 1.0)
    prob = bl.BsdeProblem(intensity=model, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))
    report = bl.run_scheme(prob, bl.make_grid(model, 31, mass_cap=12.0), SCHEDULE)
    assert report.cauchy_gaps[-1] == 0.0
    assert not report.converged and report.status == "not_converged"
