"""Closed-form intensity-mass grids against the bisection inverse they replace."""

import numpy as np
import pytest

import bsdelab as bl
from bsdelab.errors import InfeasibleGrid

CASES = [
    ("exp_gap", 1.0, 2001),
    ("exp_gap", 2.0, 2001),
    ("power_gap", 0.5, 241),
    ("power_gap", 1.0, 241),
    ("power_gap", 2.0, 241),
    ("bounded", 20.0, 129),
]
MASS_CAP = 12.0


def _model(kind, param):
    return getattr(bl.IntensityModel, kind)(param, 1.0)


def _equal_mass_error(model, points, targets):
    return float(np.max(np.abs(model.cumulative(points[1:-1]) - targets[1:])))


@pytest.mark.parametrize("kind,param,n", CASES)
def test_closed_form_grid_matches_bisection(kind, param, n):
    model = _model(kind, param)
    grid = bl.make_grid(model, n, mass_cap=MASS_CAP)
    targets = np.linspace(0.0, MASS_CAP, n)
    bisected = np.array([0.0] + [model._bisect_inverse(float(u)) for u in targets[1:]])
    assert grid.n_points == n + 1
    assert grid.points[-1] == 1.0
    assert np.max(np.abs(grid.points[:-1] - bisected)) <= 1e-12
    # the docstring's promise: equal increments of Lam to 1e-9 while lam(t_cap) <= 1e6
    if float(model.value(grid.t_cap)) <= 1e6:
        assert _equal_mass_error(model, grid.points, targets) <= 1e-9
        assert _equal_mass_error(model, np.append(bisected, 1.0), targets) <= 1e-9


def test_grid_calls_the_closed_form_once_per_target(monkeypatch):
    model = _model("power_gap", 1.0)
    calls = {"mass_inverse": 0, "bisect": 0}
    real_inverse = bl.IntensityModel.mass_inverse
    real_bisect = bl.IntensityModel._bisect_inverse

    def counted_inverse(self, target):
        calls["mass_inverse"] += 1
        return real_inverse(self, target)

    def counted_bisect(self, target):
        calls["bisect"] += 1
        return real_bisect(self, target)

    monkeypatch.setattr(bl.IntensityModel, "mass_inverse", counted_inverse)
    monkeypatch.setattr(bl.IntensityModel, "_bisect_inverse", counted_bisect)
    bl.make_grid(model, 241, mass_cap=MASS_CAP)
    assert calls == {"mass_inverse": 240, "bisect": 0}


def test_truncated_grid_keeps_equal_mass():
    model = _model("power_gap", 1.0).truncated(50.0)
    grid = bl.make_grid(model, 33, mass_cap=4.0)
    targets = np.linspace(0.0, 4.0, 33)
    assert _equal_mass_error(model, grid.points, targets) <= 1e-9


def test_mass_inverse_is_the_only_public_inverse():
    assert not hasattr(bl.IntensityModel, "inverse_cumulative")


def test_bounded_mass_shortfall_tops_out():
    with pytest.raises(InfeasibleGrid, match="cumulative mass tops out at 1 < 2"):
        bl.make_grid(bl.IntensityModel.bounded(1.0, 1.0), 5, mass_cap=2.0)
