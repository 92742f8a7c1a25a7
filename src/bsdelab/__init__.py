"""Numerical laboratory for backward SDEs whose driver intensity blows up at the
terminal time: closed affine forms, non-existence and non-uniqueness
certificates, and the monotone truncation scheme for the nonlinear class."""

from .coefficients import (
    MINUS_LAMBDA_Y,
    NONLINEAR_PLUS,
    PLUS_LAMBDA_Y,
    BsdeProblem,
    CoefficientProcess,
    DriverSpec,
    IntensityModel,
    TerminalSpec,
    TimeGrid,
    level_grid,
    make_grid,
)
from .paths import PathBundle, simulate_paths
from .affine import (
    AffineSolution,
    OdeClassification,
    classify_ode,
    fundamental_family,
    ode_family_member,
    solve_affine_plus,
)
from .lipschitz_solver import (
    RegressionBasis,
    SolutionEstimate,
    backward_sweep,
    comparison_check,
    solve_ode_mode,
    solve_regression_mc,
)
from .singular_scheme import (
    SchemeConfig,
    SchemeReport,
    estimate_bmo,
    estimate_lambda_f_integral,
    run_scheme,
    truncate,
)
from .diagnostics import (
    EkRed,
    FundamentalMinus,
    OdeFamilyScenario,
    PathologyCertificate,
    certify_nonexistence,
    certify_nonuniqueness,
    residual_check,
)
from . import errors

__all__ = [
    "AffineSolution", "BsdeProblem", "CoefficientProcess", "DriverSpec",
    "EkRed", "FundamentalMinus", "IntensityModel", "MINUS_LAMBDA_Y",
    "NONLINEAR_PLUS", "OdeClassification", "OdeFamilyScenario", "PathBundle",
    "PathologyCertificate", "PLUS_LAMBDA_Y", "RegressionBasis", "SchemeConfig",
    "SchemeReport", "SolutionEstimate", "TerminalSpec", "TimeGrid",
    "backward_sweep", "certify_nonexistence", "certify_nonuniqueness",
    "classify_ode", "comparison_check", "errors", "estimate_bmo",
    "estimate_lambda_f_integral", "fundamental_family", "level_grid", "make_grid",
    "ode_family_member", "residual_check", "run_scheme", "simulate_paths",
    "solve_affine_plus", "solve_ode_mode", "solve_regression_mc", "truncate",
]
