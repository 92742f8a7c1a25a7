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
    cumulative_intensity,
    make_grid,
    validate_standing_assumption,
)
from .paths import PathBundle, dump_bundle, load_bundle, simulate_paths, stochastic_integral
from .affine import (
    AffineSolution,
    OdeClassification,
    classify_ode,
    fundamental_family,
    ode_family_member,
    solve_affine_minus_particular,
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
    TruncatedDriver,
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
    class_d_norm,
    residual_check,
)
from . import errors

__all__ = [
    "AffineSolution", "BsdeProblem", "CoefficientProcess", "DriverSpec",
    "EkRed", "FundamentalMinus", "IntensityModel", "MINUS_LAMBDA_Y",
    "NONLINEAR_PLUS", "OdeClassification", "OdeFamilyScenario", "PathBundle",
    "PathologyCertificate", "PLUS_LAMBDA_Y", "RegressionBasis", "SchemeConfig",
    "SchemeReport", "SolutionEstimate", "TerminalSpec", "TimeGrid",
    "TruncatedDriver", "backward_sweep", "certify_nonexistence", "certify_nonuniqueness",
    "class_d_norm", "classify_ode", "comparison_check", "cumulative_intensity",
    "dump_bundle", "errors", "estimate_bmo", "estimate_lambda_f_integral",
    "fundamental_family", "load_bundle", "make_grid", "ode_family_member",
    "residual_check", "run_scheme", "simulate_paths",
    "solve_affine_minus_particular", "solve_affine_plus", "solve_ode_mode",
    "solve_regression_mc", "stochastic_integral", "truncate",
    "validate_standing_assumption",
]
