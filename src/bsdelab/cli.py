"""Config-driven experiment runner.

Every built-in scenario is a named, reproducible run that writes CSV tables and
a plain-text report.  A run ends in one status, and ``EXIT_CODES`` gives its
exit code.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .affine import solve_affine_plus
from .coefficients import (
    MINUS_LAMBDA_Y,
    PLUS_LAMBDA_Y,
    BsdeProblem,
    CoefficientProcess,
    DriverSpec,
    IntensityModel,
    TerminalSpec,
    level_grid,
    make_grid,
)
from .diagnostics import (
    EkRed,
    FundamentalMinus,
    OdeFamilyScenario,
    certify_nonexistence,
    certify_nonuniqueness,
)
from .errors import LabError, NoSolution
from .lipschitz_solver import RegressionBasis
from .paths import simulate_paths
from .singular_scheme import SCHEME_THETA, SchemeConfig, run_scheme

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_NO_SOLUTION = 3

# The exit code of every status a run ends in: 0 the claim reproduced, 1 a usage,
# config or parameter error, 2 not converged or inconclusive, 3 no solution
EXIT_CODES = {
    "solved": EXIT_OK, "converged": EXIT_OK, "converges_with_family": EXIT_OK,
    "diverges": EXIT_OK, "non_uniqueness_certified": EXIT_OK,
    "no_solution_certified_expected": EXIT_OK,
    "failed": EXIT_USAGE,
    "not_converged": EXIT_NOT_CONVERGED, "witness_inconclusive": EXIT_NOT_CONVERGED,
    "no_solution_certified": EXIT_NO_SOLUTION,
}

DEFAULT_SCHEDULE = "2,4,8,16,32,64,128,256"
NONEXISTENCE_SCHEDULE = "4,16,64,256"


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))    # shortest round-trip form, plain for numpy scalars
    return str(x)


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioInfo:
    claim: str
    defaults: dict
    run: Callable       # the runner: ScenarioConfig -> status


@dataclass
class ScenarioConfig:
    params: dict
    out_dir: Path
    seed: int = 1
    threads: int = 1
    lines: list = field(default_factory=list)

    def say(self, text: str) -> None:
        self.lines.append(text)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _solution_rows(grid, y_mean, y_sd, z_mean, last_column=None):
    """One row per grid node: t, the mean and sd of Y, the mean of Z, and
    ``last_column[i]`` (blank when None).  Nodes past the last Z mean read that
    one; a one-path solution passes its values as the means and an sd of 0."""
    n = len(grid.points)
    z_col = np.zeros(n)
    if z_mean is not None and np.size(z_mean):
        z_col = z_mean[np.minimum(np.arange(n), np.size(z_mean) - 1)]
    last = [""] * n if last_column is None else last_column
    return list(zip(grid.points, y_mean, y_sd, z_col, last))


def _write_family(cfg: ScenarioConfig, cert, count_label: str) -> None:
    """The member table, the residual certificate and the pairwise distances
    of a non-uniqueness certificate."""
    _write_csv(cfg.out_dir / "solution.csv",
               ["member", "t", "Y_mean", "Y_sd", "Z_mean", "bound_check"],
               [(k, *row) for k, m in enumerate(cert.members)
                for row in _solution_rows(m.grid, m.y, np.zeros(len(m.y)), m.z)])
    _write_csv(cfg.out_dir / "certificate.csv",
               ["member", "y0", "max_residual"],
               [(k, m.y0, r) for k, (m, r) in
                enumerate(zip(cert.members, cert.member_residuals))])
    cfg.say(f"  {count_label} = {len(cert.members)}")
    for i, j, d in cert.pairwise_sup_distance:
        cfg.say(f"  sup_distance[{i},{j}] = {_fmt(d)}")


def _finish(cfg: ScenarioConfig, status: str) -> int:
    exit_code = EXIT_CODES[status]
    cfg.say(f"status: {status}")
    cfg.say(f"exit_code: {exit_code}")
    (cfg.out_dir / "report.txt").write_text("\n".join(cfg.lines) + "\n")
    return exit_code


def _report_header(cfg: ScenarioConfig, name: str, info: ScenarioInfo) -> None:
    cfg.say(f"scenario: {name}")
    cfg.say(f"claim: {info.claim}")
    cfg.say("parameters:")
    for key in sorted(cfg.params):
        cfg.say(f"  {key} = {_fmt(cfg.params[key])}")
    cfg.say(f"  seed = {cfg.seed}")
    cfg.say(f"  threads = {cfg.threads}")


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def _parse_y0_list(raw) -> tuple:
    values = raw if isinstance(raw, (tuple, list)) else str(raw).split(",")
    y0s = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in y0s):
        raise ValueError(f"y0_list entries must be finite, got {raw}")
    return y0s


def _parse_schedule(raw) -> tuple:
    return tuple(float(v) for v in str(raw).split(","))


def _certify_family(cfg: ScenarioConfig, scenario, grid) -> str:
    """Certify a non-uniqueness scenario on ``grid`` and write its family."""
    cert = certify_nonuniqueness(scenario, grid)
    cfg.say("results:")
    _write_family(cfg, cert, "verified_members")
    cfg.say(f"  max_member_residual = {_fmt(max(cert.member_residuals))}")
    return "non_uniqueness_certified"


def _run_ek_red(cfg: ScenarioConfig) -> str:
    p = cfg.params
    model = IntensityModel.exp_gap(p["gamma"], 1.0)
    grid = make_grid(model, int(p["n_grid"]), mass_cap=p["mass_cap"])
    scenario = EkRed(r=p["r"], sigma=p["sigma"], gamma=p["gamma"],
                     y0_list=_parse_y0_list(p["y0_list"]))
    return _certify_family(cfg, scenario, grid)


def _run_affine_plus(cfg: ScenarioConfig) -> str:
    p = cfg.params
    model = IntensityModel.power_gap(p["p"], 1.0)
    grid = make_grid(model, int(p["n_grid"]), mass_cap=p["mass_cap"])
    coeff = CoefficientProcess.constant(p["phi_value"], 1.0)
    terminal = TerminalSpec.constant(p["terminal"])
    problem = BsdeProblem(intensity=model, coefficient=coeff,
                          sign=PLUS_LAMBDA_Y, terminal=terminal)
    cfg.say("results:")
    try:
        sol = solve_affine_plus(problem, grid)
    except NoSolution as exc:
        cfg.say(f"  no_solution_reason = {exc.reason}")
    else:
        bound = -problem.box(grid.points)[0] - np.abs(sol.y)      # w - |Y|
        _write_csv(cfg.out_dir / "solution.csv",
                   ["t", "Y_mean", "Y_sd", "Z_mean", "bound_check"],
                   _solution_rows(grid, sol.y, np.zeros(len(sol.y)), sol.z, bound))
        cfg.say(f"  y_at_0 = {_fmt(float(sol.y[0]))}")
        cfg.say(f"  bound_margin = {_fmt(sol.bound_margin)}")
        return "solved"
    # no solution: the minus-sign companion with the same data carries the witness
    witness = BsdeProblem(intensity=model, coefficient=coeff,
                          sign=MINUS_LAMBDA_Y, terminal=terminal)
    cert = certify_nonexistence(witness, _parse_schedule(p["schedule"]), grid)
    _write_csv(cfg.out_dir / "certificate.csv", ["n", "driver_mass"],
               list(cert.growth_series))
    cfg.say("  representation_argument = terminal value must vanish")
    cfg.say(f"  witness_monotone_divergent = {cert.monotone_divergent}")
    cfg.say(f"  witness_growth_ratio = {_fmt(cert.metadata['ratio'])}")
    return ("no_solution_certified_expected" if cert.monotone_divergent
            else "witness_inconclusive")


def _run_affine_minus_family(cfg: ScenarioConfig) -> str:
    p = cfg.params
    model = IntensityModel.power_gap(p["p"], 1.0)
    grid = make_grid(model, int(p["n_grid"]), mass_cap=p["mass_cap"])
    scenario = FundamentalMinus(model=model, y0_list=_parse_y0_list(p["y0_list"]))
    return _certify_family(cfg, scenario, grid)


def _run_ode_trichotomy(cfg: ScenarioConfig) -> str:
    from .affine import classify_ode

    p = cfg.params
    model = IntensityModel.power_gap(p["p"], 1.0)
    grid = make_grid(model, int(p["n_grid"]), mass_cap=p["mass_cap"])
    coeff = CoefficientProcess.intensity_multiple(p["c"], model)
    classification = classify_ode(model, coeff, tolerance=p["tol"])
    cfg.say("results:")
    if not classification.converges:
        cfg.say("  classification = diverges")
        cfg.say("  family = none (no terminal value admits a solution)")
        return "diverges"
    cfg.say("  classification = converges")
    cfg.say(f"  limit = {_fmt(classification.limit)}")
    scenario = OdeFamilyScenario(model=model, coefficient=coeff,
                                 classification=classification, y0_list=(0.0, 1.0))
    cert = certify_nonuniqueness(scenario, grid)
    _write_family(cfg, cert, "family_members_written")
    return "converges_with_family"


def _run_nonlinear_exp(cfg: ScenarioConfig) -> str:
    p = cfg.params
    model = IntensityModel.power_gap(p["p"], 1.0)
    schedule = _parse_schedule(p["schedule"])
    grid = level_grid(model, int(p["n_grid"]), schedule[-1])
    coeff = CoefficientProcess.constant(p["phi_value"], 1.0)
    driver = DriverSpec.exp_utility(p["alpha"])
    terminal = TerminalSpec.constant(p["terminal"])
    problem = BsdeProblem(intensity=model, coefficient=coeff,
                          sign="nonlinear_plus", driver=driver, terminal=terminal)
    mode = str(p["mode"])
    bundle = simulate_paths(grid, 1, int(p["m_paths"]), cfg.seed) if mode == "mc" else None
    config = SchemeConfig(tol=p["tol"], bundle=bundle,
                          basis=RegressionBasis.polynomial(int(p["basis_degree"])),
                          workers=cfg.threads)
    cfg.say("results:")
    cfg.say(f"  theta = {_fmt(SCHEME_THETA)}")
    if mode not in ("ode", "mc"):
        raise ValueError(f"unknown scheme mode {mode!r}")
    try:
        report = run_scheme(problem, grid, schedule, config=config)
    except NoSolution as exc:
        cfg.say(f"  no_solution_reason = {exc}")
        return "no_solution_certified"
    final = report.final
    resid = final.diagnostics.get("residual_max", 0.0)
    cfg.say(f"  theta_fallback_segments = {final.diagnostics['theta_fallback_segments']}")
    _write_csv(cfg.out_dir / "solution.csv",
               ["t", "Y_mean", "Y_sd", "Z_mean", "residual"],
               _solution_rows(grid, final.y, report.y_sd, final.z,
                              [resid] * len(grid.points)))
    _write_csv(cfg.out_dir / "scheme.csv",
               ["n", "Y0", "cauchy_gap", "monotone_violation",
                "lambda_f_integral", "bmo_estimate"],
               [(n, y0,
                 report.cauchy_gaps[k - 1] if k else "",
                 report.monotone_violation,
                 report.lambda_f_integrals[k],
                 report.bmo_estimate)
                for k, (n, y0) in enumerate(zip(schedule, report.y0))])
    cfg.say(f"  monotone_violation = {_fmt(report.monotone_violation)}")
    cfg.say(f"  bounds_ok = {report.bounds_ok}")
    cfg.say(f"  box_violation = {_fmt(report.box_violation)}")
    cfg.say(f"  box_excursion_raw = {_fmt(max(report.box_excursion_raw))}")
    cfg.say(f"  cauchy_gaps = {','.join(_fmt(g) for g in report.cauchy_gaps)}")
    cfg.say(f"  final_gap = {_fmt(report.cauchy_gaps[-1])}")
    cfg.say(f"  y_at_0 = {_fmt(float(final.y[0]))}")
    cfg.say(f"  bmo_estimate = {_fmt(report.bmo_estimate)} "
            f"(bound {_fmt(2.0 * grid.horizon ** 2 * coeff.sup_norm ** 2)})")
    cfg.say(f"  lambda_f_integrals = {','.join(_fmt(v) for v in report.lambda_f_integrals)}")
    return report.status


SCENARIOS = {
    "ek_red": ScenarioInfo(
        claim="drifted equation on the exponential-gap intensity carries an "
              "infinite family of vanishing-terminal solutions",
        defaults={"r": 0.05, "sigma": 0.2, "gamma": 1.0, "y0_list": "0,1",
                  "n_grid": 2001, "mass_cap": 12.0},
        run=_run_ek_red,
    ),
    "affine_plus": ScenarioInfo(
        claim="plus-sign affine equation: unique solution when the terminal "
              "value vanishes, no solution otherwise",
        defaults={"p": 1.0, "phi_value": 1.0, "terminal": 0.0,
                  "n_grid": 129, "mass_cap": 12.0,
                  "schedule": NONEXISTENCE_SCHEDULE},
        run=_run_affine_plus,
    ),
    "affine_minus_family": ScenarioInfo(
        claim="minus-sign affine equation: infinitely many vanishing-terminal "
              "solutions, three verified members as witnesses",
        defaults={"p": 1.0, "y0_list": "0,1,3", "n_grid": 129, "mass_cap": 12.0},
        run=_run_affine_minus_family,
    ),
    "ode_trichotomy": ScenarioInfo(
        claim="deterministic equation: a terminal value matching the averaged "
              "prefix limit admits a one-parameter family, all others none",
        defaults={"c": 2.0, "p": 1.0, "n_grid": 129, "mass_cap": 12.0,
                  "tol": 1e-6},
        run=_run_ode_trichotomy,
    ),
    "nonlinear_exp": ScenarioInfo(
        claim="monotone exponential driver: truncation levels increase to the "
              "unique bounded solution inside the analytic box",
        defaults={"alpha": 1.0, "p": 1.0, "phi_value": 1.0, "terminal": 0.0,
                  "n_grid": 31, "schedule": DEFAULT_SCHEDULE, "tol": 1e-3,
                  "mode": "ode", "m_paths": 20000, "basis_degree": 3},
        run=_run_nonlinear_exp,
    ),
}


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

class Param(NamedTuple):
    type: type
    section: str        # INI section
    key: str            # INI key


# Every run parameter, declared once: the --flag is the name with dashes,
# the config file sets it under [section] key, and both are coerced to type.
PARAMS = {
    "p": Param(float, "intensity", "p"),
    "gamma": Param(float, "intensity", "gamma"),
    "phi_value": Param(float, "coefficient", "value"),
    "c": Param(float, "coefficient", "c"),
    "alpha": Param(float, "driver", "alpha"),
    "n_grid": Param(int, "grid", "n"),
    "mass_cap": Param(float, "grid", "mass_cap"),
    "m_paths": Param(int, "mc", "m_paths"),
    "basis_degree": Param(int, "mc", "basis_degree"),
    "schedule": Param(str, "scheme", "schedule"),
    "tol": Param(float, "scheme", "tol"),
    "mode": Param(str, "scheme", "mode"),
    "terminal": Param(float, "run", "terminal"),
    "r": Param(float, "run", "r"),
    "sigma": Param(float, "run", "sigma"),
    "y0_list": Param(str, "run", "y0_list"),
    "seed": Param(int, "run", "seed"),
    "threads": Param(int, "run", "threads"),
}


def _load_config(path: str):
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    if not read:
        raise ValueError(f"config file {path}: not found or unreadable")
    names = {(spec.section, spec.key): name for name, spec in PARAMS.items()}
    out = {}
    scenario = None
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) == ("scenario", "name"):
                scenario = raw.strip()
                continue
            name = names.get((section, key))
            if name is None:
                raise ValueError(
                    f"config file {path}, section [{section}]: unknown key {key!r}")
            try:
                out[name] = PARAMS[name].type(raw.strip())
            except ValueError as exc:
                raise ValueError(
                    f"config file {path}, section [{section}], key {key!r}: "
                    f"cannot parse {raw!r}") from exc
    return scenario, out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def list_scenarios(fmt: str = "table", stream=None) -> int:
    stream = stream or sys.stdout
    if fmt == "table":
        for name, info in SCENARIOS.items():
            defaults = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(info.defaults.items()))
            stream.write(f"{name}\n  claim: {info.claim}\n  defaults: {defaults}\n")
        return EXIT_OK
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(["name", "claim", "defaults"])
        for name, info in SCENARIOS.items():
            defaults = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(info.defaults.items()))
            writer.writerow([name, info.claim, defaults])
        return EXIT_OK
    sys.stderr.write(f"unknown list format {fmt!r} (choose table or csv)\n")
    return EXIT_USAGE


def run_scenario(name: str, overrides: dict, out_dir, seed: int = 1,
                 threads: int = 1) -> int:
    if name not in SCENARIOS:
        sys.stderr.write(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}\n")
        return EXIT_USAGE
    info = SCENARIOS[name]
    params = dict(info.defaults)
    params.update((key, value) for key, value in overrides.items() if value is not None)
    unknown = [key for key in params if key not in info.defaults
               and key not in ("seed", "threads")]
    seed = int(params.pop("seed", seed))
    threads = int(params.pop("threads", threads))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = ScenarioConfig(params=params, out_dir=out, seed=seed, threads=threads)
    _report_header(cfg, name, info)
    try:
        if unknown:
            raise ValueError(f"scenario {name!r} does not take parameter {unknown[0]!r}")
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
        status = info.run(cfg)
    except (LabError, ValueError) as exc:
        cfg.say(f"error: {exc}")
        status = "failed"
    return _finish(cfg, status)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    A reader that closes stdout early (``bsdelab list | head -1``) ends the
    command with ``EXIT_OK``: stdout is pointed at ``os.devnull``, so the
    interpreter's own flush at exit finds nothing to fail on.
    """
    try:
        try:
            return _dispatch(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def _attach_dash_values(argv) -> list:
    """``--flag -1e-300`` as ``--flag=-1e-300``: argparse takes a token that
    starts with '-' and is not a plain decimal (-1e-300, -inf) for an option."""
    flags = {f"--{name.replace('_', '-')}" for name in PARAMS}
    out = []
    for arg in argv:
        if out and out[-1] in flags and arg[:1] == "-" and arg[:2] != "--" and arg != "-h":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _dispatch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="bsdelab",
        description="Reproducible experiments on terminal-singular backward SDEs")
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.add_argument("--format", default="table")

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--config", default=None, help="INI config file")
    p_run.add_argument("--out", default=None, help="output directory")
    for name, spec in PARAMS.items():
        p_run.add_argument(f"--{name.replace('_', '-')}", type=spec.type, default=None)

    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        if exc.code:             # a usage error; --help exits 0 as usual
            return EXIT_USAGE
        raise
    if args.command == "list":
        return list_scenarios(args.format)
    if args.command != "run":
        parser.print_help()
        return EXIT_USAGE

    overrides = {}
    scenario = args.scenario
    if args.config:
        try:
            cfg_scenario, cfg_params = _load_config(args.config)
        except ValueError as exc:
            sys.stderr.write(f"{exc}\n")
            return EXIT_USAGE
        overrides.update(cfg_params)
        if cfg_scenario:
            scenario = cfg_scenario if scenario == "from-config" else scenario
    flags = vars(args)
    overrides.update({name: flags[name] for name in PARAMS if flags[name] is not None})
    return run_scenario(scenario, overrides, args.out or f"runs/{scenario}")


if __name__ == "__main__":
    raise SystemExit(main())
