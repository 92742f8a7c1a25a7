"""Config-driven experiment runner.

Every built-in scenario is a named, reproducible run that writes CSV tables and
a plain-text report.  Exit codes: 0 success (including a certified no-solution
outcome where that is the scenario's expected result), 1 usage, config or
parameter error, 2 scheme did not converge or a certificate was inconclusive,
3 no-solution certified where a solution was asked for.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

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
from .singular_scheme import SchemeConfig, run_scheme

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_NO_SOLUTION = 3

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
    name: str
    claim: str
    defaults: dict


SCENARIOS = {
    "ek_red": ScenarioInfo(
        name="ek_red",
        claim="drifted equation on the exponential-gap intensity carries an "
              "infinite family of vanishing-terminal solutions",
        defaults={"r": 0.05, "sigma": 0.2, "gamma": 1.0, "y0_list": "0,1",
                  "n_grid": 2001, "mass_cap": 12.0},
    ),
    "affine_plus": ScenarioInfo(
        name="affine_plus",
        claim="plus-sign affine equation: unique solution when the terminal "
              "value vanishes, no solution otherwise",
        defaults={"p": 1.0, "phi_value": 1.0, "terminal": 0.0,
                  "n_grid": 129, "mass_cap": 12.0,
                  "schedule": NONEXISTENCE_SCHEDULE},
    ),
    "affine_minus_family": ScenarioInfo(
        name="affine_minus_family",
        claim="minus-sign affine equation: infinitely many vanishing-terminal "
              "solutions, three verified members as witnesses",
        defaults={"p": 1.0, "y0_list": "0,1,3", "n_grid": 129, "mass_cap": 12.0},
    ),
    "ode_trichotomy": ScenarioInfo(
        name="ode_trichotomy",
        claim="deterministic equation: a terminal value matching the averaged "
              "prefix limit admits a one-parameter family, all others none",
        defaults={"c": 2.0, "p": 1.0, "n_grid": 129, "mass_cap": 12.0,
                  "tol": 1e-6},
    ),
    "nonlinear_exp": ScenarioInfo(
        name="nonlinear_exp",
        claim="monotone exponential driver: truncation levels increase to the "
              "unique bounded solution inside the analytic box",
        defaults={"alpha": 1.0, "p": 1.0, "phi_value": 1.0, "terminal": 0.0,
                  "n_grid": 241, "mass_cap": 12.0,
                  "schedule": DEFAULT_SCHEDULE, "tol": 1e-3, "mode": "ode",
                  "m_paths": 20000, "basis_degree": 3},
    ),
}


@dataclass
class ScenarioConfig:
    scenario: str
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


def _member_rows(members):
    rows = []
    for k, member in enumerate(members):
        y = np.atleast_2d(member.y)
        z = np.atleast_2d(member.z if member.z.ndim else member.z)
        for i, t in enumerate(member.grid.points):
            zi = z[..., i] if z.shape[-1] == len(member.grid.points) else \
                (z[..., min(i, z.shape[-1] - 1)] if z.size else 0.0)
            rows.append((k, t, float(np.mean(y[:, i])), float(np.std(y[:, i])),
                         float(np.mean(zi)), ""))
    return rows


def _solution_rows(grid, y, z, bound_values=None):
    y2 = np.atleast_2d(y)
    rows = []
    for i, t in enumerate(grid.points):
        if z is None:
            z_mean = 0.0
        else:
            z2 = np.atleast_2d(z)
            z_mean = float(np.mean(z2[..., min(i, z2.shape[-1] - 1)])) if z2.size else 0.0
        check = "" if bound_values is None else bound_values[i]
        rows.append((t, float(np.mean(y2[:, i])), float(np.std(y2[:, i])),
                     z_mean, check))
    return rows


def _finish(cfg: ScenarioConfig, status: str, exit_code: int) -> int:
    cfg.say(f"status: {status}")
    cfg.say(f"exit_code: {exit_code}")
    (cfg.out_dir / "report.txt").write_text("\n".join(cfg.lines) + "\n")
    return exit_code


def _report_header(cfg: ScenarioConfig, info: ScenarioInfo) -> None:
    cfg.say(f"scenario: {info.name}")
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
    if isinstance(raw, (tuple, list)):
        return tuple(float(v) for v in raw)
    return tuple(float(v) for v in str(raw).split(","))


def _parse_schedule(raw) -> tuple:
    return tuple(float(v) for v in str(raw).split(","))


def _run_ek_red(cfg: ScenarioConfig, info: ScenarioInfo) -> int:
    p = cfg.params
    model = IntensityModel.exp_gap(p["gamma"], 1.0)
    grid = make_grid(model, int(p["n_grid"]), mass_cap=p["mass_cap"])
    scenario = EkRed(r=p["r"], sigma=p["sigma"], gamma=p["gamma"],
                     y0_list=_parse_y0_list(p["y0_list"]))
    cert = certify_nonuniqueness(scenario, grid)
    _write_csv(cfg.out_dir / "solution.csv",
               ["member", "t", "Y_mean", "Y_sd", "Z_mean", "bound_check"],
               _member_rows(cert.members))
    _write_csv(cfg.out_dir / "certificate.csv",
               ["member", "y0", "max_residual"],
               [(k, m.y0, r) for k, (m, r) in
                enumerate(zip(cert.members, cert.member_residuals))])
    cfg.say("results:")
    cfg.say(f"  verified_members = {len(cert.members)}")
    for i, j, d in cert.pairwise_sup_distance:
        cfg.say(f"  sup_distance[{i},{j}] = {_fmt(d)}")
    cfg.say(f"  max_member_residual = {_fmt(max(cert.member_residuals))}")
    return _finish(cfg, "non_uniqueness_certified", EXIT_OK)


def _run_affine_plus(cfg: ScenarioConfig, info: ScenarioInfo) -> int:
    p = cfg.params
    model = IntensityModel.power_gap(p["p"], 1.0)
    grid = make_grid(model, int(p["n_grid"]), mass_cap=p["mass_cap"])
    coeff = CoefficientProcess.constant(p["phi_value"], 1.0)
    terminal = TerminalSpec.constant(p["terminal"])
    problem = BsdeProblem(intensity=model, coefficient=coeff,
                          sign=PLUS_LAMBDA_Y, terminal=terminal)
    cfg.say("results:")
    if terminal.is_zero:
        sol = solve_affine_plus(problem, grid)
        bound = coeff.sup_norm * (grid.horizon - grid.points) - np.abs(sol.y)
        _write_csv(cfg.out_dir / "solution.csv",
                   ["t", "Y_mean", "Y_sd", "Z_mean", "bound_check"],
                   _solution_rows(grid, sol.y, sol.z, bound_values=bound))
        cfg.say(f"  y_at_0 = {_fmt(float(sol.y[0]))}")
        cfg.say(f"  bound_margin = {_fmt(sol.bound_margin)}")
        return _finish(cfg, "solved", EXIT_OK)
    # nonzero terminal: no solution; certify and also record the divergence
    # witness carried by the minus-sign companion with the same data
    try:
        solve_affine_plus(problem, grid)
    except NoSolution as exc:
        cfg.say(f"  no_solution_reason = {exc.reason}")
    witness = BsdeProblem(intensity=model, coefficient=coeff,
                          sign=MINUS_LAMBDA_Y, terminal=terminal)
    cert = certify_nonexistence(witness, _parse_schedule(p["schedule"]), grid,
                                scenario_id="affine_plus:minus_form_witness")
    _write_csv(cfg.out_dir / "certificate.csv", ["n", "driver_mass"],
               list(cert.growth_series))
    cfg.say("  representation_argument = terminal value must vanish")
    cfg.say(f"  witness_monotone_divergent = {cert.monotone_divergent}")
    cfg.say(f"  witness_growth_ratio = {_fmt(cert.metadata['ratio'])}")
    if not cert.monotone_divergent:
        return _finish(cfg, "witness_inconclusive", EXIT_NOT_CONVERGED)
    return _finish(cfg, "no_solution_certified_expected", EXIT_OK)


def _run_affine_minus_family(cfg: ScenarioConfig, info: ScenarioInfo) -> int:
    p = cfg.params
    model = IntensityModel.power_gap(p["p"], 1.0)
    grid = make_grid(model, int(p["n_grid"]), mass_cap=p["mass_cap"])
    scenario = FundamentalMinus(model=model, y0_list=_parse_y0_list(p["y0_list"]))
    cert = certify_nonuniqueness(scenario, grid)
    _write_csv(cfg.out_dir / "solution.csv",
               ["member", "t", "Y_mean", "Y_sd", "Z_mean", "bound_check"],
               _member_rows(cert.members))
    _write_csv(cfg.out_dir / "certificate.csv",
               ["member", "y0", "max_residual"],
               [(k, m.y0, r) for k, (m, r) in
                enumerate(zip(cert.members, cert.member_residuals))])
    cfg.say("results:")
    cfg.say(f"  verified_members = {len(cert.members)}")
    for i, j, d in cert.pairwise_sup_distance:
        cfg.say(f"  sup_distance[{i},{j}] = {_fmt(d)}")
    cfg.say(f"  max_member_residual = {_fmt(max(cert.member_residuals))}")
    return _finish(cfg, "non_uniqueness_certified", EXIT_OK)


def _run_ode_trichotomy(cfg: ScenarioConfig, info: ScenarioInfo) -> int:
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
        return _finish(cfg, "diverges", EXIT_OK)
    cfg.say("  classification = converges")
    cfg.say(f"  limit = {_fmt(classification.limit)}")
    scenario = OdeFamilyScenario(model=model, coefficient=coeff,
                                 limit=classification.limit, y0_list=(0.0, 1.0))
    cert = certify_nonuniqueness(scenario, grid)
    _write_csv(cfg.out_dir / "solution.csv",
               ["member", "t", "Y_mean", "Y_sd", "Z_mean", "bound_check"],
               _member_rows(cert.members))
    _write_csv(cfg.out_dir / "certificate.csv",
               ["member", "y0", "max_residual"],
               [(k, m.y0, r) for k, (m, r) in
                enumerate(zip(cert.members, cert.member_residuals))])
    cfg.say(f"  family_members_written = {len(cert.members)}")
    for i, j, d in cert.pairwise_sup_distance:
        cfg.say(f"  sup_distance[{i},{j}] = {_fmt(d)}")
    return _finish(cfg, "converges_with_family", EXIT_OK)


def _run_nonlinear_exp(cfg: ScenarioConfig, info: ScenarioInfo) -> int:
    p = cfg.params
    model = IntensityModel.power_gap(p["p"], 1.0)
    grid = make_grid(model, int(p["n_grid"]), mass_cap=p["mass_cap"])
    coeff = CoefficientProcess.constant(p["phi_value"], 1.0)
    driver = DriverSpec.exp_utility(p["alpha"])
    terminal = TerminalSpec.constant(p["terminal"])
    problem = BsdeProblem(intensity=model, coefficient=coeff,
                          sign="nonlinear_plus", driver=driver, terminal=terminal)
    schedule = _parse_schedule(p["schedule"])
    mode = str(p["mode"])
    bundle = None
    if mode == "mc":
        bundle = simulate_paths(grid, 1, int(p["m_paths"]), cfg.seed,
                                workers=cfg.threads)
    config = SchemeConfig(mode=mode, tol=p["tol"], bundle=bundle,
                          basis=RegressionBasis.polynomial(int(p["basis_degree"])))
    cfg.say("results:")
    try:
        report = run_scheme(problem, grid, schedule, config=config)
    except NoSolution as exc:
        cfg.say(f"  no_solution_reason = {exc}")
        return _finish(cfg, "no_solution_certified", EXIT_NO_SOLUTION)
    final = report.final
    resid = final.diagnostics.get("residual_max", 0.0)
    rows = []
    y2 = np.atleast_2d(final.y)
    for i, t in enumerate(grid.points):
        rows.append((t, float(np.mean(y2[:, i])), float(np.std(y2[:, i])),
                     0.0 if final.z is None else float(np.mean(np.atleast_2d(final.z)[..., min(i, final.z.shape[-1] - 1)])),
                     resid))
    _write_csv(cfg.out_dir / "solution.csv",
               ["t", "Y_mean", "Y_sd", "Z_mean", "residual"], rows)
    _write_csv(cfg.out_dir / "scheme.csv",
               ["n", "Y0", "cauchy_gap", "monotone_violation",
                "lambda_f_integral", "bmo_estimate"],
               [(n,
                 float(np.mean(np.atleast_2d(sol.y)[:, 0])),
                 report.cauchy_gaps[k - 1] if k else "",
                 report.monotone_violation,
                 report.lambda_f_integrals[k],
                 report.bmo_estimate)
                for k, (n, sol) in enumerate(zip(report.schedule, report.solutions))])
    cfg.say(f"  monotone_violation = {_fmt(report.monotone_violation)}")
    cfg.say(f"  bounds_ok = {report.bounds_ok}")
    cfg.say(f"  box_violation = {_fmt(report.box_violation)}")
    cfg.say("  box_excursion_raw = "
            f"{_fmt(max(s.diagnostics['box_excursion_raw'] for s in report.solutions))}")
    cfg.say(f"  cauchy_gaps = {','.join(_fmt(g) for g in report.cauchy_gaps)}")
    cfg.say(f"  final_gap = {_fmt(report.cauchy_gaps[-1])}")
    cfg.say(f"  y_at_0 = {_fmt(float(np.mean(np.atleast_2d(final.y)[:, 0])))}")
    cfg.say(f"  bmo_estimate = {_fmt(report.bmo_estimate)} "
            f"(bound {_fmt(2.0 * grid.horizon ** 2 * coeff.sup_norm ** 2)})")
    cfg.say(f"  lambda_f_integrals = {','.join(_fmt(v) for v in report.lambda_f_integrals)}")
    cfg.say(f"  t_cap = {_fmt(report.t_cap)}")
    cfg.say(f"  envelope = [-(T-t)*{_fmt(report.envelope_bound)}, 0] on (t_cap, T]")
    if not report.converged:
        return _finish(cfg, "not_converged", EXIT_NOT_CONVERGED)
    return _finish(cfg, "converged", EXIT_OK)


RUNNERS = {
    "ek_red": _run_ek_red,
    "affine_plus": _run_affine_plus,
    "affine_minus_family": _run_affine_minus_family,
    "ode_trichotomy": _run_ode_trichotomy,
    "nonlinear_exp": _run_nonlinear_exp,
}


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

_CONFIG_KEY_MAP = {
    ("scenario", "name"): None,            # handled separately
    ("intensity", "p"): "p",
    ("intensity", "gamma"): "gamma",
    ("intensity", "level"): "level",
    ("coefficient", "value"): "phi_value",
    ("coefficient", "c"): "c",
    ("driver", "alpha"): "alpha",
    ("grid", "n"): "n_grid",
    ("grid", "mass_cap"): "mass_cap",
    ("mc", "m_paths"): "m_paths",
    ("mc", "basis_degree"): "basis_degree",
    ("scheme", "schedule"): "schedule",
    ("scheme", "tol"): "tol",
    ("scheme", "mode"): "mode",
    ("run", "terminal"): "terminal",
    ("run", "r"): "r",
    ("run", "sigma"): "sigma",
    ("run", "gamma"): "gamma",
    ("run", "y0_list"): "y0_list",
    ("run", "seed"): "seed",
    ("run", "threads"): "threads",
}

_NUMERIC_KEYS = {"p", "gamma", "level", "phi_value", "c", "alpha", "mass_cap",
                 "tol", "terminal", "r", "sigma"}
_INT_KEYS = {"n_grid", "m_paths", "basis_degree", "seed", "threads"}


def _load_config(path: str):
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    if not read:
        raise ValueError(f"config file {path}: not found or unreadable")
    out = {}
    scenario = None
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) == ("scenario", "name"):
                scenario = raw.strip()
                continue
            mapped = _CONFIG_KEY_MAP.get((section, key))
            if mapped is None:
                raise ValueError(
                    f"config file {path}, section [{section}]: unknown key {key!r}")
            try:
                if mapped in _NUMERIC_KEYS:
                    out[mapped] = float(raw)
                elif mapped in _INT_KEYS:
                    out[mapped] = int(raw)
                else:
                    out[mapped] = raw.strip()
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
        for info in SCENARIOS.values():
            defaults = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(info.defaults.items()))
            stream.write(f"{info.name}\n  claim: {info.claim}\n  defaults: {defaults}\n")
        return EXIT_OK
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(["name", "claim", "defaults"])
        for info in SCENARIOS.values():
            defaults = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(info.defaults.items()))
            writer.writerow([info.name, info.claim, defaults])
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
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in params and key not in ("seed", "threads"):
            sys.stderr.write(f"scenario {name!r} does not take parameter {key!r}\n")
            return EXIT_USAGE
        params[key] = value
    seed = int(params.pop("seed", seed))
    threads = int(params.pop("threads", threads))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = ScenarioConfig(scenario=name, params=params, out_dir=out,
                         seed=seed, threads=threads)
    _report_header(cfg, info)
    try:
        return RUNNERS[name](cfg, info)
    except (LabError, ValueError) as exc:
        cfg.say(f"error: {exc}")
        return _finish(cfg, "failed", EXIT_USAGE)


def main(argv=None) -> int:
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
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=None)
    for flag, typ in [("alpha", float), ("c", float), ("p", float),
                      ("gamma", float), ("r", float), ("sigma", float),
                      ("terminal", float), ("phi-value", float),
                      ("mass-cap", float), ("tol", float),
                      ("n-grid", int), ("m-paths", int), ("basis-degree", int)]:
        p_run.add_argument(f"--{flag}", type=typ, default=None)
    p_run.add_argument("--y0-list", default=None)
    p_run.add_argument("--schedule", default=None)
    p_run.add_argument("--mode", default=None, choices=["ode", "mc"])

    args = parser.parse_args(argv)
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
    for key in ["alpha", "c", "p", "gamma", "r", "sigma", "terminal",
                "phi_value", "mass_cap", "tol", "n_grid", "m_paths",
                "basis_degree", "y0_list", "schedule", "mode", "seed", "threads"]:
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value

    out_dir = args.out or f"runs/{scenario}"
    seed = overrides.pop("seed", 1)
    threads = overrides.pop("threads", 1)
    return run_scenario(scenario, overrides, out_dir, seed=seed, threads=threads)


if __name__ == "__main__":
    raise SystemExit(main())
