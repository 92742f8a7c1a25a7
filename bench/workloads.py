"""Workloads of the bsdelab benchmark and the checks that every run's outputs pass.

A workload is a list of CLI scenario invocations run back to back by one
client in one process (a closed loop).  Each invocation names the check its
outputs must pass; the checks read ``report.txt`` and the CSVs the scenario
wrote, compare the headline numbers with the references below, and return the
list of problems found (empty when the run is correct) with the headline
numbers themselves.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

# Reference values and tolerances of the output checks.  ``smoke.py`` swaps one
# of them for a wrong value to show that the checks can fail.
REFERENCE = {
    # affine_plus at terminal 0: y(0) = -(T - t) * phi / 2 = -0.5 in closed form
    "affine_plus_y_at_0": -0.5,
    "affine_plus_y_at_0_tol": 1e-9,
    # affine_plus --terminal 1: the minus-form witness series must diverge
    "witness_growth_ratio_min": 10.0,
    # non-uniqueness families: pairwise sup distances (y0 differences) and the
    # member residual tolerances of the scenarios (EkRed.tol, FundamentalMinus.tol,
    # OdeFamilyScenario.tol)
    "family_sup_distances": {"ek_red": (1.0,), "affine_minus_family": (1.0, 3.0, 2.0),
                             "ode_trichotomy": (1.0,)},
    "family_sup_distance_tol": 1e-6,
    "family_residual_tol": {"ek_red": 1e-6, "affine_minus_family": 1e-8,
                            "ode_trichotomy": 1e-8},
    # ode_trichotomy: the prefix limit equals c (default 2.0)
    "trichotomy_limit": 2.0,
    "trichotomy_limit_tol": 1e-6,
    # ODE-mode truncation levels are exactly monotone (acceptance criterion 7)
    "ode_monotone_slack": 1e-10,
    # with a constant coefficient every regression is exact, so the MC y(0)
    # equals the ODE-mode y(0) on the same grid and schedule for any seed
    "mc_vs_ode_tol": 1e-9,
}

MC_WIDE_PARAMS = {"mode": "mc", "m_paths": 200000, "n_grid": 21,
                  "schedule": "2,4", "tol": 0.1}


@dataclass(frozen=True)
class Invocation:
    """One ``run_scenario`` call and the check its outputs must pass."""

    label: str
    scenario: str
    overrides: dict
    status: str                  # expected ``status:`` line of report.txt
    check: str                   # key of CHECKS
    threads: int = 1


@dataclass(frozen=True)
class Workload:
    invocations: tuple
    # reduced sizes for the smoke test; same scenarios, same checks
    tiny_overrides: dict = field(default_factory=dict)
    # compare the CSVs of --threads 1 and --threads 2 at this reduced size
    thread_invariance: dict = field(default_factory=dict)

    def runs(self, tiny: bool, threads: int) -> list:
        """The invocations at full or tiny size, with ``threads`` where > 1 is asked."""
        out = []
        for inv in self.invocations:
            overrides = dict(inv.overrides)
            if tiny:
                overrides.update(self.tiny_overrides.get(inv.label, {}))
            out.append(Invocation(inv.label, inv.scenario, overrides, inv.status,
                                  inv.check, threads if inv.threads > 1 else 1))
        return out


WORKLOADS = {
    "mc_scheme": Workload(
        invocations=(Invocation("nonlinear_exp_mc", "nonlinear_exp", {"mode": "mc"},
                                "converged", "scheme_mc"),),
        tiny_overrides={"nonlinear_exp_mc": {"m_paths": 2000, "n_grid": 41,
                                             "schedule": "2,4", "tol": 0.1}},
    ),
    "mc_wide": Workload(
        invocations=(Invocation("nonlinear_exp_mc_wide", "nonlinear_exp",
                                MC_WIDE_PARAMS, "converged", "scheme_mc", threads=2),),
        tiny_overrides={"nonlinear_exp_mc_wide": {"m_paths": 4000}},
        thread_invariance=dict(MC_WIDE_PARAMS, m_paths=10000),
    ),
    "certify_suite": Workload(
        invocations=(
            Invocation("ek_red", "ek_red", {}, "non_uniqueness_certified", "family"),
            Invocation("affine_plus", "affine_plus", {}, "solved", "affine_plus"),
            Invocation("affine_plus_terminal_1", "affine_plus", {"terminal": 1.0},
                       "no_solution_certified_expected", "witness"),
            Invocation("affine_minus_family", "affine_minus_family", {},
                       "non_uniqueness_certified", "family"),
            Invocation("ode_trichotomy", "ode_trichotomy", {},
                       "converges_with_family", "trichotomy"),
            Invocation("nonlinear_exp_ode", "nonlinear_exp", {}, "converged", "scheme_ode"),
        ),
        tiny_overrides={"ek_red": {"n_grid": 1001}},
    ),
}


# ---------------------------------------------------------------------------
# Reading the outputs
# ---------------------------------------------------------------------------

def read_report(out_dir: Path) -> dict:
    """``key = value`` lines of report.txt (stripped), plus ``status`` and ``exit_code``."""
    fields = {}
    for line in (out_dir / "report.txt").read_text().splitlines():
        if line.startswith("  ") and " = " in line:
            key, value = line.strip().split(" = ", 1)
            fields[key] = value
        elif line.startswith(("status: ", "exit_code: ")):
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields


def _number(fields: dict, key: str, problems: list) -> float:
    try:
        return float(fields[key].split()[0])
    except (KeyError, ValueError, IndexError):
        problems.append(f"report has no number {key!r}")
        return math.nan


def _close(name, value, expected, tol, problems) -> None:
    if not abs(value - expected) <= tol:
        problems.append(f"{name} = {value!r}, expected {expected!r} within {tol:g}")


def _check_affine_plus(inv, fields, out_dir, ref, problems, headline):
    y0 = headline["y_at_0"] = _number(fields, "y_at_0", problems)
    _close("y_at_0", y0, ref["affine_plus_y_at_0"], ref["affine_plus_y_at_0_tol"], problems)


def _check_witness(inv, fields, out_dir, ref, problems, headline):
    divergent = headline["witness_monotone_divergent"] = fields.get("witness_monotone_divergent")
    if divergent != "True":
        problems.append(f"witness_monotone_divergent = {divergent!r}, expected True")
    ratio = headline["witness_growth_ratio"] = _number(fields, "witness_growth_ratio", problems)
    if not ratio > ref["witness_growth_ratio_min"]:
        problems.append(f"witness_growth_ratio = {ratio!r}, expected > "
                        f"{ref['witness_growth_ratio_min']!r}")


def _check_family(inv, fields, out_dir, ref, problems, headline):
    distances = [float(v) for k, v in fields.items() if k.startswith("sup_distance[")]
    headline["sup_distances"] = distances
    expected = ref["family_sup_distances"][inv.scenario]
    if len(distances) != len(expected):
        problems.append(f"{len(distances)} sup distances, expected {len(expected)}")
    for got, want in zip(distances, expected):
        _close("sup_distance", got, want, ref["family_sup_distance_tol"], problems)
    with open(out_dir / "certificate.csv", newline="") as fh:
        residuals = [float(row["max_residual"]) for row in csv.DictReader(fh)]
    headline["max_member_residual"] = max(residuals, default=math.nan)
    tol = ref["family_residual_tol"][inv.scenario]
    if not residuals or not max(residuals) <= tol:
        problems.append(f"member residuals {residuals!r} exceed {tol:g}")


def _check_trichotomy(inv, fields, out_dir, ref, problems, headline):
    limit = headline["limit"] = _number(fields, "limit", problems)
    _close("limit", limit, ref["trichotomy_limit"], ref["trichotomy_limit_tol"], problems)
    _check_family(inv, fields, out_dir, ref, problems, headline)


def _check_scheme(fields, problems, headline):
    headline["y_at_0"] = _number(fields, "y_at_0", problems)
    headline["final_gap"] = _number(fields, "final_gap", problems)
    if fields.get("bounds_ok") != "True":
        problems.append(f"bounds_ok = {fields.get('bounds_ok')!r}, expected True")
    raw = fields.get("bmo_estimate", "")
    bmo = headline["bmo_estimate"] = _number(fields, "bmo_estimate", problems)
    bound = float(raw.split("(bound ")[1].rstrip(")")) if "(bound " in raw else math.nan
    headline["bmo_bound"] = bound
    if not bmo <= bound:
        problems.append(f"bmo_estimate = {bmo!r} exceeds its bound {bound!r}")


def _check_scheme_ode(inv, fields, out_dir, ref, problems, headline):
    _check_scheme(fields, problems, headline)
    mono = headline["monotone_violation"] = _number(fields, "monotone_violation", problems)
    if not mono <= ref["ode_monotone_slack"]:
        problems.append(f"monotone_violation = {mono!r} in ODE mode")


def _check_scheme_mc(inv, fields, out_dir, ref, problems, headline):
    _check_scheme(fields, problems, headline)
    _close("MC y_at_0 vs ODE mode", headline["y_at_0"], ref["mc_ode_y_at_0"],
           ref["mc_vs_ode_tol"], problems)


CHECKS = {
    "affine_plus": _check_affine_plus,
    "witness": _check_witness,
    "family": _check_family,
    "trichotomy": _check_trichotomy,
    "scheme_ode": _check_scheme_ode,
    "scheme_mc": _check_scheme_mc,
}


def check_run(inv: Invocation, rc: int, out_dir: Path, ref: dict) -> tuple:
    """Return (problems, headline numbers) for one finished scenario run."""
    problems, headline = [], {}
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if not (out_dir / "report.txt").is_file():
        return problems + ["no report.txt written"], headline
    fields = read_report(out_dir)
    if fields.get("status") != inv.status:
        problems.append(f"status {fields.get('status')!r}, expected {inv.status!r}")
    try:
        CHECKS[inv.check](inv, fields, out_dir, ref, problems, headline)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return problems, headline


def ode_reference(inv: Invocation) -> Invocation:
    """The ODE-mode run on the grid and schedule of an MC invocation."""
    overrides = {k: v for k, v in inv.overrides.items() if k not in ("m_paths", "basis_degree")}
    overrides["mode"] = "ode"
    return Invocation(inv.label + "_ode_reference", inv.scenario, overrides,
                      inv.status, "scheme_ode")
