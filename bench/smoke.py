"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

1. Runs every workload at its tiny size, untraced and traced, and asserts that
   the last output line is the result object, that the runs were correct, and
   that every metric BENCHMARK.json names is printed with its unit.
2. Runs each checked scenario once at tiny size and asserts that its check
   passes with the true references and fails with a deliberately wrong one.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from run import load_metric_units, worker_env  # noqa: E402


def check_printed_metrics(units: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert out.returncode == 0, f"{name} trace {trace}: exit {out.returncode}\n{out.stderr}"
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{name} trace {trace}: {out.stdout}"
            for metric, unit in units[kind].items():
                assert result["metrics"][metric]["unit"] == unit, (name, metric)
                assert isinstance(result["metrics"][metric]["value"], (int, float)), metric
                assert any(line.startswith(f"# {metric} = ") and line.endswith(f" {unit}")
                           for line in lines), f"{name}: {metric} not printed with {unit}"
            assert set(result["metrics"]) == set(units[kind]), set(result["metrics"])
            print(f"smoke: {name} trace {trace}: {len(result['metrics'])} metrics printed")


def _wrong_reference(inv, ref: dict) -> dict:
    """A copy of ``ref`` with the reference value that ``inv``'s check reads made wrong."""
    wrong = copy.deepcopy(ref)
    if inv.check == "affine_plus":
        wrong["affine_plus_y_at_0"] = 0.5
    elif inv.check == "witness":
        wrong["witness_growth_ratio_min"] = 1e6
    elif inv.check == "family":
        wrong["family_sup_distances"][inv.scenario] = tuple(
            d + 0.5 for d in ref["family_sup_distances"][inv.scenario])
    elif inv.check == "trichotomy":
        wrong["trichotomy_limit"] = ref["trichotomy_limit"] + 1.0
    elif inv.check == "scheme_ode":
        wrong["ode_monotone_slack"] = -1.0
    elif inv.check == "scheme_mc":
        wrong["mc_ode_y_at_0"] = ref["mc_ode_y_at_0"] + 1e-6
    else:
        raise AssertionError(f"no wrong reference for check {inv.check!r}")
    return wrong


def check_checks_can_fail() -> None:
    sys.path.insert(0, worker_env()["PYTHONPATH"])
    from bsdelab.cli import run_scenario

    work = ROOT / ".bench_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    runs = workloads.WORKLOADS["certify_suite"].runs(tiny=True, threads=1) \
        + workloads.WORKLOADS["mc_scheme"].runs(tiny=True, threads=1)
    try:
        for inv in runs:
            ref = copy.deepcopy(workloads.REFERENCE)
            if inv.check == "scheme_mc":
                ode = workloads.ode_reference(inv)
                run_scenario(ode.scenario, dict(ode.overrides), work / ode.label)
                ref["mc_ode_y_at_0"] = float(
                    workloads.read_report(work / ode.label)["y_at_0"])
            out_dir = work / inv.label
            rc = run_scenario(inv.scenario, dict(inv.overrides), out_dir, seed=7)
            problems, _ = workloads.check_run(inv, rc, out_dir, ref)
            assert not problems, f"{inv.label} fails with the true references: {problems}"
            problems, _ = workloads.check_run(inv, rc, out_dir, _wrong_reference(inv, ref))
            assert problems, f"{inv.label} passes with a wrong reference"
            print(f"smoke: {inv.label}: check passes, and fails with a wrong reference")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    check_printed_metrics(load_metric_units())
    check_checks_can_fail()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
