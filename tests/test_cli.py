import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsdelab import cli

import stored_scheme_reference


def run(args):
    return cli.main(args)


class TestList:
    def test_five_builtins(self, capsys):
        assert run(["list"]) == 0
        out = capsys.readouterr().out
        for name in ["ek_red", "affine_plus", "affine_minus_family",
                     "ode_trichotomy", "nonlinear_exp"]:
            assert name in out

    def test_csv_format(self, capsys):
        assert run(["list", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["name", "claim", "defaults"]
        assert len(rows) == 6

    def test_unknown_format(self):
        assert run(["list", "--format", "xml"]) == 1

    def test_closed_pipe_exits_quietly(self):
        # the reader is gone before the first write, as with `bsdelab list | head -1`
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-m", "bsdelab.cli", "list"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.stderr.close()
            proc.kill()
        assert err == b""
        assert code == cli.EXIT_OK


def test_import_leaves_quadrature_unloaded():
    # scipy.integrate takes most of the import time; the package never loads it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, bsdelab.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


class TestRunScenarios:
    def test_unknown_scenario(self, tmp_path):
        assert run(["run", "bogus", "--out", str(tmp_path)]) == 1

    def test_ode_trichotomy(self, tmp_path):
        out = tmp_path / "ode"
        assert run(["run", "ode_trichotomy", "--c", "2", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "classification = converges" in report
        assert "limit = 2.0" in report or "limit = 1.999999999" in report
        members = {row["member"] for row in
                   csv.DictReader(open(out / "solution.csv"))}
        assert members == {"0", "1"}

    @pytest.mark.parametrize("p,residual", [("0.7", "1.043e-04"), ("0.5", "3.936e-04")])
    def test_ode_trichotomy_classifies_once_at_its_tolerance(self, tmp_path, p, residual):
        # the family is certified at --tol, the classification the report prints;
        # the member check then fails on the trapezoid's residual
        out = tmp_path / "ode"
        assert run(["run", "ode_trichotomy", "--p", p, "--tol", "1e-3",
                    "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "classification = converges" in report
        assert "diverges" not in report
        assert report.endswith(f"error: member y0=0.0 fails verification: residual "
                               f"{residual} > 1.0e-08\nstatus: failed\nexit_code: 1\n")

    def test_ode_trichotomy_classifies_once_per_run(self, tmp_path, monkeypatch):
        import bsdelab.affine
        import bsdelab.diagnostics

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        classify = bsdelab.affine.classify_ode
        monkeypatch.setattr(bsdelab.affine, "classify_ode", counted)
        # the family certificate takes the run's classification, and classifies nothing
        monkeypatch.setattr(bsdelab.diagnostics, "classify_ode", counted, raising=False)
        assert run(["run", "ode_trichotomy", "--out", str(tmp_path / "ode")]) == 0
        assert len(calls) == 1

    def test_affine_plus_solves(self, tmp_path):
        out = tmp_path / "ap"
        assert run(["run", "affine_plus", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "solution.csv")))
        y0 = float(rows[0]["Y_mean"])
        assert abs(y0 + 0.5) < 1e-8
        assert all(float(r["bound_check"]) >= -1e-12 for r in rows)

    def test_affine_plus_nonzero_terminal_expected_nonexistence(self, tmp_path):
        out = tmp_path / "ap1"
        assert run(["run", "affine_plus", "--terminal", "1", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "no_solution_reason = terminal value must vanish" in report
        assert "witness_monotone_divergent = True" in report
        series = [float(r["driver_mass"]) for r in
                  csv.DictReader(open(out / "certificate.csv"))]
        assert len(series) == 4
        assert series[-1] / series[0] >= 10.0

    @pytest.mark.parametrize("p", ["0.5", "1", "2", "3", "4"])
    def test_affine_plus_witness_certified_across_p(self, tmp_path, p):
        # for p > 1 the last segment has dt lam(t_cap) = p; the witness splits it
        out = tmp_path / "ap1"
        assert run(["run", "affine_plus", "--terminal", "1", "--p", p,
                    "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "witness_monotone_divergent = True" in report
        assert "status: no_solution_certified_expected" in report

    @pytest.mark.parametrize("p", ["2", "3", "4"])
    @pytest.mark.parametrize("n_grid", ["3", "9"])
    def test_affine_plus_witness_certified_on_coarse_grids(self, tmp_path, p, n_grid):
        # regular segments of these grids have dt lam(t_i+1) > 1 too; the
        # witness splits every segment, not only the last one
        out = tmp_path / "ap1"
        assert run(["run", "affine_plus", "--terminal", "1", "--p", p,
                    "--n-grid", n_grid, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "witness_monotone_divergent = True" in report
        assert "status: no_solution_certified_expected" in report

    def test_affine_plus_one_level_witness_exits_1(self, tmp_path):
        out = tmp_path / "ap1"
        assert run(["run", "affine_plus", "--terminal", "1", "--schedule", "4",
                    "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "at least two levels" in report
        assert "status: failed" in report

    @pytest.mark.parametrize("schedule,error", [
        ("4", "schedule must be increasing with at least two levels"),
        ("16,4", "schedule must be increasing with at least two levels"),
        ("nan", "truncation levels must be finite and positive"),
    ])
    def test_affine_plus_witness_schedule_checked_as_the_scheme_checks(
            self, tmp_path, schedule, error):
        out = tmp_path / "ap1"
        assert run(["run", "affine_plus", "--terminal", "1", "--schedule", schedule,
                    "--out", str(out)]) == 1
        assert (out / "report.txt").read_text().endswith(
            f"error: {error}\nstatus: failed\nexit_code: 1\n")

    @pytest.mark.parametrize("schedule", ["2,3", "100,101"])
    def test_affine_plus_weak_witness_is_inconclusive(self, tmp_path, schedule):
        out = tmp_path / "ap1"
        assert run(["run", "affine_plus", "--terminal", "1", "--schedule", schedule,
                    "--out", str(out)]) == 2
        report = (out / "report.txt").read_text()
        assert "witness_monotone_divergent = False" in report
        assert "status: witness_inconclusive" in report
        assert "no_solution_certified_expected" not in report

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_affine_plus_non_monotone_step_fails(self, tmp_path):
        # on the last segment dt * lam(t_cap) = p = 1: the minus-form step is singular
        out = tmp_path / "ap1"
        assert run(["run", "affine_plus", "--terminal", "1", "--mass-cap", "0.5",
                    "--n-grid", "9", "--schedule", "2,4", "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "implicit step not monotone" in report
        assert "status: failed" in report

    def test_nonlinear_exp_converges(self, tmp_path):
        out = tmp_path / "nl"
        assert run(["run", "nonlinear_exp", "--alpha", "1", "--tol", "0.01",
                    "--schedule", "2,4,8,16,32,64", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "monotone_violation = 0.0" in report
        assert "bounds_ok = True" in report
        assert "status: converged" in report
        rows = list(csv.DictReader(open(out / "scheme.csv")))
        assert [r["n"] for r in rows] == ["2.0", "4.0", "8.0", "16.0", "32.0", "64.0"]

    @pytest.mark.parametrize("args,fallbacks", [([], 0), (["--alpha", "5", "--n-grid", "15"], 1)])
    def test_nonlinear_exp_reports_theta_and_fallbacks(self, tmp_path, args, fallbacks):
        out = tmp_path / "nl"
        assert run(["run", "nonlinear_exp", *args, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert (f"results:\n  theta = 0.5\n  theta_fallback_segments = {fallbacks}\n"
                in report)

    def test_nonlinear_exp_nonzero_terminal_exits_3(self, tmp_path):
        out = tmp_path / "nl3"
        assert run(["run", "nonlinear_exp", "--terminal", "1",
                    "--out", str(out)]) == 3
        assert "no_solution" in (out / "report.txt").read_text()

    def test_nonlinear_exp_not_converged_exits_2(self, tmp_path):
        out = tmp_path / "nl2"
        code = run(["run", "nonlinear_exp", "--schedule", "2,4",
                    "--tol", "1e-9", "--n-grid", "61", "--out", str(out)])
        assert code == 2
        assert "status: not_converged" in (out / "report.txt").read_text()

    def test_affine_minus_family(self, tmp_path):
        out = tmp_path / "fam"
        assert run(["run", "affine_minus_family", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "certificate.csv")))
        assert len(rows) == 3
        assert all(float(r["max_residual"]) <= 1e-8 for r in rows)

    def test_ek_red(self, tmp_path):
        out = tmp_path / "ek"
        assert run(["run", "ek_red", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "verified_members = 2" in report


class TestConfigFile:
    def test_config_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[scenario]\nname = nonlinear_exp\n"
            "[driver]\nalpha = 2.0\n"
            "[grid]\nn = 61\n"
            "[scheme]\nschedule = 2,4,8\ntol = 0.1\n")
        out = tmp_path / "from_cfg"
        assert run(["run", "nonlinear_exp", "--config", str(cfg),
                    "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "alpha = 2.0" in report
        assert "n_grid = 61" in report

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[driver]\nalpha = 2.0\n[grid]\nn = 61\n"
                       "[scheme]\nschedule = 2,4\ntol = 0.5\n")
        out = tmp_path / "ovr"
        assert run(["run", "nonlinear_exp", "--config", str(cfg),
                    "--alpha", "0.5", "--out", str(out)]) == 0
        assert "alpha = 0.5" in (out / "report.txt").read_text()

    def test_unknown_key_is_precise(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[grid]\nwhatever = 3\n")
        assert run(["run", "nonlinear_exp", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "section [grid]" in err and "whatever" in err

    def test_unparseable_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.ini"
        cfg.write_text("[grid]\nn = notanint\n")
        assert run(["run", "nonlinear_exp", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 1
        assert "notanint" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["run", "nonlinear_exp", "--config",
                    str(tmp_path / "nope.ini"), "--out", str(tmp_path / "x")]) == 1


class TestReproducibility:
    def test_deterministic_scenario_bytes(self, tmp_path):
        outs = []
        for k in (1, 2):
            out = tmp_path / f"d{k}"
            assert run(["run", "affine_minus_family", "--out", str(out)]) == 0
            outs.append((out / "solution.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("threads", [4, 8])
    def test_mc_bytes_across_workers(self, tmp_path, threads):
        args = ["run", "nonlinear_exp", "--mode", "mc", "--m-paths", "2000",
                "--n-grid", "41", "--schedule", "4,16", "--tol", "0.5",
                "--seed", "5"]
        base = tmp_path / "w1"
        assert run(args + ["--threads", "1", "--out", str(base)]) == 0
        other = tmp_path / f"w{threads}"
        assert run(args + ["--threads", str(threads), "--out", str(other)]) == 0
        assert (base / "solution.csv").read_bytes() == (other / "solution.csv").read_bytes()
        assert (base / "scheme.csv").read_bytes() == (other / "scheme.csv").read_bytes()


class TestDefaultRuntime:
    @pytest.mark.parametrize("scenario", ["ek_red", "affine_plus",
                                          "affine_minus_family",
                                          "ode_trichotomy", "nonlinear_exp"])
    def test_default_configuration_under_budget(self, tmp_path, scenario):
        import time
        started = time.perf_counter()
        assert run(["run", scenario, "--out", str(tmp_path / scenario)]) == 0
        assert time.perf_counter() - started < 120.0


class TestFromConfig:
    def test_scenario_named_in_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scenario]\nname = ode_trichotomy\n"
                       "[coefficient]\nc = 2.0\n")
        out = tmp_path / "fc"
        assert run(["run", "from-config", "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert "scenario: ode_trichotomy" in (out / "report.txt").read_text()

    def test_syntax_error_reported(self, tmp_path, capsys):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("this is not an ini file\n")
        assert run(["run", "nonlinear_exp", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 1
        assert "broken.ini" in capsys.readouterr().err


class TestBadParameters:
    @pytest.mark.parametrize("args", [["affine_plus", "--p", "-1"],
                                      ["nonlinear_exp", "--n-grid", "1"]])
    def test_value_error_exits_1_with_report(self, tmp_path, args):
        out = tmp_path / "bad"
        assert run(["run", *args, "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "status: failed" in report
        assert "exit_code: 1" in report
        assert "error: " in report


    @pytest.mark.parametrize("args,error", [
        (["affine_plus", "--phi-value", "nan"],
         "error: representation values exceed the a-priori bound by nan"),
        (["ode_trichotomy", "--c", "nan"], "error: prefix integral is nan"),
        (["ode_trichotomy", "--c", "inf"], "error: prefix integral is inf"),
        (["ode_trichotomy", "--tol", "nan"], "error: tolerance must be nonnegative"),
        (["affine_plus", "--p", "nan"], "error: power_gap requires p > 0"),
        (["affine_plus", "--mass-cap", "nan"], "error: mass_cap must be positive"),
        (["ek_red", "--gamma", "nan"], "error: exp_gap requires gamma > 0"),
        (["nonlinear_exp", "--alpha", "nan"], "error: alpha must be positive"),
        (["nonlinear_exp", "--tol", "nan", "--n-grid", "41", "--schedule", "2,4"],
         "error: tolerance must be nonnegative"),
        (["nonlinear_exp", "--terminal", "nan"], "error: terminal value must be finite"),
        (["affine_plus", "--terminal", "nan"], "error: terminal value must be finite"),
        (["affine_minus_family", "--y0-list", "nan,1"],
         "error: y0_list entries must be finite"),
        (["ek_red", "--y0-list", "inf,1"], "error: y0_list entries must be finite"),
        (["nonlinear_exp", "--schedule", "2,nan", "--n-grid", "21"],
         "error: truncation levels must be finite and positive"),
        (["affine_plus", "--terminal", "1", "--schedule", "4,nan"],
         "error: truncation levels must be finite and positive"),
    ])
    def test_nan_input_exits_1_with_report(self, tmp_path, args, error):
        out = tmp_path / "nan"
        assert run(["run", *args, "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert error in report
        assert report.endswith("status: failed\nexit_code: 1\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_1_with_report(self, tmp_path, source, threads):
        out = tmp_path / "threads"
        args = ["run", "nonlinear_exp", "--mode", "mc", "--m-paths", "50", "--n-grid", "9"]
        if source == "flag":
            args += ["--threads", threads]
        else:
            cfg = tmp_path / "threads.ini"
            cfg.write_text(f"[run]\nthreads = {threads}\n")
            args += ["--config", str(cfg)]
        assert run(args + ["--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert f"  threads = {threads}\n" in report
        assert f"error: threads must be at least 1, got {threads}" in report
        assert report.endswith("status: failed\nexit_code: 1\n")


class TestBoxExcursion:
    def test_mc_report_prints_raw_excursion(self, tmp_path):
        out = tmp_path / "mc"
        assert run(["run", "nonlinear_exp", "--mode", "mc", "--m-paths", "2000",
                    "--n-grid", "41", "--schedule", "4,16", "--tol", "0.5",
                    "--out", str(out)]) == 0
        fields = dict(line.strip().split(" = ", 1)
                      for line in (out / "report.txt").read_text().splitlines()
                      if " = " in line)
        assert float(fields["box_excursion_raw"]) >= float(fields["box_violation"])


class TestBmoBasis:
    def test_mc_bmo_uses_the_basis_degree(self, tmp_path):
        import bsdelab as bl

        out = tmp_path / "deg5"
        assert run(["run", "nonlinear_exp", "--mode", "mc", "--basis-degree", "5",
                    "--m-paths", "4000", "--n-grid", "41", "--schedule", "4,16,64",
                    "--tol", "0.5", "--seed", "11", "--out", str(out)]) == 0
        fields = dict(line.strip().split(" = ", 1)
                      for line in (out / "report.txt").read_text().splitlines()
                      if " = " in line)
        reported = float(fields["bmo_estimate"].split()[0])
        model = bl.IntensityModel.power_gap(1.0, 1.0)
        grid = bl.level_grid(model, 41, 64.0)       # the CLI's grid for this schedule
        bundle = bl.simulate_paths(grid, 1, 4000, 11)
        prob = bl.BsdeProblem(intensity=model,
                              coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                              sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))
        clipped = bl.truncate(prob.driver, 1.0, 1.0)
        quintic = bl.RegressionBasis.polynomial(5)
        # the CLI's run_scheme steps at the scheme's theta, and so does the reference
        top = stored_scheme_reference.scheme_sweep(prob, grid, [4.0, 16.0, 64.0],
                                                   bundle=bundle, basis=quintic,
                                                   driver_override=clipped)[-1]
        assert reported == bl.estimate_bmo(top, bundle, basis=quintic).value
        assert reported != bl.estimate_bmo(top, bundle).value     # the cubic's


class TestSeedDomain:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_1(self, tmp_path, seed):
        out = tmp_path / "seed"
        assert run(["run", "nonlinear_exp", "--mode", "mc", "--m-paths", "50",
                    "--n-grid", "9", "--seed", seed, "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "status: failed" in report
        assert "seed must lie in [0, 2^64)" in report


def _run_fresh(args, out):
    """``bsdelab run`` in a new interpreter: its exit code, report and stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bsdelab.cli", "run", *args,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, (out / "report.txt").read_text(), proc.stderr


@pytest.mark.parametrize("source", ["flag", "config"])
def test_parameter_not_taken_writes_a_failed_report(tmp_path, source):
    args = ["nonlinear_exp", "--mass-cap", "12"]
    if source == "config":
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[grid]\nmass_cap = 12.0\n")
        args = ["nonlinear_exp", "--config", str(cfg)]
    code, report, err = _run_fresh(args, tmp_path / "not_taken")
    assert code == 1
    assert report.endswith("error: scenario 'nonlinear_exp' does not take parameter "
                           "'mass_cap'\nstatus: failed\nexit_code: 1\n")
    assert err == ""


def test_large_alpha_passes_the_flag_sample_quietly(tmp_path):
    # exp(-72 x) overflowed on the old sample interval [-10, 10]
    code, report, err = _run_fresh(["nonlinear_exp", "--alpha", "72"], tmp_path / "alpha")
    assert code == 0
    assert "status: converged\n" in report
    assert err == ""


@pytest.mark.parametrize("args,error", [
    (["affine_plus", "--terminal", "1e300", "--p", "3"],
     "implicit step: no sign change found for bisection"),
    (["nonlinear_exp", "--alpha", "700"], "declared driver flags fail the sample check"),
    (["nonlinear_exp", "--alpha", "800"], "declared driver flags fail the sample check"),
])
def test_overflow_the_numerics_handle_exits_1_quietly(tmp_path, args, error):
    # the Newton residual overflows into bisection, the driver's flag sample
    # overflows into NaN: each is the error it reports, with no numpy warning
    code, report, err = _run_fresh(args, tmp_path / "overflow")
    assert code == 1
    assert report.endswith(f"error: {error}\nstatus: failed\nexit_code: 1\n")
    assert err == ""


class TestRejectedBeforeTheNumerics:
    # each used to reach the numerics: RuntimeWarnings on stderr and an error
    # about colliding grid nodes, failed flag samples or a nan bound
    @pytest.mark.parametrize("args,named", [
        (["affine_plus", "--mass-cap", "inf"], "mass_cap must be positive and finite"),
        (["nonlinear_exp", "--p", "inf"], "power_gap requires p > 0 and horizon > 0, both finite"),
        (["ek_red", "--gamma", "inf"], "exp_gap requires gamma > 0 and horizon > 0, both finite"),
        (["nonlinear_exp", "--alpha", "inf"], "alpha must be positive and finite"),
        (["nonlinear_exp", "--phi-value", "inf"], "coefficient value phi must not be infinite"),
        (["affine_plus", "--phi-value", "inf"], "coefficient value phi must not be infinite"),
        (["affine_plus", "--phi-value=-inf"], "coefficient value phi must not be infinite"),
        (["affine_plus", "--phi-value", "-inf"], "coefficient value phi must not be infinite"),
        (["ek_red", "--r", "inf"], "ek_red slopes must be finite, got r = inf, sigma = 0.2"),
        (["ek_red", "--sigma", "-inf"],
         "ek_red slopes must be finite, got r = 0.05, sigma = -inf"),
        (["ek_red", "--r", "nan"], "ek_red slopes must be finite, got r = nan"),
    ])
    def test_infinite_parameter_exits_1_quietly(self, tmp_path, args, named):
        code, report, err = _run_fresh(args, tmp_path / "inf")
        assert code == 1
        assert f"error: {named}" in report
        assert report.endswith("status: failed\nexit_code: 1\n")
        assert err == ""

    @pytest.mark.parametrize("flag,value", [("--terminal", "-1e-300"), ("--phi-value", "-inf"),
                                            ("--mass-cap", "-1e3")])
    def test_dash_value_reaches_the_checks_in_both_spellings(self, tmp_path, flag, value):
        # argparse reads "-1e-300" or "-inf" after a flag as an option of its own
        spaced = _run_fresh(["affine_plus", flag, value], tmp_path / "spaced")
        joined = _run_fresh(["affine_plus", f"{flag}={value}"], tmp_path / "joined")
        assert spaced == joined
        assert f"  {flag[2:].replace('-', '_')} = {float(value)!r}\n" in spaced[1]
        assert spaced[2] == ""

    @pytest.mark.parametrize("args", [["ek_red", "--seed", "-1"],
                                      ["nonlinear_exp", "--seed", "-1"],
                                      ["affine_plus", "--seed", str(2**64)]])
    def test_out_of_range_seed_exits_1_in_every_scenario(self, tmp_path, args):
        code, report, err = _run_fresh(args, tmp_path / "seed")
        assert code == 1
        assert f"error: seed must lie in [0, 2^64), got {args[-1]}" in report
        assert report.endswith("status: failed\nexit_code: 1\n")
        assert err == ""


class TestCliNeverCrashes:
    @settings(max_examples=40, deadline=None)
    @given(scenario=st.sampled_from(sorted(cli.SCENARIOS)),
           p=st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
           n_grid=st.sampled_from([0, 1, 2, 9]),
           m_paths=st.sampled_from([0, 1, 50]),
           mode=st.sampled_from(["ode", "mc"]),
           threads=st.sampled_from([0, 1, 2]),
           seed=st.sampled_from([-1, 0, 2**64 - 1]))
    def test_exit_code_documented_and_report_written(self, scenario, p, n_grid,
                                                     m_paths, mode, threads, seed):
        takes = cli.SCENARIOS[scenario].defaults
        args = ["run", scenario, "--threads", str(threads), "--seed", str(seed)]
        for key, value in [("p", p), ("n_grid", n_grid), ("m_paths", m_paths),
                           ("mode", mode)]:
            if key in takes:
                args += [f"--{key.replace('_', '-')}", str(value)]
        with tempfile.TemporaryDirectory() as out:
            assert run(args + ["--out", out]) in (0, 1, 2, 3)
            assert (Path(out) / "report.txt").is_file()


class TestUsageErrors:
    @pytest.mark.parametrize("args", [["--n-grid", "abc"], ["--no-such-flag", "1"]])
    def test_bad_flag_exits_1(self, tmp_path, args):
        assert run(["run", "nonlinear_exp", *args, "--out", str(tmp_path / "u")]) == 1

    def test_unknown_mode_fails_in_the_scheme(self, tmp_path):
        out = tmp_path / "mode"
        assert run(["run", "nonlinear_exp", "--mode", "bogus", "--n-grid", "9",
                    "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "unknown scheme mode 'bogus'" in report
        assert "status: failed" in report

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["run", "--help"])
        assert exc.value.code == 0
        assert "--n-grid" in capsys.readouterr().out


class TestParamTable:
    def test_table_matches_scenario_defaults(self):
        taken = set().union(*(info.defaults for info in cli.SCENARIOS.values()))
        assert set(cli.PARAMS) - {"seed", "threads"} == taken

    def test_each_scenario_row_carries_its_runner(self):
        assert not hasattr(cli, "RUNNERS")
        for name, info in cli.SCENARIOS.items():
            assert info.run is getattr(cli, f"_run_{name}")

    def test_one_ini_key_per_param(self):
        keys = [(spec.section, spec.key) for spec in cli.PARAMS.values()]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("section,key,scenario", [("intensity", "level", "nonlinear_exp"),
                                                      ("run", "gamma", "ek_red")])
    def test_dropped_keys_are_unknown(self, tmp_path, capsys, section, key, scenario):
        cfg = tmp_path / "old.ini"
        cfg.write_text(f"[{section}]\n{key} = 1.0\n")
        assert run(["run", scenario, "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "unknown key" in err and f"section [{section}]" in err

    def test_readme_example_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "readme.ini"
        cfg.write_text(example)
        scenario, params = cli._load_config(str(cfg))
        assert scenario == "nonlinear_exp" and params["n_grid"] == 241
        out = tmp_path / "readme"
        assert run(["run", "from-config", "--config", str(cfg), "--out", str(out)]) == 0
        assert "status: converged" in (out / "report.txt").read_text()


class TestSolutionSd:
    """solution.csv's moments are folded node by node during the sweep: the
    same bytes as reducing the top level's whole (N, M) paths."""

    def test_mc_solution_csv_bytes_unchanged(self, tmp_path, monkeypatch):
        from bsdelab import lipschitz_solver, singular_scheme
        ys, zs = {}, {}

        class Recording(lipschitz_solver.NodeSweep):
            def nodes(self):
                for node in super().nodes():
                    ys[node.index] = node.y[-1].copy()
                    if node.z is not None:
                        zs[node.index] = node.z[-1].copy()
                    yield node

        monkeypatch.setattr(singular_scheme, "NodeSweep", Recording)
        assert run(["run", "nonlinear_exp", "--mode", "mc", "--out", str(tmp_path)]) == 0
        y = np.array([ys[i] for i in sorted(ys)])           # (N, M)
        z = np.array([zs[i] for i in sorted(zs)])           # (N - 1, M)
        z_mean = z.mean(axis=1)[np.minimum(np.arange(len(y)), len(z) - 1)]
        with open(tmp_path / "solution.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(y) == len(z) + 1
        want = zip(y.mean(axis=1), y.std(axis=1), z_mean)
        assert [row[1:4] for row in rows] == [[cli._fmt(v) for v in w] for w in want]

    @pytest.mark.parametrize("shape", [(21, 200_000), (31, 20_000)])
    def test_node_sd_is_the_row_sd(self, shape):
        # run_scheme reduces each node of a top level as its own contiguous
        # row: bit for bit the moments of ``std(axis=1)`` over all nodes
        from bsdelab.diagnostics import by_node
        y = np.ascontiguousarray(np.random.default_rng(3).normal(-0.4, 0.1, shape)).T
        nodes = by_node(y)
        assert np.array([r.std() for r in nodes]).tobytes() == nodes.std(axis=1).tobytes()
        assert np.array([r.mean() for r in nodes]).tobytes() == nodes.mean(axis=1).tobytes()
