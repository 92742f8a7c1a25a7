import csv
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsdelab import cli


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

    def test_affine_plus_one_level_witness_exits_1(self, tmp_path):
        out = tmp_path / "ap1"
        assert run(["run", "affine_plus", "--terminal", "1", "--schedule", "4",
                    "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "at least two levels" in report
        assert "status: failed" in report

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
            "[grid]\nn = 61\nmass_cap = 10.0\n"
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


class TestSeedDomain:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_1(self, tmp_path, seed):
        out = tmp_path / "seed"
        assert run(["run", "nonlinear_exp", "--mode", "mc", "--m-paths", "50",
                    "--n-grid", "9", "--seed", seed, "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "status: failed" in report
        assert "seed must lie in [0, 2^64)" in report


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
