"""Acceptance gate: every criterion runs at its stated tolerance and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import time

import numpy as np
import pytest

import bsdelab as bl
from bsdelab import cli


def gate(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{tag}] {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


def test_criterion_01_affine_closed_form(power1):
    started = time.perf_counter()
    grid = bl.make_grid(power1, 129, mass_cap=12.0)
    prob = bl.BsdeProblem(intensity=power1,
                          coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
                          sign=bl.PLUS_LAMBDA_Y)
    sol = bl.solve_affine_plus(prob, grid)
    elapsed = time.perf_counter() - started
    cap = grid.cap_index
    err = float(np.max(np.abs(sol.y[:cap + 1] + (1.0 - grid.points[:cap + 1]) / 2.0)))
    ok = err <= 1e-8 and elapsed < 1.0
    gate("1 affine closed form", ok,
         f"max|Y + (1-t)/2| = {err:.3e} (tol 1e-8), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_representation_bound(power1):
    rng = np.random.default_rng(2024)
    grid = bl.make_grid(power1, 97, mass_cap=12.0)
    worst = -math.inf
    for _ in range(20):
        a = rng.uniform(-2, 2, size=3)
        omega = rng.uniform(0.5, 12.0, size=2)
        phase = rng.uniform(0, 2 * np.pi, size=2)
        declared = float(np.sum(np.abs(a)))

        def phi(t, a=a, omega=omega, phase=phase):
            t = np.asarray(t, dtype=float)
            return (a[0] + a[1] * np.sin(omega[0] * t + phase[0])
                    + a[2] * np.cos(omega[1] * t + phase[1]))

        coeff = bl.CoefficientProcess.from_function(phi, 1.0, sup_norm=declared)
        prob = bl.BsdeProblem(intensity=power1, coefficient=coeff,
                              sign=bl.PLUS_LAMBDA_Y)
        sol = bl.solve_affine_plus(prob, grid)
        margin = float(np.max(np.abs(sol.y) - declared * (1.0 - grid.points)))
        worst = max(worst, margin)
    ok = worst <= 1e-12
    gate("2 a-priori bound", ok,
         f"worst excess over sup|phi| (T-t) across 20 draws = {worst:.3e} (tol 1e-12)")


def test_criterion_03_ode_trichotomy(power1):
    t0 = time.perf_counter()
    coeff = bl.CoefficientProcess.intensity_multiple(2.0, power1)
    out = bl.classify_ode(power1, coeff, tolerance=1e-6)
    t_classify = time.perf_counter() - t0
    limit_err = abs(out.limit - 2.0)

    grid = bl.make_grid(power1, 129, mass_cap=12.0)
    t0 = time.perf_counter()
    member = bl.ode_family_member(power1, coeff, 0.0, grid, classification=out)
    t_member = time.perf_counter() - t0
    cap = grid.cap_index
    member_err = float(np.max(np.abs(member.y[:cap + 1] - 2.0 * grid.points[:cap + 1])))

    t0 = time.perf_counter()
    integrable = bl.classify_ode(power1, bl.CoefficientProcess.constant(1.0, 1.0),
                                 tolerance=1e-6)
    t_int = time.perf_counter() - t0
    ok = (out.converges and limit_err <= 1e-6
          and member_err <= 1e-10
          and integrable.converges and abs(integrable.limit) <= 1e-6
          and max(t_classify, t_member, t_int) < 1.0)
    gate("3 ode trichotomy", ok,
         f"|C-2| = {limit_err:.2e} (1e-6), member err = {member_err:.2e} (1e-10), "
         f"integrable limit = {integrable.limit:.2e} (to 0), "
         f"runtimes {t_classify:.2f}/{t_member:.2f}/{t_int:.2f}s (< 1s)")


def test_criterion_04_non_uniqueness(power1):
    grid = bl.make_grid(power1, 129, mass_cap=12.0)
    cert = bl.certify_nonuniqueness(
        bl.FundamentalMinus(model=power1, y0_list=(0.0, 1.0, 3.0)), grid)
    dists = [d for _, _, d in cert.pairwise_sup_distance]
    ok_family = (len(cert.members) >= 3
                 and max(cert.member_residuals) <= 1e-8
                 and min(dists) >= 1.0)

    ek_grid = bl.make_grid(bl.IntensityModel.exp_gap(1.0, 1.0), 2001, mass_cap=12.0)
    ek = bl.certify_nonuniqueness(bl.EkRed(r=0.05, sigma=0.2, gamma=1.0), ek_grid)
    ok_ek = len(ek.members) >= 2 and max(ek.member_residuals) <= 1e-6
    gate("4 non-uniqueness", ok_family and ok_ek,
         f"family: {len(cert.members)} members, residual {max(cert.member_residuals):.1e} "
         f"(1e-8), min distance {min(dists):.2f} (>= 1); "
         f"ek_red: {len(ek.members)} members, residual {max(ek.member_residuals):.1e}")


def test_criterion_05_non_existence(power1, tmp_path):
    started = time.perf_counter()
    # the affine route, through the CLI scenario with a nonzero terminal value
    out = tmp_path / "ap1"
    code = cli.main(["run", "affine_plus", "--terminal", "1", "--out", str(out)])
    import csv as csvmod
    series = [float(r["driver_mass"]) for r in
              csvmod.DictReader(open(out / "certificate.csv"))]
    ok_affine = (code == 0 and len(series) == 4
                 and all(b > a for a, b in zip(series, series[1:]))
                 and series[-1] / series[0] >= 10.0)

    # the nonlinear route: monotone decreasing driver, nonzero terminal
    grid = bl.make_grid(power1, 241, mass_cap=12.0)
    prob = bl.BsdeProblem(
        intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
        sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.neg_identity(),
        terminal=bl.TerminalSpec.constant(-1.0))
    cert = bl.certify_nonexistence(prob, [4, 16, 64, 256], grid)
    values = [v for _, v in cert.growth_series]
    ok_nonlinear = (cert.monotone_divergent
                    and values[-1] / values[0] >= 10.0)
    elapsed = time.perf_counter() - started
    gate("5 non-existence", ok_affine and ok_nonlinear and elapsed < 30.0,
         f"affine witness ratio {series[-1] / series[0]:.1f} (>= 10), nonlinear ratio "
         f"{values[-1] / values[0]:.1f} (>= 10), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_06_identity_cross_check(power1):
    grid = bl.make_grid(power1, 241, mass_cap=5.0)
    prob = bl.BsdeProblem(
        intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
        sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.identity())
    report = bl.run_scheme(prob, grid, [2 ** k for k in range(1, 9)],
                           config=bl.SchemeConfig(tol=1e-3))
    cap = grid.cap_index
    closed = -(1.0 - grid.points) / 2.0
    err = float(np.max(np.abs(report.final.y[:cap + 1] - closed[:cap + 1])))
    ok = err <= 1e-4
    gate("6 identity cross-check", ok,
         f"sup|Y^256 - closed form| on [0, t_cap] = {err:.3e} (tol 1e-4)")


def test_criterion_07_exp_utility_scheme(power1):
    started = time.perf_counter()
    grid = bl.make_grid(power1, 241, mass_cap=12.0)
    prob = bl.BsdeProblem(
        intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
        sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0))
    rep_a = bl.run_scheme(prob, grid, [2 ** k for k in range(1, 16)],
                          config=bl.SchemeConfig(tol=1e-5))
    rep_b = bl.run_scheme(prob, grid, [3 ** k for k in range(1, 11)],
                          config=bl.SchemeConfig(tol=1e-5))
    elapsed = time.perf_counter() - started
    gaps = rep_a.cauchy_gaps
    strictly_decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    agreement = float(np.max(np.abs(rep_a.final.y - rep_b.final.y)))
    ok = (rep_a.monotone_violation <= 1e-10
          and rep_a.box_violation <= 1e-10
          and strictly_decreasing and gaps[-1] < 1e-5
          and rep_a.converged and rep_b.converged
          and agreement <= 2e-5
          and elapsed < 60.0)
    gate("7 exp-utility scheme", ok,
         f"monotone {rep_a.monotone_violation:.1e} (<= 1e-10), box "
         f"{rep_a.box_violation:.1e} (<= 1e-10), final gap {gaps[-1]:.2e} (< 1e-5), "
         f"schedules agree {agreement:.2e} (<= 2e-5), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_08_bmo_bound(power1):
    started = time.perf_counter()
    grid = bl.make_grid(power1, 101, mass_cap=12.0)
    bundle = bl.simulate_paths(grid, 1, 100_000, seed=8)
    coeff = bl.CoefficientProcess.markovian(
        lambda t, w: 0.5 * (1.0 + np.sin(w)), 1.0, sup_norm=1.0, nonnegative=True)
    prob = bl.BsdeProblem(intensity=power1, coefficient=coeff,
                          sign=bl.NONLINEAR_PLUS,
                          driver=bl.DriverSpec.exp_utility(1.0))
    clipped = bl.truncate(prob.driver, 1.0, 1.0)
    sol = bl.solve_regression_mc(prob, grid, bundle, lambda_cap=64.0,
                                 driver_override=clipped)
    est = bl.estimate_bmo(sol, bundle)
    elapsed = time.perf_counter() - started
    bound = 2.0 * 1.0 ** 2 * 1.0 ** 2
    ok = est.value <= bound + 3.0 * est.stderr and elapsed < 120.0
    gate("8 bmo bound", ok,
         f"estimate {est.value:.4f} <= {bound} + 3 x {est.stderr:.1e}, "
         f"runtime {elapsed:.1f}s (< 120s)")


def test_criterion_09_driver_mass_bound(power1):
    grid = bl.make_grid(power1, 241, mass_cap=12.0)
    results = []
    for driver in (bl.DriverSpec.identity(), bl.DriverSpec.exp_utility(1.0)):
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
            sign=bl.NONLINEAR_PLUS, driver=driver)
        report = bl.run_scheme(prob, grid, [2 ** k for k in range(1, 9)],
                               config=bl.SchemeConfig(tol=1e-3))
        y0 = abs(float(report.final.y[0]))
        cap = y0 + 1.0 * 1.0 + 0.05
        worst = max(report.lambda_f_integrals)
        results.append((driver.name, worst, cap, worst <= cap))
    ok = all(r[3] for r in results)
    detail = "; ".join(f"{name}: max mass {worst:.4f} <= {cap:.4f}"
                       for name, worst, cap, _ in results)
    gate("9 driver-mass bound", ok, detail)


def test_criterion_10_reproducibility(tmp_path):
    stochastic = ["run", "nonlinear_exp", "--mode", "mc", "--m-paths", "4000",
                  "--n-grid", "41", "--schedule", "4,16,64", "--tol", "0.5",
                  "--seed", "11"]
    deterministic = ["run", "affine_minus_family"]
    all_ok = True
    details = []
    for label, args, files in [
            ("mc", stochastic, ["solution.csv", "scheme.csv"]),
            ("deterministic", deterministic, ["solution.csv", "certificate.csv"])]:
        blobs = {}
        for workers in (1, 4, 8):
            out = tmp_path / f"{label}-{workers}"
            code = cli.main(args + ["--threads", str(workers), "--out", str(out)])
            all_ok = all_ok and code == 0
            blobs[workers] = tuple((out / f).read_bytes() for f in files)
        same = blobs[1] == blobs[4] == blobs[8]
        all_ok = all_ok and same
        details.append(f"{label}: byte-identical across workers 1/4/8 = {same}")
    gate("10 reproducibility", all_ok, "; ".join(details))
