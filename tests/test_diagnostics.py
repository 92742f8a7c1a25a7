import dataclasses
import math

import numpy as np
import pytest

import bsdelab as bl
from bsdelab.errors import CertificateFailed

from test_paths import uniform_grid


@pytest.fixture(scope="module")
def power1():
    return bl.IntensityModel.power_gap(1.0, 1.0)


@pytest.fixture(scope="module")
def grid241(power1):
    return bl.make_grid(power1, 241, mass_cap=12.0)


class TestCertifyNonexistence:
    def test_minus_affine_diverges(self, power1, grid241):
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
            sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
        cert = bl.certify_nonexistence(prob, [4, 16, 64, 256], grid241)
        assert cert.monotone_divergent
        values = [v for _, v in cert.growth_series]
        assert all(b > a for a, b in zip(values, values[1:]))
        # oracle (adaptive stiff integration of the truncated equations):
        # masses approach exp(ln n + 1) - 1, ratios about 4x per level
        assert values[-1] / values[0] > 10.0
        assert values[-1] == pytest.approx(math.e * 256 - 1, rel=0.05)

    @pytest.mark.parametrize("gamma, ratio", [(0.5, 85.11646136982353),
                                              (1.0, 81.59904866684481),
                                              (2.0, 76.03300235814885)])
    def test_exp_gap_witness_certified(self, gamma, ratio):
        # the CLI's witness data on exp_gap; its last segment needs no split
        model = bl.IntensityModel.exp_gap(gamma, 1.0)
        prob = bl.BsdeProblem(
            intensity=model, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
            sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
        cert = bl.certify_nonexistence(prob, [4, 16, 64, 256],
                                       bl.make_grid(model, 129, mass_cap=12.0))
        assert cert.monotone_divergent
        assert cert.metadata["ratio"] == pytest.approx(ratio, rel=1e-9)

    def test_nonlinear_decreasing_driver_diverges(self, power1, grid241):
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
            sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.neg_identity(),
            terminal=bl.TerminalSpec.constant(-1.0))
        cert = bl.certify_nonexistence(prob, [4, 16, 64, 256], grid241)
        assert cert.monotone_divergent
        assert cert.metadata["ratio"] > 10.0

    def test_nonlinear_nondecreasing_driver_saturates(self, power1, grid241):
        # the increasing-driver truncations track the forced branch and escape
        # the terminal pin, so their driver mass settles instead of diverging;
        # frozen from the adaptive-integration oracle: masses ~ 1.13 .. 1.27
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
            sign=bl.NONLINEAR_PLUS, driver=bl.DriverSpec.exp_utility(1.0),
            terminal=bl.TerminalSpec.constant(-1.0))
        cert = bl.certify_nonexistence(prob, [4, 16, 64, 256], grid241)
        assert not cert.monotone_divergent
        values = [v for _, v in cert.growth_series]
        assert values[-1] / values[0] < 2.0
        assert values[-1] == pytest.approx(1.27, abs=0.05)

    def test_bounded_model_refused(self):
        model = bl.IntensityModel.bounded(2.0, 1.0)
        grid = uniform_grid(31)
        prob = bl.BsdeProblem(
            intensity=model, coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
            sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
        with pytest.raises(CertificateFailed):
            bl.certify_nonexistence(prob, [4, 16], grid)

    def test_plus_sign_redirected(self, power1, grid241):
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
            sign=bl.PLUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
        with pytest.raises(ValueError):
            bl.certify_nonexistence(prob, [4, 16], grid241)

    def test_zero_terminal_rejected(self, power1, grid241):
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(0.0, 1.0),
            sign=bl.MINUS_LAMBDA_Y)
        with pytest.raises(ValueError):
            bl.certify_nonexistence(prob, [4, 16], grid241)


    @pytest.mark.parametrize("schedule", [[], [4], [256]])
    def test_schedule_too_short_to_witness_growth(self, power1, grid241, schedule):
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
            sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
        with pytest.raises(ValueError, match="at least two levels"):
            bl.certify_nonexistence(prob, schedule, grid241)

    @pytest.mark.parametrize("schedule,error", [
        ([0, 4], "truncation levels must be finite and positive"),
        ([-4, 4], "truncation levels must be finite and positive"),
        ([4, math.nan], "truncation levels must be finite and positive"),
        ([4, math.inf], "truncation levels must be finite and positive"),
        ([16, 4], "schedule must be increasing"),
        ([4, 4], "schedule must be increasing"),
    ])
    def test_malformed_schedule_named(self, power1, grid241, schedule, error):
        prob = bl.BsdeProblem(
            intensity=power1, coefficient=bl.CoefficientProcess.constant(1.0, 1.0),
            sign=bl.MINUS_LAMBDA_Y, terminal=bl.TerminalSpec.constant(1.0))
        with pytest.raises(ValueError, match=error):
            bl.certify_nonexistence(prob, schedule, grid241)


class TestCertifyNonuniqueness:
    def test_fundamental_minus_members(self, power1, grid241):
        cert = bl.certify_nonuniqueness(
            bl.FundamentalMinus(model=power1, y0_list=(0.0, 1.0, 3.0)), grid241)
        assert len(cert.members) == 3
        assert max(cert.member_residuals) < 1e-8
        dists = {(i, j): d for i, j, d in cert.pairwise_sup_distance}
        assert dists[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        assert dists[(0, 2)] == pytest.approx(3.0, abs=1e-12)
        assert dists[(1, 2)] == pytest.approx(2.0, abs=1e-12)

    def test_ode_family_members(self, power1, grid241):
        coeff = bl.CoefficientProcess.intensity_multiple(2.0, power1)
        cert = bl.certify_nonuniqueness(
            bl.OdeFamilyScenario(model=power1, coefficient=coeff,
                                 classification=bl.classify_ode(power1, coeff, 1e-6),
                                 y0_list=(0.0, 1.0)), grid241)
        assert len(cert.members) == 2
        assert max(cert.member_residuals) < 1e-8
        cap = grid241.cap_index
        pts = grid241.points
        assert np.max(np.abs(cert.members[0].y[:cap + 1] - 2 * pts[:cap + 1])) < 1e-9
        expected = np.asarray(power1.exp_minus_cumulative(pts)) + \
            2.0 * (1.0 - np.asarray(power1.exp_minus_cumulative(pts)))
        assert np.max(np.abs(cert.members[1].y[:cap + 1] - expected[:cap + 1])) < 1e-9
        assert cert.members[0].y[-1] == cert.members[1].y[-1] == pytest.approx(2.0, abs=1e-6)

    def test_ek_red_members(self):
        model = bl.IntensityModel.exp_gap(1.0, 1.0)
        grid = bl.make_grid(model, 2001, mass_cap=12.0)
        cert = bl.certify_nonuniqueness(bl.EkRed(r=0.05, sigma=0.2, gamma=1.0), grid)
        assert len(cert.members) >= 2
        assert max(cert.member_residuals) < 1e-6
        assert cert.pairwise_sup_distance[0][2] > 0.5
        # distance is attained at t = 0 where the members differ by |y0 - y0'|
        assert abs(cert.members[0].y[0] - cert.members[1].y[0]) == pytest.approx(1.0)

    def test_indistinct_members_fail(self, power1, grid241):
        with pytest.raises(CertificateFailed):
            bl.certify_nonuniqueness(
                bl.FundamentalMinus(model=power1, y0_list=(0.0, 1e-9)), grid241)


class TestResidualCheck:
    def minus_problem(self, power1, phi_value=0.0):
        return bl.BsdeProblem(
            intensity=power1,
            coefficient=bl.CoefficientProcess.constant(phi_value, 1.0),
            sign=bl.MINUS_LAMBDA_Y)

    def test_exact_member(self, power1, grid241):
        fam = bl.fundamental_family(power1, 3.0, grid241)
        rep = bl.residual_check(fam, self.minus_problem(power1))
        assert rep.max_residual < 1e-10
        assert rep.terminal_gap == 0.0

    def test_linear_member_integrability(self, power1, grid241):
        coeff = bl.CoefficientProcess.intensity_multiple(2.0, power1)
        member = bl.ode_family_member(power1, coeff, 0.0, grid241)
        prob = bl.BsdeProblem(intensity=power1, coefficient=coeff,
                              sign=bl.MINUS_LAMBDA_Y,
                              terminal=bl.TerminalSpec.constant(2.0))
        rep = bl.residual_check(member, prob)
        assert rep.max_residual < 1e-8
        # driver along the member is identically 2: mass = 2 t_cap
        assert rep.integrability_estimate == pytest.approx(2.0 * grid241.t_cap, rel=1e-6)

    def test_corrupted_member_detected(self, power1):
        grid = bl.make_grid(power1, 17, mass_cap=12.0)
        fam = bl.fundamental_family(power1, 3.0, grid)
        corrupted = dataclasses.replace(fam, y=fam.y + 0.01)
        rep = bl.residual_check(corrupted, self.minus_problem(power1))
        assert rep.max_residual > 5e-3

    def test_deterministic_rerun_identical(self, power1, grid241):
        fam = bl.fundamental_family(power1, 2.0, grid241)
        prob = self.minus_problem(power1)
        a = bl.residual_check(fam, prob)
        b = bl.residual_check(fam, prob)
        assert a.max_residual == b.max_residual
        assert a.integrability_estimate == b.integrability_estimate

    def test_stochastic_member(self, power1):
        # the pathwise residual of a continuous-time member carries an
        # O(dLam sqrt(dt)) correction; it must shrink fast under refinement
        residuals = []
        for n in (101, 401):
            grid = bl.make_grid(power1, n, mass_cap=10.0)
            bundle = bl.simulate_paths(grid, 1, 5000, seed=3)
            fam = bl.fundamental_family(power1, 1.0, grid,
                                        beta=np.ones(grid.n_points - 1), bundle=bundle)
            rep = bl.residual_check(fam, self.minus_problem(power1), bundle=bundle)
            assert rep.terminal_gap == 0.0
            residuals.append(rep.max_residual)
        assert residuals[0] < 0.05
        assert residuals[1] < residuals[0] / 4.0
