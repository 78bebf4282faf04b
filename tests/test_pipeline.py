"""End-to-end extension construction, verification, and selftest."""

from __future__ import annotations

import json

import numpy as np
import pytest

from charged_extensions import pipeline as pl
from charged_extensions import quasilocal as ql
from charged_extensions import sphere_seed
from charged_extensions.errors import (
    DomainError,
    ExtensionError,
    NotApplicableError,
    PreconditionError,
)
from charged_extensions.lambda_rn import (
    SUB_EXTREMAL,
    RNParams,
    SampledProfile,
    rn_profile,
    rn_profile_mu,
)


def wobble(theta):
    return 0.15 * np.cos(theta)


@pytest.fixture(scope="module")
def round_data():
    return pl.BartnikDataSpec(n=2, q=0.0, lam=0.0, r_o=1.0)


@pytest.fixture(scope="module")
def round_report(round_data):
    return pl.construct_extension(round_data, 0.55)


@pytest.fixture(scope="module")
def axisym_report():
    seed = sphere_seed.axisym_metric_from_function(wobble, n_theta=1025)
    reference = ql.m_o(2, seed.volume_radius, 0.2, -3.0)
    data = pl.BartnikDataSpec(n=2, q=0.2, lam=-3.0, exponent=wobble)
    return reference, pl.construct_extension(data, 1.05 * reference)


@pytest.fixture(scope="module")
def charged_n3_report():
    reference = ql.m_o(3, 1.0, 0.1, 0.0)
    data = pl.BartnikDataSpec(n=3, q=0.1, lam=0.0, r_o=1.0)
    return reference, pl.construct_extension(data, 1.02 * reference)


class TestPipelineConfig:
    def test_defaults_are_valid_and_echo(self):
        config = pl.PipelineConfig()
        echoed = config.as_dict()
        assert echoed["n_t"] == 513
        assert echoed["theta_switch"] == 0.75
        assert echoed["witness_floor"] == 7
        assert pl.PipelineConfig(**echoed) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_t": 2},
            {"n_theta": 4},
            {"theta_switch": 1.0},
            {"kappa_margin": 1.0},
            {"epsilon_cap": 0.0},
            {"mass_fraction": 1.0},
            {"mass_gap_tol": 0.0},
            {"witness_floor": 0},
            {"tolerance_scale": 0.0},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            pl.PipelineConfig(**kwargs)


class TestBartnikDataSpec:
    def test_round_seed(self):
        data = pl.BartnikDataSpec(n=3, q=0.1, lam=0.0, r_o=2.0)
        assert data.r_o == 2.0 and data.h_o == 0.0

    def test_axisym_seed(self):
        data = pl.BartnikDataSpec(n=2, q=0.0, lam=-1.0, exponent=wobble)
        assert data.exponent is wobble

    def test_declared_path_seed(self):
        path = sphere_seed.round_path(2, 1.0, n_t=65)
        data = pl.BartnikDataSpec(n=2, q=0.0, lam=0.0, path=path)
        assert data.path is path

    def test_rejects_nonminimal_boundary(self):
        with pytest.raises(NotApplicableError):
            pl.BartnikDataSpec(n=2, q=0.0, lam=0.0, r_o=1.0, h_o=0.1)

    def test_rejects_axisym_above_dimension_two(self):
        with pytest.raises(NotApplicableError):
            pl.BartnikDataSpec(n=3, q=0.0, lam=0.0, exponent=wobble)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1, "q": 0.0, "lam": 0.0, "r_o": 1.0},
            {"n": 2, "q": 0.0, "lam": 0.5, "r_o": 1.0},
            {"n": 2, "q": float("nan"), "lam": 0.0, "r_o": 1.0},
            {"n": 2, "q": 0.0, "lam": 0.0},
            {"n": 2, "q": 0.0, "lam": 0.0, "r_o": 1.0, "exponent": wobble},
            {"n": 2, "q": 0.0, "lam": 0.0, "r_o": 0.0},
            {"n": 2, "q": 0.0, "lam": 0.0, "exponent": 3.0},
        ],
    )
    def test_rejects_bad_data(self, kwargs):
        with pytest.raises(DomainError):
            pl.BartnikDataSpec(**kwargs)

    def test_rejects_path_dimension_mismatch(self):
        path = sphere_seed.round_path(2, 1.0, n_t=65)
        with pytest.raises(DomainError):
            pl.BartnikDataSpec(n=3, q=0.0, lam=0.0, path=path)


class TestConstructExtension:
    def test_round_flat_masses(self, round_report):
        assert ql.m_o(2, 1.0, 0.0, 0.0) == 0.5
        assert round_report.m_o == 0.5
        assert round_report.requested_mass == 0.55
        assert abs(round_report.achieved_mass - 0.55) <= 1e-8
        assert abs(round_report.penrose_slack - 0.05) <= 1e-10

    def test_round_flat_verdicts(self, round_report):
        assert round_report.extremality == SUB_EXTREMAL
        assert abs(round_report.horizon_radius - 1.1) < 1e-10
        assert round_report.bartnik_upper_bound == 0.5
        assert round_report.boundary_mean_curvature == 0.0
        assert round_report.min_mean_curvature > 0.0

    def test_round_flat_margins(self, round_report):
        assert round_report.min_margin > 0.0
        assert round_report.min_margin_exact >= -1e-9

    def test_round_flat_profile(self, round_report):
        profile = round_report.profile
        assert np.all(profile.df > 0.0)
        tags = set(profile.provenance.tolist())
        assert "collar" in tags and "mollified" in tags
        assert profile.charge == 0.0
        assert round_report.record["s_match"] > float(profile.s_grid[0])
        assert round_report.record["r_C"] > 1.0

    def test_config_is_echoed(self, round_report):
        assert round_report.config == pl.PipelineConfig().as_dict()

    def test_diagnostics_fields(self, round_report):
        diag = round_report.diagnostics
        assert diag["route"] == "positive-scalar"
        assert 0.0 < diag["epsilon"] <= 1.0
        assert diag["far_collar_mass"] < 0.55
        assert diag["samples"] == round_report.profile.s_grid.size

    def test_rejects_mass_at_or_below_optimal(self, round_data):
        with pytest.raises(PreconditionError) as err:
            pl.construct_extension(round_data, 0.4)
        assert "[stage: seed]" in str(err.value)
        with pytest.raises(PreconditionError):
            pl.construct_extension(round_data, 0.5)

    def test_rejects_bad_arguments(self, round_data):
        with pytest.raises(DomainError):
            pl.construct_extension(round_data, float("inf"))
        with pytest.raises(DomainError):
            pl.construct_extension("data", 1.0)

    def test_axisym_charged_instance(self, axisym_report):
        reference, report = axisym_report
        assert abs(report.achieved_mass - 1.05 * reference) <= 1e-8
        assert abs(report.penrose_slack - 0.05 * reference) <= 1e-8
        assert report.extremality == SUB_EXTREMAL
        assert report.diagnostics["route"] == "negative-floor"
        assert report.charge == 0.2 and report.profile.charge == 0.2
        assert report.record["q_e"] == 0.2

    def test_charged_n3_instance(self, charged_n3_report):
        reference, report = charged_n3_report
        assert reference == 0.505
        assert abs(report.achieved_mass - 1.02 * reference) <= 1e-8
        assert abs(report.penrose_slack - 0.02 * reference) <= 1e-8
        assert report.diagnostics["route"] == "positive-scalar"
        assert report.extremality == SUB_EXTREMAL

    def test_declared_path_matches_round_seed(self, round_report):
        config = pl.PipelineConfig()
        path = sphere_seed.round_path(
            2, 1.0, n_t=config.n_t, theta_switch=config.theta_switch
        )
        data = pl.BartnikDataSpec(n=2, q=0.0, lam=0.0, path=path)
        report = pl.construct_extension(data, 0.55, config)
        assert report.record == round_report.record
        assert np.array_equal(report.profile.f, round_report.profile.f)

    def test_mass_dial_tightest_step(self, round_data):
        mass = (1.0 + 2.0 ** -7) * 0.5
        report = pl.construct_extension(round_data, mass)
        assert abs(report.achieved_mass - mass) <= 1e-8
        assert abs(report.penrose_slack - 2.0 ** -7 * 0.5) <= 1e-8


    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lam", [-10.0, -50.0, -200.0])
    @pytest.mark.parametrize("gap", [1.05, 1.5])
    def test_strongly_negative_lambda_certifies(self, n, lam, gap):
        # The model end stops within 4 max(1, r_C) of the gluing radius, so
        # the far-end mass keeps its digits where the radius grows
        # exponentially in arclength.
        data = pl.BartnikDataSpec(n=n, q=0.0, lam=lam, r_o=1.0)
        mass = gap * ql.m_o(n, 1.0, 0.0, lam)
        report = pl.construct_extension(data, mass)
        far = ql.hawking_rotsym(n, 0.0, lam, float(report.profile.f[-1]),
                                float(report.profile.df[-1]))
        assert abs(far - mass) <= 1e-8 * (1.0 + mass)
        assert report.min_margin > 0.0
        assert pl.verify_outward_minimizing(report) == "pass"


    @pytest.mark.parametrize("ratio", [16.0, 50.0])
    def test_large_mass_certifies(self, round_data, ratio):
        # The station lies far out on the heavy model end; it is located in
        # radius, so no fixed arclength span limits it.
        report = pl.construct_extension(round_data, ratio * 0.5)
        assert abs(report.achieved_mass - ratio * 0.5) <= 1e-8 * (1.0 + ratio * 0.5)
        assert report.record["r_C"] > report.horizon_radius
        assert report.min_margin > 0.0


class TestVerifyOutwardMinimizing:
    def test_extension_report_passes(self, round_report):
        assert pl.verify_outward_minimizing(round_report) == "pass"

    def test_model_profile_passes(self):
        profile = rn_profile(RNParams(n=2, m=1.0, q=0.0, lam=0.0), 6.0)
        assert pl.verify_outward_minimizing(profile) == "pass"

    def test_neck_profile_fails(self):
        s = np.linspace(0.0, 1.0, 65)
        f = 2.0 + 0.1 * np.cos(2.0 * np.pi * s)
        df = -0.2 * np.pi * np.sin(2.0 * np.pi * s)
        d2f = -0.4 * np.pi ** 2 * np.cos(2.0 * np.pi * s)
        profile = SampledProfile(
            s, f, df, d2f, np.array(["synthetic"] * 65), charge=0.0
        )
        assert pl.verify_outward_minimizing(profile) == "fail"

    def test_profile_without_minimal_boundary_fails(self):
        profile = rn_profile_mu(RNParams(n=2, m=1.0, q=0.0, lam=0.0), 3.0, 4.0, 65)
        assert pl.verify_outward_minimizing(profile) == "fail"

    def test_rejects_other_types(self):
        with pytest.raises(DomainError):
            pl.verify_outward_minimizing([1.0, 2.0])


class TestBartnikReport:
    def test_round_witnesses(self, round_data):
        config = pl.PipelineConfig(witness_floor=2)
        report = pl.bartnik_report(round_data, config)
        assert report.m_o == 0.5 and report.upper_bound == 0.5
        assert report.subextremality == SUB_EXTREMAL
        assert report.classification == SUB_EXTREMAL
        assert report.horizon_matches_boundary
        assert abs(report.horizon_radius - 1.0) <= 1e-9
        assert [entry["mass"] for entry in report.witnesses] == [0.75, 0.625]
        assert all(entry["succeeded"] for entry in report.witnesses)
        assert report.witnessed
        assert report.witness_gap == 0.125
        assert report.config["witness_floor"] == 2

    def test_witness_failures_are_reported(self):
        data = pl.BartnikDataSpec(n=2, q=0.99, lam=0.0, r_o=1.0)
        config = pl.PipelineConfig(witness_floor=2)
        report = pl.bartnik_report(data, config)
        assert not report.witnessed
        assert report.witness_gap is None
        assert all(not entry["succeeded"] for entry in report.witnesses)
        assert all(entry["error"] for entry in report.witnesses)
        assert report.subextremality == SUB_EXTREMAL
        assert report.upper_bound == report.m_o


class TestPathWorkOncePerPath:
    """The eigenvalue floor is solved only on the eigenfunction route, and
    at most once per path: 65 lambda1 solves, shared by a whole ladder."""

    CONFIG = pl.PipelineConfig(n_t=129, n_theta=257)

    @pytest.fixture
    def lambda1_calls(self, monkeypatch):
        calls = []
        solve = sphere_seed.lambda1

        def counting(metric):
            calls.append(metric)
            return solve(metric)

        monkeypatch.setattr(sphere_seed, "lambda1", counting)
        return calls

    @staticmethod
    def cos_data(a, lam):
        return pl.BartnikDataSpec(
            n=2, q=0.0, lam=lam, exponent=lambda theta: a * np.cos(theta))

    @pytest.mark.parametrize("a, lam", [(0.3, 0.0), (0.6, -3.5)])
    def test_scalar_and_negative_floor_ladders_solve_no_eigenvalue(
            self, lambda1_calls, a, lam):
        report = pl.bartnik_report(self.cos_data(a, lam), self.CONFIG)
        assert all(entry["succeeded"] for entry in report.witnesses)
        assert len(lambda1_calls) == 0

    def test_eigenfunction_route_solves_65_slices(self, lambda1_calls):
        data = self.cos_data(0.6, 0.0)
        m_o = ql.m_o(2, sphere_seed.axisym_metric_from_function(
            data.exponent, n_theta=257).volume_radius, 0.0, 0.0)
        report = pl.construct_extension(data, 1.1 * m_o, self.CONFIG)
        assert report.diagnostics["route"] == "eigenfunction"
        assert len(lambda1_calls) == 65

    def test_ladder_shares_one_eigenvalue_floor(self, lambda1_calls):
        report = pl.bartnik_report(self.cos_data(0.6, 0.0), self.CONFIG)
        assert len(report.witnesses) == 7
        assert all(entry["succeeded"] for entry in report.witnesses)
        assert len(lambda1_calls) == 65


class TestSelftest:
    def test_subset_passes_and_reports(self):
        result = pl.selftest(criteria=(1, 2))
        assert [entry.criterion for entry in result.entries] == [1, 2]
        assert result.passed and not result.calibration_run
        assert result.lines()[0].startswith("[C1] PASS ")
        json.dumps(result.as_dict())

    def test_rejects_unknown_criteria(self):
        with pytest.raises(DomainError):
            pl.selftest(criteria=(1, 99))

    def test_ledger_is_deterministic(self):
        first = pl.selftest(criteria=(1, 2)).to_json()
        second = pl.selftest(criteria=(1, 2)).to_json()
        assert first == second

    def test_config_is_embedded(self):
        config = pl.PipelineConfig(seed=7)
        result = pl.selftest(config, criteria=(1,))
        assert result.config["seed"] == 7

    def test_calibration_marks_expected_failures(self):
        config = pl.PipelineConfig(tolerance_scale=1e-12)
        result = pl.selftest(config, criteria=(3,))
        entry = result.entries[0]
        assert not entry.passed
        assert entry.expected_failure
        assert result.calibration_run
        assert result.passed
        assert entry.line().startswith("[C3] XFAIL ")

    def test_loosened_tolerances_are_not_calibration(self):
        config = pl.PipelineConfig(tolerance_scale=10.0)
        result = pl.selftest(config, criteria=(1,))
        assert not result.calibration_run
