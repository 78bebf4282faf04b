"""End-to-end extension construction, verification, and selftest."""

from __future__ import annotations

import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from charged_extensions import collar as co
from charged_extensions import lambda_rn
from charged_extensions import pipeline as pl
from charged_extensions import quasilocal as ql
from charged_extensions import sphere_seed
from charged_extensions.errors import (
    ConstructionError,
    DomainError,
    ExtensionError,
    NotApplicableError,
    PreconditionError,
    VerificationError,
)
from charged_extensions.lambda_rn import SUB_EXTREMAL, RNParams, rn_profile


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
        assert echoed["witness_floor"] == 7
        assert pl.PipelineConfig(**echoed) == config
        assert list(echoed) == ["n_t", "n_theta", "witness_floor"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_t": 2},
            {"n_theta": 4},
            {"n_theta": 1025.0},
            {"n_t": 513.0},
            {"witness_floor": 0},
            {"witness_floor": 7.0},
            {"n_theta": -1025},
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
        # Only eigenfunction-route reports record the eigen solve.
        assert "eigen" not in round_report.diagnostics

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
        path = sphere_seed.round_path(2, 1.0, n_t=config.n_t)
        data = pl.BartnikDataSpec(n=2, q=0.0, lam=0.0, path=path)
        report = pl.construct_extension(data, 0.55, config)
        assert report.record == round_report.record
        assert np.array_equal(report.profile.f, round_report.profile.f)

    def test_mass_dial_tightest_step(self, round_data):
        mass = (1.0 + 2.0 ** -7) * 0.5
        report = pl.construct_extension(round_data, mass)
        assert abs(report.achieved_mass - mass) <= 1e-8
        assert abs(report.penrose_slack - 2.0 ** -7 * 0.5) <= 1e-8

    # (n, q, lam, k) of round seeds at r_o = 1 and the first rung
    # m = (1 + 2^-k) m_o of the mass dial that does not certify.
    DIAL = [(2, 0.0, 0.0, 31), (3, 0.1, 0.0, 30), (2, 0.2, -1.0, 31), (4, 0.0, 0.0, 30)]

    @pytest.mark.parametrize("n, q, lam, limit", DIAL)
    def test_mass_dial_below_a_2_20_gap(self, n, q, lam, limit):
        # The solved flare keeps spending 0.9 of the gap, so the collar
        # certifies every rung; the dial stops in the bend's band search.
        data = pl.BartnikDataSpec(n=n, q=q, lam=lam, r_o=1.0)
        m_o = ql.m_o(n, 1.0, q, lam)
        for k in range(20, limit):
            mass = (1.0 + 2.0 ** -k) * m_o
            report = pl.construct_extension(data, mass)
            assert abs(report.achieved_mass - mass) <= 1e-8 * (1.0 + mass)
            assert report.penrose_slack > 0.0
            assert m_o < report.diagnostics["far_collar_mass"] < mass
        with pytest.raises(ConstructionError,
                           match=r"\[stage: surgery\] no band width certified the bend"):
            pl.construct_extension(data, (1.0 + 2.0 ** -limit) * m_o)

    @pytest.mark.parametrize("n, q, lam, limit", DIAL)
    def test_mass_dial_fails_typed_down_to_2_52(self, n, q, lam, limit):
        # Past its limit every rung is refused by a ConstructionError of the
        # collar or surgery stage: none is a DomainError blaming the input.
        data = pl.BartnikDataSpec(n=n, q=q, lam=lam, r_o=1.0)
        m_o = ql.m_o(n, 1.0, q, lam)
        for k in range(limit, 53):
            with pytest.raises(ConstructionError,
                               match=r"^\[stage: (collar|surgery)\] ") as caught:
                pl.construct_extension(data, (1.0 + 2.0 ** -k) * m_o)
            assert type(caught.value) is ConstructionError, k

    def test_station_at_the_horizon_is_a_construction_error(self):
        # At a 2^-45 gap the station radius rounds onto the horizon, where
        # the model's arclength is 0: the bend has no band to work in.
        data = pl.BartnikDataSpec(n=3, q=0.1, lam=0.0, r_o=1.0)
        mass = (1.0 + 2.0 ** -45) * ql.m_o(3, 1.0, 0.1, 0.0)
        with pytest.raises(ConstructionError, match=r"\[stage: surgery\] bend station "
                           "arclength is not positive") as caught:
            pl.construct_extension(data, mass)
        diagnostics = caught.value.diagnostics
        assert diagnostics["s0"] == 0.0
        assert diagnostics["r_C"] == diagnostics["r_plus"] > 1.0

    @pytest.mark.parametrize("side", ["no gain", "past m"])
    def test_far_collar_mass_outside_the_gap_fails_at_the_collar(self, monkeypatch, side):
        # A tail read at a fortieth of the collar's amplitude is steeper and
        # gains no mass; a flare of 1 on a 2^-10 gap overshoots m.
        tail_to_arclength, find_eps0 = co.tail_to_arclength, co.find_eps0
        if side == "no gain":
            monkeypatch.setattr(co, "tail_to_arclength", lambda built: tail_to_arclength(
                replace(built, A=built.A / 40.0)))
        else:
            monkeypatch.setattr(co, "find_eps0", lambda *args: 1.0)
        data = pl.BartnikDataSpec(n=2, q=0.0, lam=0.0, r_o=1.0)
        mass = (1.0 + 2.0 ** -10) * 0.5
        with pytest.raises(ConstructionError, match=r"\[stage: collar\] far collar mass "
                           "does not lie strictly between") as caught:
            pl.construct_extension(data, mass)
        diagnostics = caught.value.diagnostics
        assert set(diagnostics) == {"epsilon", "amplitude", "m_star", "m_o", "m"}
        if side == "no gain":
            assert diagnostics["m_star"] <= diagnostics["m_o"] == 0.5
        else:
            assert diagnostics["epsilon"] == 1.0
            assert diagnostics["m_star"] >= diagnostics["m"] == mass

    @pytest.mark.parametrize("c", [1e-4, 1e-2])
    @pytest.mark.parametrize("n, q, lam", [(2, 0.0, 0.0), (3, 0.1, 0.0)])
    def test_small_boundaries_certify(self, n, q, lam, c):
        # (r_o, q, lam, m) -> (c r_o, c^(n-1) q, lam / c^2, c^(n-1) m) of the
        # unit problem.  The join's mollifier failed its finite-difference
        # cross-check on all four; the blended join has no such check.
        data = pl.BartnikDataSpec(n=n, q=q * c ** (n - 1), lam=lam / c ** 2, r_o=c)
        mass = 1.05 * ql.m_o(n, c, data.q, data.lam)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = pl.construct_extension(data, mass)
        assert abs(report.achieved_mass - mass) <= 1e-8 * (1.0 + mass)
        assert report.min_margin > 0.0
        assert pl.verify_outward_minimizing(report) == "pass"

    @pytest.mark.parametrize("n", [2, 3])
    def test_underflowing_charge_certifies(self, n):
        # q^2 underflows: the model end is the uncharged one, with no 0/0
        # (a RuntimeWarning, an error under this suite) in classify.
        data = pl.BartnikDataSpec(n=n, q=1e-200, lam=0.0, r_o=1.0)
        report = pl.construct_extension(data, 0.55)
        assert abs(report.achieved_mass - 0.55) <= 1e-8 * 1.55
        assert report.min_margin > 0.0


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


    @pytest.mark.parametrize("gap", [1.5, 1.05, 1.0 + 2.0 ** -10])
    @pytest.mark.parametrize(
        "r_o, q, lam", [(1.0, 0.5, -0.1), (1.0, 0.45, -0.15), (1.0, 0.3, -0.05),
                        (2.0, 0.98, -0.01)])
    def test_negative_floor_falls_through_to_positive_scalar(self, r_o, q, lam, gap):
        # q^2 / r_o^4 >= |lam|: the negative floor (kappa = 0 on a round
        # seed) leaves no charge gap, the positive-scalar floor does.
        data = pl.BartnikDataSpec(n=2, q=q, lam=lam, r_o=r_o)
        mass = gap * ql.m_o(2, r_o, q, lam)
        report = pl.construct_extension(data, mass)
        assert report.diagnostics["route"] == "positive-scalar"
        assert report.diagnostics["kappa"] == 0.5 * (2.0 / r_o ** 2) * (1.0 - 0.05)
        assert abs(report.achieved_mass - mass) <= 1e-8 * (1.0 + mass)
        assert report.min_margin > 0.0

    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_negative_floor_falls_through_to_eigenfunction(self, q):
        # Negative curvature against a small |lam|: the negative floor
        # (kappa = 1.05 |min K|) leaves no charge gap, and the eigenfunction
        # lapse, whose floor is the first stability eigenvalue, backs the
        # collar instead.
        config = pl.PipelineConfig(n_t=129, n_theta=257)
        data = pl.BartnikDataSpec(
            n=2, q=q, lam=-0.1, exponent=lambda theta: 0.6 * np.cos(theta))
        r_o = sphere_seed.axisym_metric_from_function(
            data.exponent, n_theta=257).volume_radius
        mass = 1.05 * ql.m_o(2, r_o, q, -0.1)
        report = pl.construct_extension(data, mass, config)
        path = report.collar.spec.path
        assert sphere_seed.curvature_floor_along_path(path) < 0.0
        assert report.diagnostics["route"] == "eigenfunction"
        assert report.collar.spec.case_id == co.EIGENFUNCTION_LAPSE
        eigen = sphere_seed.eigen_along_path(path)
        min_lam1 = float(np.min(eigen.lambda1))
        assert report.diagnostics["kappa"] == min_lam1 * (1.0 - 0.05)
        assert report.diagnostics["eigen"] == {
            "modes": eigen.modes, "tail": eigen.tail, "min_lambda1": min_lam1}
        assert abs(report.achieved_mass - mass) <= 1e-8 * (1.0 + mass)
        assert report.min_margin > 0.0
        assert pl.verify_outward_minimizing(report) == "pass"

    @pytest.mark.parametrize("a,q,lam,lam1", [
        (1.5, 0.0, 0.0, "-0.238"), (1.5, 0.3, -1.0, "-0.238"), (1.5, 0.0, -3.5, "-0.238"),
        # Its ground state falls below the rounding level of the Legendre
        # sum near one pole, so the eigenvalue alone decides.
        (3.0, 0.0, 0.0, "-124.6")])
    def test_seed_past_the_stability_edge_is_refused(self, a, q, lam, lam1):
        # lambda1(-Laplacian + K) < 0: the eigenfunction route is refused by
        # name, not by a DomainError on a negative kappa, and the negative
        # floor has no charge gap.
        config = pl.PipelineConfig(n_t=129, n_theta=257)
        data = pl.BartnikDataSpec(
            n=2, q=q, lam=lam, exponent=lambda theta: a * np.cos(theta))
        r_o = sphere_seed.axisym_metric_from_function(
            data.exponent, n_theta=257).volume_radius
        with pytest.raises(PreconditionError, match=r"^\[stage: curvature-floor\].*"
                           + f"min lambda1 = {lam1}".replace(".", r"\.")):
            pl.construct_extension(data, 1.05 * ql.m_o(2, r_o, q, lam), config)

    @pytest.mark.parametrize("q,lam", [(0.0, 0.0), (0.3, -1.0)])
    def test_seed_just_inside_the_stability_edge_certifies(self, q, lam):
        # a = a*(1 - 2^-20) with a* = 1.4192884845, where lambda1 = 3.2e-6;
        # an eigenvalue error of 4e-6 would flip its sign.
        data = pl.BartnikDataSpec(
            n=2, q=q, lam=lam, exponent=lambda theta: 1.4192871310 * np.cos(theta))
        r_o = sphere_seed.axisym_metric_from_function(data.exponent).volume_radius
        mass = 1.05 * ql.m_o(2, r_o, q, lam)
        report = pl.construct_extension(data, mass)
        assert report.diagnostics["route"] == "eigenfunction"
        assert 3.2e-6 < report.diagnostics["eigen"]["min_lambda1"] < 3.3e-6
        assert abs(report.achieved_mass - mass) <= 1e-8 * (1.0 + mass)

    @pytest.mark.parametrize("a", [200.0, 400.0])
    def test_seed_with_a_non_finite_gauge_fails_in_the_seed_stage(self, a):
        data = pl.BartnikDataSpec(n=2, q=0.0, lam=-1.0, exponent=lambda t: a * np.cos(t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError,
                               match=r"^\[stage: seed\] the seed's area gauge is not finite"):
                pl.construct_extension(data, 1000.0)

    def test_no_admissible_route_fails_in_curvature_floor_stage(self):
        data = pl.BartnikDataSpec(n=3, q=0.99, lam=0.0, r_o=1.0)
        with pytest.raises(PreconditionError, match=r"^\[stage: curvature-floor\]"):
            pl.construct_extension(data, 1.05 * ql.m_o(3, 1.0, 0.99, 0.0))

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

    def test_rejects_other_types(self):
        with pytest.raises(DomainError):
            pl.verify_outward_minimizing([1.0, 2.0])
        with pytest.raises(DomainError):
            pl.verify_outward_minimizing(
                rn_profile(RNParams(n=2, m=1.0, q=0.0, lam=0.0), 6.0)
            )


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


@pytest.mark.parametrize("n, q, lam", [(2, 0.0, 0.0), (3, 0.1, -1.0)])
def test_round_construction_classifies_once(monkeypatch, n, q, lam):
    """The end parameters are classified once per construction and the
    class is passed to the glue, the model profile and the report."""
    calls = []
    classify = lambda_rn._classify

    def counting(params):
        calls.append(params)
        return classify(params)

    monkeypatch.setattr(lambda_rn, "_classify", counting)
    m = 1.05 * ql.m_o(n, 1.0, q, lam)
    pl.construct_extension(pl.BartnikDataSpec(n=n, q=q, lam=lam, r_o=1.0), m)
    assert calls == [RNParams(n, m, q, lam)]


class TestPathWorkOncePerPath:
    """A ladder normalizes its path once and builds each path field once:
    no route solves ``lambda1`` or measures the volume-form deviation, and
    only the eigenfunction route builds the eigen fields, once for a whole
    ladder."""

    CONFIG = pl.PipelineConfig(n_t=129, n_theta=257)

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(("lambda1", "_eigen_path", "normalize_path",
                                "_measure_volume_form_deviation"), 0)
        for name in counts:
            def counting(*args, name=name, original=getattr(sphere_seed, name), **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(sphere_seed, name, counting)
        return counts

    @staticmethod
    def cos_data(a, lam):
        return pl.BartnikDataSpec(
            n=2, q=0.0, lam=lam, exponent=lambda theta: a * np.cos(theta))

    @pytest.mark.parametrize("a, lam", [(0.3, 0.0), (0.6, -3.5)])
    def test_scalar_and_negative_floor_ladders_solve_no_eigenvalue(self, calls, a, lam):
        report = pl.bartnik_report(self.cos_data(a, lam), self.CONFIG)
        assert len(report.witnesses) == 7
        assert all(entry["succeeded"] for entry in report.witnesses)
        assert calls == {"lambda1": 0, "_eigen_path": 0, "normalize_path": 1,
                         "_measure_volume_form_deviation": 0}

    def test_eigenfunction_route_builds_eigen_fields_once(self, calls):
        data = self.cos_data(0.6, 0.0)
        m_o = ql.m_o(2, sphere_seed.axisym_metric_from_function(
            data.exponent, n_theta=257).volume_radius, 0.0, 0.0)
        report = pl.construct_extension(data, 1.1 * m_o, self.CONFIG)
        assert report.diagnostics["route"] == "eigenfunction"
        assert calls == {"lambda1": 0, "_eigen_path": 1, "normalize_path": 1,
                         "_measure_volume_form_deviation": 0}

    def test_ladder_shares_one_eigenvalue_floor(self, calls):
        report = pl.bartnik_report(self.cos_data(0.6, 0.0), self.CONFIG)
        assert len(report.witnesses) == 7
        assert all(entry["succeeded"] for entry in report.witnesses)
        assert calls == {"lambda1": 0, "_eigen_path": 1, "normalize_path": 1,
                         "_measure_volume_form_deviation": 0}


class TestCollarWorkOncePerConstruction:
    """One flare solve, one amplitude and one collar build per construction,
    on every route.  At m = 1.5 m_o each of these cases once took two flare
    searches and two amplitudes.  The curvature-floor test runs for the
    route's candidate and for the collar's spec, and the margin's row
    extremes are taken once."""

    CONFIG = pl.PipelineConfig(n_t=129, n_theta=257)

    @pytest.mark.parametrize("a, lam, route", [
        (None, 0.0, "positive-scalar"),
        (0.3, 0.0, "positive-scalar"),
        (None, -1.0, "negative-floor"),
        (0.6, 0.0, "eigenfunction"),
    ])
    def test_collar_functions_run_once(self, monkeypatch, a, lam, route):
        counts = dict.fromkeys(
            ("find_eps0", "find_A0", "build_collar", "_route_floor", "_row_extremes"), 0)
        for name in counts:
            def counting(*args, name=name, original=getattr(co, name)):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(co, name, counting)
        if a is None:
            data = pl.BartnikDataSpec(n=2, q=0.0, lam=lam, r_o=1.0)
            radius = 1.0
        else:
            data = pl.BartnikDataSpec(
                n=2, q=0.0, lam=lam, exponent=lambda theta: a * np.cos(theta))
            radius = sphere_seed.axisym_metric_from_function(
                data.exponent, n_theta=257).volume_radius
        report = pl.construct_extension(
            data, 1.5 * ql.m_o(2, radius, 0.0, lam), self.CONFIG)
        assert report.diagnostics["route"] == route
        assert counts == {"find_eps0": 1, "find_A0": 1, "build_collar": 1,
                          "_route_floor": 2, "_row_extremes": 1}


class TestSelftest:
    def test_subset_passes_and_reports(self):
        result = pl.selftest(criteria=(1, 2))
        assert [entry.criterion for entry in result.entries] == [1, 2]
        assert result.passed
        assert result.lines()[0].startswith("[C1] PASS ")
        json.dumps(result.as_dict())

    def test_rejects_unknown_criteria(self):
        with pytest.raises(DomainError):
            pl.selftest(criteria=(1, 99))

    def test_ledger_renders_numpy_details_as_plain_json(self):
        detail = {
            "count": np.int64(3),
            "flag": np.bool_(True),
            "pair": (0.5, 2),
            "values": np.array([0.25, 1.5]),
            "x": np.float64(0.1),
        }
        entry = pl.SelftestEntry(1, "numpy detail", True, detail)
        result = pl.SelftestResult((entry,), {"n_t": 513}, True)
        parsed = json.loads(result.to_json())["entries"][0]["detail"]
        assert parsed == {"count": 3, "flag": True, "pair": [0.5, 2],
                          "values": [0.25, 1.5], "x": 0.1}
        assert type(parsed["count"]) is int and parsed["flag"] is True

    def test_ledger_is_deterministic(self):
        first = pl.selftest(criteria=(1, 2)).to_json()
        second = pl.selftest(criteria=(1, 2)).to_json()
        assert first == second

    def test_config_is_embedded(self):
        config = pl.PipelineConfig(witness_floor=3)
        result = pl.selftest(config, criteria=(1,))
        assert result.config == config.as_dict()
        assert "tolerance_scale" not in result.config

    def test_failed_criterion_fails_the_run(self, monkeypatch):
        def failing(config):
            raise VerificationError("forced")

        monkeypatch.setitem(pl._CRITERIA, 3, ("forced failure", failing))
        result = pl.selftest(criteria=(1, 3))
        assert [entry.passed for entry in result.entries] == [True, False]
        assert not result.passed
        assert result.lines()[1] == "[C3] FAIL forced failure"
        assert result.entries[1].detail == {"error": "VerificationError: forced"}


def _cos_data(a, lam):
    data = pl.BartnikDataSpec(n=2, q=0.0, lam=lam, exponent=lambda theta: a * np.cos(theta))
    radius = sphere_seed.axisym_metric_from_function(data.exponent).volume_radius
    return data, 1.05 * ql.m_o(2, radius, 0.0, lam)


_COLD_ROUTES = [(0.62, 0.0, "eigenfunction"), (0.3, 0.0, "positive-scalar"),
                (0.3, -3.5, "negative-floor")]


@pytest.mark.parametrize("a, lam, route", _COLD_ROUTES, ids=[r[2] for r in _COLD_ROUTES])
def test_certified_cos_construction_builds_no_per_t_grid(a, lam, route):
    # The path's fields are kept once per distinct slice; a certified
    # construction reads them row by row, so the only (n_t, n_theta) field
    # it builds is the eigen route's du/dt.
    data, mass = _cos_data(a, lam)
    path = sphere_seed.normalize_path(
        sphere_seed.axisym_metric_from_function(data.exponent), n_t=513)
    report = pl.construct_extension(replace(data, exponent=None, path=path), mass)
    assert report.diagnostics["route"] == route
    assert not {"sqrt_det", "scalar_curvature", "gprime_sq"} & set(vars(path.slice_fields))
    if route == "eigenfunction":
        assert not {"lambda1", "u", "laplace_u"} & set(vars(path.eigen_fields))
    else:
        assert "eigen_fields" not in vars(path)


# tracemalloc's peak of one cold construction at the default 513 x 1025
# grid, in MiB, about 10% above the measured 28.7, 17.3 and 21.4 (NumPy
# 2.4).  With the fields gathered to every t sample and the transforms, the
# t stencil and the margin pass run over whole grids, the peaks were 46.0,
# 32.3 and 32.3.
_PEAK_MIB = {"eigenfunction": 32.0, "positive-scalar": 19.5, "negative-floor": 23.5}


@pytest.mark.parametrize("a, lam, route", _COLD_ROUTES, ids=[r[2] for r in _COLD_ROUTES])
def test_cold_cos_construction_peak_memory(a, lam, route):
    data, mass = _cos_data(a, lam)
    tracemalloc.start()
    try:
        report = pl.construct_extension(data, mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.diagnostics["route"] == route
    assert peak < _PEAK_MIB[route] * 2 ** 20
