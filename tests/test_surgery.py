"""Joining, bending, and model-attachment surgery on radial profiles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from charged_extensions import collar as co
from charged_extensions import sphere_seed
from charged_extensions import surgery as su
from charged_extensions.errors import DomainError, PreconditionError
from charged_extensions.lambda_rn import (
    RNParams,
    SampledProfile,
    classify,
    radial_coordinate,
    rn_profile,
    rn_profile_mu,
)
from charged_extensions.numutil import simpson_uniform
from charged_extensions.quasilocal import hawking_rotsym


def line_profile(lo, hi, start, slope, charge=0.0, count=65):
    s = np.linspace(lo, hi, count)
    f = start + slope * (s - lo)
    return SampledProfile(
        s, f, np.full(count, slope), np.zeros(count),
        np.array(["synthetic"] * count), charge=charge)


@pytest.fixture(scope="module")
def round_tail():
    path = sphere_seed.round_path(2, 1.0, n_t=513)
    amplitude = co.find_A0(path, 0.05, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
    spec = co.CollarSpec(path=path, epsilon=0.05, A=amplitude, kappa=0.95,
                         case_id=co.CONSTANT_LAPSE, q=0.0, lam=0.0, r_o=1.0)
    return co.tail_to_arclength(co.build_collar(spec))


@pytest.fixture(scope="module")
def charged_tail():
    path = sphere_seed.round_path(2, 1.0, n_t=513)
    amplitude = co.find_A0(path, 0.5, 0.5, co.CONSTANT_LAPSE, 0.3, -3.0)
    spec = co.CollarSpec(path=path, epsilon=0.5, A=amplitude, kappa=0.5,
                         case_id=co.CONSTANT_LAPSE, q=0.3, lam=-3.0, r_o=1.0)
    return co.tail_to_arclength(co.build_collar(spec))


@pytest.fixture(scope="module")
def strict_inputs():
    left = line_profile(0.5, 1.0, 0.5, 1.0)
    right = line_profile(3.0, 4.0, 2.0, 0.5)
    return su.GlueInputs(2, left, right, -3.0, 0.0)


@pytest.fixture(scope="module")
def line_glue(strict_inputs):
    shifted, _ = su.translate_right_interval(strict_inputs)
    bridge = su.build_bridge(strict_inputs, shifted)
    smoothed = su.mollify_and_certify(bridge, 0.0, -3.0, 2)
    return bridge, shifted, smoothed


@pytest.fixture(scope="module")
def schwarzschild_bend():
    params = RNParams(2, 1.0, 0.0, 0.0)
    s0 = radial_coordinate(params, 3.0)
    return params, s0, su.bend(params, s0)


@pytest.fixture(scope="module")
def schwarzschild_glue(round_tail):
    f_b, df_b = float(round_tail.f[-1]), float(round_tail.df[-1])
    m_star = hawking_rotsym(2, 0.0, 0.0, f_b, df_b)
    m_e = 1.05 * m_star
    profile, record = su.glue_to_rn(2, round_tail, m_star, m_e, 0.0, 0.0)
    return m_star, m_e, profile, record


@pytest.fixture(scope="module")
def charged_glue(charged_tail):
    f_b, df_b = float(charged_tail.f[-1]), float(charged_tail.df[-1])
    m_star = hawking_rotsym(2, 0.3, -3.0, f_b, df_b)
    m_e = 1.02 * m_star
    profile, record = su.glue_to_rn(2, charged_tail, m_star, m_e, 0.3, -3.0)
    return m_star, m_e, profile, record


@pytest.fixture(scope="module")
def charged_bridge(charged_tail):
    """The bridge that glue_to_rn mollifies for the charged tail."""
    bridges = []
    mollify = su.mollify_and_certify

    def capture(bridge, *args):
        bridges.append(bridge)
        return mollify(bridge, *args)

    f_b, df_b = float(charged_tail.f[-1]), float(charged_tail.df[-1])
    m_star = hawking_rotsym(2, 0.3, -3.0, f_b, df_b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(su, "mollify_and_certify", capture)
        su.glue_to_rn(2, charged_tail, m_star, 1.02 * m_star, 0.3, -3.0)
    return bridges[0]


def _reference_mollified_point(bridge, cutoff, eps, t):
    """One point at a time: the reference for the batched mollification."""
    eta = float(cutoff.value(t))
    radius = eps * eta
    if radius == 0.0:
        f, df, d2f = bridge.evaluate(t)
        return float(f[0]), float(df[0]), float(d2f[0])
    if eta >= 1.0:
        breaks = [(t - j) / eps for j in bridge.junctions]
        xs, ws = su._gl_panels(-1.0, 1.0, breaks, *su._GL64)
        fv, dfv, d2fv = bridge.evaluate(t - eps * xs)
        phi = su._bump(xs) * ws
        return float(fv @ phi), float(dfv @ phi), float(d2fv @ phi)
    xs, ws = su._GL64
    fv, dfv, d2fv = bridge.evaluate(t - radius * xs)
    phi = su._bump(xs) * ws
    deta, d2eta = cutoff.derivatives(t)
    chain = 1.0 - eps * deta * xs
    f = fv @ phi
    df = (dfv * chain) @ phi
    d2f = ((d2fv * chain ** 2 - dfv * eps * d2eta * xs)) @ phi
    return float(f), float(df), float(d2f)


class TestMarginOperator:
    @pytest.mark.parametrize("params", [
        RNParams(2, 1.0, 0.0, 0.0),
        RNParams(2, 1.25, 0.75, 0.0),
        RNParams(2, 1.0, 0.3, -3.0),
        RNParams(3, 1.0, 0.2, 0.0),
    ])
    def test_model_profiles_saturate(self, params):
        profile = rn_profile(params, 4.0)
        margins = su.dec_margin_operator(params.n, params.q, params.lam, profile)
        assert float(np.max(np.abs(margins))) < 1e-6

    def test_flat_profile_margin_exactly_zero(self):
        profile = line_profile(1.0, 2.0, 1.0, 1.0)
        margins = su.dec_margin_operator(2, 0.0, 0.0, profile)
        assert np.all(margins == 0.0)

    def test_collar_tail_margin_positive(self, round_tail):
        margins = su.dec_margin_operator(2, 0.0, 0.0, round_tail)
        assert float(np.min(margins)) > 0.0


class TestJunctionMassFloor:
    def test_uncharged_flat_floor_is_zero(self):
        assert su.junction_mass_floor(2, 0.0, 0.0, 1.7) == 0.0

    def test_closed_form_values(self):
        got = su.junction_mass_floor(2, 0.3, -3.0, 1.0)
        assert got == pytest.approx(0.09 - 1.0, rel=1e-14)
        got3 = su.junction_mass_floor(3, 0.2, -1.0, 1.5)
        want3 = 0.2 ** 2 / 1.5 ** 2 + 2.0 * (-1.0) * 1.5 ** 4 / (3 * 2 * 4)
        assert got3 == pytest.approx(want3, rel=1e-14)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            su.junction_mass_floor(2, 0.0, 0.0, 0.0)


class TestGlueInputs:
    def test_accepts_admissible_pair(self, strict_inputs):
        assert strict_inputs.b1 == 1.0
        assert strict_inputs.a2 == 3.0
        assert strict_inputs.f1_b1 == 1.0
        assert strict_inputs.f2_a2 == 2.0
        assert strict_inputs.slope_left == 1.0
        assert strict_inputs.slope_right == 0.5

    def test_rejects_when_left_not_below_right(self):
        left = line_profile(0.5, 1.0, 1.5, 1.0)
        right = line_profile(3.0, 4.0, 2.0, 0.5)
        with pytest.raises(PreconditionError):
            su.GlueInputs(2, left, right, -3.0, 0.0)

    def test_rejects_slope_inversion(self):
        left = line_profile(0.5, 1.0, 0.5, 0.5)
        right = line_profile(3.0, 4.0, 2.0, 1.0)
        with pytest.raises(PreconditionError):
            su.GlueInputs(2, left, right, -3.0, 0.0)

    def test_rejects_mass_below_junction_floor(self):
        left = line_profile(0.5, 1.0, 0.5, 1.5)
        right = line_profile(3.0, 4.0, 2.0, 0.5)
        with pytest.raises(PreconditionError):
            su.GlueInputs(2, left, right, 0.0, 0.0)

    def test_rejects_uncharged_junction_sitting_on_floor(self):
        left = line_profile(0.5, 1.0, 0.5, 1.0)
        right = line_profile(3.0, 4.0, 2.0, 0.5)
        with pytest.raises(PreconditionError):
            su.GlueInputs(2, left, right, 0.0, 0.0)

    def test_floor_equality_requires_strictly_smaller_target(self):
        slope = math.sqrt(0.75)
        left = line_profile(0.5, 1.0, 1.0 - 0.5 * slope, slope, charge=0.5)
        right = line_profile(3.0, 4.0, 2.0, 0.5, charge=0.5)
        inputs = su.GlueInputs(2, left, right, 0.0, 0.3)
        assert inputs.target_charge == 0.3
        with pytest.raises(PreconditionError):
            su.GlueInputs(2, left, right, 0.0, 0.5)

    def test_rejects_target_charge_above_constituents(self, strict_inputs):
        with pytest.raises(DomainError):
            su.GlueInputs(2, strict_inputs.left, strict_inputs.right, -3.0, 0.5)

    def test_rejects_positive_lambda(self, strict_inputs):
        with pytest.raises(DomainError):
            su.GlueInputs(2, strict_inputs.left, strict_inputs.right, 0.5, 0.0)

    def test_rejects_bad_dimension(self, strict_inputs):
        with pytest.raises(DomainError):
            su.GlueInputs(1, strict_inputs.left, strict_inputs.right, -3.0, 0.0)


class TestTranslateRightInterval:
    def test_unequal_slopes_use_harmonic_gap_length(self, strict_inputs):
        shifted, shift = su.translate_right_interval(strict_inputs)
        assert float(shifted.s_grid[0]) == pytest.approx(1.0 + 4.0 / 3.0, rel=1e-14)
        assert shift == pytest.approx(4.0 / 3.0 - 2.0, rel=1e-14)

    def test_equal_slopes_use_exact_gap_length(self):
        left = line_profile(0.5, 1.0, 0.5, 1.0)
        right = line_profile(3.0, 4.0, 3.0, 1.0)
        inputs = su.GlueInputs(2, left, right, -3.0, 0.0)
        shifted, shift = su.translate_right_interval(inputs)
        assert float(shifted.s_grid[0]) == pytest.approx(3.0, abs=1e-14)
        assert shift == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_zero_slope_doubles_minimal_length(self):
        left = line_profile(0.5, 1.0, 0.5, 1.0)
        right = line_profile(2.6, 3.6, 2.0, 0.0)
        inputs = su.GlueInputs(2, left, right, -3.0, 0.0)
        shifted, shift = su.translate_right_interval(inputs)
        assert float(shifted.s_grid[0]) == pytest.approx(3.0, abs=1e-14)
        assert shift == pytest.approx(0.4, rel=1e-13)

    def test_shift_preserves_values_and_evaluator(self, strict_inputs):
        shifted, shift = su.translate_right_interval(strict_inputs)
        assert np.array_equal(shifted.f, strict_inputs.right.f)
        assert np.array_equal(shifted.df, strict_inputs.right.df)
        f, df, _ = shifted.evaluator(shifted.s_grid)
        assert float(np.max(np.abs(f - shifted.f))) < 1e-12
        assert float(np.max(np.abs(df - shifted.df))) < 1e-12


class TestBuildBridge:
    def test_step_center_solves_the_radius_gap(self, line_glue):
        bridge, _, _ = line_glue
        assert bridge.x_c == pytest.approx(0.5, abs=1e-12)

    def test_slope_matches_junction_slopes(self, line_glue):
        bridge, _, _ = line_glue
        assert float(bridge.zeta(bridge.b1)) == pytest.approx(1.0, abs=1e-12)
        assert float(bridge.zeta(bridge.a2)) == pytest.approx(0.5, abs=1e-12)

    def test_slope_integrates_to_radius_gap(self, line_glue):
        bridge, _, _ = line_glue
        ss = np.linspace(bridge.b1, bridge.a2, 8193)
        integral = simpson_uniform(bridge.zeta(ss), ss[1] - ss[0])
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_slope_is_nonincreasing(self, line_glue):
        bridge, _, _ = line_glue
        ss = np.linspace(bridge.b1, bridge.a2, 2049)
        assert np.all(bridge.zeta_prime(ss) <= 0.0)
        zeta = bridge.zeta(ss)
        assert np.all(zeta <= 1.0 + 1e-15)
        assert np.all(zeta >= 0.5 - 1e-15)

    def test_values_continuous_at_junctions(self, line_glue):
        bridge, _, _ = line_glue
        for s_j, want in ((bridge.b1, 1.0), (bridge.a2, 2.0)):
            probes = np.array([s_j - 1e-10, s_j, s_j + 1e-10])
            f, _, _ = bridge.evaluate(probes)
            assert float(np.max(np.abs(f - want))) < 1e-8

    def test_equal_slope_bridge_is_linear(self):
        left = line_profile(0.5, 1.0, 0.5, 1.0)
        right = line_profile(3.0, 4.0, 3.0, 1.0)
        inputs = su.GlueInputs(2, left, right, -3.0, 0.0)
        shifted, _ = su.translate_right_interval(inputs)
        bridge = su.build_bridge(inputs, shifted)
        ss = np.linspace(bridge.b1, bridge.a2, 257)
        assert np.all(bridge.zeta(ss) == 1.0)
        f, _, _ = bridge.evaluate(np.array([2.0]))
        assert float(f[0]) == pytest.approx(2.0, abs=1e-12)


class TestMollifyAndCertify:
    def test_left_half_preserved_sample_exactly(self, strict_inputs, line_glue):
        _, _, out = line_glue
        left = strict_inputs.left
        keep = left.s_grid <= 0.5 * (left.s_grid[0] + left.s_grid[-1])
        count = int(np.sum(keep))
        assert np.array_equal(out.s_grid[:count], left.s_grid[keep])
        assert np.array_equal(out.f[:count], left.f[keep])
        assert np.array_equal(out.df[:count], left.df[keep])
        assert np.array_equal(out.d2f[:count], left.d2f[keep])

    def test_right_half_preserved_sample_exactly(self, line_glue):
        _, shifted, out = line_glue
        keep = shifted.s_grid >= 0.5 * (shifted.s_grid[0] + shifted.s_grid[-1])
        count = int(np.sum(keep))
        assert np.array_equal(out.s_grid[-count:], shifted.s_grid[keep])
        assert np.array_equal(out.f[-count:], shifted.f[keep])
        assert np.array_equal(out.df[-count:], shifted.df[keep])

    def test_margin_certified_against_independent_floor(self, line_glue):
        bridge, _, out = line_glue
        worst = math.inf
        for lo, hi, cut in ((bridge.a1, bridge.b1, np.s_[:-1]),
                            (bridge.b1, bridge.a2, np.s_[1:-1]),
                            (bridge.a2, bridge.b2, np.s_[1:])):
            ss = np.linspace(lo, hi, 4097)[cut]
            f, df, d2f = bridge.evaluate(ss)
            params = RNParams(2, 0.0, 0.0, -3.0)
            h = (f ** 2 + 3.0 * f ** 4)
            omega = 0.5 / f * (h / f ** 2 - df ** 2)
            worst = min(worst, float(np.min(omega - d2f)))
        margins = su.dec_margin_operator(2, 0.0, -3.0, out)
        assert float(np.min(margins)) >= worst / 6.0

    def test_close_to_the_unsmoothed_join(self, line_glue):
        bridge, _, out = line_glue
        f_join, df_join, _ = bridge.evaluate(out.s_grid)
        assert float(np.max(np.abs(out.f - f_join))) <= 0.01 * (1.0 + float(np.max(np.abs(f_join))))
        assert float(np.max(np.abs(out.df - df_join))) <= 0.02 * (1.0 + float(np.max(np.abs(df_join))))

    def test_monotone_inputs_give_monotone_output(self, line_glue):
        _, _, out = line_glue
        assert float(np.min(out.df)) > 0.0

    def test_middle_marked_and_charge_forwarded(self, line_glue):
        _, _, out = line_glue
        kinds = set(out.provenance.tolist())
        assert kinds == {"synthetic", "mollified"}
        assert out.charge == 0.0

    def test_rejects_join_without_interior_margin(self):
        heavy = RNParams(2, 1.0, 0.0, 0.0)
        heavier = RNParams(2, 1.2, 0.0, 0.0)
        left_src = rn_profile_mu(heavy, 2.5, 1.0, 513)
        right_src = rn_profile_mu(heavier, 3.5, 1.0, 513)
        left = SampledProfile(left_src.s_grid, left_src.f, left_src.df,
                              left_src.d2f + 1e-6,
                              np.array(["ode"] * left_src.s_grid.size))
        right = SampledProfile(right_src.s_grid + 2.0, right_src.f,
                               right_src.df, right_src.d2f,
                               np.array(["ode"] * right_src.s_grid.size))
        inputs = su.GlueInputs(2, left, right, 0.0, 0.0)
        shifted, _ = su.translate_right_interval(inputs)
        bridge = su.build_bridge(inputs, shifted)
        with pytest.raises(PreconditionError):
            su.mollify_and_certify(bridge, 0.0, 0.0, 2)


    @pytest.mark.parametrize("which", ["line", "charged"])
    def test_batched_points_bitwise_equal_point_reference(
            self, which, line_glue, charged_bridge):
        bridge = line_glue[0] if which == "line" else charged_bridge
        a1, b1, a2, b2 = bridge.a1, bridge.b1, bridge.a2, bridge.b2
        mid1, mid2 = 0.5 * (a1 + b1), 0.5 * (a2 + b2)
        cutoff = su._Cutoff(mid1, b1, a2, mid2)
        ts = np.concatenate([np.linspace(a1, b2, 301), [mid1, b1, a2, mid2]])
        etas = cutoff.value(ts)
        assert np.any(etas == 0.0) and np.any(etas == 1.0)
        assert np.any((etas > 0.0) & (etas < 1.0))
        eps0 = 0.5 * min(cutoff.plateau, mid1 - a1, b2 - mid2)
        for eps in (eps0, eps0 / 8.0):
            got = su._mollified_points(bridge, cutoff, eps, ts)
            want = np.array([_reference_mollified_point(bridge, cutoff, eps, t)
                             for t in ts]).T
            assert np.array_equal(got, want)


class TestBend:
    def test_band_margin_certified(self, schwarzschild_bend):
        params, s0, res = schwarzschild_bend
        assert res.delta > 0.0
        assert res.min_margin > 0.0
        margins = su.dec_margin_operator(2, 0.0, 0.0, res.profile)
        strict = res.profile.s_grid < s0 - res.scale / 5.0
        assert float(np.min(margins[strict])) > 0.0
        assert float(np.min(margins[~strict])) >= -1e-9

    def test_identity_beyond_station_bitwise(self, schwarzschild_bend):
        params, s0, res = schwarzschild_bend
        base = rn_profile(params, s0 + 5.0)
        tail = res.profile.s_grid >= s0
        f_base = base.evaluator(res.profile.s_grid[tail])[0]
        assert np.array_equal(res.profile.f[tail], f_base)
        assert np.array_equal(res.sigma[tail], res.profile.s_grid[tail])

    def test_bend_lowers_value_and_slope(self, schwarzschild_bend):
        params, s0, res = schwarzschild_bend
        base = rn_profile(params, s0 + 5.0)
        band = res.profile.s_grid < s0
        f_base, df_base, _ = base.evaluator(res.profile.s_grid[band])
        assert np.all(res.profile.f[band] <= f_base)
        assert float(res.profile.f[0]) < float(f_base[0])
        assert np.all(res.sigma[band] <= res.profile.s_grid[band])
        assert float(res.sigma[0]) < float(res.profile.s_grid[0])
        du_station = float(base.evaluator(np.array([s0]))[1][0])
        assert float(res.profile.df[0]) < du_station

    def test_value_floor_respected(self, schwarzschild_bend):
        params, s0, _ = schwarzschild_bend
        res = su.bend(params, s0, alpha=2.99)
        assert float(res.profile.f[0]) > 2.99

    def test_slope_cap_respected(self, schwarzschild_bend):
        params, s0, _ = schwarzschild_bend
        res = su.bend(params, s0, slope_cap=0.5)
        assert float(res.profile.df[0]) < 0.5
        assert float(np.min(res.profile.df)) > 0.0

    def test_rejects_nonpositive_station(self, schwarzschild_bend):
        params, _, _ = schwarzschild_bend
        with pytest.raises(DomainError):
            su.bend(params, 0.0)
        with pytest.raises(DomainError):
            su.bend(params, -1.0)

    def test_rejects_profile_ending_at_station(self, schwarzschild_bend):
        params, s0, _ = schwarzschild_bend
        with pytest.raises(DomainError):
            su.bend(params, s0, profile=rn_profile(params, s0 - 0.5))

    def test_charged_negative_lambda_band(self):
        params = RNParams(2, 1.2, 0.3, -3.0)
        res = su.bend(params, 0.4)
        margins = su.dec_margin_operator(2, 0.3, -3.0, res.profile)
        strict = res.profile.s_grid < 0.4 - res.scale / 5.0
        assert float(np.min(margins[strict])) > 0.0
        assert float(np.min(margins[~strict])) >= -1e-9
        assert set(res.profile.provenance.tolist()) == {"bent", "ode"}

    def test_interior_start_route(self):
        params = RNParams(2, 1.2, 0.3, -3.0)
        res = su.bend(params, 0.3, profile=rn_profile_mu(params, 2.0, 5.3))
        assert res.delta > 0.0
        assert float(res.profile.f[0]) > 2.0


class TestGlueToRN:
    def test_far_end_mass_matches(self, schwarzschild_glue):
        _, m_e, profile, _ = schwarzschild_glue
        far = hawking_rotsym(2, 0.0, 0.0, float(profile.f[-1]), float(profile.df[-1]))
        assert abs(far - m_e) <= 1e-8 * (1.0 + abs(m_e))

    def test_left_collar_preserved_sample_exactly(self, round_tail, schwarzschild_glue):
        _, _, profile, _ = schwarzschild_glue
        keep = round_tail.s_grid <= 0.5 * (round_tail.s_grid[0] + round_tail.s_grid[-1])
        count = int(np.sum(keep))
        assert np.array_equal(profile.s_grid[:count], round_tail.s_grid[keep])
        assert np.array_equal(profile.f[:count], round_tail.f[keep])
        assert np.array_equal(profile.df[:count], round_tail.df[keep])

    def test_margins_strict_inside_saturated_outside(self, schwarzschild_glue):
        _, _, profile, _ = schwarzschild_glue
        margins = su.dec_margin_operator(2, 0.0, 0.0, profile)
        surgical = np.isin(profile.provenance, ("collar", "mollified"))
        assert float(np.min(margins[surgical])) > 0.0
        assert float(np.min(margins)) >= -1e-9

    def test_model_tail_matches_independent_arclength(self, schwarzschild_glue):
        _, m_e, profile, record = schwarzschild_glue
        params_e = RNParams(2, m_e, 0.0, 0.0)
        offset = record["s_match"] - radial_coordinate(params_e, record["r_C"])
        mask = profile.s_grid >= record["s_match"]
        independent = rn_profile(params_e, float(profile.s_grid[-1]) - offset + 0.5)
        expect = independent.evaluator(profile.s_grid[mask] - offset)[0]
        assert float(np.max(np.abs(profile.f[mask] - expect))) < 1e-8

    def test_attachment_record_fields(self, round_tail, schwarzschild_glue):
        _, m_e, profile, record = schwarzschild_glue
        assert set(record) == {"m_e", "q_e", "lambda", "r_C", "s_match"}
        assert record["m_e"] == m_e
        assert record["q_e"] == 0.0
        assert record["lambda"] == 0.0
        assert record["r_C"] > float(round_tail.f[-1])
        assert float(round_tail.s_grid[-1]) < record["s_match"] < float(profile.s_grid[-1])

    def test_station_chosen_outside_profile_image(self, round_tail, schwarzschild_glue):
        _, m_e, _, record = schwarzschild_glue
        r_plus = classify(RNParams(2, m_e, 0.0, 0.0)).r_plus
        assert r_plus > float(round_tail.f[-1])
        assert record["r_C"] > r_plus

    def test_monotone_output(self, schwarzschild_glue):
        _, _, profile, _ = schwarzschild_glue
        assert float(np.min(profile.df)) > 0.0
        assert np.all(np.diff(profile.f) > 0.0)

    def test_rejects_equal_end_parameters(self, round_tail):
        f_b, df_b = float(round_tail.f[-1]), float(round_tail.df[-1])
        m_star = hawking_rotsym(2, 0.0, 0.0, f_b, df_b)
        with pytest.raises(PreconditionError):
            su.glue_to_rn(2, round_tail, m_star, m_star, 0.0, 0.0)

    def test_rejects_mass_not_dominating(self, round_tail):
        f_b, df_b = float(round_tail.f[-1]), float(round_tail.df[-1])
        m_star = hawking_rotsym(2, 0.0, 0.0, f_b, df_b)
        with pytest.raises(PreconditionError):
            su.glue_to_rn(2, round_tail, m_star, 0.9 * m_star, 0.0, 0.0)

    def test_rejects_declared_mass_mismatch(self, round_tail):
        f_b, df_b = float(round_tail.f[-1]), float(round_tail.df[-1])
        m_star = hawking_rotsym(2, 0.0, 0.0, f_b, df_b)
        with pytest.raises(PreconditionError):
            su.glue_to_rn(2, round_tail, 1.01 * m_star, 1.05 * m_star, 0.0, 0.0)

    def test_rejects_flat_tail_end(self):
        flat = line_profile(0.3, 0.6, 1.0, 0.0)
        with pytest.raises(PreconditionError):
            su.glue_to_rn(2, flat, 0.5, 0.6, 0.0, 0.0)

    def test_charged_attachment_succeeds(self, charged_tail, charged_glue):
        _, m_e, profile, record = charged_glue
        far = hawking_rotsym(2, 0.3, -3.0, float(profile.f[-1]), float(profile.df[-1]))
        assert abs(far - m_e) <= 1e-8 * (1.0 + abs(m_e))
        margins = su.dec_margin_operator(2, 0.3, -3.0, profile)
        surgical = np.isin(profile.provenance, ("collar", "mollified"))
        assert float(np.min(margins[surgical])) > 0.0
        assert float(np.min(margins)) >= -1e-9
        assert profile.charge == 0.3
        assert record["q_e"] == 0.3
        assert float(np.min(profile.df)) > 0.0

    def test_charged_station_inside_profile_image(self, charged_tail, charged_glue):
        _, m_e, _, record = charged_glue
        f_b = float(charged_tail.f[-1])
        r_plus = classify(RNParams(2, m_e, 0.3, -3.0)).r_plus
        assert r_plus < f_b
        assert f_b < record["r_C"] < 1.1 * f_b
