"""Joining, bending, and model-attachment surgery on radial profiles."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from charged_extensions import collar as co
from charged_extensions import lambda_rn
from charged_extensions import pipeline as pl
from charged_extensions import quasilocal as ql
from charged_extensions import sphere_seed
from charged_extensions import surgery as su
from charged_extensions.errors import (
    ConstructionError,
    DomainError,
    InternalConsistencyError,
    PreconditionError,
    VerificationError,
)
from charged_extensions.lambda_rn import (
    RNParams,
    SampledProfile,
    classify,
    radial_coordinate,
    rn_profile,
    rn_profile_mu,
)
from charged_extensions.numutil import _smooth_step_jet, erfc, simpson_uniform
from charged_extensions.quasilocal import hawking_rotsym


def line_profile(lo, hi, start, slope, charge=0.0, count=65):
    def evaluate(s):
        s = np.asarray(s, dtype=float)
        return start + slope * (s - lo), np.full(s.shape, float(slope)), np.zeros(s.shape)

    s = np.linspace(lo, hi, count)
    return SampledProfile(s, *evaluate(s), np.array(["synthetic"] * count),
                          charge=charge, evaluator=evaluate)


@pytest.fixture(scope="module")
def round_tail():
    path = sphere_seed.round_path(2, 1.0, n_t=513)
    amplitude = co.find_A0(path, 0.05, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
    spec = co.CollarSpec(path=path, epsilon=0.05, A=amplitude, kappa=0.95,
                         case_id=co.CONSTANT_LAPSE, q=0.0, lam=0.0)
    return co.tail_to_arclength(co.build_collar(spec))


@pytest.fixture(scope="module")
def charged_tail():
    path = sphere_seed.round_path(2, 1.0, n_t=513)
    amplitude = co.find_A0(path, 0.5, 0.5, co.CONSTANT_LAPSE, 0.3, -3.0).A
    spec = co.CollarSpec(path=path, epsilon=0.5, A=amplitude, kappa=0.5,
                         case_id=co.CONSTANT_LAPSE, q=0.3, lam=-3.0)
    return co.tail_to_arclength(co.build_collar(spec))


@pytest.fixture(scope="module")
def strict_inputs():
    left = line_profile(0.5, 1.0, 0.5, 1.0)
    right = line_profile(3.0, 4.0, 2.0, 0.5)
    return su.GlueInputs(2, left, right, -3.0, 0.0)


@pytest.fixture(scope="module")
def line_glue(strict_inputs):
    """The plain join of two lines, the blended join certified from it and
    its samples."""
    bridge = su.build_bridge(strict_inputs)
    smoothed, join = su.mollify_and_certify(bridge, 0.0, -3.0, 2)
    return bridge, join, smoothed


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
def charged_join(charged_tail):
    """The plain join that glue_to_rn blends for the charged tail, the
    blended join it certifies and its samples."""
    joins = []
    mollify = su.mollify_and_certify

    def capture(bridge, *args):
        glued, join = mollify(bridge, *args)
        joins.append((bridge, join, glued))
        return glued, join

    f_b, df_b = float(charged_tail.f[-1]), float(charged_tail.df[-1])
    m_star = hawking_rotsym(2, 0.3, -3.0, f_b, df_b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(su, "mollify_and_certify", capture)
        su.glue_to_rn(2, charged_tail, m_star, 1.02 * m_star, 0.3, -3.0)
    return joins[0]


@pytest.fixture(scope="module")
def short_join():
    """A bridge a seventy-fifth as long as either line it joins: its blend
    width is set by the bridge, not by the pieces."""
    inputs = su.GlueInputs(2, line_profile(0.5, 1.0, 0.5, 1.0),
                           line_profile(3.0, 4.0, 1.01, 0.5), -3.0, 0.0)
    bridge = su.build_bridge(inputs)
    smoothed, join = su.mollify_and_certify(bridge, 0.0, -3.0, 2)
    return bridge, join, smoothed


def _joins(which, line_glue, charged_join, short_join):
    """(plain join, blended join, samples) of a named case."""
    return {"line": line_glue, "charged": charged_join, "short": short_join}[which]


def _three_closure_deformation(scale, s0):
    """sigma, sigma', sigma'' of the bend, one closure and one exp each: the
    reference for the jet of su._deformation."""
    root_pi = math.sqrt(math.pi)

    def g_int(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        pos = y > 0.0
        z = scale / y[pos]
        out[pos] = y[pos] * np.exp(-z * z) - scale * root_pi * erfc(z)
        return out

    def sigma(s):
        s = np.asarray(s, dtype=float)
        return s - g_int(s0 - s)

    def sigma_dot(s):
        s = np.asarray(s, dtype=float)
        y = s0 - s
        out = np.ones_like(y)
        pos = y > 0.0
        out[pos] += np.exp(-((scale / y[pos]) ** 2))
        return out

    def sigma_ddot(s):
        s = np.asarray(s, dtype=float)
        y = s0 - s
        out = np.zeros_like(y)
        pos = y > 0.0
        out[pos] = -2.0 * scale * scale * np.exp(-((scale / y[pos]) ** 2)) / y[pos] ** 3
        return out

    return sigma, sigma_dot, sigma_ddot


def _masked_evaluate(join, s):
    """The masked formulation that the row-wise evaluation replaced: each
    part's (f, f', f'') tuple scattered as one 3 x k array."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty((3,) + s.shape)
    w = join.width
    left, right = s <= join.b1 - w, s >= join.a2 + w
    near = ~left & (s < join.b1 + w)
    far = ~right & (s > join.a2 - w)
    parts = [(left, join.left.evaluator), (right, join.right.evaluator)]
    if join.zones:
        parts += [(near, join.zones[0].values), (far, join.zones[1].values)]
    parts.append((~(left | right | near | far), _whole_array_bridge_values(join)))
    for mask, values in parts:
        if np.any(mask):
            out[:, mask] = values(s[mask])
    return out


def _whole_array_istep(w):
    """The step's integral with np.interp reading the table at every node,
    clipped."""
    w = np.asarray(w, dtype=float)
    out = np.where(w >= 1.0, w - 0.5, 0.0)
    inner = (w > 0.0) & (w < 1.0)
    xs, values, _ = su._istep_table()
    return np.where(inner, np.interp(np.clip(w, 0.0, 1.0), xs, values), out)


def _whole_array_bridge_values(join):
    """Bridge values with the step's integral and jet taken at every node."""
    def values(s):
        tau = (s - join.start) / join.length
        w = join._step_arg(tau)
        psi_integral = tau - 2.0 * join.rho * _whole_array_istep(w)
        dc = join.slope_left - join.slope_right
        f = join.f_start + join.length * (join.slope_right * tau + dc * psi_integral)
        step, dstep = _smooth_step_jet(w, 1)
        df = join.slope_right + dc * (1.0 - step)
        d2f = -dc * dstep / (2.0 * join.rho * join.length)
        return f, df, d2f

    return values


class TestBridgeKernels:
    """The join's evaluation, bit for bit the formulations it replaced."""

    @staticmethod
    def _nodes(join):
        ends = [join.b1, join.a2]
        for zone in join.zones:
            ends += [zone.mid - zone.width, zone.mid + zone.width]
        around = [np.nextafter(j, d) for j in ends for d in (-np.inf, np.inf)]
        return np.concatenate([np.linspace(join.a1, join.b2, 301), ends, around])

    @pytest.mark.parametrize("blended", [False, True])
    @pytest.mark.parametrize("which", ["line", "charged", "short"])
    def test_evaluate_is_the_pointwise_and_the_masked_evaluation(
            self, which, blended, line_glue, charged_join, short_join):
        join = _joins(which, line_glue, charged_join, short_join)[int(blended)]
        assert bool(join.zones) == blended
        s = self._nodes(join)
        assert np.any(s == join.b1) and np.any(s == join.a2)
        got = join.evaluate(s)
        assert got.shape == (3, s.size)
        assert np.array_equal(got, _masked_evaluate(join, s))
        pointwise = np.array([join.evaluate(np.array([t]))[:, 0] for t in s]).T
        assert np.array_equal(got, pointwise)
        # A 2-D argument gives the same values in its own shape.
        grid = s[:300].reshape(20, 15)
        assert np.array_equal(join.evaluate(grid), got[:, :300].reshape(3, 20, 15))
        assert np.array_equal(join.evaluate(grid), _masked_evaluate(join, grid))

    @pytest.mark.parametrize("blended", [False, True])
    def test_evaluate_with_empty_parts(self, blended, charged_join):
        join = charged_join[int(blended)]
        b1, a2 = join.b1, join.a2
        for s in (np.linspace(join.a1, b1, 17),             # left piece and zone
                  np.linspace(b1, a2, 19)[1:-1],            # zones and bridge
                  np.linspace(a2, join.b2, 17),             # zone and right piece
                  np.array([b1, a2])):                      # no bridge node
            assert np.array_equal(join.evaluate(s), _masked_evaluate(join, s))

    def test_istep_at_the_band_edges(self):
        w = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
        got = su.BridgedProfile._istep(w)
        assert np.array_equal(got, _whole_array_istep(w))
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[3] == 0.5 and got[4] == 1.0
        assert 0.0 < got[2] < 0.5
        for k, value in enumerate(w):
            assert np.array_equal(su.BridgedProfile._istep(np.array([value])), got[k:k + 1])

    def test_istep_is_np_interp_bit_for_bit(self):
        # The knot interval is floor(w 2^14) and the slope a cached table:
        # every knot, both ulp neighbours of each, and random points.
        xs = su._istep_table()[0]
        assert np.array_equal(xs, np.arange(xs.size) / 2.0 ** 14)
        w = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
                            np.random.default_rng(34).uniform(0.0, 1.0, 10 ** 5)])
        assert np.array_equal(su.BridgedProfile._istep(w), _whole_array_istep(w))


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

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_rejects_a_piece_without_an_evaluator(self, strict_inputs, side):
        bare = dataclasses.replace(getattr(strict_inputs, side), evaluator=None)
        with pytest.raises(DomainError, match=f"{side} profile carries no dense evaluator"):
            dataclasses.replace(strict_inputs, **{side: bare})


class TestBuildBridge:
    def test_unequal_slopes_use_harmonic_gap_length(self, strict_inputs):
        bridge = su.build_bridge(strict_inputs)
        assert bridge.a2 == pytest.approx(1.0 + 4.0 / 3.0, rel=1e-14)
        assert bridge.shift == pytest.approx(4.0 / 3.0 - 2.0, rel=1e-14)

    def test_equal_slopes_use_exact_gap_length(self):
        left = line_profile(0.5, 1.0, 0.5, 1.0)
        right = line_profile(3.0, 4.0, 3.0, 1.0)
        bridge = su.build_bridge(su.GlueInputs(2, left, right, -3.0, 0.0))
        assert bridge.a2 == pytest.approx(3.0, abs=1e-14)
        assert bridge.shift == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_zero_slope_doubles_minimal_length(self):
        left = line_profile(0.5, 1.0, 0.5, 1.0)
        right = line_profile(2.6, 3.6, 2.0, 0.0)
        bridge = su.build_bridge(su.GlueInputs(2, left, right, -3.0, 0.0))
        assert bridge.a2 == pytest.approx(3.0, abs=1e-14)
        assert bridge.shift == pytest.approx(0.4, rel=1e-13)

    def test_shift_preserves_values_and_evaluator(self, strict_inputs):
        bridge = su.build_bridge(strict_inputs)
        shifted = bridge.right
        assert bridge.piece is strict_inputs.right
        assert np.array_equal(shifted.s_grid, strict_inputs.right.s_grid + bridge.shift)
        assert np.array_equal(shifted.f, strict_inputs.right.f)
        assert np.array_equal(shifted.df, strict_inputs.right.df)
        f, df, _ = shifted.evaluator(shifted.s_grid)
        assert float(np.max(np.abs(f - shifted.f))) < 1e-12
        assert float(np.max(np.abs(df - shifted.df))) < 1e-12

    def test_step_center_solves_the_radius_gap(self, line_glue):
        # The translated length 2 gap / (c1 + c2) puts the root of the
        # affine residual length (c2 + (c1 - c2) x) - gap at x = 1/2.
        for join in line_glue[:2]:
            assert (join.x_c, join.rho) == (0.5, 0.475)

    def test_length_off_the_radius_gap_fails_the_reintegration(self, strict_inputs,
                                                               monkeypatch):
        close = su._close

        def too_far(*args):
            bridge = close(*args)
            return dataclasses.replace(bridge, right=su._shift_profile(bridge.right, 0.1),
                                       shift=bridge.shift + 0.1)

        monkeypatch.setattr(su, "_close", too_far)
        with pytest.raises(InternalConsistencyError, match="bridge slope integrates"):
            su.build_bridge(strict_inputs)

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
        inner = ss[(ss > bridge.b1) & (ss < bridge.a2)]
        assert np.all(bridge.evaluate(inner)[2] <= 0.0)
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
        bridge = su.build_bridge(su.GlueInputs(2, left, right, -3.0, 0.0))
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
        _, join, out = line_glue
        shifted = join.right
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

        def left_eval(s):
            f, df, d2f = left_src.evaluator(s)
            return f, df, d2f + 1e-6

        def right_eval(s):
            return right_src.evaluator(np.asarray(s, dtype=float) - 2.0)

        left = SampledProfile(left_src.s_grid, left_src.f, left_src.df,
                              left_src.d2f + 1e-6,
                              np.array(["ode"] * left_src.s_grid.size),
                              evaluator=left_eval)
        right = SampledProfile(right_src.s_grid + 2.0, right_src.f,
                               right_src.df, right_src.d2f,
                               np.array(["ode"] * right_src.s_grid.size),
                               evaluator=right_eval)
        bridge = su.build_bridge(su.GlueInputs(2, left, right, 0.0, 0.0))
        with pytest.raises(PreconditionError):
            su.mollify_and_certify(bridge, 0.0, 0.0, 2)

    def test_nan_margins_make_a_nan_floor_that_is_refused(self, strict_inputs):
        # A left piece whose f'' is NaN on half the points of each call: the
        # floor is NaN, not the minimum of the finite margins, and it is
        # refused before any blend width is tried.
        clean = strict_inputs.left.evaluator

        def evaluate(s):
            f, df, d2f = clean(s)
            d2f.ravel()[::2] = math.nan
            return f, df, d2f

        left = dataclasses.replace(strict_inputs.left, evaluator=evaluate)
        bridge = su.build_bridge(dataclasses.replace(strict_inputs, left=left))
        assert math.isnan(su._margin_floor(bridge, 2, 0.0, -3.0))
        with pytest.raises(PreconditionError, match="margin floor off the junctions is nan"):
            su.mollify_and_certify(bridge, 0.0, -3.0, 2)

    def test_input_sample_an_ulp_inside_a_half_edge_is_not_repeated(
            self, strict_inputs, line_glue):
        # A piece of odd sample count has a sample at the edge of its kept
        # half (mid1 on the left, mid2 on the right).  Rounded an ulp inward,
        # the join must not repeat it with its own point at the edge.
        s = strict_inputs.left.s_grid.copy()
        s[32] = np.nextafter(0.75, 0.0)
        left = dataclasses.replace(strict_inputs.left, s_grid=s, f=s.copy())
        # The right piece's sample 32 lands an ulp above mid2 once the
        # blend has translated it; the translation reads only the first
        # sample and the evaluator.
        shift = line_glue[1].shift
        right = strict_inputs.right
        s = right.s_grid.copy()
        a2, b2 = s[0] + shift, s[-1] + shift
        target = np.nextafter(0.5 * (a2 + b2), np.inf)
        t = target - shift
        for _ in range(8):
            if t + shift == target:
                break
            t = np.nextafter(t, np.inf if t + shift < target else -np.inf)
        assert t + shift == target
        s[32] = t
        right = dataclasses.replace(right, s_grid=s)
        bridge = su.build_bridge(dataclasses.replace(strict_inputs, left=left, right=right))
        smoothed, join = su.mollify_and_certify(bridge, 0.0, -3.0, 2)
        assert join.shift == shift
        assert target in smoothed.s_grid
        assert float(np.min(np.diff(smoothed.s_grid))) > 1e-6


def _scaled_piece(c, lo, hi, shape, charge=0.0):
    """A piece c F(s / c) on [c lo, c hi], F given with its two derivatives."""
    def evaluate(s):
        f, df, d2f = shape(np.asarray(s, dtype=float) / c)
        return c * f, df, d2f / c

    s = c * np.linspace(lo, hi, 65)
    return SampledProfile(s, *evaluate(s), np.full(s.size, "synthetic"),
                          charge=charge, evaluator=evaluate)


def _convex(u):
    f = np.sqrt(1.0 + 0.3 * u * u)
    df = 0.3 * u / f
    return f, df, 0.3 / f - df * df / f


def _concave(u):
    v = u - 3.0
    return 2.0 + 0.2 * v - 0.05 * v * v, 0.2 - 0.1 * v, np.full(np.shape(u), -0.1)


class TestBlend:
    """The blend zones: exact f'' at their ends, convex combinations inside,
    integrals to quadrature accuracy, and the pieces untouched outside."""

    @pytest.mark.parametrize("which", ["line", "charged", "short"])
    def test_width_is_never_halved_and_the_margin_holds_half_d(
            self, which, line_glue, charged_join, short_join):
        bridge, join, out = _joins(which, line_glue, charged_join, short_join)
        assert join.width == min(0.02 * bridge.length, 0.25 * (bridge.b1 - bridge.a1),
                                 0.25 * (bridge.b2 - bridge.a2))
        q, lam = (0.3, -3.0) if which == "charged" else (0.0, -3.0)
        d = su._margin_floor(bridge, 2, q, lam) / 3.0
        margins = su.dec_margin_operator(2, q, lam, out)
        assert float(np.min(margins[out.provenance == "mollified"])) >= 0.5 * d

    @pytest.mark.parametrize("which", ["line", "charged", "short"])
    def test_zone_ends_meet_the_piece_and_the_bridge(
            self, which, line_glue, charged_join, short_join):
        _, join, _ = _joins(which, line_glue, charged_join, short_join)
        for zone in join.zones:
            outer = zone.mid + zone.outer * zone.width
            inner = zone.mid - zone.outer * zone.width
            f, df, d2f = zone.values(np.array([outer, inner]))
            piece = zone.evaluate(np.array([outer]))
            bridge = join._bridge_values(np.array([inner]))
            # f'' is the piece's at the outer end and the bridge's 0 at the
            # inner end, exactly; f and f' meet both to rounding.
            assert d2f[0] == piece[2][0] and d2f[1] == 0.0 == bridge[2][0]
            assert f[0] == pytest.approx(piece[0][0], rel=1e-15, abs=1e-15)
            assert df[0] == pytest.approx(piece[1][0], rel=1e-14, abs=1e-15)
            assert f[1] == pytest.approx(bridge[0][0], rel=1e-15, abs=1e-15)
            assert df[1] == pytest.approx(bridge[1][0], rel=1e-14, abs=1e-15)
            # f''' of either side, by one-sided fourth-order differences of
            # the join's f'' reaching w/64 from each end: they agree.
            h = zone.width / 256.0
            stencil = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
            scale = abs(float(piece[2][0])) / zone.width
            for end in (outer, inner):
                into = np.sign(zone.mid - end)
                inside = join.evaluate(end + into * h * np.arange(5))[2]
                outside = join.evaluate(end - into * h * np.arange(5))[2]
                third_in, third_out = into * (stencil @ inside), -into * (stencil @ outside)
                assert abs(third_in - third_out) <= 1e-8 * scale, (end, third_in, third_out)

    @pytest.mark.parametrize("which", ["line", "charged", "short"])
    def test_zone_samples_lie_between_the_one_sided_values(
            self, which, line_glue, charged_join, short_join):
        _, join, out = _joins(which, line_glue, charged_join, short_join)
        seen = 0
        for zone in join.zones:
            inside = np.abs(out.s_grid - zone.mid) <= zone.width
            piece = zone.evaluate(out.s_grid[inside])[2]
            d2f = out.d2f[inside]
            assert np.all(np.minimum(piece, 0.0) <= d2f)
            assert np.all(d2f <= np.maximum(piece, 0.0))
            seen += int(np.count_nonzero(inside))
        assert seen >= 2 * 129

    @pytest.mark.parametrize("side", [0, 1])
    def test_zone_integrals_agree_with_quadrature(self, side, charged_join):
        # A zone built from the piece's f'' with f and f' read as 0 at its
        # outer end holds the blend's integrals from there alone.
        zone = charged_join[1].zones[side]

        def blend_only(s):
            d2f = zone.evaluate(s)[2]
            return np.zeros_like(d2f), np.zeros_like(d2f), d2f

        bare = su._Zone.build(blend_only, zone.mid, zone.width, zone.outer)
        twice, once = bare.inner()

        # In x = (s - mid) / w: s itself resolves x only to ulp(s) / w.
        def blend(x):
            x = np.array([float(x)])
            s = zone.mid + zone.width * x
            return float(su._zone_weight(x, zone.outer)[0] * zone.evaluate(s)[2][0])

        ends = [zone.outer, 0.0, -zone.outer]
        with mpmath.workdps(30):
            once_ref = zone.width * mpmath.quad(blend, ends)
            twice_ref = zone.width ** 2 * mpmath.quad(
                lambda x: (-zone.outer - x) * blend(x), ends)
        assert abs(once - once_ref) <= 1e-13 * abs(once_ref)
        assert abs(twice - twice_ref) <= 1e-13 * abs(twice_ref)

    @pytest.mark.parametrize("which", ["line", "charged", "short"])
    def test_outside_the_zones_the_output_is_the_pieces(
            self, which, line_glue, charged_join, short_join):
        _, join, out = _joins(which, line_glue, charged_join, short_join)
        values = np.array([out.f, out.df, out.d2f])
        for piece, side in ((join.left, out.s_grid <= join.b1 - join.width),
                            (join.right, out.s_grid >= join.a2 + join.width)):
            kept = (out.provenance != "mollified") & side
            samples = np.isin(piece.s_grid, out.s_grid[kept])
            assert np.count_nonzero(kept) >= piece.s_grid.size // 2
            assert np.array_equal(values[:, kept],
                                  np.array([piece.f, piece.df, piece.d2f])[:, samples])
            between = side & ~kept
            assert np.count_nonzero(between) > 0
            assert np.array_equal(values[:, between],
                                  np.array(piece.evaluator(out.s_grid[between])))

    def test_forced_margin_failure_carries_the_width_trace(self, monkeypatch):
        # A floor no blend can reach: every width halves, and the surgery
        # stage's error carries each width with its worst margin.
        monkeypatch.setattr(su, "_margin_floor", lambda *args: 1e300)
        data = pl.BartnikDataSpec(n=2, q=0.2, lam=-1.0, r_o=1.0)
        with pytest.raises(ConstructionError, match=r"^\[stage: surgery\] no blend width "
                           "certified the margin floor") as caught:
            pl.construct_extension(data, 1.05 * ql.m_o(2, 1.0, 0.2, -1.0))
        assert type(caught.value) is ConstructionError
        diagnostics = caught.value.diagnostics
        trace = diagnostics["width_trace"]
        assert diagnostics["d"] == 1e300 / 3.0
        assert len(trace) == su._WIDTH_HALVINGS
        widths = [entry["width"] for entry in trace]
        assert all(b == 0.5 * a for a, b in zip(widths, widths[1:]))
        assert all(0.0 < entry["min_margin"] < 1.0 for entry in trace)
        assert all(math.isfinite(entry["worst_s"]) for entry in trace)

    def test_zones_that_leave_no_bridge_halve_the_width(self, strict_inputs, monkeypatch):
        # The first blend's right zone is made to end below the left one:
        # no bridge can rise between them, so that width is traced and the
        # next one is tried.
        inner = su._Zone.inner
        calls = []

        def crossed(zone):
            calls.append(zone)
            f, df = inner(zone)
            return (0.0, df) if len(calls) == 2 else (f, df)

        monkeypatch.setattr(su._Zone, "inner", crossed)
        bridge = su.build_bridge(strict_inputs)
        _, join = su.mollify_and_certify(bridge, 0.0, -3.0, 2)
        assert join.width == 0.5 * min(0.02 * bridge.length, 0.25 * (bridge.b1 - bridge.a1),
                                       0.25 * (bridge.b2 - bridge.a2))
        assert len(calls) == 4

    @pytest.mark.parametrize("k", [-20, -3, 0, 5, 20])
    def test_join_is_covariant_under_scaling(self, k):
        # (s, f) -> (c s, c f) with c = 2^k: f' is kept, f'' divides by c,
        # and every operation of the join scales exactly.
        def glue(c):
            inputs = su.GlueInputs(2, _scaled_piece(c, 0.5, 1.0, _convex),
                                   _scaled_piece(c, 3.0, 4.0, _concave), -3.0 / (c * c), 0.0)
            return su.mollify_and_certify(su.build_bridge(inputs), 0.0, -3.0 / (c * c), 2)

        (unit, unit_join), (scaled, join) = glue(1.0), glue(2.0 ** k)
        c = 2.0 ** k
        assert join.width == c * unit_join.width and join.shift == c * unit_join.shift
        assert np.array_equal(scaled.s_grid, c * unit.s_grid)
        assert np.array_equal(scaled.f, c * unit.f)
        assert np.array_equal(scaled.df, unit.df)
        # The step's jet reaches subnormal values near the bridge's ends,
        # where a power of 2 no longer scales exactly.
        normal = np.abs(unit.d2f) >= 2.0 ** -1000
        assert np.array_equal(scaled.d2f[normal], unit.d2f[normal] / c)
        assert float(np.max(np.abs(scaled.d2f[~normal]), initial=0.0)) < 2.0 ** -950
        assert np.array_equal(scaled.provenance, unit.provenance)


class TestBend:
    def test_band_margin_certified(self, schwarzschild_bend):
        params, s0, res = schwarzschild_bend
        assert res.delta > 0.0
        assert res.min_margin > 0.0
        margins = su.dec_margin_operator(2, 0.0, 0.0, res.profile)
        strict = res.profile.s_grid < s0 - res.scale / 5.0
        assert float(np.min(margins[strict])) > 0.0
        assert float(np.min(margins[~strict])) >= -1e-9

    def test_deformation_jet_equals_three_closures_bitwise(self, schwarzschild_bend):
        params, s0, res = schwarzschild_bend
        jet = su._deformation(res.scale, s0)
        reference = _three_closure_deformation(res.scale, s0)
        band = np.concatenate([np.linspace(s0 - res.delta, s0, 1025),
                               np.linspace(s0, s0 + 1.0, 17)])
        for s in (band, band[:1], float(band[7]), s0):
            for got, ref in zip(jet(s), reference):
                assert np.array_equal(got, ref(s))

    def test_deformation_jet_inside_the_band_is_the_masked_jet(self, schwarzschild_bend):
        params, s0, res = schwarzschild_bend
        jet = su._deformation(res.scale, s0)
        band = np.linspace(s0 - res.delta, s0, 1025)[:-1]
        mixed = np.concatenate([band, [s0], np.linspace(s0, s0 + 1.0, 17)])
        assert np.all(band < s0)
        for got, want in zip(jet(band), jet(mixed)):
            assert np.array_equal(got, want[:band.size])
        for got, ref in zip(jet(band), _three_closure_deformation(res.scale, s0)):
            assert np.array_equal(got, ref(band))
        # A one-node array takes the same path.
        lone = jet(band[:1])
        assert all(np.array_equal(v, w[:1]) for v, w in zip(lone, jet(band)))

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

    def test_far_end_mass_off_is_a_verification_error(self, round_tail, monkeypatch):
        # The far-end Hawking mass is the check that binds the model end to
        # the requested mass: read 1e-6 off there, the glue is refused.
        f_b, df_b = float(round_tail.f[-1]), float(round_tail.df[-1])
        m_star = hawking_rotsym(2, 0.0, 0.0, f_b, df_b)

        def far_off(n, q, lam, f, df):
            mass = hawking_rotsym(n, q, lam, f, df)
            return mass if f == f_b else mass + 1e-6

        monkeypatch.setattr(su, "hawking_rotsym", far_off)
        with pytest.raises(VerificationError, match="far-end Hawking mass"):
            su.glue_to_rn(2, round_tail, m_star, 1.05 * m_star, 0.0, 0.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_far_end_is_the_model_at_its_cut(self, round_tail, monkeypatch, lam):
        # The attachment is sampled in model arclength, so the last sample
        # is the bent model read at exactly the end of its grid, the cut.
        bends = []
        bend = su.bend

        def capture(*args, **kwargs):
            result = bend(*args, **kwargs)
            bends.append((kwargs["profile"], result))
            return result

        monkeypatch.setattr(su, "bend", capture)
        f_b, df_b = float(round_tail.f[-1]), float(round_tail.df[-1])
        m_star = hawking_rotsym(2, 0.0, lam, f_b, df_b)
        profile, _ = su.glue_to_rn(2, round_tail, m_star, 1.05 * m_star, 0.0, lam)
        model, result = bends[0]
        want = result.profile.evaluator(model.s_grid[-1:])
        assert np.array_equal([profile.f[-1:], profile.df[-1:], profile.d2f[-1:]], want)

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

    def test_refuses_a_tail_without_an_evaluator_before_the_bend(self, round_tail,
                                                                monkeypatch):
        # The join reads the tail through its dense evaluator, so a tail
        # without one is refused on entry, before the model end is built.
        bends = []
        monkeypatch.setattr(su, "bend", lambda *args, **kwargs: bends.append(args))
        bare = dataclasses.replace(round_tail, evaluator=None)
        m_star = hawking_rotsym(2, 0.0, 0.0, float(bare.f[-1]), float(bare.df[-1]))
        with pytest.raises(DomainError, match="left profile carries no dense evaluator"):
            su.glue_to_rn(2, bare, m_star, 1.05 * m_star, 0.0, 0.0)
        assert bends == []

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

    def test_one_arclength_table_per_glue(self, round_tail, monkeypatch):
        # The station arclengths and the model profile read one table.
        built = []
        init = lambda_rn._Arclength.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(lambda_rn._Arclength, "__init__", counting)
        f_b, df_b = float(round_tail.f[-1]), float(round_tail.df[-1])
        m_star = hawking_rotsym(2, 0.0, 0.0, f_b, df_b)
        su.glue_to_rn(2, round_tail, m_star, 1.05 * m_star, 0.0, 0.0)
        assert len(built) == 1

    def test_extremal_end_refuses_a_tail_ending_at_its_horizon(self):
        # The end (2, 1, 1, 0) is extremal with r_h = 1.  A tail ending on
        # the horizon (charge a hair above 1, slope 2^-27) sits on the
        # junction floor inside the precondition's 1e-12 slack, the only
        # way such a tail passes the preconditions; it is refused typed.
        slope = 2.0 ** -27
        tail = line_profile(0.0, 1.0, 1.0 - slope, slope, charge=1.0 + 2.0 ** -42)
        assert float(tail.f[-1]) == 1.0
        with pytest.raises(PreconditionError, match="degenerate horizon"):
            su.glue_to_rn(2, tail, 1.0, 1.0, 1.0, 0.0)

    def test_charged_station_inside_profile_image(self, charged_tail, charged_glue):
        _, m_e, _, record = charged_glue
        f_b = float(charged_tail.f[-1])
        r_plus = classify(RNParams(2, m_e, 0.3, -3.0)).r_plus
        assert r_plus < f_b
        assert f_b < record["r_C"] < 1.1 * f_b


@pytest.mark.parametrize("lam", [0.0, -1.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_extremal_end_mass_is_the_junction_floor_at_its_horizon(n, lam):
    """An extremal end's mass is the junction floor at its horizon, and the
    floor grows inward and with the charge: a tail ending at or inside the
    horizon (charge q, q^2 >= q_e^2) has floor(f_b) >= m_e, so glue_to_rn's
    preconditions admit it only within their slack below the floor."""
    for q_e in (0.3, 1.0, 2.5):
        m_e = lambda_rn.critical_mass(n, q_e, lam)
        cls = classify(RNParams(n, m_e, q_e, lam))
        assert cls.kind == lambda_rn.EXTREMAL
        r_h = cls.r_plus
        floor = su.junction_mass_floor(n, q_e, lam, r_h)
        assert abs(floor - m_e) <= 1e-14 * m_e
        for k in (1, 4, 20, 40):
            f_b = r_h * (1.0 - 2.0 ** -k)
            for q in (q_e, -q_e, 1.01 * q_e):
                assert su.junction_mass_floor(n, q, lam, f_b) > m_e
