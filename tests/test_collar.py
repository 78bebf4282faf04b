"""Tests for collar extensions over paths of sphere metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from charged_extensions import collar as co
from charged_extensions import lambda_rn, sphere_seed
from charged_extensions.errors import (
    ConstructionError,
    DomainError,
    PreconditionError,
)
from charged_extensions.quasilocal import hawking_rotsym, m_o, unit_sphere_volume

# Closed-form amplitude estimate for a round 2-sphere collar of unit
# radius with kappa = 0.95 and no charge: sqrt(4 / 1.9).
BOUND_ROUND_2 = math.sqrt(4.0 / (2.0 * 0.95))


@pytest.fixture(scope="module")
def round2():
    return sphere_seed.round_path(2, 1.0, n_t=513)


@pytest.fixture(scope="module")
def round3():
    return sphere_seed.round_path(3, 1.0, n_t=513)


@pytest.fixture(scope="module")
def cos_path():
    metric = sphere_seed.axisym_metric_from_function(
        lambda theta: 0.2 * np.cos(theta), n_theta=1025
    )
    return sphere_seed.normalize_path(metric, n_t=129)


def round_spec(path, epsilon=0.1, amplitude=2.0, kappa=0.95, case=co.CONSTANT_LAPSE,
               q=0.0, lam=0.0):
    return co.CollarSpec(
        path=path,
        epsilon=epsilon,
        A=amplitude,
        kappa=kappa,
        case_id=case,
        q=q,
        lam=lam,
    )


class TestSpecValidation:
    def test_rejects_bad_case_id(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, case="Mystery")

    def test_rejects_epsilon_out_of_range(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, epsilon=0.0)
        with pytest.raises(DomainError):
            round_spec(round2, epsilon=1.5)

    def test_rejects_nonpositive_amplitude(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, amplitude=0.0)

    def test_rejects_negative_kappa(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, kappa=-0.1)

    def test_rejects_positive_lambda(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, lam=0.2)

    def test_rejects_overlarge_charge(self, round2):
        with pytest.raises(PreconditionError):
            round_spec(round2, q=5.0)

    def test_radius_is_the_path_radius(self, round2, cos_path):
        for path in (round2, cos_path):
            assert round_spec(path).r_o == path.r_o


def scalar_curvature_at(spec, t):
    """Scalar curvature of the built collar at the t sample nearest t."""
    k = int(np.argmin(np.abs(spec.path.t_grid - t)))
    return float(co.build_collar(spec).scalar_curvature[k, 0])


class TestScalarCurvature:
    def test_boundary_slice_closed_form(self, round2):
        spec = round_spec(round2, epsilon=0.1, amplitude=2.0)
        value = scalar_curvature_at(spec, 0.0)
        assert math.isclose(value, 2.0 - 4.0 * 0.1 / 4.0, rel_tol=0.0, abs_tol=1e-12)

    def test_round_matches_radial_formula(self, round2):
        spec = round_spec(round2, epsilon=0.25, amplitude=1.7)
        n, amplitude, epsilon = 2, 1.7, 0.25
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = amplitude * t
            f = math.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
            df = epsilon * s / (amplitude ** 2 * f)
            d2f = epsilon / (amplitude ** 2 * f) - df * df / f
            expected = n * ((n - 1) * (1.0 - df * df) - 2.0 * f * d2f) / f ** 2
            got = scalar_curvature_at(spec, t)
            assert math.isclose(got, expected, rel_tol=0.0, abs_tol=1e-10)

    def test_small_epsilon_limit(self, round2):
        spec = round_spec(round2, epsilon=1e-6, amplitude=50.0)
        for t in (0.0, 0.5, 1.0):
            assert math.isclose(
                scalar_curvature_at(spec, t), 2.0, rel_tol=0.0, abs_tol=1e-5
            )


class TestBuildCollar:
    def test_round_margin_and_mean_curvature(self, round2):
        spec = round_spec(round2, epsilon=0.1, amplitude=2.0)
        built = co.build_collar(spec)
        assert np.min(built.dec_margin) > 0.0
        assert built.mean_curvature[0] == 0.0
        assert np.all(built.mean_curvature[1:] > 0.0)
        t = round2.t_grid
        F = np.sqrt(1.0 + 0.1 * t * t)
        expected = 0.1 * t / F ** 2
        assert np.max(np.abs(built.mean_curvature - expected)) < 1e-14

    def test_margin_failure_reports_worst_point(self, round2):
        spec = round_spec(round2, epsilon=0.5, amplitude=0.05)
        with pytest.raises(ConstructionError) as err:
            co.build_collar(spec)
        diag = err.value.diagnostics
        assert diag["min_margin"] < 0.0
        assert 0.0 <= diag["t"] <= 1.0

    def test_eigen_equals_constant_on_round(self, round2):
        const = co.build_collar(round_spec(round2, epsilon=0.1, amplitude=2.0))
        eigen = co.build_collar(
            round_spec(round2, epsilon=0.1, amplitude=2.0, case=co.EIGENFUNCTION_LAPSE)
        )
        assert np.array_equal(const.scalar_curvature, eigen.scalar_curvature)
        assert np.array_equal(const.hawking.mass, eigen.hawking.mass)

    def test_axisym_constant_lapse_margin(self, cos_path):
        spec = round_spec(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8)
        built = co.build_collar(spec)
        assert np.min(built.dec_margin) > 0.0

    def test_axisym_eigen_lapse_margin(self, cos_path):
        spec = round_spec(
            cos_path, epsilon=0.1, amplitude=3.0, kappa=0.2,
            case=co.EIGENFUNCTION_LAPSE,
        )
        built = co.build_collar(spec)
        assert np.min(built.dec_margin) > 0.0
        assert built.mean_curvature[0] == 0.0

    def test_inadmissible_floor_raises(self, round2):
        spec = round_spec(round2, kappa=1.2, lam=0.0, amplitude=5.0)
        with pytest.raises(PreconditionError):
            co.build_collar(spec)

    def test_eigen_needs_eigenvalue_above_kappa(self, round2):
        spec = round_spec(round2, kappa=1.5, lam=-1.6, amplitude=5.0,
                          case=co.EIGENFUNCTION_LAPSE)
        with pytest.raises(PreconditionError):
            co.build_collar(spec)


class TestAmplitudeSearch:
    def test_bound_round_frozen_value(self, round2):
        bound = co.find_A0_bound(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
        assert bound == BOUND_ROUND_2
        assert math.isclose(bound, 1.4509525002200011, rel_tol=1e-13)

    def test_bound_eigen_matches_constant_on_round(self, round2):
        bound_c = co.find_A0_bound(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
        bound_e = co.find_A0_bound(round2, 0.1, 0.95, co.EIGENFUNCTION_LAPSE, 0.0, 0.0)
        assert bound_c == bound_e

    def test_bound_negative_floor_case(self, round2):
        bound = co.find_A0_bound(round2, 0.1, 1.2, co.CONSTANT_LAPSE, 0.0, -2.0)
        assert abs(bound - math.sqrt(4.0 / 1.6)) < 1e-14

    def test_refined_below_bound_and_passes(self, round2):
        a0 = co.find_A0(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
        bound = co.find_A0_bound(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
        assert 0.0 < a0 <= bound
        built = co.build_collar(round_spec(round2, epsilon=0.1, amplitude=a0))
        assert np.min(built.dec_margin) > 0.0

    def test_refined_is_locally_minimal(self, round2):
        a0 = co.find_A0(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
        spec = round_spec(round2, epsilon=0.1, amplitude=a0 / 1.051)
        with pytest.raises(ConstructionError):
            co.build_collar(spec)

    def test_amplitude_grows_with_charge(self, round2):
        values = [
            co.find_A0(round2, 0.1, 0.95, co.CONSTANT_LAPSE, q, 0.0).A
            for q in (0.0, 0.4, 0.7)
        ]
        assert values[0] < values[1] < values[2]

    def test_double_amplitude_always_passes(self, round2, round3):
        for path in (round2, round3):
            a0 = co.find_A0(path, 0.05, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
            built = co.build_collar(round_spec(path, epsilon=0.05, amplitude=2 * a0))
            assert np.min(built.dec_margin) > 0.0

    @pytest.mark.parametrize("case", [co.CONSTANT_LAPSE, co.EIGENFUNCTION_LAPSE])
    def test_A0_spec_builds_from_the_search_margin_fields(self, cos_path, case, monkeypatch):
        # The search's margin fields are the collar's, at A0 and at any other
        # amplitude: the build computes none, and each collar equals one
        # built from a fresh spec bit for bit.
        spec = co.find_A0(cos_path, 0.1, 0.8, case, 0.1, -1.0)
        assert spec == round_spec(cos_path, 0.1, spec.A, 0.8, case, 0.1, -1.0)
        specs = (spec, spec.at_amplitude(2.0 * spec.A))
        fresh = [co.build_collar(round_spec(cos_path, 0.1, s.A, 0.8, case, 0.1, -1.0))
                 for s in specs]
        parts = []

        def counting(*args, original=co._margin_parts):
            parts.append(args)
            return original(*args)

        monkeypatch.setattr(co, "_margin_parts", counting)
        for s, reference in zip(specs, fresh):
            built = co.build_collar(s)
            for name in ("scalar_curvature", "dec_margin", "mean_curvature"):
                assert getattr(built, name).tobytes() == getattr(reference, name).tobytes()
            assert built.hawking.mass.tobytes() == reference.hawking.mass.tobytes()
        assert parts == []

    def test_axisym_refined_passes(self, cos_path):
        a0 = co.find_A0(cos_path, 0.1, 0.8, co.CONSTANT_LAPSE, 0.0, 0.0).A
        built = co.build_collar(
            round_spec(cos_path, epsilon=0.1, amplitude=a0, kappa=0.8)
        )
        assert np.min(built.dec_margin) > 0.0


class TestHawkingCurve:
    def test_starts_at_reference_mass(self, round2, round3):
        for path, q, lam in ((round2, 0.0, 0.0), (round2, 0.3, -0.5), (round3, 0.2, 0.0)):
            spec = round_spec(path, epsilon=0.1, amplitude=3.0, q=q, lam=lam)
            curve = co.build_collar(spec).hawking
            assert abs(curve.mass[0] - m_o(path.n, 1.0, q, lam)) < 1e-12
            assert curve.charge == q

    def test_round_3_closed_form(self, round3):
        epsilon, amplitude = 0.1, 2.0
        spec = round_spec(round3, epsilon=epsilon, amplitude=amplitude)
        curve = co.build_collar(spec).hawking
        t = curve.t_grid
        expected = 0.5 * (1.0 + epsilon * t * t - epsilon ** 2 * t * t / amplitude ** 2)
        assert np.max(np.abs(curve.mass - expected)) < 1e-13

    def test_matches_radial_mass_evaluator(self, round2):
        epsilon, amplitude, q, lam = 0.2, 2.5, 0.3, -0.4
        spec = round_spec(round2, epsilon=epsilon, amplitude=amplitude, q=q, lam=lam)
        curve = co.build_collar(spec).hawking
        for idx in (0, 100, 256, 400, 512):
            t = curve.t_grid[idx]
            s = amplitude * t
            f = math.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
            df = epsilon * s / (amplitude ** 2 * f)
            other = hawking_rotsym(2, q, lam, f, df)
            assert math.isclose(curve.mass[idx], other, rel_tol=0.0, abs_tol=1e-12)

    def test_final_mass_bounds(self, round2, round3):
        for path in (round2, round3):
            n = path.n
            for epsilon in (0.05, 0.1):
                a0 = co.find_A0(path, epsilon, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
                spec = round_spec(path, epsilon=epsilon, amplitude=2 * a0)
                curve = co.build_collar(spec).hawking
                reference = m_o(n, 1.0, 0.0, 0.0)
                assert curve.mass[-1] > reference
                assert curve.mass[-1] < (1.0 + epsilon) ** ((n + 1) / 2.0) * reference

    def test_final_mass_taylor_gain(self, round2):
        epsilon = 0.01
        spec = round_spec(round2, epsilon=epsilon, amplitude=100.0)
        curve = co.build_collar(spec).hawking
        gain = curve.mass[-1] - 0.5
        assert math.isclose(gain, epsilon / 4.0, rel_tol=0.02)


class TestEpsilonSearch:
    def test_frozen_values(self):
        assert co.find_eps0(2, 1.0, 0.0, 0.0, 1.46) == 1.0
        assert co.find_eps0(2, 1.0, 0.0, 0.0, 0.5) == 0.125

    def test_gain_positive_at_returned_epsilon(self):
        epsilon = co.find_eps0(2, 1.0, 0.0, 0.0, 0.5)
        spec = round_spec(
            sphere_seed.round_path(2, 1.0, n_t=65), epsilon=epsilon, amplitude=0.55
        )
        curve = co.build_collar(spec).hawking
        assert curve.mass[-1] > 0.5

    def test_requires_subextremal_radius(self):
        with pytest.raises(PreconditionError):
            co.find_eps0(2, 1.0, 1.0, 0.0, 2.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("r_o", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("u, lam_r2", [(0.0, 0.0), (0.3, 0.0), (0.45, -2.5)])
    def test_batched_grid_matches_the_scalar_loop(self, n, r_o, u, lam_r2):
        q, lam = u * r_o ** (n - 1), lam_r2 / r_o ** 2
        for a0 in (1e-9, 3e-8, 1e-5, 0.05, 0.5, 1.46, 30.0):
            want = _scalar_eps0(n, r_o, q, lam, a0)
            try:
                got = co.find_eps0(n, r_o, q, lam, a0)
            except ConstructionError:
                got = None
            assert got == want, a0

    def test_no_growing_epsilon_is_a_construction_error(self):
        assert _scalar_eps0(2, 1.0, 0.0, 0.0, 1e-9) is None
        with pytest.raises(ConstructionError, match="no epsilon on the geometric grid"):
            co.find_eps0(2, 1.0, 0.0, 0.0, 1e-9)


def _scalar_eps0(n, r_o, q, lam, a0):
    """The flare search one epsilon and one amplitude at a time (None when no
    epsilon grows the far-end mass): the reference for the batched grid."""
    params = lambda_rn.RNParams(n=n, m=0.0, q=q, lam=lam)
    reference = m_o(n, r_o, q, lam)

    def far_end_mass(epsilon, amplitude):
        stretch = 1.0 + epsilon
        radius = math.sqrt(stretch) * r_o
        loss = epsilon ** 2 * r_o ** 2 / (stretch * amplitude ** 2)
        return 0.5 * radius ** (n - 1) * (lambda_rn.eval_p(params, radius) - loss)

    for k in range(53):
        epsilon = 2.0 ** (-k)
        if (far_end_mass(epsilon, a0) - reference > 0.0
                and far_end_mass(epsilon, 10.0 * a0) - reference > 0.0):
            return epsilon
    return None


class TestMonotonicity:
    def test_round_2_nondecreasing(self, round2):
        built = co.build_collar(round_spec(round2, epsilon=0.1, amplitude=3.0))
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone
        assert report.min_dmass_dt >= -1e-8
        assert abs(report.dmass_dt_origin) < 1e-10

    def test_axisym_2_nondecreasing(self, cos_path):
        built = co.build_collar(round_spec(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8))
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone

    def test_round_3_above_threshold(self, round3):
        probe = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=1.0))
        a1 = co.monotonicity_check(probe).a1
        assert a1 is not None and a1 > math.sqrt(0.1)
        built = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=1.05 * a1))
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone
        assert report.a_satisfies_a1 and report.integral_condition_ok
        assert np.all(built.hawking.dmass_dt[1:] > 0.0)

    def test_round_3_below_threshold_unasserted(self, round3):
        probe = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=1.0))
        a1 = co.monotonicity_check(probe).a1
        built = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=0.9 * a1))
        report = co.monotonicity_check(built)
        assert not report.asserted
        assert "a1" in report.verdict

    def test_eigen_3_empirical_only(self, round3):
        built = co.build_collar(
            round_spec(round3, epsilon=0.1, amplitude=2.0, case=co.EIGENFUNCTION_LAPSE)
        )
        report = co.monotonicity_check(built)
        assert not report.asserted
        assert report.verdict == "empirical only"

    def test_integral_condition_round_equality(self, round3):
        built = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=2.0))
        report = co.monotonicity_check(built)
        bound = 6.0 * unit_sphere_volume(3)
        assert math.isclose(report.integral_condition_value, bound, rel_tol=1e-12)


class TestTailProfile:
    def test_round_tail_samples_and_derivatives(self, round2):
        epsilon, amplitude = 0.1, 2.0
        built = co.build_collar(round_spec(round2, epsilon=epsilon, amplitude=amplitude))
        profile = co.tail_to_arclength(built)
        assert profile.s_grid[0] == 0.75 * amplitude
        assert profile.s_grid[-1] == amplitude
        assert np.all(profile.provenance == "collar")
        s = profile.s_grid
        f = np.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
        assert np.max(np.abs(profile.f - f)) < 1e-14
        assert np.max(np.abs(profile.df - epsilon * s / (amplitude ** 2 * f))) < 1e-14

    def test_dense_evaluator_consistency(self, round2):
        built = co.build_collar(round_spec(round2, epsilon=0.1, amplitude=2.0))
        profile = co.tail_to_arclength(built)
        s = 0.875 * 2.0
        f, df, d2f = profile.evaluator(s)
        step = 1e-3
        f_minus, _, _ = profile.evaluator(s - step)
        f_plus, _, _ = profile.evaluator(s + step)
        assert math.isclose((f_plus - f_minus) / (2 * step), df, rel_tol=1e-7)
        assert math.isclose((f_plus - 2 * f + f_minus) / step ** 2, d2f, rel_tol=1e-5)

    def test_far_end_mass_identity(self, round2):
        epsilon, amplitude, q, lam = 0.1, 2.0, 0.25, -0.3
        built = co.build_collar(
            round_spec(round2, epsilon=epsilon, amplitude=amplitude, q=q, lam=lam)
        )
        profile = co.tail_to_arclength(built)
        f, df, _ = profile.evaluator(amplitude)
        other = hawking_rotsym(2, q, lam, float(f), float(df))
        assert math.isclose(built.hawking.mass[-1], other, rel_tol=0.0, abs_tol=1e-12)

    def test_charge_carried_over(self, round2):
        built = co.build_collar(round_spec(round2, q=0.3))
        assert co.tail_to_arclength(built).charge == 0.3

    def test_axisym_tail_is_round(self, cos_path):
        built = co.build_collar(round_spec(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8))
        profile = co.tail_to_arclength(built)
        s = profile.s_grid
        f = np.sqrt(1.0 + 0.1 * s * s / 9.0) * cos_path.r_o
        assert np.max(np.abs(profile.f - f)) < 1e-12

    def test_radial_curvature_identity_on_tail(self, round2):
        epsilon, amplitude = 0.1, 2.0
        built = co.build_collar(round_spec(round2, epsilon=epsilon, amplitude=amplitude))
        profile = co.tail_to_arclength(built)
        tail = built.scalar_curvature[round2.t_grid >= round2.theta_switch, 0]
        assert tail.size == profile.s_grid.size
        for s, collar_value in zip(profile.s_grid[:: 32], tail[:: 32]):
            f, df, d2f = profile.evaluator(float(s))
            radial = 2.0 * ((1.0 - df * df) - 2.0 * f * d2f / 1.0) / f ** 2
            assert math.isclose(radial, collar_value, rel_tol=0.0, abs_tol=1e-6)
