from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from charged_extensions.errors import DomainError, NotApplicableError
from charged_extensions.lambda_rn import (
    EXTREMAL,
    SUB_EXTREMAL,
    SUPER_EXTREMAL,
    RNParams,
    classify,
    critical_mass,
    eval_dp,
    eval_h,
    eval_p,
    horizon_mean_curvature,
    model_arclength,
    radial_coordinate,
    rn_profile,
    rn_profile_mu,
    verify_model_identities,
)

SCHWARZSCHILD = RNParams(2, 1.0, 0.0, 0.0)

# Frozen oracle: arclength of the n=2, m=1 uncharged profile from r=2 to
# r=4, from the antiderivative sqrt(r(r-2)) + 2*arcsinh(sqrt((r-2)/2)).
S_OF_4 = math.sqrt(8.0) + 2.0 * math.asinh(1.0)


def test_eval_p_hand_values() -> None:
    assert math.isclose(eval_p(SCHWARZSCHILD, 4.0), 0.5, abs_tol=1e-15)
    assert eval_p(RNParams(2, 0.0, 0.0, 0.0), 7.3) == 1.0
    assert math.isclose(eval_p(SCHWARZSCHILD, 2.0), 0.0, abs_tol=1e-15)


def test_eval_p_rejects_nonpositive_radius() -> None:
    with pytest.raises(DomainError):
        eval_p(SCHWARZSCHILD, 0.0)
    with pytest.raises(DomainError):
        eval_p(SCHWARZSCHILD, -1.0)


def test_eval_h_hand_values() -> None:
    assert math.isclose(eval_h(RNParams(2, 0.0, 0.0, 0.0), 3.0), 9.0, abs_tol=1e-14)
    assert math.isclose(eval_h(RNParams(2, 0.0, 1.0, 0.0), 1.0), 0.0, abs_tol=1e-15)
    assert math.isclose(eval_h(RNParams(2, 0.0, 0.0, -3.0), 1.0), 4.0, abs_tol=1e-14)


def test_eval_h_strictly_increasing() -> None:
    params = RNParams(3, 0.7, 0.4, -1.5)
    r = np.linspace(0.05, 6.0, 400)
    values = eval_h(params, r)
    assert np.all(np.diff(values) > 0.0)


def test_params_validation() -> None:
    with pytest.raises(DomainError):
        RNParams(1, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        RNParams(2, 1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        RNParams(2, math.inf, 0.0, 0.0)


def test_classify_two_root_closed_form() -> None:
    cls = classify(RNParams(2, 1.25, 0.75, 0.0))
    assert cls.kind == SUB_EXTREMAL
    assert math.isclose(cls.r_plus, 2.25, abs_tol=1e-10)
    assert math.isclose(cls.r_minus, 0.25, abs_tol=1e-10)


def test_classify_degenerate_at_unit_charge() -> None:
    cls = classify(RNParams(2, 1.0, 1.0, 0.0))
    assert cls.kind == EXTREMAL
    assert math.isclose(cls.r_plus, 1.0, abs_tol=1e-12)
    assert cls.r_minus is None


def test_classify_rootless_negative_lambda_vacuum() -> None:
    cls = classify(RNParams(3, 0.0, 0.0, -6.0))
    assert cls.kind == SUPER_EXTREMAL
    assert cls.r_plus is None


def test_classify_uncharged_closed_form_all_dimensions() -> None:
    for n in (2, 3, 4):
        for m in (0.3, 1.0, 2.5):
            cls = classify(RNParams(n, m, 0.0, 0.0))
            assert cls.kind == SUB_EXTREMAL
            assert abs(cls.r_plus - (2.0 * m) ** (1.0 / (n - 1))) < 1e-10
            assert cls.r_minus is None


def test_classify_lambda_zero_closed_form_randomized() -> None:
    rng = np.random.default_rng(20240811)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        q = float(rng.uniform(0.05, 2.0))
        m = q + float(rng.uniform(1e-3, 3.0))
        cls = classify(RNParams(n, m, q, 0.0))
        disc = math.sqrt(m * m - q * q)
        assert cls.kind == SUB_EXTREMAL
        assert abs(cls.r_plus - (m + disc) ** (1.0 / (n - 1))) < 1e-10
        assert abs(cls.r_minus - (m - disc) ** (1.0 / (n - 1))) < 1e-10


def test_classify_root_derivative_identity_randomized() -> None:
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        q = float(rng.uniform(-1.5, 1.5))
        lam = float(-rng.uniform(0.0, 4.0))
        m = float(rng.uniform(-1.0, 3.0))
        cls = classify(RNParams(n, m, q, lam))
        for r0 in (cls.r_plus, cls.r_minus):
            if r0 is None:
                continue
            lhs = eval_dp(RNParams(n, m, q, lam), r0)
            rhs = (n - 1) * eval_h(RNParams(n, m, q, lam), r0) / r0 ** (2 * n - 1)
            assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(lhs))


def test_classify_near_degenerate_band() -> None:
    # Slightly above and below the critical mass must split cleanly.
    m_c = critical_mass(2, 1.0, -3.0)
    assert classify(RNParams(2, m_c + 1e-6, 1.0, -3.0)).kind == SUB_EXTREMAL
    assert classify(RNParams(2, m_c - 1e-6, 1.0, -3.0)).kind == SUPER_EXTREMAL
    assert classify(RNParams(2, m_c, 1.0, -3.0)).kind == EXTREMAL


@pytest.mark.parametrize("params", [
    RNParams(2, 1e300, 0.0, -1.0),
    RNParams(3, 1e300, 0.0, 0.0),
    RNParams(2, 1e300, 1.0, 0.0),
    RNParams(4, 1e300, 1.0, -1.0),
])
def test_classify_overflow_is_a_domain_error(params) -> None:
    # Bracketing the roots passes the float range: float powers raise
    # OverflowError and float products turn inf, neither of which may leak.
    with pytest.raises(DomainError):
        classify(params)


def test_inherited_nondegeneracy_property() -> None:
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        q = float(rng.uniform(-1.0, 1.0))
        lam = float(-rng.uniform(0.0, 2.0))
        m = critical_mass(n, q, lam) + float(rng.uniform(0.05, 2.0))
        assert classify(RNParams(n, m, q, lam)).kind == SUB_EXTREMAL
        m_up = m + float(rng.uniform(0.0, 1.0))
        q_down = q * float(rng.uniform(0.0, 1.0))
        assert classify(RNParams(n, m_up, q_down, lam)).kind == SUB_EXTREMAL


def test_critical_mass_values() -> None:
    assert critical_mass(2, 0.0, 0.0) == 0.0
    assert math.isclose(critical_mass(2, 0.5, 0.0), 0.5, abs_tol=1e-12)
    assert math.isclose(critical_mass(3, -0.8, 0.0), 0.8, abs_tol=1e-12)


def test_critical_mass_bisection_oracle() -> None:
    # Independent oracle: bisect the classification boundary over m.
    n, q, lam = 2, 1.0, -3.0
    m_c = critical_mass(n, q, lam)
    lo, hi = 0.0, 10.0
    assert classify(RNParams(n, lo, q, lam)).kind == SUPER_EXTREMAL
    assert classify(RNParams(n, hi, q, lam)).kind == SUB_EXTREMAL
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if classify(RNParams(n, mid, q, lam)).kind == SUPER_EXTREMAL:
            lo = mid
        else:
            hi = mid
    # The flip happens at the edge of the degeneracy band, which sits within
    # a few 1e-9 of the critical mass for these parameters.
    assert abs(0.5 * (lo + hi) - m_c) < 1e-8


def test_radial_coordinate_basics() -> None:
    assert radial_coordinate(SCHWARZSCHILD, 2.0) == 0.0
    assert radial_coordinate(SCHWARZSCHILD, 3.0) < radial_coordinate(SCHWARZSCHILD, 4.0)
    assert math.isclose(radial_coordinate(SCHWARZSCHILD, 4.0), S_OF_4, abs_tol=1e-10)


def test_radial_coordinate_rejects_degenerate() -> None:
    with pytest.raises(NotApplicableError):
        radial_coordinate(RNParams(2, 1.0, 1.0, 0.0), 3.0)
    with pytest.raises(DomainError):
        radial_coordinate(SCHWARZSCHILD, 1.0)


def test_rn_profile_boundary_values() -> None:
    profile = rn_profile(SCHWARZSCHILD, 10.0, 2049)
    assert profile.f[0] == 2.0
    assert profile.df[0] == 0.0
    assert math.isclose(profile.d2f[0], 0.5 * eval_dp(SCHWARZSCHILD, 2.0), abs_tol=1e-15)


def test_rn_profile_first_integral_residual() -> None:
    profile = rn_profile(SCHWARZSCHILD, 10.0, 4097)
    residual = np.abs(profile.df ** 2 - eval_p(SCHWARZSCHILD, profile.f))
    assert residual.max() < 1e-8
    assert np.all(profile.d2f > 0.0)


def test_rn_profile_inverse_consistency() -> None:
    profile = rn_profile(SCHWARZSCHILD, 10.0, 4097)
    for r in (3.0, 4.0, 5.0):
        s = radial_coordinate(SCHWARZSCHILD, r)
        f_val, _, _ = profile.evaluator(s)
        assert abs(float(f_val) - r) < 1e-8


def test_rn_profile_rejects_degenerate() -> None:
    with pytest.raises(NotApplicableError):
        rn_profile(RNParams(2, 1.0, 1.0, 0.0), 5.0, 257)


def test_rn_profile_mu_flat_space_is_linear() -> None:
    profile = rn_profile_mu(RNParams(2, 0.0, 0.0, 0.0), 1.0, 5.0, 257)
    assert np.allclose(profile.f, 1.0 + profile.s_grid, atol=1e-13)
    assert np.allclose(profile.df, 1.0, atol=1e-13)


def test_rn_profile_mu_initial_slope_identity() -> None:
    params = RNParams(2, 1.0, 1.0, 0.0)
    profile = rn_profile_mu(params, 1.5, 4.0, 513)
    assert abs(profile.df[0] ** 2 - eval_p(params, 1.5)) < 1e-12
    assert np.all(profile.df > 0.0)


def test_rn_profile_mu_domain_errors() -> None:
    with pytest.raises(DomainError):
        rn_profile_mu(SCHWARZSCHILD, 1.0, 4.0, 257)
    with pytest.raises(DomainError):
        rn_profile_mu(SCHWARZSCHILD, 2.0, 4.0, 257)
    # u = sinh-like growth overflows near s = 709; the step that meets the
    # infinite radius must raise the typed error, not OverflowError,
    # ZeroDivisionError or a profile holding inf or NaN.
    with pytest.raises(DomainError), np.errstate(over="ignore", invalid="ignore"):
        rn_profile_mu(RNParams(2, 0.0, 0.0, -3.0), 1.0, 2000.0)


def test_rn_profile_near_horizon_matches_closed_form() -> None:
    # s(r) = sqrt(r(r-2)) + 2 asinh(sqrt((r-2)/2)) for n=2, m=1, q=lam=0;
    # the first samples sit where the integrand's horizon singularity acts.
    # Rounding f to a float moves s(f) by up to ulp(f) * ds/dr = ulp(f)/f'.
    profile = rn_profile(SCHWARZSCHILD, 10.0, 4097)
    for k in (1, 2, 3, 8, 32, 4096):
        r, s = float(profile.f[k]), float(profile.s_grid[k])
        exact = math.sqrt(r * (r - 2.0)) + 2.0 * math.asinh(math.sqrt((r - 2.0) / 2.0))
        tol = 1e-13 * (1.0 + s) + math.ulp(r) / profile.df[k]
        assert abs(exact - s) <= tol, k


def _quad_arclength(params: RNParams, r: float) -> float:
    """Arclength from r_plus to r by adaptive quadrature of 2 tau / sqrt(p)
    under r = r_plus + tau^2, independent of the profile kernel.

    Near the horizon eval_p(r_plus + tau^2) cancels and the quadrature
    loses up to 4e-8 within s ~ 0.2, so it is a reference only beyond that.
    """
    r_plus = classify(params).r_plus

    def integrand(tau):
        p = eval_p(params, r_plus + tau * tau)
        if p <= 0.0:
            # Rounding can collapse p to zero when tau^2 falls below the
            # ulp of r_plus; substitute the analytic limit 2/sqrt(p').
            return 2.0 / math.sqrt(eval_dp(params, r_plus))
        return 2.0 * tau / math.sqrt(p)

    # full_output returns quad's error estimate instead of warning when
    # the 1e-13 target is missed (the horizon rounding floor can defeat it);
    # the estimate must stay inside the 1e-10 the comparisons allow.
    value, abserr, *_ = quad(integrand, 0.0, math.sqrt(r - r_plus), epsabs=1e-13,
                             epsrel=1e-12, limit=200, full_output=1)
    assert abserr <= 1e-10, abserr
    return value


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q, lam", [(0.0, 0.0), (0.3, 0.0), (0.0, -1.5), (0.3, -1.5)])
def test_profiles_invert_radial_coordinate(n, q, lam) -> None:
    params = RNParams(n, 1.0, q, lam)
    r_plus = classify(params).r_plus
    mu = 1.5 * r_plus
    boundary = rn_profile(params, 6.0, 1025)
    interior = rn_profile_mu(params, mu, 6.0, 1025)
    assert boundary.f[0] == r_plus and boundary.df[0] == 0.0
    assert interior.f[0] == mu and interior.df[0] == math.sqrt(eval_p(params, mu))
    # radial_coordinate is the arclength the profile inverts.
    assert radial_coordinate(params, mu) == model_arclength(params, mu)
    s_mu = _quad_arclength(params, mu)
    for k in (64, 128, 256, 384, 512, 768, 896, 1024):
        s = boundary.s_grid[k]
        assert abs(_quad_arclength(params, boundary.f[k]) - s) <= 1e-10 * (1.0 + s), k
        assert abs(_quad_arclength(params, interior.f[k]) - s_mu - s) <= 1e-10 * (1.0 + s), k


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q, lam", [(0.0, 0.0), (0.3, 0.0), (0.0, -1.5), (0.3, -1.5)])
def test_profiles_bitwise_equal_eval_dp_reference(n, q, lam) -> None:
    # The second derivative is f'' = p'(f)/2 evaluated at each sampled
    # radius, so it must equal eval_dp there to the bit; f' = sqrt(p(f)) is
    # formed without cancellation and so only agrees with eval_p to rounding.
    params = RNParams(n, 1.0, q, lam)
    mu = 1.5 * classify(params).r_plus
    for profile in (rn_profile(params, 6.0, 1025),
                    rn_profile_mu(params, mu, 6.0, 1025)):
        assert np.array_equal(profile.d2f, 0.5 * eval_dp(params, profile.f))
        assert np.all(np.diff(profile.f) > 0.0)
        p = eval_p(params, profile.f[1:])
        assert np.all(np.abs(profile.df[1:] ** 2 - p) <= 1e-12 * (1.0 + np.abs(p)))


@pytest.mark.parametrize("params", [
    RNParams(2, 1.0, 0.3, -1.5),
    RNParams(3, 0.8, 0.3, -1.5),
    RNParams(4, 0.5, 0.2, -3.0),
])
def test_profiles_scale_covariantly(params) -> None:
    # (r, q, lam, m) -> (c r, c^(n-1) q, lam/c^2, c^(n-1) m) maps the profile
    # f(s) to c f(s/c), f' to f' and f'' to f''/c.
    c, n = 3.0, params.n
    scaled = RNParams(n, c ** (n - 1) * params.m, c ** (n - 1) * params.q,
                      params.lam / c ** 2)
    mu = 1.5 * classify(params).r_plus
    pairs = [(rn_profile(params, 4.0, 513), rn_profile(scaled, 4.0 * c, 513)),
             (rn_profile_mu(params, mu, 4.0, 513),
              rn_profile_mu(scaled, c * mu, 4.0 * c, 513))]
    for base, big in pairs:
        assert np.all(np.abs(big.f - c * base.f) <= 1e-12 * c * base.f)
        assert np.all(np.abs(big.df - base.df) <= 1e-12 * (1.0 + base.df))
        assert np.all(np.abs(c * big.d2f - base.d2f) <= 1e-12 * (1.0 + np.abs(base.d2f)))


def test_verify_model_identities_saturation() -> None:
    cases = [
        SCHWARZSCHILD,
        RNParams(2, 1.25, 0.75, 0.0),
        RNParams(2, 1.0, 0.0, -3.0),
    ]
    for params in cases:
        profile = rn_profile(params, 10.0, 4097)
        report = verify_model_identities(params, profile)
        assert report.passed, f"violation {report.max_violation} for {params}"
        assert report.max_violation < 1e-6


def test_verify_model_identities_flat() -> None:
    params = RNParams(2, 0.0, 0.0, 0.0)
    profile = rn_profile_mu(params, 1.0, 5.0, 513)
    n = params.n
    scalar = n * ((n - 1) * (1.0 - profile.df ** 2)
                  - 2.0 * profile.f * profile.d2f) / profile.f ** 2
    assert np.abs(scalar).max() < 1e-12


def test_horizon_mean_curvature_values() -> None:
    assert horizon_mean_curvature(SCHWARZSCHILD, 2.0) == 0.0
    flat = RNParams(2, 0.0, 0.0, 0.0)
    assert math.isclose(horizon_mean_curvature(flat, 3.0), 2.0 / 3.0, abs_tol=1e-15)
    with pytest.raises(DomainError):
        horizon_mean_curvature(SCHWARZSCHILD, 1.5)


def test_horizon_mean_curvature_increasing_off_horizon() -> None:
    values = [horizon_mean_curvature(SCHWARZSCHILD, r)
              for r in (2.0, 2.01, 2.05, 2.1)]
    assert all(b > a for a, b in zip(values, values[1:]))
