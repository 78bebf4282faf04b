from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from charged_extensions import lambda_rn
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
    RNParams(2, 1.0, 1e150, -1e300),
    RNParams(2, 1e100, 0.0, -1.0),
])
def test_classify_overflow_is_a_domain_error(params) -> None:
    # Bracketing the roots passes the float range: float powers raise
    # OverflowError, float products turn inf and NumPy powers in h overflow,
    # none of which may leak.  At m = 1e100 the root (near 4e33) is not
    # resolved to the brentq tolerance, which must not leak either.
    with pytest.raises(DomainError):
        classify(params)


def test_underflowing_charge_is_uncharged() -> None:
    # q^2 underflows to zero, so p is the uncharged potential; the charged
    # route would divide 0/0 at the root of h.
    for n in (2, 3):
        for lam in (0.0, -1.0):
            tiny = classify(RNParams(n, 0.7, 1e-200, lam))
            assert tiny == classify(RNParams(n, 0.7, 0.0, lam))
            assert critical_mass(n, 1e-200, lam) == 0.0


def test_critical_mass_overflow_is_a_domain_error() -> None:
    with pytest.raises(DomainError):
        critical_mass(2, 1e150, -1e300)


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
    # s(r) = sqrt(r(r-2)) + 2 asinh(sqrt((r-2)/2)) for n=2, m=1, q=lam=0, at
    # every sample; the first samples sit where the integrand's horizon
    # singularity acts.  Rounding f to a float moves s(f) by up to
    # ulp(f) * ds/dr = ulp(f)/f'.
    profile = rn_profile(SCHWARZSCHILD, 10.0, 4097)
    r, s = profile.f[1:], profile.s_grid[1:]
    exact = np.sqrt(r * (r - 2.0)) + 2.0 * np.arcsinh(np.sqrt((r - 2.0) / 2.0))
    tol = 1e-13 * (1.0 + s) + np.spacing(r) / profile.df[1:]
    assert np.all(np.abs(exact - s) <= tol)


@pytest.mark.parametrize("m", [0.7, 2.5])
def test_rn_profile_tangherlini_closed_form_at_every_sample(m) -> None:
    # n = 3, q = lam = 0: p = 1 - 2m/r^2, so s(r) = sqrt(r^2 - 2m) and
    # f(s) = sqrt(s^2 + 2m), f'(s) = s/f.  An error in f moves
    # f' = sqrt(p(f)) by p'(f)/(2 f') = 2m/(f^3 f') times as much.
    profile = rn_profile(RNParams(3, m, 0.0, 0.0), 10.0, 4097)
    s, f, df = profile.s_grid, profile.f, profile.df
    exact = np.sqrt(s * s + 2.0 * m)
    assert np.all(np.abs(f - exact) <= 8.0 * np.spacing(exact))
    assert df[0] == 0.0
    tol = 8.0 * (np.spacing(f[1:]) * 2.0 * m / (f[1:] ** 3 * df[1:]) + np.spacing(df[1:]))
    assert np.all(np.abs(df[1:] - s[1:] / exact[1:]) <= tol)


EXTREMAL_UNIT = RNParams(2, 1.0, 1.0, 0.0)


def _extremal_unit_arclength(r, mu):
    """Closed form for (n, m, q, lam) = (2, 1, 1, 0): p = (1 - 1/r)^2, so
    the arclength from mu is (r - mu) + ln((r - 1)/(mu - 1))."""
    return (r - mu) + np.log((r - 1.0) / (mu - 1.0))


@pytest.mark.parametrize("k", [20, 40])
def test_arclength_above_degenerate_horizon_matches_closed_form(k) -> None:
    # p(mu) = (mu - 1)^2/mu^2 cancels in eval_p for mu near the double root
    # r = 1; the factored form keeps every arclength to rounding.
    mu = 1.0 + 2.0 ** -k
    r = mu + (mu - 1.0) * 2.0 ** np.arange(-10.0, 2.0 * k)
    r = np.concatenate([r[r < 12.0], [2.0, 5.0, 11.0]])
    exact = _extremal_unit_arclength(r, mu)
    s = model_arclength(EXTREMAL_UNIT, r, mu)
    assert np.all(np.abs(s - exact) <= 1e-12 * exact)


@pytest.mark.parametrize("k", [20, 40])
def test_rn_profile_mu_above_degenerate_horizon(k) -> None:
    mu = 1.0 + 2.0 ** -k
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        profile = rn_profile_mu(EXTREMAL_UNIT, mu, 5.0, 1025)
        arclength = lambda_rn._profile_arclength(EXTREMAL_UNIT, mu, None)
        tau = arclength.tau_at(profile.s_grid)
        stray = _independent_arclength(arclength, tau) - profile.s_grid
    f = profile.f
    assert np.array_equal(f, mu + tau * tau)
    assert np.all(np.abs(stray) <= 8.0 * np.spacing(np.maximum(profile.s_grid, 1.0)))
    assert f[0] == mu and np.all(np.diff(f) > 0.0)
    # f' = sqrt(p(f)) = (f - 1)/f, and f - 1 is exact for f in [1, 2].
    slope = (f - 1.0) / f
    assert np.all(np.abs(profile.df - slope) <= 1e-12 * slope)
    # Rounding f to a float moves s(f) by up to ulp(f) * ds/dr = ulp(f)/f'.
    exact = _extremal_unit_arclength(f, mu)
    tol = 1e-12 * profile.s_grid + np.spacing(f) / slope
    assert np.all(np.abs(exact - profile.s_grid) <= tol)


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
@pytest.mark.parametrize("q, lam", [(0.0, 0.0), (0.3, 0.0), (0.0, -1.5), (0.3, -1.5),
                                    (0.3, -4.0)])
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


_GL16 = np.polynomial.legendre.leggauss(16)


def _independent_arclength(arclength, tau):
    """S(tau), the integral of the kernel's speed from 0, by a 16-node
    Gauss-Legendre rule on the octaves [tau 2^-k-1, tau 2^-k], k < 60, and
    [0, tau 2^-60]: no table, no panel of the kernel, no Newton step."""
    nodes, weights = _GL16
    edges = 2.0 ** -np.arange(60.0, -1.0, -1.0)
    lo_frac = np.concatenate([[0.0], edges[:-1]])
    total = np.empty_like(tau)
    for start in range(0, tau.size, 256):
        t = tau[start:start + 256, None]
        lo, hi = t * lo_frac, t * edges
        half = 0.5 * (hi - lo)
        x = half[..., None] * nodes + (0.5 * (hi + lo))[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            # tau = 0 gives 0/0 off a horizon start, where the speed is 0.
            g = np.nan_to_num(arclength._speed(x), nan=0.0)
        total[start:start + 256] = np.sum(half * (g @ weights), axis=1)
    return total


PROFILE_GRID = [RNParams(n, 1.0, q, lam) for n in (2, 3, 4)
                for q, lam in ((0.0, 0.0), (0.3, 0.0), (0.0, -1.5),
                               (0.3, -1.5), (0.3, -4.0))]


@pytest.mark.parametrize("params", PROFILE_GRID, ids=str)
def test_profile_kernel_inverts_an_independent_arclength(params) -> None:
    # Every sample of both profiles is f = start + tau^2 with S(tau) = s to
    # a few ulps, with no overflow, invalid operation or division by zero
    # anywhere in the kernel.
    r_plus = classify(params).r_plus
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for mu, sample in ((None, rn_profile(params, 6.0, 1025)),
                           (1.5 * r_plus, rn_profile_mu(params, 1.5 * r_plus, 6.0, 1025))):
            arclength = lambda_rn._profile_arclength(params, mu, None)
            s = sample.s_grid
            tau = arclength.tau_at(s)
            assert np.array_equal(sample.f, arclength.start + tau * tau)
            assert np.all(np.abs(_independent_arclength(arclength, tau) - s)
                          <= 8.0 * np.spacing(np.maximum(s, 1.0)))


def test_table_running_sum_matches_exact_prefix_sums() -> None:
    # Panel integrals of a slowly growing S, added to a large running sum:
    # each prefix sum must be the exactly rounded one to within an ulp.
    rng = np.random.default_rng(13)
    first = 7.3
    pieces = rng.uniform(0.1, 0.4, 32) * 10.0 ** rng.integers(-8, 1, 32)
    got = lambda_rn._running_sum(first, pieces)
    want = [math.fsum([first, *pieces[:k + 1]]) for k in range(pieces.size)]
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


@pytest.mark.parametrize("params, mu", [
    (RNParams(2, 1.0, 0.3, -1.5), None),
    (RNParams(3, 0.8, 0.3, -4.0), 1.5),
    (EXTREMAL_UNIT, 1.0 + 2.0 ** -30),
])
def test_shared_arclength_table_is_bit_identical(params, mu) -> None:
    # A table that model_arclength grew first serves the profile as well; its
    # prefix is the one a fresh table builds, so nothing moves by a bit.
    table = lambda_rn._profile_arclength(params, mu, None)
    start = table.start
    radii = [start + 0.5, start + 40.0]
    shared_s = model_arclength(params, radii, mu, arclength=table)
    assert np.array_equal(shared_s, model_arclength(params, radii, mu))
    if mu is None:
        shared, fresh = (rn_profile(params, 6.0, arclength=table),
                         rn_profile(params, 6.0))
    else:
        shared, fresh = (rn_profile_mu(params, mu, 6.0, arclength=table),
                         rn_profile_mu(params, mu, 6.0))
    for name in ("s_grid", "f", "df", "d2f", "provenance"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name)), name


def test_arclength_table_of_another_start_is_refused() -> None:
    table = lambda_rn._profile_arclength(SCHWARZSCHILD, 3.0, None)
    with pytest.raises(DomainError):
        rn_profile(SCHWARZSCHILD, 4.0, arclength=table)
    with pytest.raises(DomainError):
        rn_profile_mu(SCHWARZSCHILD, 2.5, 4.0, arclength=table)
    with pytest.raises(DomainError):
        model_arclength(RNParams(2, 1.5, 0.0, 0.0), 4.0, 3.0, arclength=table)


# The model end of a round construction: n = 2, q = 0.2, lam = -1 from the
# horizon.
ROUND_END = RNParams(2, 1.0, 0.2, -1.0)


def _quadrature_intervals(arclength, rows: int):
    """rows intervals [lo, hi] over the first few octaves of a table."""
    rng = np.random.default_rng(rows)
    lo = arclength.tau[1] * 2.0 ** rng.uniform(0.0, 40.0, rows)
    return lo, lo * 2.0 ** rng.uniform(0.0, 0.25, rows)


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 4097])
@pytest.mark.parametrize("rule", ["edge", "step"])
def test_blocked_quadrature_is_the_unblocked_expression(rule, rows) -> None:
    # The row blocks leave every row's integral as one product over all rows
    # computes it, for a horizon start and for an interior one.
    nodes, weights = {"edge": lambda_rn._GL_EDGE, "step": lambda_rn._GL_STEP}[rule]
    for mu in (None, 1.5 * classify(ROUND_END).r_plus):
        arclength = lambda_rn._profile_arclength(ROUND_END, mu, None)
        lo, hi = _quadrature_intervals(arclength, rows)
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        unblocked = half * (arclength._speed(half[:, None] * nodes + mid[:, None]) @ weights)
        assert np.array_equal(arclength._integral(lo, hi, (nodes, weights)), unblocked)


def test_blocked_quadrature_stays_below_the_mmap_threshold() -> None:
    # 4097 rows of 8 nodes took 1569 KiB at their peak in one product; each
    # block's temporaries are 64 KiB, below glibc's 128 KiB mmap threshold.
    arclength = lambda_rn._profile_arclength(ROUND_END, None, None)
    lo, hi = _quadrature_intervals(arclength, 4097)
    tracemalloc.start()
    try:
        arclength._integral(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 * 1024


@pytest.mark.parametrize("mu", [None, 3.0])
def test_no_radii_and_no_arclengths_give_empty_arrays(mu) -> None:
    for radii in ([], np.empty((0, 3))):
        s = model_arclength(ROUND_END, radii, mu)
        assert isinstance(s, np.ndarray) and s.shape == np.shape(radii)
    tau = lambda_rn._profile_arclength(ROUND_END, mu, None).tau_at(np.array([]))
    assert tau.shape == (0,)


@pytest.mark.parametrize("s_max", [math.nan, math.inf, -math.inf])
def test_non_finite_profile_length_is_refused(s_max) -> None:
    with pytest.raises(DomainError, match="must be finite"):
        rn_profile(ROUND_END, s_max)
    with pytest.raises(DomainError, match="must be finite"):
        rn_profile_mu(ROUND_END, 3.0, s_max)


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
