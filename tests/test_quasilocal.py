"""Tests for quasi-local mass, charge and sub-extremality bookkeeping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from charged_extensions import lambda_rn, quasilocal
from charged_extensions.errors import DomainError
from charged_extensions.lambda_rn import RNParams
from charged_extensions.quasilocal import (
    HawkingCurve,
    SphereData,
    hawking_mass,
    hawking_rotsym,
    m_o,
    penrose_slack,
    ql_subextremality,
    unit_sphere_volume,
)


def round_sphere_data(n, r, q, lam, mean_curvature):
    """SphereData of a round sphere of radius r with constant H."""
    omega = unit_sphere_volume(n)
    return SphereData(
        n=n,
        volume=omega * r ** n,
        mean_curvature_sq_integral=omega * r ** n * mean_curvature ** 2,
        charge=q,
        lam=lam,
    )


def test_unit_sphere_volume_closed_forms():
    assert math.isclose(unit_sphere_volume(2), 4.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(unit_sphere_volume(3), 2.0 * math.pi ** 2, rel_tol=1e-15)
    assert math.isclose(unit_sphere_volume(1), 2.0 * math.pi, rel_tol=1e-15)
    # One more closed form as a guard on the gamma-function route.
    assert math.isclose(unit_sphere_volume(4), 8.0 * math.pi ** 2 / 3.0, rel_tol=1e-14)


def test_unit_sphere_volume_rejects_bad_dimension():
    with pytest.raises(DomainError):
        unit_sphere_volume(0)


def test_sphere_data_validation():
    with pytest.raises(DomainError):
        SphereData(n=2, volume=-1.0, mean_curvature_sq_integral=0.0, charge=0.0, lam=0.0)
    with pytest.raises(DomainError):
        SphereData(n=2, volume=1.0, mean_curvature_sq_integral=-1.0, charge=0.0, lam=0.0)
    with pytest.raises(DomainError):
        SphereData(n=2, volume=1.0, mean_curvature_sq_integral=0.0, charge=0.0, lam=0.5)


def test_hawking_mass_minimal_unit_sphere():
    data = round_sphere_data(2, 1.0, 0.0, 0.0, 0.0)
    assert math.isclose(hawking_mass(data), 0.5, rel_tol=1e-14)


def test_hawking_mass_flat_round_spheres_vanish():
    for r in (0.3, 1.0, 1.7, 5.0):
        data = round_sphere_data(2, r, 0.0, 0.0, 2.0 / r)
        assert abs(hawking_mass(data)) < 1e-13
    for r in (0.5, 2.0):
        data = round_sphere_data(3, r, 0.0, 0.0, 3.0 / r)
        assert abs(hawking_mass(data)) < 1e-13


@pytest.mark.parametrize(
    "params",
    [
        RNParams(n=2, m=1.0, q=0.0, lam=0.0),
        RNParams(n=2, m=1.2, q=0.5, lam=-1.0),
        RNParams(n=3, m=0.8, q=0.3, lam=0.0),
    ],
)
def test_hawking_mass_on_model_coordinate_spheres(params):
    """Coordinate spheres of the model manifold all have mass m."""
    profile = lambda_rn.rn_profile(params, s_max=3.0, grid_n=2049)
    for idx in (0, 400, 1100, 2048):
        f = profile.f[idx]
        df = profile.df[idx]
        data = round_sphere_data(params.n, f, params.q, params.lam, params.n * df / f)
        assert math.isclose(hawking_mass(data), params.m, rel_tol=0, abs_tol=2e-7)
    # At the horizon itself the mass is exact.
    horizon = round_sphere_data(params.n, profile.f[0], params.q, params.lam, 0.0)
    assert math.isclose(hawking_mass(horizon), params.m, rel_tol=0, abs_tol=1e-12)


def test_hawking_mass_dual_forms_agree_on_random_data():
    rng = np.random.default_rng(20240817)
    omega_cache = {}
    for _ in range(200):
        n = int(rng.integers(2, 6))
        omega = omega_cache.setdefault(n, unit_sphere_volume(n))
        r = float(rng.uniform(0.2, 6.0))
        q = float(rng.uniform(-2.0, 2.0))
        lam = float(-rng.uniform(0.0, 4.0))
        hsq = float(rng.uniform(0.0, 30.0))
        data = SphereData(
            n=n,
            volume=omega * r ** n,
            mean_curvature_sq_integral=hsq,
            charge=q,
            lam=lam,
        )
        value = hawking_mass(data)
        expanded = (
            0.5 * r ** (n - 1)
            + 0.5 * q * q / r ** (n - 1)
            - lam * r ** (n + 1) / (n * (n + 1))
            - r * hsq / (2.0 * n * n * omega)
        )
        assert math.isclose(value, expanded, rel_tol=1e-12, abs_tol=1e-12)


def test_hawking_rotsym_flat_slice_is_massless():
    assert abs(hawking_rotsym(2, 0.0, 0.0, 3.0, 1.0)) < 1e-13


def test_hawking_rotsym_hand_value_negative_lambda():
    # f=1, f'=0, q=0, lam=-3, n=2: the cosmological term contributes exactly 1.
    assert math.isclose(hawking_rotsym(2, 0.0, -3.0, 1.0, 0.0), 1.0, rel_tol=1e-14)


def test_hawking_rotsym_on_model_profiles():
    params = RNParams(n=2, m=1.1, q=0.4, lam=-0.5)
    profile = lambda_rn.rn_profile(params, s_max=2.5, grid_n=2049)
    for idx in (0, 300, 1024, 2048):
        value = hawking_rotsym(
            params.n, params.q, params.lam, profile.f[idx], profile.df[idx]
        )
        assert math.isclose(value, params.m, rel_tol=0, abs_tol=2e-7)


def test_hawking_rotsym_auxiliary_mass_independence():
    """Direct evaluation with explicit auxiliary masses, spread below 1e-11."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        q = float(rng.uniform(-1.5, 1.5))
        lam = float(-rng.uniform(0.0, 3.0))
        f = float(rng.uniform(0.3, 4.0))
        df = float(rng.uniform(0.0, 2.0))
        values = []
        for m in (-1.0, 0.0, 1.0, 7.0):
            params = RNParams(n=n, m=m, q=q, lam=lam)
            values.append(
                m + 0.5 * f ** (n - 1) * (lambda_rn.eval_p(params, f) - df * df)
            )
        assert max(values) - min(values) < 1e-11
        assert math.isclose(
            hawking_rotsym(n, q, lam, f, df), values[1], rel_tol=0, abs_tol=1e-12
        )


def test_hawking_rotsym_rejects_nonpositive_radius():
    with pytest.raises(DomainError):
        hawking_rotsym(2, 0.0, 0.0, 0.0, 1.0)


def test_ql_subextremality_uncharged_flat():
    assert ql_subextremality(2, 0.0, 0.0, 1.0) == lambda_rn.SUB_EXTREMAL


def test_ql_subextremality_degenerate():
    assert ql_subextremality(2, 1.0, 0.0, 1.0) == lambda_rn.EXTREMAL


def test_ql_subextremality_charged_negative_lambda_with_classifier_oracle():
    kind = ql_subextremality(2, 0.3, -3.0, 1.0)
    assert kind == lambda_rn.SUB_EXTREMAL
    mass = m_o(2, 1.0, 0.3, -3.0)
    cls = lambda_rn.classify(RNParams(n=2, m=mass, q=0.3, lam=-3.0))
    assert cls.kind == lambda_rn.SUB_EXTREMAL
    assert abs(cls.r_plus - 1.0) < 1e-10


def test_ql_subextremality_inner_root_flag():
    # n=2, q=1, lam=0, r=0.5: mass 1.25, closed-form roots 0.5 and 2.0, so
    # the sphere sits at the inner root.
    kind = ql_subextremality(2, 1.0, 0.0, 0.5)
    assert kind == quasilocal.INNER_ROOT
    cls = lambda_rn.classify(RNParams(n=2, m=1.25, q=1.0, lam=0.0))
    assert math.isclose(cls.r_minus, 0.5, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(cls.r_plus, 2.0, rel_tol=0, abs_tol=1e-12)


def test_minimal_spheres_with_positive_h_dominate_charge():
    """Mass exceeds |charge| whenever the companion polynomial is positive."""
    rng = np.random.default_rng(31415)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 5))
        r = float(rng.uniform(0.3, 3.0))
        q = float(rng.uniform(-2.5, 2.5))
        lam = float(-rng.uniform(0.0, 5.0))
        params = RNParams(n=n, m=0.0, q=q, lam=lam)
        if lambda_rn.eval_h(params, r) <= 1e-12:
            continue
        checked += 1
        data = round_sphere_data(n, r, q, lam, 0.0)
        assert hawking_mass(data) > abs(q)
    assert checked > 100


def test_m_o_reference_values():
    assert math.isclose(m_o(2, 1.0, 0.0, 0.0), 0.5, rel_tol=1e-14)
    assert math.isclose(m_o(2, 1.0, 0.0, -3.0), 1.0, rel_tol=1e-14)
    assert math.isclose(m_o(3, 1.0, 0.0, 0.0), 0.5, rel_tol=1e-14)


def test_m_o_matches_minimal_sphere_mass():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        r = float(rng.uniform(0.2, 5.0))
        q = float(rng.uniform(-2.0, 2.0))
        lam = float(-rng.uniform(0.0, 4.0))
        data = round_sphere_data(n, r, q, lam, 0.0)
        assert math.isclose(
            m_o(n, r, q, lam), hawking_mass(data), rel_tol=1e-13, abs_tol=1e-13
        )


def test_penrose_slack_vanishes_on_model_family():
    cases = [
        RNParams(n=2, m=1.0, q=0.0, lam=0.0),
        RNParams(n=2, m=1.5, q=0.7, lam=-2.0),
        RNParams(n=3, m=2.0, q=0.5, lam=-1.0),
        RNParams(n=4, m=1.3, q=0.0, lam=-0.3),
    ]
    for params in cases:
        cls = lambda_rn.classify(params)
        assert cls.kind == lambda_rn.SUB_EXTREMAL
        volume = unit_sphere_volume(params.n) * cls.r_plus ** params.n
        slack = penrose_slack(params.n, volume, params.q, params.lam, params.m)
        assert abs(slack) < 1e-10


def test_penrose_slack_scales_with_mass_excess():
    base = m_o(2, 1.0, 0.2, -1.0)
    volume = unit_sphere_volume(2)
    assert abs(penrose_slack(2, volume, 0.2, -1.0, base)) < 1e-14
    slack = penrose_slack(2, volume, 0.2, -1.0, 1.05 * base)
    assert math.isclose(slack, 0.05 * base, rel_tol=1e-11)


def test_hawking_curve_validation():
    t = np.linspace(0.0, 1.0, 5)
    mass = np.ones(5)
    dm = np.zeros(5)
    curve = HawkingCurve(t_grid=t, mass=mass, charge=0.3, dmass_dt=dm)
    assert curve.charge == 0.3
    with pytest.raises(DomainError):
        HawkingCurve(t_grid=t[::-1].copy(), mass=mass, charge=0.0, dmass_dt=dm)
    with pytest.raises(DomainError):
        HawkingCurve(t_grid=t, mass=mass[:-1], charge=0.0, dmass_dt=dm)
