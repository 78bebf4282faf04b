"""Tests for seed metrics, normalized paths and the slice eigen problem."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from charged_extensions import sphere_seed
from charged_extensions.errors import DomainError
from charged_extensions.numutil import diff1_4th, simpson_uniform
from charged_extensions.quasilocal import unit_sphere_volume
from charged_extensions.sphere_seed import (
    AxisymConformalMetric,
    axisym_metric_from_function,
    conformal_path,
    curvature_floor_along_path,
    eigen_along_path,
    gaussian_curvature,
    lambda1,
    normalize_path,
    round_metric,
    round_path,
    slice_geometry,
)


@pytest.fixture(scope="module")
def cos_seed():
    return axisym_metric_from_function(lambda t: 0.2 * np.cos(t))


@pytest.fixture(scope="module")
def cos_path(cos_seed):
    return normalize_path(cos_seed, n_t=129)


def total_curvature(metric):
    """Integral of K over the surface, which must equal 4*pi."""
    k = gaussian_curvature(metric)
    integrand = k * np.exp(2.0 * metric.w) * np.sin(metric.theta_grid)
    return 2.0 * math.pi * simpson_uniform(integrand, metric.theta_step)


def test_gaussian_curvature_round():
    metric = round_metric(1.0, n_theta=257)
    assert np.max(np.abs(gaussian_curvature(metric) - 1.0)) < 1e-10
    scaled = round_metric(math.e, n_theta=257)
    assert np.max(np.abs(gaussian_curvature(scaled) - math.exp(-2.0))) < 1e-10


def test_gaussian_curvature_cosine_closed_form():
    metric = axisym_metric_from_function(lambda t: 0.1 * np.cos(t))
    theta = metric.theta_grid
    expected = np.exp(-0.2 * np.cos(theta)) * (1.0 + 0.2 * np.cos(theta))
    assert np.max(np.abs(gaussian_curvature(metric) - expected)) < 1e-8


def test_gaussian_curvature_refined_grid_oracle():
    coarse = axisym_metric_from_function(lambda t: 0.1 * np.cos(t), n_theta=1025)
    fine = axisym_metric_from_function(lambda t: 0.1 * np.cos(t), n_theta=4097)
    k_coarse = gaussian_curvature(coarse)
    k_fine = gaussian_curvature(fine)[::4]
    assert np.max(np.abs(k_coarse - k_fine)) < 1e-6


def test_pole_irregular_exponent_rejected():
    theta = np.linspace(0.0, math.pi, 257)
    with pytest.raises(DomainError):
        AxisymConformalMetric(theta_grid=theta, w=0.1 * theta)


def test_conformal_path_endpoints(cos_seed):
    start = conformal_path(cos_seed, 0.0)
    assert np.array_equal(start.w, cos_seed.w)
    end = conformal_path(cos_seed, 1.0)
    assert np.max(np.abs(end.w)) == 0.0
    half = conformal_path(axisym_metric_from_function(lambda t: 0.2 * np.cos(t)), 0.5)
    assert np.allclose(half.w, 0.1 * np.cos(half.theta_grid), atol=1e-15)
    with pytest.raises(DomainError):
        conformal_path(cos_seed, 1.5)


def test_normalize_round_seed_is_constant():
    path = normalize_path(round_metric(1.3), n_t=65)
    assert path.is_round
    assert path.volume_form_deviation == 0.0
    assert math.isclose(path.r_o, 1.3, rel_tol=1e-12)


def test_normalized_path_endpoints_and_clamp(cos_path, cos_seed):
    # Starts at the seed exactly.
    assert np.array_equal(cos_path.metrics[0].w, cos_seed.w)
    assert np.allclose(cos_path.reparam[0], cos_seed.theta_grid, atol=1e-12)
    # Constant after the switch time.
    frozen = [k for k, t in enumerate(cos_path.t_grid) if t >= cos_path.theta_switch]
    for k in frozen[1:]:
        assert np.array_equal(cos_path.metrics[k].w, cos_path.metrics[frozen[0]].w)
        assert np.array_equal(cos_path.reparam[k], cos_path.reparam[frozen[0]])
    # Ends round.
    final = cos_path.metrics[-1].w
    assert np.max(final) - np.min(final) < 1e-12


def test_normalized_path_area_every_slice(cos_path):
    target = unit_sphere_volume(2) * cos_path.r_o ** 2
    for metric in cos_path.metrics:
        assert abs(metric.area() - target) < 1e-10 * target


def test_normalized_path_volume_form_deviation(cos_path):
    assert cos_path.volume_form_deviation < 1e-7


def test_normalized_path_volume_form_deviation_fine_grid():
    seed = axisym_metric_from_function(lambda t: 0.2 * np.cos(t), n_theta=2049)
    path = normalize_path(seed, n_t=65)
    assert path.volume_form_deviation < 1e-8


def _reference_normalization(seed, n_t, theta_switch=0.75):
    """Maps and exponents of normalize_path from one cumulative-area spline
    per slice, each Newton-inverted on its own with the per-point brentq
    fallback: the loop the batched inversion replaces."""
    theta = seed.theta_grid
    ramp = sphere_seed._time_clamp(np.linspace(0.0, 1.0, n_t), theta_switch)
    _, cumulative0 = sphere_seed._cumulative_area_spline(theta, seed.w)
    total0 = float(cumulative0(math.pi))
    maps = np.empty((n_t, theta.size))
    exponents = np.empty((n_t, theta.size))
    for k in range(n_t):
        w_raw = (1.0 - ramp[k]) * seed.w
        density, cumulative = sphere_seed._cumulative_area_spline(theta, w_raw)
        total = float(cumulative(math.pi))
        exponents[k] = w_raw + 0.5 * math.log(total0 / total)
        targets = cumulative0(theta) * (total / total0)
        samples = cumulative(theta)
        assert np.all(np.diff(samples) > 0.0)
        x = np.interp(targets, samples, theta)
        slope_floor = 1e-12 * float(np.max(density(theta)))
        for _ in range(6):
            slope = np.maximum(density(x), slope_floor)
            x = np.clip(x - (cumulative(x) - targets) / slope, 0.0, math.pi)
        bad = np.abs(cumulative(x) - targets) > 1e-12 * float(samples[-1])
        for idx in np.nonzero(bad)[0]:
            x[idx] = brentq(lambda v, tt=targets[idx]: cumulative(v) - tt,
                            0.0, math.pi, xtol=1e-14, rtol=8.9e-16)
        x[0], x[-1] = 0.0, math.pi
        maps[k] = x
    return maps, exponents


@pytest.mark.parametrize("a", [0.3, -0.42, 0.62])
def test_batched_normalization_matches_per_slice_reference(a):
    seed = axisym_metric_from_function(lambda t: a * np.cos(t))
    path = normalize_path(seed)
    maps, exponents = _reference_normalization(seed, path.t_grid.size)
    assert np.max(np.abs(path.reparam - maps)) <= 1e-11
    assert np.max(np.abs(np.array([m.w for m in path.metrics]) - exponents)) <= 1e-11
    assert path.volume_form_deviation < 1e-7
    target = unit_sphere_volume(2) * path.r_o ** 2
    for metric in path.metrics:
        assert abs(metric.area() - target) < 1e-10 * target


def test_intervals_match_searchsorted():
    # Knots, their float neighbours and random points; the interval rule is
    # PPoly's: theta[i] <= x < theta[i+1], with pi in the last interval.
    theta = np.linspace(0.0, math.pi, 1025)
    rng = np.random.default_rng(5)
    x = np.concatenate([theta, np.nextafter(theta, -1.0)[1:],
                        np.nextafter(theta, 4.0)[:-1], rng.uniform(0.0, math.pi, 4000)])
    idx, dx = sphere_seed._intervals(theta, x)
    expected = np.clip(np.searchsorted(theta, x, side="right") - 1, 0, theta.size - 2)
    assert np.array_equal(idx, expected)
    assert np.array_equal(dx, x - theta[expected])


def test_gauss_bonnet_along_path(cos_path):
    for k in (0, 32, 64, 96, 128):
        assert abs(total_curvature(cos_path.metrics[k]) - 4.0 * math.pi) < 1e-6


def test_lambda1_round_unit():
    value, u = lambda1(round_metric(1.0, n_theta=513))
    assert math.isclose(value, 1.0, rel_tol=0, abs_tol=1e-9)
    assert np.max(np.abs(u - 1.0)) < 1e-10


def test_lambda1_round_scaling():
    for r_o in (0.5, 2.0, 3.7):
        value, u = lambda1(round_metric(r_o, n_theta=513))
        assert math.isclose(value, 1.0 / r_o ** 2, rel_tol=1e-9)
        assert np.max(np.abs(u - 1.0)) < 1e-10


def test_lambda1_cosine_refined_oracle():
    coarse = axisym_metric_from_function(lambda t: 0.1 * np.cos(t), n_theta=1025)
    fine = axisym_metric_from_function(lambda t: 0.1 * np.cos(t), n_theta=2049)
    value_coarse, _ = lambda1(coarse)
    value_fine, _ = lambda1(fine)
    assert value_coarse > 0.0
    assert abs(value_coarse - value_fine) < 1e-6


def test_lambda1_normalization(cos_seed):
    value, u = lambda1(cos_seed)
    weight = np.exp(2.0 * cos_seed.w) * np.sin(cos_seed.theta_grid)
    norm = 2.0 * math.pi * simpson_uniform(u * u * weight, cos_seed.theta_step)
    assert math.isclose(norm, cos_seed.area(), rel_tol=1e-10)
    assert np.min(u) > 0.0


def test_lambda1_path_endpoint(cos_path):
    value, _ = lambda1(cos_path.metrics[-1])
    assert abs(value - 1.0 / cos_path.r_o ** 2) < 1e-8


def test_lambda1_stays_above_threshold_along_path(cos_path):
    v0, _ = lambda1(cos_path.metrics[0])
    v1, _ = lambda1(cos_path.metrics[-1])
    kappa = 0.95 * min(v0, v1)
    for k in range(0, cos_path.t_grid.size, 16):
        value, _ = lambda1(cos_path.metrics[k])
        assert value > kappa


def test_curvature_floor_round_unit():
    floor = curvature_floor_along_path(round_path(2, 1.0, n_t=65))
    assert math.isclose(floor.min_curvature, 1.0, rel_tol=1e-14)
    assert math.isclose(floor.kappa_positive_scalar, 0.95, rel_tol=1e-14)
    assert math.isclose(floor.kappa_eigenfunction, 0.95, rel_tol=1e-14)
    assert floor.kappa_negative_floor == 0.0


def test_curvature_floor_negative_curvature_rule():
    seed = axisym_metric_from_function(lambda t: 0.6 * np.cos(t))
    path = normalize_path(seed, n_t=65)
    floor = curvature_floor_along_path(path)
    assert floor.min_curvature < 0.0
    assert math.isclose(
        floor.kappa_negative_floor, -floor.min_curvature * 1.05, rel_tol=1e-14
    )
    assert floor.kappa_positive_scalar is None
    # The stated arithmetic of the rule at a floor of -0.2.
    assert math.isclose(max(0.0, 0.2) * 1.05, 0.21, rel_tol=1e-15)


def test_lazy_eigenvalue_floor_equals_eager_formula(cos_path):
    # The floor the eigenvalue route used to compute eagerly: lambda1 on 65
    # evenly spaced slices, scaled down by the margin.
    indices = np.unique(np.round(np.linspace(0, cos_path.t_grid.size - 1, 65)).astype(int))
    eager = min(lambda1(cos_path.metrics[idx])[0] for idx in indices)
    for margin in (0.05, 0.2):
        floor = curvature_floor_along_path(cos_path, margin=margin)
        assert floor.kappa_eigenfunction == eager * (1.0 - margin)


def test_curvature_floor_higher_dimension_round():
    floor = curvature_floor_along_path(round_path(4, 1.0, n_t=65))
    assert math.isclose(floor.kappa_positive_scalar, 0.95 * 6.0, rel_tol=1e-14)


def test_slice_geometry_round():
    path = round_path(3, 2.0, n_t=65)
    geometry = slice_geometry(path)
    assert np.all(geometry.gprime_sq == 0.0)
    assert np.allclose(geometry.scalar_curvature, 6.0 / 4.0, atol=1e-15)
    assert np.all(geometry.trace_gprime == 0.0)


def test_slice_geometry_volume_form_static(cos_path):
    geometry = slice_geometry(cos_path)
    base = geometry.sqrt_det[0]
    spread = np.max(np.abs(geometry.sqrt_det - base[None, :]))
    assert spread < 1e-12 * max(1.0, float(np.max(base)))


def test_slice_geometry_trace_free(cos_path):
    geometry = slice_geometry(cos_path)
    assert np.max(np.abs(geometry.trace_gprime)) < 1e-8


def test_slice_geometry_frozen_tail(cos_path):
    geometry = slice_geometry(cos_path)
    assert np.max(np.abs(geometry.gprime_sq[-1])) < 1e-20
    assert np.max(geometry.gprime_sq) > 0.0


def test_slice_geometry_curvature_independent_route(cos_path):
    """Composed curvature against the general orthogonal-metric formula."""
    geometry = slice_geometry(cos_path)
    theta = geometry.theta_grid
    dtheta = float(theta[1] - theta[0])
    for k in (10, 40, 80):
        metric = cos_path.metrics[k]
        composed = cos_path.reparam[k]
        from scipy.interpolate import CubicSpline

        w_spline = CubicSpline(theta, metric.w)
        exponent = w_spline(composed)
        dmap = CubicSpline(theta, composed)(theta, 1)
        a_comp = np.exp(2.0 * exponent) * dmap ** 2
        b_comp = np.exp(2.0 * exponent) * np.sin(composed) ** 2
        root = np.sqrt(a_comp * b_comp)
        db = diff1_4th(b_comp, dtheta)
        inner = np.zeros_like(db)
        inner[1:-1] = db[1:-1] / root[1:-1]
        k_indep = np.full_like(db, np.nan)
        k_indep[1:-1] = -diff1_4th(inner, dtheta)[1:-1] / (2.0 * root[1:-1])
        band = slice(120, theta.size - 120)
        diff = k_indep[band] - 0.5 * geometry.scalar_curvature[k][band]
        assert np.max(np.abs(diff)) < 1e-5


def test_eigen_along_path_round():
    path = round_path(2, 1.5, n_t=65)
    eigen = eigen_along_path(path)
    assert np.allclose(eigen.lambda1, 1.0 / 1.5 ** 2, atol=1e-15)
    assert np.all(eigen.u == 1.0)
    assert np.all(eigen.du_dt == 0.0)


def test_eigen_along_path_matches_per_slice(cos_path):
    eigen = eigen_along_path(cos_path)
    for k in (0, 64, 128):
        value, _ = lambda1(cos_path.metrics[k])
        assert abs(eigen.lambda1[k] - value) < 1e-5
    assert np.min(eigen.u) > 0.0
    assert np.max(np.abs(eigen.du_dt[-1])) < 1e-10


def test_eigen_along_path_normalization(cos_path):
    eigen = eigen_along_path(cos_path)
    geometry = slice_geometry(cos_path)
    dtheta = float(eigen.theta_grid[1] - eigen.theta_grid[0])
    target = unit_sphere_volume(2) * cos_path.r_o ** 2
    for k in (0, 64, 128):
        norm = 2.0 * math.pi * simpson_uniform(
            eigen.u[k] ** 2 * geometry.sqrt_det[k], dtheta
        )
        assert math.isclose(norm, target, rel_tol=1e-8)


def test_eigen_identity_along_path(cos_path):
    """Finite-difference Laplacian against the eigen identity."""
    eigen = eigen_along_path(cos_path)
    geometry = slice_geometry(cos_path)
    for k in (0, 64, 128):
        lhs = eigen.laplace_u[k]
        rhs = (0.5 * geometry.scalar_curvature[k] - eigen.lambda1[k]) * eigen.u[k]
        assert np.max(np.abs(lhs - rhs)) < 1e-3


def test_round_path_validation():
    with pytest.raises(DomainError):
        round_path(1, 1.0)
    with pytest.raises(DomainError):
        round_path(2, -1.0)
