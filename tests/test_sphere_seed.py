"""Tests for seed metrics, normalized paths and the slice eigen problem."""

from __future__ import annotations

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from charged_extensions import cli_io, sphere_seed
from charged_extensions.collar import CONSTANT_LAPSE, EIGENFUNCTION_LAPSE, select_route
from charged_extensions.errors import ConstructionError, DomainError
from charged_extensions.numutil import _chebint, diff1_4th, simpson_uniform
from charged_extensions.quasilocal import unit_sphere_volume
from charged_extensions.sphere_seed import (
    AxisymConformalMetric,
    axisym_metric_from_function,
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


def metric_at(path, k):
    """The slice metric of a normalized path at t sample k."""
    return AxisymConformalMetric(theta_grid=path.seed.theta_grid, w=path.w[path.slice_of[k]])


def xi_at(path, k):
    """The Moser field per unit d(scale)/dt of a normalized path at t sample k."""
    return path.xi[path.slice_of[k]]


def slice_metrics(path):
    return [metric_at(path, k) for k in range(path.t_grid.size)]


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
    assert np.max(np.abs(gaussian_curvature(metric) - expected)) < 1e-12


@pytest.mark.parametrize("n_theta", [257, 1025])
@pytest.mark.parametrize("tau", [0.3, 1.0])
def test_gaussian_curvature_of_the_dilation_seed_is_one(tau, n_theta):
    # A conformal dilation of the unit sphere has K = 1 everywhere, the
    # poles included: the Laplacian has no pole closure of its own.
    seed = axisym_metric_from_function(
        lambda t: -np.log(math.cosh(tau) - math.sinh(tau) * np.cos(t)), n_theta=n_theta)
    assert np.max(np.abs(gaussian_curvature(seed) - 1.0)) <= 1e-10


def test_gaussian_curvature_refined_grid_oracle():
    coarse = axisym_metric_from_function(lambda t: 0.1 * np.cos(t), n_theta=1025)
    fine = axisym_metric_from_function(lambda t: 0.1 * np.cos(t), n_theta=4097)
    k_coarse = gaussian_curvature(coarse)
    k_fine = gaussian_curvature(fine)[::4]
    assert np.max(np.abs(k_coarse - k_fine)) < 1e-6


@pytest.mark.parametrize("n_theta", [9, 17, 33, 65, 257, 1025])
def test_pole_irregular_exponent_rejected(n_theta):
    theta = np.linspace(0.0, math.pi, n_theta)
    with pytest.raises(DomainError, match="pole-irregular") as info:
        AxisymConformalMetric(theta_grid=theta, w=0.1 * theta)
    # The slopes print as 17-digit floats, not as NumPy reprs.
    message = str(info.value)
    assert "np.float64(" not in message
    slopes = message.split("w'(0) = ")[1].split(", w'(pi) = ")
    assert all(math.isfinite(float(slope)) for slope in slopes)
    if n_theta >= 17:
        with pytest.raises(DomainError, match="pole-irregular"):
            AxisymConformalMetric(theta_grid=theta, w=np.cos(theta) + 1e-4 * theta)


@pytest.mark.parametrize("a, n_theta", [(0.62, 33), (2.0, 33), (0.3, 17), (1.0, 9)])
def test_pole_regular_exponent_accepted_on_coarse_grids(a, n_theta):
    # The one-sided stencil's truncation error at the pole, estimated from
    # the same stencil at twice the step, widens the tolerance: w'(0) of
    # 2 cos(theta) reads 6.0e-6 at 33 points.
    metric = axisym_metric_from_function(lambda t: a * np.cos(t), n_theta=n_theta)
    assert metric.theta_grid.size == n_theta


def test_normalize_round_seed_is_constant():
    path = normalize_path(round_metric(1.3), n_t=65)
    assert path.is_round
    assert path.volume_form_deviation == 0.0
    assert math.isclose(path.r_o, 1.3, rel_tol=1e-12)


def test_normalized_path_endpoints_and_clamp(cos_path, cos_seed):
    # Starts at the seed exactly.
    assert np.array_equal(metric_at(cos_path, 0).w, cos_seed.w)
    assert cos_path.shift[cos_path.slice_of[0]] == 0.0
    # Constant after the switch time.
    frozen = [k for k, t in enumerate(cos_path.t_grid) if t >= cos_path.theta_switch]
    for k in frozen[1:]:
        assert np.array_equal(metric_at(cos_path, k).w, metric_at(cos_path, frozen[0]).w)
        assert np.array_equal(xi_at(cos_path, k), xi_at(cos_path, frozen[0]))
    # Ends round.
    final = metric_at(cos_path, -1).w
    assert np.max(final) - np.min(final) < 1e-12


def test_normalized_path_area_every_slice(cos_path):
    target = unit_sphere_volume(2) * cos_path.r_o ** 2
    for metric in slice_metrics(cos_path):
        assert abs(metric.area() - target) < 1e-10 * target


def test_normalized_path_volume_form_deviation(cos_path):
    assert cos_path.volume_form_deviation < 1e-7


def test_normalized_path_volume_form_deviation_fine_grid():
    seed = axisym_metric_from_function(lambda t: 0.2 * np.cos(t), n_theta=2049)
    path = normalize_path(seed, n_t=65)
    assert path.volume_form_deviation < 1e-8


def test_volume_form_deviation_is_measured_once_on_first_read(cos_seed, monkeypatch):
    measured = []

    def counting(path, original=sphere_seed._measure_volume_form_deviation):
        measured.append(path)
        return original(path)

    monkeypatch.setattr(sphere_seed, "_measure_volume_form_deviation", counting)
    path = normalize_path(cos_seed, n_t=65)
    assert measured == []
    first = path.volume_form_deviation
    assert path.volume_form_deviation == first
    assert measured == [path]


@pytest.mark.parametrize("n", [2, 3])
def test_round_path_volume_form_deviation_is_zero(n):
    assert round_path(n, 1.7, n_t=65).volume_form_deviation == 0.0


def test_steep_cos_path_keeps_the_area_gauge():
    # 2 cos(theta) on the default grid: C11's 1e-7 bound on the measured
    # residual of the Moser flow's continuity equation.
    path = normalize_path(axisym_metric_from_function(lambda t: 2.0 * np.cos(t)))
    assert path.volume_form_deviation < 1e-7


def wobble(t):
    return 0.3 * np.cos(2.0 * t) + 0.1 * np.cos(3.0 * t)


def _reference_gauge(fn, scale, theta, nodes=96):
    """Dilations, means and Moser fields (at the angles ``theta``, strictly
    inside (0, pi)) of the rows scale * w for the exponent function fn,
    from Gauss-Legendre sums in x = cos(theta) with fn summed at the nodes;
    row 0 has scale 1.  Each integral from x to 1 runs over [x, 1], or as
    minus the integral over [-1, x] on the southern half."""
    x, weights = np.polynomial.legendre.leggauss(nodes)
    w = fn(np.arccos(x))
    density = np.exp(2.0 * np.multiply.outer(scale, w))
    area = density @ weights
    mean = (density * w) @ weights / area
    at = np.cos(theta)
    north = at > 0.0
    lo, hi = np.where(north, at, -1.0), np.where(north, 1.0, at)
    points = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x
    w_points = fn(np.arccos(points))
    integrand = (w_points - mean[:, None, None]) * np.exp(2.0 * scale[:, None, None] * w_points)
    integral = np.where(north, 1.0, -1.0) * 0.5 * (hi - lo) * (integrand @ weights)
    xi = -2.0 * integral / (np.exp(2.0 * scale[:, None] * fn(theta)) * np.sin(theta))
    return 0.5 * np.log(area[0] / area), mean, xi


@pytest.mark.parametrize("fn", [lambda t: 0.3 * np.cos(t), lambda t: -0.42 * np.cos(t),
                                lambda t: 0.62 * np.cos(t), wobble],
                         ids=["0.3", "-0.42", "0.62", "wobble"])
def test_batched_normalization_matches_per_slice_reference(fn):
    # Every distinct row of the default 513 x 1025 path, at the columns next
    # to each pole and every 32nd between.
    seed = axisym_metric_from_function(fn)
    path = normalize_path(seed)
    theta = seed.theta_grid
    columns = np.unique(np.r_[1, 2, np.arange(32, theta.size - 1, 32), theta.size - 3,
                              theta.size - 2])
    shift, mean, xi = _reference_gauge(fn, path.scale, theta[columns])
    assert np.max(np.abs(path.shift - shift)) <= 1e-14
    assert np.max(np.abs(path.mean_w - mean)) <= 1e-14
    assert np.max(np.abs(path.xi[:, columns] - xi)) <= 1e-12
    assert np.all(path.xi[:, [0, -1]] == 0.0)
    assert path.volume_form_deviation < 1e-7
    target = unit_sphere_volume(2) * path.r_o ** 2
    for metric in slice_metrics(path):
        assert abs(metric.area() - target) < 1e-10 * target


def test_gauss_bonnet_along_path(cos_path):
    for k in (0, 32, 64, 96, 128):
        assert abs(total_curvature(metric_at(cos_path, k)) - 4.0 * math.pi) < 1e-6


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
    value, _ = lambda1(metric_at(cos_path, -1))
    assert abs(value - 1.0 / cos_path.r_o ** 2) < 1e-8


def test_lambda1_stays_above_threshold_along_path(cos_path):
    v0, _ = lambda1(metric_at(cos_path, 0))
    v1, _ = lambda1(metric_at(cos_path, -1))
    kappa = 0.95 * min(v0, v1)
    for k in range(0, cos_path.t_grid.size, 16):
        value, _ = lambda1(metric_at(cos_path, k))
        assert value > kappa


def _oracle_lambda1(a: float, modes: int = 32) -> float:
    """First eigenvalue of -Laplacian + K on e^(2a cos(theta)) g*.

    Written out here, apart from the library: Legendre-Galerkin in
    x = cos(theta) with the closed-form potential K e^(2w) = 1 - Laplacian(w)
    = 1 + 2 a x, mass density e^(2 a x) and Gauss-Legendre integrals.
    """
    from scipy.linalg import eigh

    legendre = np.polynomial.legendre
    x, weights = legendre.leggauss(3 * modes)
    basis = np.eye(modes)
    p = legendre.legval(x, basis)
    dp = legendre.legval(x, legendre.legder(basis))
    stiffness = (dp * (1.0 - x * x) * weights) @ dp.T + (p * (1.0 + 2.0 * a * x) * weights) @ p.T
    mass = (p * np.exp(2.0 * a * x) * weights) @ p.T
    return float(eigh(stiffness, mass, eigvals_only=True, subset_by_index=(0, 0))[0])


@pytest.mark.parametrize("a", [0.1, 0.62])
def test_lambda1_matches_independent_oracle(a):
    value, _ = lambda1(axisym_metric_from_function(lambda t: a * np.cos(t)))
    reference = _oracle_lambda1(a)
    assert abs(value - reference) <= 1e-12 * reference


def test_lambda1_round_sphere_is_exact():
    assert abs(lambda1(round_metric(1.0))[0] - 1.0) <= 1e-14
    assert abs(lambda1(round_metric(2.0))[0] - 0.25) <= 1e-14 * 0.25


@pytest.mark.parametrize("tau", [0.3, 1.0])
def test_lambda1_of_the_dilation_seed_is_one(tau):
    # e^(2w) g* with w = -ln(cosh tau - sinh tau cos theta) is a conformal
    # dilation of the unit sphere: K = 1, so lambda1 = 1 with constant u.
    seed = axisym_metric_from_function(
        lambda t: -np.log(math.cosh(tau) - math.sinh(tau) * np.cos(t)))
    value, u = lambda1(seed)
    assert abs(value - 1.0) <= 1e-13
    assert np.min(u) > 0.0


def test_every_path_row_matches_independent_oracle():
    # Row j of a cos path is (1 - l_j) a cos(theta) + d_j, whose eigenvalue
    # is e^(-2 d_j) times the oracle's at amplitude (1 - l_j) a.  The
    # default 513 x 1025 path has 366 distinct rows.
    path = normalize_path(axisym_metric_from_function(lambda t: 0.62 * np.cos(t)))
    eigen = eigen_along_path(path)
    first = [int(np.argmax(path.slice_of == j)) for j in range(path.w.shape[0])]
    for row, k in zip(path.w, first):
        amplitude = 0.5 * (row[0] - row[-1])
        reference = math.exp(-(row[0] + row[-1])) * _oracle_lambda1(amplitude)
        assert abs(eigen.lambda1[k] - reference) <= 1e-12 * reference, k
    # The round tail's eigenfunction is the constant 1.
    tail = eigen.u[path.t_grid >= path.theta_switch]
    assert np.max(np.abs(tail - 1.0)) <= 1e-13


def _wobble_seed():
    # Needs 32 Legendre modes: the tail test fails at 16 (3.5e-8).
    return axisym_metric_from_function(wobble)


def test_eigen_fields_record_the_mode_count():
    for seed, modes in ((axisym_metric_from_function(lambda t: 0.62 * np.cos(t)), 16),
                        (_wobble_seed(), 32)):
        eigen = eigen_along_path(normalize_path(seed, n_t=65))
        assert eigen.modes == modes
        assert eigen.tail <= sphere_seed._TAIL_TOL
    round_eigen = eigen_along_path(round_path(2, 1.0, n_t=65))
    assert (round_eigen.modes, round_eigen.tail) == (1, 0.0)


def _legendre_recurrence_sums(coeffs, x):
    """u, its round-sphere Laplacian and du/dx for each row of orthonormal
    Legendre coefficients, by one forward pass of the recurrences
    k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2) and
    P_k' = P_(k-2)' + (2k - 1) P_(k-1)."""
    weights = coeffs * np.sqrt(np.arange(coeffs.shape[1]) + 0.5)
    previous, current = np.zeros(x.shape), np.ones(x.shape)
    d_previous, d_current = np.zeros(x.shape), np.zeros(x.shape)
    u, laplacian, du_dx = weights[:, :1] * current, np.zeros((coeffs.shape[0], x.size)), 0.0
    for k in range(1, coeffs.shape[1]):
        previous, current, d_previous, d_current = (
            current, ((2 * k - 1) / k) * x * current - ((k - 1) / k) * previous,
            d_current, d_previous + (2 * k - 1) * current)
        u = u + weights[:, k, None] * current
        laplacian = laplacian - (k * (k + 1.0)) * weights[:, k, None] * current
        du_dx = du_dx + weights[:, k, None] * d_current
    return u, laplacian, du_dx


@pytest.mark.parametrize("fn", [lambda t: 0.62 * np.cos(t), wobble], ids=["0.62", "wobble"])
def test_ground_state_sums_match_the_legendre_recurrence(fn):
    # The table products sum in another order than the recurrence, so they
    # agree to a rounding bound that grows with the mode count.
    seed = axisym_metric_from_function(fn)
    values, coeffs, modes, _ = sphere_seed._ground_states(normalize_path(seed, n_t=65).w)
    x = np.cos(seed.theta_grid)
    sums = sphere_seed._ground_state_sums(values, coeffs, x)
    for got, reference in zip(sums, _legendre_recurrence_sums(coeffs, x)):
        assert np.max(np.abs(got - reference)) <= 8 * modes * np.finfo(float).eps * np.max(
            np.abs(reference))


def test_ground_state_below_rounding_is_a_construction_error():
    # Far past the stability edge u spans more than 13 decades, so its
    # Legendre sum dips below zero near the pole where it is smallest; the
    # error carries the eigenvalue, which select_route refuses by.
    with pytest.raises(ConstructionError, match="not positive") as exc:
        lambda1(axisym_metric_from_function(lambda t: 3.0 * np.cos(t)))
    assert exc.value.diagnostics["min_u"] <= 0.0
    assert exc.value.diagnostics["min_lambda1"] < -124.0


def test_unresolved_ground_state_is_a_construction_error(monkeypatch):
    monkeypatch.setattr(sphere_seed, "_MAX_MODES", 16)
    with pytest.raises(ConstructionError, match="did not resolve the ground state in 16"):
        lambda1(_wobble_seed())


# The curvature-floor route table: collar.select_route against each route's
# formula on the path's own memoized fields, bit for bit.  A positive-scalar
# floor is 0.95 * (1/2) min slice scalar curvature, a negative floor
# 1.05 * max(0, -(1/2) min slice scalar curvature), an eigenvalue floor
# 0.95 * min lambda1 of the eigen fields.


def cos_route_path(a):
    return normalize_path(axisym_metric_from_function(lambda t: a * np.cos(t)), n_t=65)


def min_scalar(path):
    return float(np.min(slice_geometry(path).scalar_curvature))


def assert_route(path, lam, route, case_id, kappa):
    assert select_route(path, 0.0, lam) == (route, case_id, kappa)


def test_curvature_floor_round_unit():
    path = round_path(2, 1.0, n_t=65)
    assert curvature_floor_along_path(path) == min_scalar(path) == 2.0
    assert_route(path, 0.0, "positive-scalar", CONSTANT_LAPSE, 0.5 * 2.0 * (1.0 - 0.05))
    # Against lam < 0 the negative floor comes first, at kappa = 0.
    assert_route(path, -1.0, "negative-floor", CONSTANT_LAPSE, 0.0)


def test_curvature_floor_higher_dimension_round():
    for n in (3, 4):
        path = round_path(n, 1.0, n_t=65)
        kappa = 0.5 * (n * (n - 1) / 1.0 ** 2) * (1.0 - 0.05)
        for lam in (0.0, -1.0):
            assert_route(path, lam, "positive-scalar", CONSTANT_LAPSE, kappa)


def test_curvature_floor_positive_cos_seed():
    path = cos_route_path(0.3)
    min_scal = min_scalar(path)
    assert curvature_floor_along_path(path) == min_scal > 0.0
    assert_route(path, 0.0, "positive-scalar", CONSTANT_LAPSE, 0.5 * min_scal * (1.0 - 0.05))


def test_curvature_floor_negative_curvature_rule():
    path = cos_route_path(0.6)
    min_scal = min_scalar(path)
    assert curvature_floor_along_path(path) == min_scal < 0.0
    kappa = max(0.0, -0.5 * min_scal) * (1.0 + 0.05)
    assert_route(path, -3.5, "negative-floor", CONSTANT_LAPSE, kappa)
    # The negative floor admits the path before the eigen fields are read.
    assert "eigen_fields" not in vars(path)


@pytest.mark.parametrize("a", [0.3, 0.62, -0.7])
def test_slice_curvature_minimum_matches_the_gauge_curvature(a):
    # Each slice is sampled on its own grid, so its curvature is the gauge
    # curvature of its metric; the minimum sits at a pole.
    path = cos_route_path(a)
    gauge = min(float(np.min(gaussian_curvature(metric))) for metric in slice_metrics(path))
    assert math.isclose(curvature_floor_along_path(path), 2.0 * gauge, rel_tol=1e-8)


def test_eigenvalue_floor_is_the_eigen_fields_minimum():
    path = normalize_path(axisym_metric_from_function(lambda t: 0.62 * np.cos(t)), n_t=129)
    route = select_route(path, 0.0, 0.0)
    min_lam1 = float(np.min(eigen_along_path(path).lambda1))
    assert route == ("eigenfunction", EIGENFUNCTION_LAPSE, min_lam1 * (1.0 - 0.05))


def test_eigenfunction_route_builds_slice_fields_first(monkeypatch):
    # Built in the other order, the slice fields' temporaries would come on
    # top of the memoized eigen fields and raise a cold path's peak memory.
    built = []
    for name in ("_slice_geometry", "_eigen_path"):
        def recording(path, name=name, original=getattr(sphere_seed, name)):
            built.append(name)
            return original(path)

        monkeypatch.setattr(sphere_seed, name, recording)
    assert select_route(cos_route_path(0.6), 0.0, 0.0)[0] == "eigenfunction"
    assert built == ["_slice_geometry", "_eigen_path"]


def test_axisym_path_radius_takes_one_area_integral(monkeypatch):
    path = cos_route_path(0.3)
    area = AxisymConformalMetric.area
    calls = []

    def counting(metric):
        calls.append(metric)
        return area(metric)

    monkeypatch.setattr(AxisymConformalMetric, "area", counting)
    radii = [path.r_o for _ in range(4)]
    assert len(calls) == 1
    assert radii == [metric_at(path, 0).volume_radius] * 4


def test_slice_geometry_round():
    path = round_path(3, 2.0, n_t=65)
    geometry = slice_geometry(path)
    assert np.all(geometry.gprime_sq == 0.0)
    assert np.allclose(geometry.scalar_curvature, 6.0 / 4.0, atol=1e-15)


def test_slice_geometry_volume_form_is_the_slice_density(cos_path):
    # Each row is its slice's own area density, and every slice has the
    # seed's area.
    geometry = slice_geometry(cos_path)
    theta = geometry.theta_grid
    target = unit_sphere_volume(2) * cos_path.r_o ** 2
    for k in range(cos_path.t_grid.size):
        density = np.exp(2.0 * metric_at(cos_path, k).w) * np.sin(theta)
        assert np.array_equal(geometry.sqrt_det[k], density)
    areas = 2.0 * math.pi * simpson_uniform(geometry.sqrt_det, float(theta[1] - theta[0]))
    assert np.max(np.abs(areas - target)) < 1e-10 * target


def test_slice_geometry_frozen_tail(cos_path):
    geometry = slice_geometry(cos_path)
    assert np.max(np.abs(geometry.gprime_sq[-1])) < 1e-20
    assert np.max(geometry.gprime_sq) > 0.0


@pytest.mark.parametrize("a", [0.3, -0.7, 2.0])
def test_metric_velocity_is_zero_on_the_plateau_and_at_the_poles(a):
    # gprime_sq is 2 (d scale/dt)^2 beta^2: the rate is exactly 0 from the
    # switch time on, and beta is 0 at the poles.
    path = cos_route_path(a)
    gprime_sq = slice_geometry(path).gprime_sq
    plateau = path.t_grid >= path.theta_switch
    assert np.any(plateau) and np.all(gprime_sq[plateau] == 0.0)
    assert np.all(gprime_sq[:, [0, -1]] == 0.0)
    assert np.max(gprime_sq) > 0.0


def test_slice_geometry_curvature_independent_route(cos_path):
    """Slice curvature against the general orthogonal-metric formula."""
    geometry = slice_geometry(cos_path)
    theta = geometry.theta_grid
    dtheta = float(theta[1] - theta[0])
    for k in (10, 40, 80):
        exponent = metric_at(cos_path, k).w
        a_comp = np.exp(2.0 * exponent)
        b_comp = np.exp(2.0 * exponent) * np.sin(theta) ** 2
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
        value, _ = lambda1(metric_at(cos_path, k))
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


def _per_sample_fields(path):
    """Slice fields, eigen fields and volume-form deviation of a path built
    t sample by t sample: the Moser gauge, the field formulas and the eigen
    solve run on one row per sample, as if the path kept no distinct
    slices.  Sample k has scale s_k = 1 - ramp_k, rate ds/dt and exponent
    s_k w + c_k."""
    seed, theta = path.seed, path.seed.theta_grid
    dt = float(path.t_grid[1] - path.t_grid[0])
    ramp, slope = sphere_seed._smooth_step_jet(path.t_grid / path.theta_switch, 1)
    scale, rate = (1.0 - ramp)[:, None], (-slope / path.theta_switch)[:, None]
    shift, mean, xi = sphere_seed._moser_gauge(seed, scale[:, 0])
    exponent = scale * seed.w + shift[:, None]
    x, sin = np.cos(theta), np.sin(theta)
    density = np.exp(2.0 * exponent) * sin
    residual = (2.0 * (seed.w - mean[:, None]) * density
                + diff1_4th(xi * density, seed.theta_step))
    deviation = float(np.max(np.abs(rate * residual)))

    cheb = np.polynomial.chebyshev
    series = sphere_seed._chebyshev_series(seed.w)
    laplacian = cheb.chebval(x, sphere_seed._laplacian_series(series))
    w_theta = -sin * cheb.chebval(x, cheb.chebder(series))
    cot = np.zeros(theta.shape)
    cot[1:-1] = x[1:-1] / sin[1:-1]
    beta = 2.0 * ((seed.w - mean[:, None]) + xi * (scale * w_theta + cot))
    beta[:, [0, -1]] = 0.0
    geometry = {
        "sqrt_det": density,
        "scalar_curvature": 2.0 * np.exp(-2.0 * exponent) * (1.0 - scale * laplacian),
        "gprime_sq": rate ** 2 * (2.0 * beta ** 2),
    }

    # One eigen solve per sample, summed on the sample's own grid.
    values, coeffs, _, _ = sphere_seed._ground_states(exponent)
    u, lap_round, du_dx = sphere_seed._ground_state_sums(values, coeffs, x)
    eigen = {
        "lambda1": values,
        "u": u,
        "du_dt": diff1_4th(u.T, dt).T + rate * (xi * -sin * du_dx),
        "laplace_u": np.exp(-2.0 * exponent) * lap_round,
    }
    return deviation, geometry, eigen


@pytest.mark.parametrize("a", [0.3, 0.62, -0.7])
def test_distinct_slice_fields_bitwise_equal_per_sample_reference(a):
    path = normalize_path(axisym_metric_from_function(lambda t: a * np.cos(t)), n_t=129)
    deviation, geometry, eigen = _per_sample_fields(path)
    assert path.volume_form_deviation == deviation
    fields = slice_geometry(path)
    for name, reference in geometry.items():
        assert np.array_equal(getattr(fields, name), reference), name
    fields = eigen_along_path(path)
    for name, reference in eigen.items():
        assert np.array_equal(getattr(fields, name), reference), name


def test_eigen_fields_solve_each_distinct_slice_once(cos_seed, monkeypatch):
    # 93 distinct scales 1 - ramp among 129 t samples: every sample from the
    # switch time on shares the round slice, and the first samples, whose
    # ramp rounds away against 1, share the seed's.  One batched solve takes
    # them.
    path = normalize_path(cos_seed, n_t=129)
    solves = []

    def counting(rows, original=sphere_seed._ground_states):
        solves.append(rows.shape)
        return original(rows)

    monkeypatch.setattr(sphere_seed, "_ground_states", counting)
    eigen_along_path(path)
    assert solves == [(93, cos_seed.theta_grid.size)]
    assert path.w.shape[0] == 93


def test_normalize_path_builds_no_slice_metrics(cos_seed, monkeypatch):
    built = []
    post_init = AxisymConformalMetric.__post_init__

    def counting(metric):
        built.append(metric)
        post_init(metric)

    monkeypatch.setattr(AxisymConformalMetric, "__post_init__", counting)
    path = normalize_path(cos_seed, n_t=129)
    assert built == []
    assert path.w.shape == (93, cos_seed.theta_grid.size)


@pytest.mark.parametrize("change,message", [
    (lambda path: {"n": 3}, "n = 2"),
    (lambda path: {"slice_of": path.slice_of + 1}, "row of w for every t sample"),
    (lambda path: {"xi": path.xi[:, :-1]}, "one row per distinct slice"),
    (lambda path: {"shift": path.shift[:-1]}, "one row per distinct slice"),
    (lambda path: {"mean_w": path.mean_w[:-1]}, "one row per distinct slice"),
    (lambda path: {"scale": path.scale * np.nan}, "finite"),
    (lambda path: {"shift": path.shift * np.nan}, "finite"),
    # Every row a full copy of the seed, which is not round.
    (lambda path: {"scale": np.ones_like(path.scale)}, "not round"),
    # Every sample on the seed's row.
    (lambda path: {"slice_of": np.zeros_like(path.slice_of)}, "not round"),
], ids=["n-3", "slice-of-out-of-range", "xi-shape", "shift-shape", "mean-shape", "non-finite-scale",
        "non-finite-shift", "non-round-scale", "non-round-tail"])
def test_axisym_path_validation(cos_path, change, message):
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(cos_path, **change(cos_path))


def test_axisym_path_arrays_are_read_only(cos_path):
    with pytest.raises(ValueError):
        cos_path.w[0, 0] = 1.0
    with pytest.raises(ValueError):
        cos_path.scale[0] = 1.0
    with pytest.raises(ValueError):
        cos_path.shift[0] = 1.0
    with pytest.raises(ValueError):
        cos_path.mean_w[0] = 1.0
    with pytest.raises(ValueError):
        cos_path.xi[0, 0] = 1.0
    with pytest.raises(ValueError):
        cos_path.slice_of[0] = 1


@pytest.mark.parametrize("n_theta, shift", [(1025, 0.1), (1025, 1e-8), (257, 1e-6)])
def test_axisym_path_slices_must_keep_the_seed_area(n_theta, shift):
    # r_o reads the seed's volume radius, so a path whose slices have
    # another area must be refused, not carry a wrong r_o.
    seed = axisym_metric_from_function(lambda t: 0.3 * np.cos(t), n_theta=n_theta)
    path = normalize_path(seed, n_t=65)
    with pytest.raises(DomainError, match="volume radii drift"):
        dataclasses.replace(path, shift=path.shift + shift)


@pytest.mark.parametrize("a", [0.62, -0.7])
def test_path_w_is_the_seed_blend(a):
    # Row j is s_j w + d_j for the distinct scales s_j = 1 - l_j of the ramp
    # levels l_j, from 1 down, and the dilation d_j that restores the seed's
    # area, bit for bit as the Moser gauge of the distinct scales gives it.
    seed = axisym_metric_from_function(lambda t: a * np.cos(t))
    path = normalize_path(seed, n_t=129)
    ramp = sphere_seed._time_clamp(path.t_grid, path.theta_switch)
    scale = np.unique(1.0 - ramp)[::-1]
    dilation, _, _ = sphere_seed._moser_gauge(seed, scale)
    assert np.array_equal(path.scale, scale)
    assert np.array_equal(path.scale[path.slice_of], 1.0 - ramp)
    assert np.array_equal(path.shift, dilation)
    assert np.array_equal(path.w, scale[:, None] * seed.w + dilation[:, None])
    assert path.w is path.w
    # The tail is round because its rows hold none of the seed.
    assert np.all(path.scale[path.slice_of[path.t_grid >= path.theta_switch]] == 0.0)


@pytest.mark.parametrize("a", [0.3, 0.62, -0.7])
def test_slice_curvature_matches_closed_form(a):
    # For w = a cos(theta), row j has exponent s_j a cos + d_j and Laplacian
    # -2 s_j a cos, so its scalar curvature is
    # 2 exp(-2 (s_j a cos + d_j)) (1 + 2 s_j a cos).
    path = normalize_path(axisym_metric_from_function(lambda t: a * np.cos(t)), n_t=129)
    x = path.scale[:, None] * a * np.cos(path.seed.theta_grid)
    exact = 2.0 * np.exp(-2.0 * (x + path.shift[:, None])) * (1.0 + 2.0 * x)
    error = np.abs(slice_geometry(path).scalar_curvature - exact[path.slice_of])
    assert np.max(error[:, [0, -1]]) <= 1e-11
    assert np.max(error[:, 1:-1]) <= 1e-11


@pytest.mark.parametrize("n_theta", [1025, 33])
@pytest.mark.parametrize("a", [0.15, 0.62, -0.7, 2.0])
def test_slice_curvature_is_exact_for_cos_seeds(a, n_theta):
    # Row j of a cos(theta)'s path has exponent s_j a cos(theta) + d_j and
    # scalar curvature 2 e^(-2 exponent) (1 + 2 s_j a cos(theta)), taken here
    # at 40 digits.  The series of a x holds two terms, so the slice fields
    # are exact up to rounding on any grid.
    path = normalize_path(axisym_metric_from_function(lambda t: a * np.cos(t), n_theta=n_theta),
                          n_t=17)
    theta = path.seed.theta_grid
    exact = np.empty(path.w.shape)
    with mpmath.workdps(40):
        for j, (s, d) in enumerate(zip(path.scale, path.shift)):
            for i, angle in enumerate(theta):
                x = mpmath.mpf(float(s)) * a * mpmath.cos(mpmath.mpf(float(angle)))
                exact[j, i] = float(2 * mpmath.exp(-2 * (x + mpmath.mpf(float(d)))) * (1 + 2 * x))
    curvature = slice_geometry(path).scalar_curvature
    assert np.max(np.abs(curvature - exact[path.slice_of])) <= 1e-14 * np.max(np.abs(exact))


def _exact_cos_xi(a, scale, theta):
    """Moser fields per unit d(scale)/dt of the rows of a cos(theta)'s
    normalized path, at the angles ``theta`` (strictly inside (0, pi)).

    Row s has area density e^(kx) in x = cos(theta), k = 2 s a, so the
    mean of w = a x is a (coth(k) - 1/k), and
    int_x^1 (a y - mean) e^(ky) dy = a ((e^k - x e^(kx)) / k - (e^k - e^(kx)) / k^2)
    - mean (e^k - e^(kx)) / k; on the round row (k = 0) Xi is -a sin(theta).
    Returns one list of mpf per row; the caller works at 40 digits.
    """
    a = mpmath.mpf(a)
    rows = []
    for s in scale:
        k = 2 * mpmath.mpf(float(s)) * a
        row = []
        for angle in theta:
            t = mpmath.mpf(float(angle))
            x = mpmath.cos(t)
            if k == 0:
                row.append(-a * mpmath.sin(t))
                continue
            mean = a * (mpmath.coth(k) - 1 / k)
            ek, ekx = mpmath.exp(k), mpmath.exp(k * x)
            integral = a * ((ek - x * ekx) / k - (ek - ekx) / k ** 2) - mean * (ek - ekx) / k
            row.append(-2 * integral / (ekx * mpmath.sin(t)))
        rows.append(row)
    return rows


@pytest.mark.parametrize("a, bound", [(0.15, 2.7e-14), (0.62, 1.5e-13), (-0.7, 4.4e-13),
                                      (2.0, 2.3e-11)])
def test_cos_seed_moser_field_matches_the_closed_form(a, bound):
    # The 13 distinct rows of a 17-sample t grid at 1025 theta samples.
    # Bounds are twice the errors measured; the largest sits next to the
    # pole where the density is smallest.
    path = normalize_path(axisym_metric_from_function(lambda t: a * np.cos(t)), n_t=17)
    assert path.xi.shape == (13, 1025)
    with mpmath.workdps(40):
        exact = _exact_cos_xi(a, path.scale, path.seed.theta_grid[1:-1])
        exact = np.array([[float(x) for x in row] for row in exact])
    assert np.max(np.abs(path.xi[:, 1:-1] - exact)) <= bound
    assert np.all(path.xi[:, [0, -1]] == 0.0)


@pytest.mark.parametrize("size", [9, 33, 1025])
def test_lobatto_values_invert_the_chebyshev_series(size):
    # Summed at the Lobatto nodes, a row's series gives back its samples,
    # and one term more, T_size, takes T_(size-2)'s values there.
    theta = np.linspace(0.0, math.pi, size)
    rows = np.random.default_rng(size).standard_normal((3, size))
    series = sphere_seed._chebyshev_series(rows)
    assert np.max(np.abs(sphere_seed._lobatto_values(series, size) - rows)) <= 1e-14
    last = np.zeros(size + 1)
    last[-1] = 1.0
    values = sphere_seed._lobatto_values(last, size)
    assert np.max(np.abs(values - np.cos(size * theta))) <= 1e-12
    assert np.max(np.abs(values - np.cos((size - 2) * theta))) <= 1e-12


@pytest.mark.parametrize("change", [
    lambda path: {"xi": path.xi * (1.0 + 1e-4)},
    lambda path: {"mean_w": path.mean_w + 1e-6},
], ids=["xi", "mean"])
def test_volume_form_deviation_sees_a_broken_gauge(cos_path, change):
    # The deviation is measured, not zero by construction: a Moser field
    # off by 1e-4 of itself, or a mean off by 1e-6, fails C11's 1e-7.
    assert cos_path.volume_form_deviation < 1e-7
    assert dataclasses.replace(cos_path, **change(cos_path)).volume_form_deviation > 1e-6


@pytest.mark.parametrize("a", [0.3, 0.62, -0.7])
def test_eigen_time_derivative_keeps_the_normalization_along_the_flow(a):
    # int u^2 dA is every slice's area, and the pulled-back area form is
    # static, so int u du_dt dA = 0 for the derivative along the flow.  The
    # derivative at fixed theta alone misses it by 2e-2 to 2e-1 of the
    # scale; the t stencil leaves 4e-9 to 3e-8.
    path = normalize_path(axisym_metric_from_function(lambda t: a * np.cos(t)))
    eigen, geometry = eigen_along_path(path), slice_geometry(path)
    step = path.seed.theta_step
    drift = simpson_uniform(eigen.u * eigen.du_dt * geometry.sqrt_det, step)
    scale = simpson_uniform(np.abs(eigen.u * eigen.du_dt) * geometry.sqrt_det, step)
    assert np.max(np.abs(drift)) <= 1e-7 * np.max(scale)
    # u_theta from the Legendre derivative sum against the theta stencil.
    values, coeffs, _, _ = sphere_seed._ground_states(path.w)
    theta = path.seed.theta_grid
    u, _, du_dx = sphere_seed._ground_state_sums(values, coeffs, np.cos(theta))
    stencil = diff1_4th(u, step)
    assert np.max(np.abs(-np.sin(theta) * du_dx - stencil)) <= 1e-9 * np.max(np.abs(stencil))


def test_time_derivatives_vanish_at_the_poles(cos_path):
    # The composed metric at a pole is e^(2 w_seed) g* for every t.
    fields = slice_geometry(cos_path)
    assert np.all(fields.gprime_sq[:, [0, -1]] == 0.0)


@pytest.mark.parametrize("make_path", [
    lambda: round_path(2, 1.3, n_t=65),
    lambda: round_path(3, 0.8, n_t=65),
    lambda: cos_route_path(0.62),
], ids=["round-2", "round-3", "cos-0.62"])
def test_slice_field_extremes_are_taken_once(make_path, monkeypatch):
    path = make_path()
    fields = slice_geometry(path)
    assert fields.min_scalar_curvature == float(np.min(fields.scalar_curvature))
    # Readers take the memoized minimum; none reduces the arrays again.
    reductions = []
    monkeypatch.setattr(np, "min", lambda *args, **kwargs: reductions.append(args))
    assert curvature_floor_along_path(path) == fields.min_scalar_curvature
    assert reductions == []


@pytest.mark.parametrize("make_path", [
    lambda: round_path(2, 1.3, n_t=65),
    lambda: cos_route_path(0.62),
], ids=["round-2", "cos-0.62"])
def test_slice_field_row_extremes(make_path):
    fields = slice_geometry(make_path())
    for name in ("scalar_curvature", "gprime_sq"):
        values = getattr(fields, name)
        rows = getattr(fields, name + "_rows")
        assert rows.shape == (2, fields.t_grid.size)
        assert rows[0].tobytes() == np.min(values, axis=1).tobytes()
        assert rows[1].tobytes() == np.max(values, axis=1).tobytes()


@pytest.mark.parametrize("a", [6.0, 8.0])
def test_seed_too_steep_for_the_area_gauge_is_a_construction_error(a):
    # The slice areas of 6 cos(theta) and 8 cos(theta), summed by Simpson's
    # rule, drift past the bound on the default theta grid: a limit of the
    # grid, not a fault of the seed.
    seed = axisym_metric_from_function(lambda t: a * np.cos(t))
    with pytest.raises(ConstructionError, match="volume radii drift") as info:
        normalize_path(seed, n_t=65)
    diagnostics = info.value.diagnostics
    assert diagnostics["drift"] > diagnostics["bound"] > 0.0
    assert str(info.value) == (
        f"slice volume radii drift by {diagnostics['drift']!r}, above the bound "
        f"{diagnostics['bound']!r}: the theta grid does not resolve the seed's area gauge")


@pytest.mark.parametrize("a", [0.62, 8.0])
def test_normalize_path_measures_the_radius_drift_once(a, monkeypatch):
    calls = []
    drift = sphere_seed._radius_drift

    def counted(*args):
        calls.append(args)
        return drift(*args)

    monkeypatch.setattr(sphere_seed, "_radius_drift", counted)
    seed = axisym_metric_from_function(lambda t: a * np.cos(t))
    try:
        path = normalize_path(seed, n_t=65)
    except ConstructionError:
        path = None
    assert len(calls) == 1
    # It measured the path's own rows.
    if path is not None:
        assert calls[0][1] is path.w


def test_inverse_square_integral_is_memoized_on_the_path(cos_path):
    # The expression build_collar computed per eigenfunction-lapse collar.
    geometry = slice_geometry(cos_path)
    eigen = eigen_along_path(cos_path)
    dtheta = float(geometry.theta_grid[1] - geometry.theta_grid[0])
    want = 2.0 * math.pi * simpson_uniform(geometry.sqrt_det / eigen.u ** 2, dtheta)
    got = cos_path.inverse_square_integral
    assert got.shape == cos_path.t_grid.shape
    assert got.tobytes() == want.tobytes()
    assert cos_path.inverse_square_integral is got
    with pytest.raises(ValueError):
        got[0] = 1.0


@pytest.mark.parametrize("a", [200.0, 360.0, 400.0, -200.0])
def test_seed_with_a_non_finite_area_gauge_is_a_construction_error(a):
    # 200 cos(theta) overflows its Moser fields, and from about 355 the
    # densities e^(2 s w) overflow too: a limit of floating point, not a
    # domain error of the input, and no warning escapes.
    seed = axisym_metric_from_function(lambda t: a * np.cos(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstructionError, match="area gauge is not finite") as info:
            normalize_path(seed)
    diagnostics = info.value.diagnostics
    assert set(diagnostics["non_finite"]) == {"shift", "mean_w", "xi"}
    assert diagnostics["non_finite"]["xi"] > 0
    assert diagnostics["slices"] == 366 and diagnostics["max_abs_w"] == abs(a)


# ---------------------------------------------------------------------------
# The cold path in row blocks: every blocked pass is its unblocked
# expression bit for bit, and the fields are stored once per distinct slice.

BLOCK = sphere_seed._ROWS_PER_BLOCK
ROW_COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 366]


@pytest.fixture(scope="module")
def csv_exponent(tmp_path_factory):
    """A ``--seed-csv`` exponent from 41 samples of 0.4 exp(cos(theta) - 1).
    Its path rows keep Chebyshev series of 9 to 14 terms, so the blocks
    differ in width."""
    file = tmp_path_factory.mktemp("seed") / "seed.csv"
    rows = (f"{math.pi * k / 40!r},{0.4 * math.exp(math.cos(math.pi * k / 40) - 1.0)!r}\n"
            for k in range(41))
    file.write_text("theta,w\n" + "".join(rows), encoding="utf-8")
    return cli_io._exponent_from_csv(str(file))


def _block_seed(kind, n_theta, csv_exponent):
    exponent = csv_exponent if kind == "csv" else (lambda t: 0.62 * np.cos(t))
    return axisym_metric_from_function(exponent, n_theta=n_theta)


def _spread_scales(rows):
    """rows of the 366 distinct scales of a default path, from the seed's 1
    on, spread over the whole ramp."""
    ramp = sphere_seed._time_clamp(np.linspace(0.0, 1.0, 513), sphere_seed._THETA_SWITCH)
    scale = np.unique(1.0 - ramp)[::-1]
    assert scale.size == 366
    return scale[np.round(np.linspace(0.0, 365.0, rows)).astype(int)]


def _unblocked_moser_gauge(seed, scale):
    """The Moser gauge with one DCT of every row at once, each way."""
    w, rows = seed.w, scale.size
    density = np.exp(2.0 * scale[:, None] * w)
    series = sphere_seed._series_block(np.concatenate([density, w * density]))
    weights = np.zeros(series.shape[-1])
    weights[::2] = 2.0 / (1.0 - np.arange(0, series.shape[-1], 2) ** 2.0)
    area, moment = np.split(np.sum(series * weights, axis=-1), 2)
    mean = moment / area
    antiderivative = sphere_seed._lobatto_values(
        _chebint(series[rows:] - mean[:, None] * series[:rows]), w.size)
    pole = np.where(np.arange(w.size) < w.size // 2, 0, w.size - 1)
    flux = antiderivative[:, pole] - antiderivative
    xi = np.zeros(density.shape)
    xi[:, 1:-1] = -2.0 * flux[:, 1:-1] / (density[:, 1:-1] * np.sin(seed.theta_grid[1:-1]))
    return 0.5 * np.log(area[0] / area), mean, xi


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("n_theta", [33, 1025])
@pytest.mark.parametrize("kind", ["cos", "csv"])
def test_blocked_moser_gauge_is_the_unblocked_expression(kind, n_theta, rows, csv_exponent):
    seed = _block_seed(kind, n_theta, csv_exponent)
    scale = _spread_scales(rows)
    got = sphere_seed._moser_gauge(seed, scale)
    for name, value, want in zip(("shift", "mean", "xi"), got, _unblocked_moser_gauge(seed, scale)):
        assert value.shape == want.shape and value.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("n_theta", [33, 1025])
@pytest.mark.parametrize("kind", ["cos", "csv"])
def test_blocked_eigen_series_is_the_unblocked_expression(kind, n_theta, rows, csv_exponent):
    seed = _block_seed(kind, n_theta, csv_exponent)
    scale = _spread_scales(rows)
    shift, _, _ = sphere_seed._moser_gauge(seed, scale)
    exponent = scale[:, None] * seed.w + shift[:, None]
    got = sphere_seed._chebyshev_series(exponent)
    want = sphere_seed._series_block(exponent)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if kind == "csv" and rows == 366:
        widths = {sphere_seed._series_block(exponent[block]).shape[-1]
                  for block in sphere_seed._row_blocks(rows)}
        assert len(widths) > 1
    # The solve reads the assembled series as it read the one-DCT series.
    values, coeffs, modes, tail = sphere_seed._ground_states(exponent)
    want_values, want_coeffs = sphere_seed._galerkin(want, modes)
    assert values.tobytes() == want_values.tobytes()
    assert coeffs.tobytes() == want_coeffs.tobytes()


@pytest.mark.parametrize("n_t", [7, 34, 65, 513])
@pytest.mark.parametrize("n_theta", [33, 1025])
@pytest.mark.parametrize("kind", ["cos", "csv"])
def test_blocked_eigen_fields_are_the_unblocked_expressions(kind, n_theta, n_t, csv_exponent):
    # du/dt by windows of t rows against the stencil of the whole grid, and
    # the distinct slices' fields against their expressions.
    path = normalize_path(_block_seed(kind, n_theta, csv_exponent), n_t=n_t)
    eigen = eigen_along_path(path)
    theta = path.seed.theta_grid
    values, coeffs, _, _ = sphere_seed._ground_states(path.w)
    u, lap_round, du_dx = sphere_seed._ground_state_sums(values, coeffs, np.cos(theta))
    flow = path.xi * -np.sin(theta) * du_dx
    dt = float(path.t_grid[1] - path.t_grid[0])
    du_dt = (diff1_4th(u[path.slice_of].T, dt).T
             + sphere_seed._scale_rate(path)[:, None] * flow[path.slice_of])
    assert eigen.du_dt.tobytes() == du_dt.tobytes()
    assert eigen.slice_lambda1.tobytes() == values.tobytes()
    assert eigen.slice_u.tobytes() == u.tobytes()
    assert eigen.slice_laplace_u.tobytes() == (np.exp(-2.0 * path.w) * lap_round).tobytes()


@pytest.mark.parametrize("make_path", [
    lambda: round_path(2, 1.3, n_t=65),
    lambda: round_path(3, 0.8, n_t=65),
    lambda: cos_route_path(0.62),
], ids=["round-2", "round-3", "cos-0.62"])
def test_path_fields_are_stored_once_per_distinct_slice(make_path):
    path = make_path()
    geometry, eigen = slice_geometry(path), eigen_along_path(path)
    n_t = path.t_grid.size
    slices = 1 if path.is_round else path.w.shape[0]
    n_theta = geometry.theta_grid.size
    assert np.array_equal(geometry.slice_of, eigen.slice_of)
    stored = [
        (geometry, ("slice_sqrt_det", "slice_scalar_curvature", "slice_gprime_sq")),
        (eigen, ("slice_u", "slice_laplace_u")),
    ]
    for fields, names in stored:
        for name in names:
            value = getattr(fields, name)
            assert value.shape == (slices, n_theta) and not value.flags.writeable, name
    assert eigen.slice_lambda1.shape == (slices,)
    assert eigen.du_dt.shape == (n_t, n_theta) and not eigen.du_dt.flags.writeable
    # The per-t grids are built on first read only, as the distinct rows
    # expanded, read-only and kept.
    lazy = [
        (geometry, {
            "sqrt_det": geometry.slice_sqrt_det[geometry.slice_of],
            "scalar_curvature": geometry.slice_scalar_curvature[geometry.slice_of],
            "gprime_sq": ((geometry.rate ** 2)[:, None]
                          * geometry.slice_gprime_sq[geometry.slice_of]),
        }),
        (eigen, {
            "lambda1": eigen.slice_lambda1[eigen.slice_of],
            "u": eigen.slice_u[eigen.slice_of],
            "laplace_u": eigen.slice_laplace_u[eigen.slice_of],
        }),
    ]
    for fields, grids in lazy:
        assert not set(grids) & set(vars(fields))
        for name, want in grids.items():
            value = getattr(fields, name)
            assert value.tobytes() == want.tobytes() and not value.flags.writeable, name
            assert getattr(fields, name) is value
    rows = np.array([n_t - 1, 0, n_t // 2, n_t // 2])
    assert geometry.scalar_curvature_at(rows).tobytes() == geometry.scalar_curvature[rows].tobytes()
    assert geometry.gprime_sq_at(rows).tobytes() == geometry.gprime_sq[rows].tobytes()
    assert eigen.u_at(slice(3, 9)).tobytes() == eigen.u[3:9].tobytes()
    assert eigen.laplace_u_at(rows).tobytes() == eigen.laplace_u[rows].tobytes()


def test_round_path_fields_are_the_constant_grids():
    path = round_path(2, 1.3, n_t=65)
    geometry, eigen = slice_geometry(path), eigen_along_path(path)
    shape = (65, 1)
    assert geometry.sqrt_det.tobytes() == np.full(shape, 1.3 ** 2).tobytes()
    assert geometry.scalar_curvature.tobytes() == np.full(shape, 2.0 / 1.3 ** 2).tobytes()
    assert geometry.gprime_sq.tobytes() == np.zeros(shape).tobytes()
    assert eigen.lambda1.tobytes() == np.full(65, 0.5 * 2 / 1.3 ** 2).tobytes()
    assert eigen.u.tobytes() == np.ones(shape).tobytes()
    assert eigen.laplace_u.tobytes() == np.zeros(shape).tobytes()
    assert eigen.du_dt.tobytes() == np.zeros(shape).tobytes()
