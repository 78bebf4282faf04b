from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.fft import dct
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq
from scipy.special import erfc as scipy_erfc

from charged_extensions import lambda_rn
from charged_extensions.numutil import (
    CubicHermite,
    _chebint,
    _smooth_step_jet,
    brent_root,
    dct1,
    diff1_4th,
    diff2_4th,
    erfc,
    fmt17,
    simpson_uniform,
    smooth_step,
)

# The (xtol, rtol, maxiter) of every brent_root call in the package.
_ROOT_SETTINGS = [
    lambda_rn._BRENT_KW,
    dict(xtol=1e-15, rtol=8.9e-16, maxiter=100),
    dict(xtol=1e-14, rtol=8.9e-16, maxiter=100),
]


def _random_brackets(count: int, seed: int):
    """Functions with one sign change in their bracket: steep, flat and
    cubic crossings at random roots and scales, with random bracket ends."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        root = float(rng.uniform(-3.0, 3.0)) * 10.0 ** float(rng.integers(-3, 4))
        width = abs(root) + 10.0 ** float(rng.uniform(-6, 1))
        lo = root - float(rng.uniform(1e-9, 1.0)) * width
        hi = root + float(rng.uniform(1e-9, 1.0)) * width
        rate, power = float(rng.uniform(0.1, 5.0)), int(rng.integers(1, 4))

        def f(x, root=root, rate=rate, power=power, width=width):
            u = (x - root) / width
            return math.sinh(rate * u) + 0.3 * u ** (2 * power + 1)

        yield f, lo, hi


@pytest.mark.parametrize("settings", _ROOT_SETTINGS)
def test_brent_root_equals_brentq_bitwise(settings) -> None:
    for f, lo, hi in _random_brackets(1000, seed=11):
        assert brent_root(f, lo, hi, **settings) == brentq(f, lo, hi, **settings), (lo, hi)


def test_brent_root_refusals_are_runtime_errors() -> None:
    # lambda_rn.classify turns a RuntimeError into a DomainError; a NaN value
    # and a loop that runs out of iterations must both raise one.
    tol = dict(xtol=1e-14, rtol=8.9e-16)
    with pytest.raises(RuntimeError, match="NaN"):
        brent_root(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0, **tol)
    with pytest.raises(RuntimeError, match="converge"):
        brent_root(lambda x: math.atan(x - 0.3), -1e3, 1e3, maxiter=3, **tol)
    with pytest.raises(ValueError):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, **tol)
    assert brent_root(lambda x: x - 0.25, 0.25, 1.0, **tol) == 0.25


def test_cubic_hermite_equals_scipy_bitwise() -> None:
    rng = np.random.default_rng(5)
    knots = np.cumsum(rng.uniform(0.01, 1.0, 60))
    y, dydx = rng.standard_normal(60), rng.standard_normal(60)
    points = np.concatenate([
        rng.uniform(knots[0], knots[-1], 5000),  # inside
        knots,  # every knot, the last included
        knots[0] - rng.uniform(0.0, 2.0, 100),  # outside, both ends
        knots[-1] + rng.uniform(0.0, 2.0, 100),
    ])
    ours, theirs = CubicHermite(knots, y, dydx), CubicHermiteSpline(knots, y, dydx)
    assert np.array_equal(ours(points), theirs(points))
    grid = points.reshape(10, -1)
    assert np.array_equal(ours(grid), theirs(grid))
    alone = ours(float(points[3]))
    assert alone.shape == () and alone == theirs(float(points[3]))


@pytest.mark.parametrize("shape", [(375, 1025), (7, 33), (3, 65), (1, 9)])
def test_dct1_equals_scipy_bitwise(shape) -> None:
    rows = np.random.default_rng(shape[1]).standard_normal(shape)
    assert np.array_equal(dct1(rows), dct(rows, type=1, axis=-1))


@pytest.mark.parametrize("scl", [1, 1e-3, 37.0])
@pytest.mark.parametrize("lbnd", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("size", [2, 3, 129, 130, 1025])
def test_chebint_equals_numpy_bitwise(size, lbnd, scl) -> None:
    # Coefficients over many decades, so that any other order of the
    # quotients, subtractions or the constant's sum would move bits.
    rng = np.random.default_rng([size, int(lbnd) + 1, int(scl * 1000)])
    rows = rng.standard_normal((4, size)) * np.exp(4.0 * rng.standard_normal((4, size)))
    k = float(rng.standard_normal())
    theirs = np.polynomial.chebyshev.chebint
    assert np.array_equal(_chebint(rows[0], k=k, lbnd=lbnd, scl=scl),
                          theirs(rows[0], k=k, lbnd=lbnd, scl=scl))
    assert np.array_equal(_chebint(rows, k=k, lbnd=lbnd, scl=scl),
                          theirs(rows, k=k, lbnd=lbnd, scl=scl, axis=-1))
    assert np.array_equal(_chebint(rows), theirs(rows, axis=-1))


def _erfc_arguments(seed: int) -> np.ndarray:
    """z >= 0 across every branch: the rational form below 1, the two
    forms from 1 and from 8 on, the cut to 0 past z^2 = log(max double),
    the branch edges and huge arguments."""
    rng = np.random.default_rng(seed)
    edges = [0.0, 5e-324, 1e-300, 1e-8, np.nextafter(1.0, 0.0), 1.0, np.nextafter(8.0, 0.0),
             8.0, math.sqrt(709.78), 26.65, 27.3, 40.0, 1e10, 1e300, math.inf]
    return np.concatenate([np.linspace(0.0, 30.0, 3001), rng.uniform(0.0, 1.0, 300),
                           rng.uniform(1.0, 8.0, 300), rng.uniform(8.0, 27.3, 300), edges])


def test_erfc_against_40_digits() -> None:
    # Bound: relative error 4 eps (1 + z^2) where erfc(z) is a normal
    # double, absolute error below the smallest normal double elsewhere.
    # The z^2 term is the rounding of z^2 inside exp(-z^2), which scipy's
    # erfc carries too.
    z = _erfc_arguments(3)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.erfc(mpmath.mpf(float(v)))) if v < 30.0 else 0.0
                          for v in z])
    got = erfc(z)
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    normal = exact >= tiny
    rel = np.abs(got[normal] - exact[normal]) / exact[normal]
    assert np.all(rel <= 4.0 * eps * (1.0 + z[normal] ** 2))
    assert np.all(np.abs(got[~normal] - exact[~normal]) < tiny)
    assert erfc(0.0) == 1.0 and isinstance(erfc(0.5), float)
    assert math.isnan(erfc(math.nan))


def test_erfc_matches_scipy_where_normal() -> None:
    rng = np.random.default_rng(9)
    z = np.concatenate([_erfc_arguments(4), rng.uniform(0.0, 27.3, 100_000)])
    reference = scipy_erfc(z)
    normal = reference >= np.finfo(float).tiny
    got = erfc(z)
    assert np.all(np.abs(got[normal] - reference[normal]) <= 1e-15 * reference[normal])
    assert np.all(np.abs(got[~normal] - reference[~normal]) < np.finfo(float).tiny)
    # The bend jet passes its own exp(-z^2); the value must not depend on it.
    with np.errstate(over="ignore"):
        assert np.array_equal(erfc(z, np.exp(-z * z)), got)


def test_simpson_polynomial_exactness() -> None:
    x = np.linspace(0.0, 2.0, 9)
    assert math.isclose(simpson_uniform(x ** 3, x[1]), 4.0, abs_tol=1e-13)


def test_simpson_rejects_even_counts() -> None:
    with pytest.raises(ValueError):
        simpson_uniform(np.zeros(4), 0.1)


def test_diff_stencils_on_sine() -> None:
    x = np.linspace(0.0, 1.0, 201)
    y = np.sin(3.0 * x)
    d1 = diff1_4th(y, x[1])
    d2 = diff2_4th(y, x[1])
    assert np.abs(d1 - 3.0 * np.cos(3.0 * x)).max() < 5e-8
    assert np.abs(d2 + 9.0 * np.sin(3.0 * x)).max() < 5e-5


def test_smooth_step_endpoints_and_monotonicity() -> None:
    assert smooth_step(-0.5) == 0.0
    assert smooth_step(1.5) == 1.0
    assert math.isclose(smooth_step(0.5), 0.5, abs_tol=1e-15)
    x = np.linspace(0.0, 1.0, 300)
    assert np.all(np.diff(smooth_step(x)) >= 0.0)
    assert np.all(_smooth_step_jet(x, 1)[1] >= 0.0)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_smooth_step_jet_matches_finite_differences(order) -> None:
    x = np.linspace(0.05, 0.95, 61)
    h = 1e-5
    fd = [smooth_step(x),
          (smooth_step(x + h) - smooth_step(x - h)) / (2.0 * h),
          (smooth_step(x + h) - 2.0 * smooth_step(x) + smooth_step(x - h)) / h ** 2]
    jet = _smooth_step_jet(x, order)
    assert len(jet) == order + 1
    assert np.array_equal(jet[0], smooth_step(x))
    for k, tol in zip(range(1, order + 1), (1e-8, 1e-4)):
        assert np.abs(jet[k] - fd[k]).max() < tol
        # A lower order is a prefix of a higher one.
        assert np.array_equal(jet[k], _smooth_step_jet(x, 2)[k])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_smooth_steps_round_alike_alone_and_in_arrays(order) -> None:
    # A batched caller must get the value a one-point caller gets.
    rng = np.random.default_rng(7)
    edges = [1e-300, 1e-160, 1e-12, 1.0 / 746.0, 1e-3, 0.5,
             1.0 - 1e-3, 1.0 - 1e-12, np.nextafter(1.0, 0.0)]
    x = np.concatenate([rng.random(2000), np.linspace(-0.25, 1.25, 1201),
                        edges, [1.0 - e for e in edges]])
    batch = np.asarray(_smooth_step_jet(x, order))
    assert not np.any(np.isnan(batch))
    for k, value in enumerate(x):
        alone = np.asarray(_smooth_step_jet(value, order))
        single = np.asarray(_smooth_step_jet(np.array([value]), order))
        assert np.array_equal(alone, single[:, 0]), value
        assert np.array_equal(alone, batch[:, k]), value


def _whole_array_smooth_step_jet(x, order):
    """The jet with phi evaluated at every point and the outside values put
    in by np.where: the formulation the interior-only jet replaced."""
    from charged_extensions.numutil import _phi_jet

    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):  # phi'' at x = inf, put out by np.where
        a, b = _phi_jet(x, order), _phi_jet(1.0 - x, order)
    s = a[0] + b[0]
    jet = [np.where((x > 0.0) & (x < 1.0),
                    np.divide(a[0], s, out=np.zeros_like(s), where=s > 0.0),
                    np.where(x >= 1.0, 1.0, 0.0))]
    outside = (x <= 0.0) | (x >= 1.0)
    if order >= 1:
        num1 = a[1] * b[0] + a[0] * b[1]
        den = s * s
        jet.append(np.where(outside, 0.0, np.divide(
            num1, den, out=np.zeros_like(num1), where=den > 0.0)))
    if order >= 2:
        num = (a[2] * b[0] - a[0] * b[2]) * s - 2.0 * num1 * (a[1] - b[1])
        den = s * s * s
        jet.append(np.where(outside, 0.0, np.divide(
            num, den, out=np.zeros_like(num), where=den > 0.0)))
    return tuple(v if v.ndim else float(v) for v in jet)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_interior_only_jet_is_the_whole_array_jet(order) -> None:
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(-0.5, 1.5, 2001), rng.random(500),
                        [0.0, 1.0, 1.0 / 746.0, np.nextafter(0.0, 1.0),
                         np.nextafter(1.0, 0.0), -np.inf, np.inf, np.nan]])
    for arg in (x, x[:2508].reshape(-1, 4), x[:0], x[:1], 0.25, 1.5, np.nan):
        got = _smooth_step_jet(arg, order)
        want = _whole_array_smooth_step_jet(arg, order)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert np.array_equal(g, w, equal_nan=True)
    # Only the points inside (0, 1) reach phi.
    inside = (x > 0.0) & (x < 1.0)
    calls = []
    from charged_extensions import numutil

    phi_jet = numutil._phi_jet
    try:
        numutil._phi_jet = lambda y, k: calls.append(y.size) or phi_jet(y, k)
        _smooth_step_jet(x, order)
    finally:
        numutil._phi_jet = phi_jet
    assert calls == [int(np.count_nonzero(inside))] * 2


def test_erfc_rational_forms_start_horner_from_the_leading_product() -> None:
    # Cephes' polevl starts from c0 and multiplies by x first; x * c0 is the
    # same float, so erfc keeps its values.
    from charged_extensions.numutil import _ERFC_P, _ERFC_Q, _ratio

    x = np.linspace(0.0, 9.0, 901)
    p = np.full(x.shape, _ERFC_P[0])
    for c in _ERFC_P[1:]:
        p = p * x + c
    q = x + _ERFC_Q[0]
    for c in _ERFC_Q[1:]:
        q = q * x + c
    assert np.array_equal(_ratio(x, _ERFC_P, _ERFC_Q, 2.0), 2.0 * p / q)


def test_fmt17_round_trip() -> None:
    for value in (math.pi, 1.0 / 3.0, 1e-17, 123456.789):
        assert float(fmt17(value)) == value
