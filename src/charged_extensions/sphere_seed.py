"""Seed geometries and normalized metric paths on the sphere.

Round seeds are supported in every dimension; non-round seeds are
axisymmetric conformal metrics e^(2w(theta)) g* on the 2-sphere.  A seed
is deformed to the round metric through the conformal family with
exponent s w, where s = 1 - ramp(t), and the raw family is then normalized
so that

- the path starts at the seed and is constant after a switch time,
- every time slice has the same total area as the seed,
- the area form is independent of time.

The last is Moser's trick: the slices are pulled back along the flow of a
field xi d/dtheta whose divergence cancels the time derivative of the
area form.  Every field the collar reads is pointwise, an extreme over
the sphere or an area integral, so each slice is sampled on its own
uniform theta grid, and the flow enters only through time derivatives:
the metric velocity g' + L_X g and the lapse's u' + xi u_theta.  No area
map is inverted.

The seed's Chebyshev series in x = cos(theta) gives its Gaussian
curvature, the slices' dilations and Moser fields, the first eigenvalue
and eigenfunction of -Laplacian + K restricted to axisymmetric functions
(a Legendre-Galerkin solve), and the slice fields (volume form, scalar
curvature, metric velocity) and eigen fields, which the collar
construction reads, its curvature floor among them.  The module reads
NumPy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionError, DomainError
from .numutil import (
    _D1_EDGE,
    _chebint,
    _smooth_step_jet,
    dct1,
    diff1_4th,
    fmt17,
    simpson_uniform,
    smooth_step,
)
from .quasilocal import unit_sphere_volume

__all__ = [
    "AxisymConformalMetric",
    "MetricPath",
    "SliceGeometry",
    "EigenPath",
    "axisym_metric_from_function",
    "round_metric",
    "gaussian_curvature",
    "normalize_path",
    "round_path",
    "lambda1",
    "curvature_floor_along_path",
    "slice_geometry",
    "eigen_along_path",
]

_DEFAULT_N_THETA = 1025
_DEFAULT_N_T = 513
_POLE_TOL = 1e-6
# Path time from which normalize_path and round_path hold every slice
# round and fixed.
_THETA_SWITCH = 0.75
# Rows of a (slice or t sample, theta) grid that a cold path's transforms,
# stencils and margin pass take at a time: 32 rows of 1025 samples are
# 256 KiB, so no full-grid temporary is formed.  Each row is computed as
# the whole grid computes it, bit for bit.
_ROWS_PER_BLOCK = 32


def _row_blocks(rows: int) -> list[slice]:
    """Consecutive slices of at most ``_ROWS_PER_BLOCK`` rows covering rows."""
    return [slice(start, min(start + _ROWS_PER_BLOCK, rows))
            for start in range(0, rows, _ROWS_PER_BLOCK)]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class AxisymConformalMetric:
    """Axisymmetric conformal metric e^(2w(theta)) g* on the 2-sphere.

    The exponent w is sampled on a uniform theta grid over [0, pi] with
    both endpoints included.  Pole regularity (w'(0) = w'(pi) = 0 up to
    1e-6 (1 + max|w'|) plus the one-sided stencil's truncation error
    |d_2h - d_h| / 15) is enforced on construction.
    """

    theta_grid: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta_grid, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if theta.ndim != 1 or theta.size < 9:
            raise DomainError("theta_grid must be 1-d with at least 9 samples")
        if w.shape != theta.shape:
            raise DomainError("w must match theta_grid in shape")
        if not (abs(theta[0]) < 1e-15 and abs(theta[-1] - math.pi) < 1e-12):
            raise DomainError("theta_grid must span [0, pi] inclusive")
        steps = np.diff(theta)
        if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-12):
            raise DomainError("theta_grid must be uniform")
        if not np.all(np.isfinite(w)):
            raise DomainError("w samples must be finite")
        object.__setattr__(self, "theta_grid", theta)
        object.__setattr__(self, "w", w)
        dw = diff1_4th(w, float(steps[0]))
        poles = dw[[0, -1]]
        coarse = np.array([w[:9:2], -w[::-1][:9:2]]) @ _D1_EDGE[0] / (2.0 * steps[0])
        scale = _POLE_TOL * (1.0 + float(np.max(np.abs(dw)))) + np.abs(coarse - poles) / 15.0
        if np.any(np.abs(poles) > scale):
            raise DomainError(
                f"pole-irregular exponent: w'(0) = {fmt17(dw[0])}, w'(pi) = {fmt17(dw[-1])}")

    @property
    def theta_step(self) -> float:
        return float(self.theta_grid[1] - self.theta_grid[0])

    def area(self) -> float:
        """Total area 2*pi * integral of e^(2w) sin(theta)."""
        integrand = np.exp(2.0 * self.w) * np.sin(self.theta_grid)
        return 2.0 * math.pi * simpson_uniform(integrand, self.theta_step)

    @property
    def volume_radius(self) -> float:
        return math.sqrt(self.area() / unit_sphere_volume(2))


@dataclass(frozen=True)
class MetricPath:
    """Path of metrics on the sphere over t in [0, 1].

    Either a constant round path tagged by ``round_radius`` or an
    axisymmetric path (n = 2) from the validated ``seed``, stored once per
    distinct slice as an affine blend of the seed: row j has the
    conformal-gauge exponent ``scale[j] * seed.w + shift[j]`` (the
    read-only ``w``) on the seed's theta grid, which is every slice's own
    grid.  ``mean_w[j]`` is the mean of seed.w under row j's area density
    and row j of ``xi`` the Moser field per unit d(scale)/dt that keeps the
    area form fixed (``_moser_gauge``); ``slice_of[k]`` is the row at t
    sample k.  The slices are round (``scale`` 0) from ``theta_switch`` on,
    and the arrays are read-only, so memoized fields cannot go stale.
    ``volume_form_deviation``, the measured residual of the flow's
    continuity equation, is measured on first read (0 on round paths).
    """

    n: int
    t_grid: np.ndarray
    theta_switch: float
    seed: AxisymConformalMetric | None = None
    scale: np.ndarray | None = None
    shift: np.ndarray | None = None
    mean_w: np.ndarray | None = None
    xi: np.ndarray | None = None
    slice_of: np.ndarray | None = None
    round_radius: float | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.t_grid, dtype=float)
        if t.ndim != 1 or t.size < 5:
            raise DomainError("t_grid must be 1-d with at least 5 samples")
        if not np.all(np.diff(t) > 0.0):
            raise DomainError("t_grid must be strictly increasing")
        if abs(t[0]) > 1e-15 or abs(t[-1] - 1.0) > 1e-12:
            raise DomainError("t_grid must span [0, 1]")
        if not 0.0 < self.theta_switch < 1.0:
            raise DomainError("theta_switch must lie in (0, 1)")
        if (self.round_radius is None) == (self.seed is None):
            raise DomainError("exactly one of seed / round_radius must be set")
        if self.round_radius is not None and not self.round_radius > 0.0:
            raise DomainError("round_radius must be positive")
        object.__setattr__(self, "t_grid", t)
        if self.seed is not None:
            self._validate_slices()

    def _validate_slices(self) -> None:
        names = ("scale", "shift", "mean_w", "xi")
        rows_of = {name: np.array(getattr(self, name), dtype=float) for name in names}
        slice_of, xi = np.array(self.slice_of), rows_of["xi"]
        rows = xi.shape[0] if xi.ndim == 2 else 0
        if self.n != 2:
            raise DomainError(f"axisymmetric paths need n = 2, got {self.n!r}")
        if (xi.shape != (rows, self.seed.theta_grid.size)
                or any(rows_of[name].shape != (rows,) for name in names[:3])):
            raise DomainError("scale, shift, mean_w and xi must hold one row per distinct slice")
        if not all(np.all(np.isfinite(value)) for value in rows_of.values()):
            raise DomainError("scale, shift, mean_w and xi must be finite")
        if (slice_of.dtype.kind not in "iu" or slice_of.shape != self.t_grid.shape
                or not np.all((slice_of >= 0) & (slice_of < rows))):
            raise DomainError("slice_of must name a row of w for every t sample")
        if np.any(rows_of["scale"][slice_of[self.t_grid >= self.theta_switch - 1e-15]] != 0.0):
            raise DomainError("path is not round on t >= theta_switch")
        for name, value in (*rows_of.items(), ("slice_of", slice_of)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        drift, bound = _radius_drift(self.seed, self.w)
        if not drift <= bound:
            raise DomainError(
                f"slice volume radii drift by {drift!r} from the seed's "
                f"{self.seed.volume_radius!r}",
                diagnostics={"drift": drift, "bound": bound})

    @property
    def is_round(self) -> bool:
        return self.round_radius is not None

    @cached_property
    def w(self) -> np.ndarray | None:
        """Conformal-gauge exponent of every distinct slice, the blend
        ``scale[:, None] * seed.w + shift[:, None]`` (read-only; None on
        round paths)."""
        if self.seed is None:
            return None
        w = self.scale[:, None] * self.seed.w + self.shift[:, None]
        w.flags.writeable = False
        return w

    @cached_property
    def r_o(self) -> float:
        """Volume radius shared by every slice of the path (an area
        integral on axisymmetric paths, taken once)."""
        if self.round_radius is not None:
            return self.round_radius
        return self.seed.volume_radius

    @cached_property
    def volume_form_deviation(self) -> float:
        if self.round_radius is not None:
            return 0.0
        return _measure_volume_form_deviation(self)

    @cached_property
    def slice_fields(self) -> SliceGeometry:
        return _slice_geometry(self)

    @cached_property
    def eigen_fields(self) -> EigenPath:
        return _eigen_path(self)

    @cached_property
    def inverse_square_integral(self) -> np.ndarray:
        """Integral of u^(-2) over each slice, u the eigen fields' ground
        state, shape (n_t,), read-only: summed once per distinct slice and
        expanded.  On a cold path the slice fields are built before the
        eigen fields, which keeps the peak memory down."""
        geometry = self.slice_fields
        weight = self.eigen_fields.slice_u ** 2
        np.divide(geometry.slice_sqrt_det, weight, out=weight)
        dtheta = float(geometry.theta_grid[1] - geometry.theta_grid[0])
        integral = 2.0 * math.pi * simpson_uniform(weight, dtheta)
        return _read_only(integral[geometry.slice_of])


@dataclass(frozen=True)
class SliceGeometry:
    """Per-slice fields of a normalized path, each slice on its own grid.

    Each field is stored once per distinct slice of the path, shape
    (slices, n_theta), and ``slice_of[k]`` is the row of t sample k, as on
    ``MetricPath``; round paths have one row and n_theta = 1.  A row
    samples its slice on the theta grid of the slice's conformal gauge:
    ``slice_sqrt_det`` is its area density e^(2w) sin(theta) and
    ``slice_scalar_curvature`` its scalar curvature.  The squared norm,
    with respect to the slice metric, of the metric velocity in the fixed
    area gauge, g' + L_X g for the Moser field X, is ``rate[k]^2`` times
    row ``slice_of[k]`` of ``slice_gprime_sq``, with ``rate`` the path's
    d(scale)/dt per t sample.

    ``scalar_curvature_rows`` and ``gprime_sq_rows`` are the (min, max) at
    each t sample, shape (2, n_t), which the collar's margin reads in place
    of the grids; ``min_scalar_curvature`` is the path-wide minimum that
    the route choice reads.  They are taken once, on construction, from the
    distinct rows.  The (n_t, n_theta) grids ``sqrt_det``,
    ``scalar_curvature`` and ``gprime_sq`` are built on first read only
    (tests and failure diagnostics); ``*_at(rows)`` gives the rows of a
    grid without building it.  All arrays are read-only.
    """

    t_grid: np.ndarray
    theta_grid: np.ndarray
    slice_of: np.ndarray
    rate: np.ndarray
    slice_sqrt_det: np.ndarray
    slice_scalar_curvature: np.ndarray
    slice_gprime_sq: np.ndarray
    scalar_curvature_rows: np.ndarray = field(init=False)
    gprime_sq_rows: np.ndarray = field(init=False)
    min_scalar_curvature: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("rate", "slice_sqrt_det", "slice_scalar_curvature", "slice_gprime_sq"):
            _read_only(getattr(self, name))
        curvature, velocity = self.slice_scalar_curvature, self.slice_gprime_sq
        # fl(c x) is monotone in x for c = rate^2 >= 0, so the extremes of a
        # gprime_sq row are rate^2 times those of its slice row, bit for bit.
        rows = {
            "scalar_curvature": np.array([np.min(curvature, axis=1),
                                          np.max(curvature, axis=1)])[:, self.slice_of],
            "gprime_sq": self.rate ** 2 * np.array([np.min(velocity, axis=1),
                                                    np.max(velocity, axis=1)])[:, self.slice_of],
        }
        for name, extremes in rows.items():
            object.__setattr__(self, name + "_rows", _read_only(extremes))
        object.__setattr__(self, "min_scalar_curvature",
                           float(np.min(self.scalar_curvature_rows[0])))

    def scalar_curvature_at(self, rows) -> np.ndarray:
        """Rows ``rows`` (a slice or an index array) of ``scalar_curvature``."""
        return self.slice_scalar_curvature[self.slice_of[rows]]

    def gprime_sq_at(self, rows) -> np.ndarray:
        """Rows ``rows`` of ``gprime_sq``."""
        return (self.rate[rows] ** 2)[:, None] * self.slice_gprime_sq[self.slice_of[rows]]

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return _read_only(self.slice_sqrt_det[self.slice_of])

    @cached_property
    def scalar_curvature(self) -> np.ndarray:
        return _read_only(self.scalar_curvature_at(slice(None)))

    @cached_property
    def gprime_sq(self) -> np.ndarray:
        return _read_only(self.gprime_sq_at(slice(None)))


@dataclass(frozen=True)
class EigenPath:
    """Eigenfunction data of -Laplacian + K along a normalized path.

    Stored once per distinct slice, with ``slice_of`` and grids as in
    SliceGeometry: ``slice_lambda1`` is the first eigenvalue, ``slice_u``
    the ground state, normalized so the integral of u^2 over the slice
    equals the slice area, and ``slice_laplace_u`` its slice Laplacian.
    ``du_dt``, the time derivative of u along the Moser flow, is the one
    field kept per t sample, shape (n_t, n_theta).  ``lambda1`` per t
    sample and the (n_t, n_theta) grids ``u`` and ``laplace_u`` are built
    on first read; ``*_at(rows)`` gives the rows of a grid without building
    it.  ``modes`` is the Legendre mode count of the solve and ``tail`` the
    coefficient tail it passed (1 and 0 on round paths).  All arrays are
    read-only.
    """

    t_grid: np.ndarray
    theta_grid: np.ndarray
    slice_of: np.ndarray
    slice_lambda1: np.ndarray
    slice_u: np.ndarray
    du_dt: np.ndarray
    slice_laplace_u: np.ndarray
    modes: int
    tail: float

    def __post_init__(self) -> None:
        for name in ("slice_lambda1", "slice_u", "du_dt", "slice_laplace_u"):
            _read_only(getattr(self, name))

    def u_at(self, rows) -> np.ndarray:
        """Rows ``rows`` (a slice or an index array) of ``u``."""
        return self.slice_u[self.slice_of[rows]]

    def laplace_u_at(self, rows) -> np.ndarray:
        """Rows ``rows`` of ``laplace_u``."""
        return self.slice_laplace_u[self.slice_of[rows]]

    @cached_property
    def lambda1(self) -> np.ndarray:
        return _read_only(self.slice_lambda1[self.slice_of])

    @cached_property
    def u(self) -> np.ndarray:
        return _read_only(self.u_at(slice(None)))

    @cached_property
    def laplace_u(self) -> np.ndarray:
        return _read_only(self.laplace_u_at(slice(None)))


def axisym_metric_from_function(fn, n_theta: int = _DEFAULT_N_THETA) -> AxisymConformalMetric:
    """Sample the exponent function fn(theta) on a uniform grid."""
    theta = np.linspace(0.0, math.pi, n_theta)
    return AxisymConformalMetric(theta_grid=theta, w=np.asarray(fn(theta), dtype=float))


def round_metric(r_o: float, n_theta: int = _DEFAULT_N_THETA) -> AxisymConformalMetric:
    """Round 2-sphere of radius r_o as a constant-exponent metric."""
    if not r_o > 0.0:
        raise DomainError(f"radius must be positive, got {r_o!r}")
    theta = np.linspace(0.0, math.pi, n_theta)
    return AxisymConformalMetric(theta_grid=theta, w=np.full(n_theta, math.log(r_o)))


def _radius_drift(seed: AxisymConformalMetric, w: np.ndarray) -> tuple[float, float]:
    """Largest drift of the slices' volume radii from the seed's, and its bound.

    r_o, the collar and the Hawking mass take every slice to have the
    seed's area.  The bound is C11's 1e-10 (1 + r_o) on the volume radius
    at the default theta grid.  normalize_path's dilations are exact
    integrals of the rows' series, and this Simpson sum, independent of
    them, is good to fourth order in the theta step, so coarser grids get
    that factor.
    """
    r_o = seed.volume_radius
    areas = 2.0 * math.pi * simpson_uniform(
        np.exp(2.0 * w) * np.sin(seed.theta_grid), seed.theta_step)
    drift = float(np.max(np.abs(np.sqrt(areas / unit_sphere_volume(2)) - r_o)))
    coarse = max(1.0, ((_DEFAULT_N_THETA - 1) / (w.shape[1] - 1)) ** 4)
    return drift, 1e-10 * (1.0 + r_o) * coarse


def _laplacian_series(series: np.ndarray) -> np.ndarray:
    """Chebyshev series in x = cos(theta) of the round-sphere Laplacian of a
    pole-regular axisymmetric function, from its own series.

    In x the Laplacian is ((1 - x^2) f_x)_x: differentiate, multiply by
    1 - x^2 = (T_0 - T_2) / 2 and differentiate again.  Pole-regular data
    are smooth in x, so the poles need no closure of their own.
    """
    cheb = np.polynomial.chebyshev
    return cheb.chebder(cheb.chebmul(cheb.chebder(series), (0.5, 0.0, -0.5)))


def gaussian_curvature(metric: AxisymConformalMetric) -> np.ndarray:
    """Gaussian curvature samples K = e^(-2w) (1 - Laplacian w), the
    Laplacian summed on the grid from w's Chebyshev series."""
    laplacian = np.polynomial.chebyshev.chebval(
        np.cos(metric.theta_grid), _laplacian_series(_chebyshev_series(metric.w)))
    return np.exp(-2.0 * metric.w) * (1.0 - laplacian)


def _time_clamp(t: np.ndarray, theta_switch: float) -> np.ndarray:
    """Smooth ramp from 0 at t=0 to exactly 1 for t >= theta_switch."""
    return smooth_step(np.asarray(t, dtype=float) / theta_switch)


def _lobatto_values(series: np.ndarray, size: int) -> np.ndarray:
    """Chebyshev series (last axis, at most size + 1 terms) summed at the
    size Lobatto points x_j = cos(pi j / (size - 1)) by one DCT, the
    inverse of ``_chebyshev_series``; T_size takes T_(size-2)'s values
    there."""
    coeffs = np.zeros(series.shape[:-1] + (size,))
    kept = min(series.shape[-1], size)
    coeffs[..., :kept] = series[..., :kept]
    if series.shape[-1] > size:
        coeffs[..., size - 2] += series[..., size]
    coeffs[..., 1:-1] *= 0.5
    return dct1(coeffs)


def _moser_gauge(seed: AxisymConformalMetric, scale: np.ndarray):
    """Dilation, mean exponent and Moser field of each row scale_j * w of
    the seed's conformal family, whose row 0 is the seed (scale 1).

    In x = cos(theta) row s has the area density e^(2sw) dx dphi.  One DCT
    of the rows e^(2sw) and w e^(2sw) gives both series, whose exact
    integrals over [-1, 1] are the area A_s and A_s times the mean <w>_s of
    w under the density.  The dilation c_s = 0.5 log(A_1 / A_s) gives row
    s the seed's area, and since dc/ds = -<w>_s the area form
    rho_s = e^(2(sw + c_s)) sin(theta) moves as d rho/ds = 2 (w - <w>_s) rho.
    The Moser field per unit ds,
        Xi_s = -2 int_x^1 (w - <w>_s) e^(2sw) dx' / (e^(2sw) sin(theta)),
    carries that change: d rho/ds + d(Xi rho)/dtheta = 0.  The integral is
    one ``_chebint`` of the series of (w - <w>_s) e^(2sw), summed at the
    nodes and taken from the nearer pole (its integral over [-1, 1] is
    zero); Xi is 0 at the poles.  Returns the dilations, the means and Xi,
    one row per scale.

    Both transforms run ``_ROWS_PER_BLOCK`` rows at a time: the series are
    assembled at their common width before the sums over their columns, so
    every sum keeps numpy's pairwise order and each row is the one a
    transform of all rows at once gives, bit for bit.
    """
    w, rows = seed.w, scale.size
    density = np.exp(2.0 * scale[:, None] * w)
    area_series, moment_series = _common_width(
        [_chebyshev_series(density), _chebyshev_series(w * density)])
    # The integral of T_k over [-1, 1] is 2 / (1 - k^2) for even k, 0 for odd k.
    weights = np.zeros(area_series.shape[-1])
    weights[::2] = 2.0 / (1.0 - np.arange(0, weights.size, 2) ** 2.0)
    area = np.sum(area_series * weights, axis=-1)
    mean = np.sum(moment_series * weights, axis=-1) / area
    flux_series = _chebint(moment_series - mean[:, None] * area_series)
    pole = np.where(np.arange(w.size) < w.size // 2, 0, w.size - 1)
    sin = np.sin(seed.theta_grid[1:-1])
    xi = np.zeros(density.shape)
    for block in _row_blocks(rows):
        antiderivative = _lobatto_values(flux_series[block], w.size)
        flux = antiderivative[:, pole] - antiderivative
        xi[block, 1:-1] = -2.0 * flux[:, 1:-1] / (density[block, 1:-1] * sin)
    return 0.5 * np.log(area[0] / area), mean, xi


def normalize_path(seed: AxisymConformalMetric, n_t: int = _DEFAULT_N_T) -> MetricPath:
    """Normalize the conformal family of an axisymmetric seed.

    Applies, in order: a smooth time clamp making the path constant on
    [``_THETA_SWITCH``, 1]; a per-slice dilation fixing every total area
    to the seed area; and the Moser field of every slice, whose flow
    renders the area form time independent (``_moser_gauge``: DCTs to the
    rows' series and back to the nodes, in blocks of rows).  The residual
    of the flow's continuity equation, measured in a second
    discretization, is the path's ``volume_form_deviation``, measured on
    first read.

    Slices with the same scale 1 - ramp coincide (every t >=
    ``_THETA_SWITCH``, and the first samples, whose ramp rounds away
    against 1), so the path stores one row per distinct scale, from the
    seed (scale 1) down to the round slice, an affine blend of the seed:
    ``scale`` and ``shift``, the dilation of each row.  The slice and eigen
    fields, which only some collar routes read, are computed on demand and
    memoized on the returned path.

    A seed too steep for floating point or for the theta grid fails with
    ConstructionError.  Either its area gauge is not finite (the
    densities e^(2 s w) or the Moser fields overflow), or the dilated
    slices' areas, summed by Simpson's rule, drift from the seed's beyond
    the bound that a hand-built ``MetricPath`` is refused for (the path's
    one drift check, turned into a construction failure here).
    """
    t_grid = np.linspace(0.0, 1.0, n_t)
    ramp = _time_clamp(t_grid, _THETA_SWITCH)

    if float(np.max(np.abs(seed.w - seed.w[0]))) == 0.0:
        # Constant exponent: the path never moves.
        return MetricPath(
            n=2,
            t_grid=t_grid,
            theta_switch=_THETA_SWITCH,
            round_radius=seed.volume_radius,
        )

    scale, slice_of = np.unique(1.0 - ramp, return_inverse=True)
    scale, slice_of = scale[::-1].copy(), scale.size - 1 - slice_of
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gauge = dict(zip(("shift", "mean_w", "xi"), _moser_gauge(seed, scale)))
    non_finite = {name: int(np.count_nonzero(~np.isfinite(value)))
                  for name, value in gauge.items()}
    if any(non_finite.values()):
        raise ConstructionError(
            "the seed's area gauge is not finite: the conformal densities or "
            "Moser fields of its slices leave the floating-point range",
            diagnostics={"non_finite": non_finite, "slices": int(scale.size),
                         "max_abs_w": float(np.max(np.abs(seed.w)))},
        )
    try:
        return MetricPath(
            n=2,
            t_grid=t_grid,
            theta_switch=_THETA_SWITCH,
            seed=seed,
            scale=scale,
            slice_of=slice_of,
            **gauge,
        )
    except DomainError as exc:
        # The path checks its slices' radii once, on construction; for a
        # seed, their drift is a limit of the theta grid.
        if "drift" not in exc.diagnostics:
            raise
        drift, bound = exc.diagnostics["drift"], exc.diagnostics["bound"]
        raise ConstructionError(
            f"slice volume radii drift by {drift!r}, above the bound {bound!r}: the "
            "theta grid does not resolve the seed's area gauge",
            diagnostics=exc.diagnostics,
        ) from None


def _scale_rate(path: MetricPath) -> np.ndarray:
    """d(scale)/dt at every t sample: minus the time clamp's slope, exactly
    0 from ``theta_switch`` on."""
    return -_smooth_step_jet(path.t_grid / path.theta_switch, 1)[1] / path.theta_switch


def _measure_volume_form_deviation(path: MetricPath) -> float:
    """Largest residual of the Moser flow's continuity equation,
    |d rho/dt + d(xi rho)/dtheta|, over every (t, theta) sample.

    Both terms are d(scale)/dt times a field of the row: d rho/ds =
    2 (w - <w>_s) rho exactly, and d(Xi rho)/dtheta by the fourth-order
    theta stencil of Xi rho as ``_moser_gauge`` built it from the series,
    a second discretization of the same identity.  A wrong mean would
    break Xi at the equator, where its two pole integrals meet, and the
    stencil sees that.
    """
    seed = path.seed
    density = np.exp(2.0 * path.w) * np.sin(seed.theta_grid)
    residual = (2.0 * (seed.w - path.mean_w[:, None]) * density
                + diff1_4th(path.xi * density, seed.theta_step))
    worst = np.max(np.abs(residual), axis=1)
    return float(np.max(np.abs(_scale_rate(path)) * worst[path.slice_of]))


def round_path(n: int, r_o: float, n_t: int = _DEFAULT_N_T) -> MetricPath:
    """Constant round path in dimension n with slice radius r_o, switching
    at ``_THETA_SWITCH`` like ``normalize_path``'s."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    if not r_o > 0.0:
        raise DomainError(f"radius must be positive, got {r_o!r}")
    return MetricPath(
        n=n,
        t_grid=np.linspace(0.0, 1.0, n_t),
        theta_switch=_THETA_SWITCH,
        round_radius=r_o,
    )


# Legendre-Galerkin solve of the slice eigen problem.  Mode counts start
# at _FIRST_MODES and double until the ground state's coefficient tail
# (see _ground_states) is below _TAIL_TOL, up to _MAX_MODES.  A smooth seed
# passes at 16 or 32 modes; a seed splined from a few dozen samples decays
# only algebraically and passes at 64.
_FIRST_MODES = 16
_MAX_MODES = 128
_TAIL_TOL = 1e-9


def _chebyshev_series(rows: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients in x = cos(theta) of rows sampled on the
    uniform theta grid, which is the Chebyshev-Lobatto grid in x.

    Pole-regular axisymmetric data are smooth functions of x, so the
    series converges spectrally; the eigen solve, ``gaussian_curvature``,
    the Moser gauge and the slice fields read it.  Trailing coefficients
    at the rounding level of a row (16 eps times its largest sample) are
    set to zero, and the columns past every row's last kept coefficient
    are dropped.  A stack of rows is transformed ``_ROWS_PER_BLOCK`` rows
    at a time, each row alone, and the blocks are assembled at the widest
    block's width: the stack's series, bit for bit.
    """
    if rows.ndim == 1:
        return _series_block(rows)
    return np.concatenate(_common_width(
        [_series_block(rows[block]) for block in _row_blocks(rows.shape[0])]))


def _common_width(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Series blocks padded with zero columns to the widest block's width."""
    width = max(block.shape[-1] for block in blocks)
    return [np.pad(block, ((0, 0), (0, width - block.shape[-1]))) for block in blocks]


def _series_block(rows: np.ndarray) -> np.ndarray:
    """``_chebyshev_series`` of rows in one DCT."""
    size = rows.shape[-1]
    coeffs = dct1(rows) / (size - 1)
    coeffs[..., 0] *= 0.5
    coeffs[..., -1] *= 0.5
    floor = 16.0 * np.finfo(float).eps * np.max(np.abs(rows), axis=-1, keepdims=True)
    significant = np.abs(coeffs) > floor
    kept = np.where(np.any(significant, axis=-1),
                    size - np.argmax(significant[..., ::-1], axis=-1), 1)
    coeffs[np.arange(size) >= kept[..., None]] = 0.0
    return coeffs[..., :int(np.max(kept))]


def _row_sums(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """coeffs @ table, one row at a time (a stack of one-row products), so a
    row rounds alike whatever stack it is in."""
    return (coeffs[:, None, :] @ table)[:, 0, :]


def _galerkin(series: np.ndarray, modes: int):
    """Lowest eigenpair of -Laplacian + K on every row, by Rayleigh-Ritz.

    In x = cos(theta) the slice e^(2w) g* turns the problem into: find u
    with, for every v,
    int (1-x^2) u_x v_x + int u v + int (1-x^2) w_x (u v)_x = lam int e^(2w) u v,
    where the third term is int -Laplacian(w) u v integrated by parts.  The
    basis is the orthonormal Legendre polynomials p_0 .. p_(modes-1),
    p_k = sqrt(k + 1/2) P_k; the integrals take 3 * modes Gauss nodes,
    with w and w_x from each row's Chebyshev series.  One Cholesky
    reduction and one eigh run on the stack of all rows.  Returns the
    eigenvalues and the ground states' coefficients, signed so the mean is
    positive and scaled so int e^(2w) u^2 equals int e^(2w), the area.
    """
    legendre, cheb = np.polynomial.legendre, np.polynomial.chebyshev
    x, weights = legendre.leggauss(3 * modes)
    w = _row_sums(series, cheb.chebvander(x, series.shape[-1] - 1).T)
    derivative = cheb.chebder(series, axis=-1)
    w_x = _row_sums(derivative, cheb.chebvander(x, derivative.shape[-1] - 1).T)
    basis = np.diag(np.sqrt(np.arange(modes) + 0.5))
    p, dp = legendre.legval(x, basis), legendre.legval(x, legendre.legder(basis))
    density = np.exp(2.0 * w) * weights
    mass = (p * density[:, None, :]) @ p.T
    cross = (dp * ((1.0 - x * x) * w_x * weights)[:, None, :]) @ p.T
    k = np.arange(modes)
    stiffness = np.diag(k * (k + 1) + 1.0) + cross + np.swapaxes(cross, 1, 2)
    inv_chol_t = np.swapaxes(np.linalg.inv(np.linalg.cholesky(mass)), 1, 2)
    reduced = np.swapaxes(inv_chol_t, 1, 2) @ stiffness @ inv_chol_t
    values, vectors = np.linalg.eigh(reduced)
    coeffs = inv_chol_t @ vectors[..., :1]
    norm_sq = (np.swapaxes(coeffs, 1, 2) @ mass @ coeffs)[:, 0, 0]
    coeffs = coeffs[..., 0] * np.sqrt(np.sum(density, axis=-1) / norm_sq)[:, None]
    return values[:, 0], coeffs * np.sign(coeffs[:, :1])


def _ground_states(rows: np.ndarray):
    """First eigenvalue and ground state's Legendre coefficients for each
    exponent row, with the mode count and its tail.

    The mode count doubles from ``_FIRST_MODES`` until the tail test holds:
    on every row the Legendre coefficients of the last quarter of the
    modes are at most ``_TAIL_TOL`` of the largest.  Spectral decay then
    leaves u and its Laplacian good to about that tolerance, and the
    eigenvalue, whose error is quadratic in it, good to rounding.  Past
    ``_MAX_MODES`` it raises ConstructionError.  ``_ground_state_sums``
    sums the coefficients.
    """
    series = _chebyshev_series(rows)
    modes = _FIRST_MODES
    while True:
        values, coeffs = _galerkin(series, modes)
        magnitude = np.abs(coeffs)
        tail = float(np.max(np.max(magnitude[:, 3 * modes // 4:], axis=1)
                            / np.max(magnitude, axis=1)))
        if tail <= _TAIL_TOL:
            return values, coeffs, modes, tail
        if modes >= _MAX_MODES:
            raise ConstructionError(
                f"eigen solve did not resolve the ground state in {modes} Legendre modes",
                diagnostics={"modes": modes, "tail": tail, "tail_tol": _TAIL_TOL},
            )
        modes *= 2


def _ground_state_sums(values: np.ndarray, coeffs: np.ndarray, x: np.ndarray):
    """Ground states u = sum c_k p_k, their round-sphere Laplacians
    -sum k(k+1) c_k p_k and their x-derivatives sum c_k p_k', every row of
    ``coeffs`` summed at the points x.

    Each row is one product with the tables of p_k and p_k' at x
    (``_row_sums``).  A ground state that is not positive at x raises
    ConstructionError, which carries the smallest of the eigenvalues
    ``values``.
    """
    legendre = np.polynomial.legendre
    k = np.arange(coeffs.shape[1])
    basis = np.diag(np.sqrt(k + 0.5))
    table = legendre.legval(x, basis)
    u = _row_sums(coeffs, table)
    if not np.min(u) > 0.0:
        raise ConstructionError(
            "ground state is not positive",
            diagnostics={"min_u": float(np.min(u)), "min_lambda1": float(np.min(values))},
        )
    laplacian = _row_sums(coeffs * -(k * (k + 1.0)), table)
    return u, laplacian, _row_sums(coeffs, legendre.legval(x, legendre.legder(basis)))


def lambda1(metric: AxisymConformalMetric) -> tuple[float, np.ndarray]:
    """First eigenvalue and eigenfunction of -Laplacian + K on the metric.

    The operator is restricted to axisymmetric functions and solved by the
    Legendre-Galerkin method of ``_ground_states``, so the eigenvalue is
    good to rounding for smooth seeds; the eigenfunction is summed on the
    metric grid and normalized so its squared integral equals the total
    area.
    """
    values, coeffs, _, _ = _ground_states(metric.w[None, :])
    u, _, _ = _ground_state_sums(values, coeffs, np.cos(metric.theta_grid))
    return float(values[0]), u[0]


def curvature_floor_along_path(path: MetricPath) -> float:
    """Minimum scalar curvature over every slice of the path.

    Read from the memoized slice fields (``slice_geometry``), the same
    fields the collar's energy condition reads; the minimum is taken once,
    when they are built.  ``collar.select_route`` derives each
    constant-lapse curvature floor from it.
    """
    return path.slice_fields.min_scalar_curvature


def slice_geometry(path: MetricPath) -> SliceGeometry:
    """Slice fields of a normalized path in the fixed area gauge.

    Memoized on the path (``MetricPath.slice_fields``).  For round paths
    all fields are constant with a single theta sample per slice.
    """
    return path.slice_fields


def _round_slice_of(path: MetricPath) -> np.ndarray:
    """A round path's one slice at every t sample."""
    return _read_only(np.zeros(path.t_grid.size, dtype=np.intp))


def _slice_geometry(path: MetricPath) -> SliceGeometry:
    if path.is_round:
        r_o = path.r_o
        return SliceGeometry(
            t_grid=path.t_grid,
            theta_grid=np.zeros(1),
            slice_of=_round_slice_of(path),
            rate=np.zeros(path.t_grid.size),
            slice_sqrt_det=np.full((1, 1), r_o ** path.n),
            slice_scalar_curvature=np.full((1, 1), path.n * (path.n - 1) / r_o ** 2),
            slice_gprime_sq=np.zeros((1, 1)),
        )

    # Row j is e^(2 w_j) g* with w_j = s_j w + c_j, so its scalar curvature
    # is 2 e^(-2 w_j) (1 - s_j Laplacian(w)), and its metric velocity in the
    # area gauge, g' + L_X g with g' = 2 s' (w - <w>_s) g, is s' beta_j
    # (diag(-1, 1) relative to g) with
    # beta = 2 ((w - <w>_s) + Xi_s (s w_theta + cot(theta))), so that
    # |g' + L_X g|^2 = 2 s'^2 beta^2; beta tends to 0 at the poles.
    seed, cheb = path.seed, np.polynomial.chebyshev
    theta, scale = seed.theta_grid, path.scale[:, None]
    series = _chebyshev_series(seed.w)
    x, sin = np.cos(theta), np.sin(theta)
    curvature = 2.0 * np.exp(-2.0 * path.w) * (
        1.0 - scale * cheb.chebval(x, _laplacian_series(series)))
    w_theta = -sin * cheb.chebval(x, cheb.chebder(series))
    cot = np.zeros(theta.shape)
    cot[1:-1] = x[1:-1] / sin[1:-1]
    beta = 2.0 * ((seed.w - path.mean_w[:, None]) + path.xi * (scale * w_theta + cot))
    beta[:, [0, -1]] = 0.0
    return SliceGeometry(
        t_grid=path.t_grid,
        theta_grid=theta,
        slice_of=path.slice_of,
        rate=_scale_rate(path),
        slice_sqrt_det=np.exp(2.0 * path.w) * sin,
        slice_scalar_curvature=curvature,
        slice_gprime_sq=2.0 * beta ** 2,
    )


def eigen_along_path(path: MetricPath) -> EigenPath:
    """Eigenfunction data of -Laplacian + K along a normalized path.

    Eigenpairs of every distinct slice come from one batched
    Legendre-Galerkin solve in the conformal gauge (``_ground_states``)
    and are summed at the slice's own theta grid (``_ground_state_sums``).
    The time derivative along the Moser flow is the derivative at fixed
    theta, the fourth-order t stencil of u, plus d(scale)/dt Xi u_theta,
    with u_theta from the Legendre derivative sum of each distinct row
    (``_time_derivative``).  Memoized on the path
    (``MetricPath.eigen_fields``).
    """
    return path.eigen_fields


def _eigen_path(path: MetricPath) -> EigenPath:
    n_t = path.t_grid.size
    if path.is_round:
        n = path.n
        return EigenPath(
            t_grid=path.t_grid,
            theta_grid=np.zeros(1),
            slice_of=_round_slice_of(path),
            slice_lambda1=np.full(1, 0.5 * n * (n - 1) / path.r_o ** 2),
            slice_u=np.ones((1, 1)),
            du_dt=np.zeros((n_t, 1)),
            slice_laplace_u=np.zeros((1, 1)),
            modes=1,
            tail=0.0,
        )

    theta = path.seed.theta_grid
    values, coeffs, modes, tail = _ground_states(path.w)
    u, laplace_u, flow = _ground_state_sums(values, coeffs, np.cos(theta))
    # In place, each product rounding as Xi (-sin(theta)) du/dx and
    # e^(-2w) times the round Laplacian do, so fewer grids are live at once.
    flow *= path.xi * -np.sin(theta)
    du_dt = _time_derivative(path, u, flow)
    del flow
    factor = -2.0 * path.w
    laplace_u *= np.exp(factor, out=factor)
    return EigenPath(
        t_grid=path.t_grid,
        theta_grid=theta,
        slice_of=path.slice_of,
        slice_lambda1=values,
        slice_u=u,
        du_dt=du_dt,
        slice_laplace_u=laplace_u,
        modes=modes,
        tail=tail,
    )


def _time_derivative(path: MetricPath, u: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """du/dt along the Moser flow at every t sample, from the distinct
    slices' ground states u and flow terms Xi u_theta.

    Row k is the fourth-order t stencil of u at fixed theta plus
    d(scale)/dt times the flow term, the rows taken ``_ROWS_PER_BLOCK`` at
    a time.  A block's stencil runs on the window of its rows, their two
    neighbours on each side and at least the six rows the stencil needs, so
    its rows are the stencil of the whole (n_t, n_theta) grid, bit for bit.
    """
    slice_of, rate = path.slice_of, _scale_rate(path)
    n_t = slice_of.size
    dt = float(path.t_grid[1] - path.t_grid[0])
    du_dt = np.empty((n_t, u.shape[1]))
    for block in _row_blocks(n_t):
        lo = max(0, min(block.start - 2, n_t - 6))
        hi = min(n_t, max(block.stop + 2, 6))
        stencil = diff1_4th(u[slice_of[lo:hi]].T, dt).T[block.start - lo:block.stop - lo]
        du_dt[block] = stencil + rate[block, None] * flow[slice_of[block]]
    return du_dt
