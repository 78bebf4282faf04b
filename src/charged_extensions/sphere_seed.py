"""Seed geometries and normalized metric paths on the sphere.

Round seeds are supported in every dimension; non-round seeds are
axisymmetric conformal metrics e^(2w(theta)) g* on the 2-sphere.  A seed
is deformed to the round metric through the conformal family with
exponent (1-t)w, and the raw family is then normalized so that

- the path starts at the seed and is constant after a switch time,
- every time slice has the same total area as the seed,
- the area form is independent of time, achieved by matching cumulative
  area functions through a monotone reparametrization of theta.

The seed's Chebyshev series in x = cos(theta) gives its Gaussian
curvature, the first eigenvalue and eigenfunction of -Laplacian + K
restricted to axisymmetric functions (a Legendre-Galerkin solve), and
every field composed with the reparametrizing maps: the slice fields
(volume form, scalar curvature, time-derivative norms) and the eigen
fields, which the collar construction reads, its curvature floor among
them.  Not-a-knot cubic splines carry only the area gauge: the cumulative
areas whose inversion gives the maps, and the maps' own derivative in the
measured volume-form deviation.  They are the package's one use of scipy,
imported by ``_not_a_knot`` on first call, so round paths never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionError, DomainError, InternalConsistencyError
from .numutil import _D1_EDGE, dct1, diff1_4th, simpson_uniform, smooth_step
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
# Step tolerance (a few ulps of pi) and step cap of the area-map inversion.
_STEP_TOL = 4.0 * float(np.spacing(math.pi))
_MAX_STEPS = 64
# Path time from which normalize_path and round_path hold every slice
# round and fixed.
_THETA_SWITCH = 0.75


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
                f"pole-irregular exponent: w'(0) = {dw[0]!r}, w'(pi) = {dw[-1]!r}")

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
    read-only ``w``), row j of ``reparam`` is the theta map taking it to
    the area-normalized slice, and ``slice_of[k]`` is the row at t sample
    k.  The slices are round (``scale`` 0) from ``theta_switch`` on, and
    the arrays are read-only, so memoized fields cannot go stale.
    ``volume_form_deviation``, the measured maximum time derivative of the
    slice area form, is measured on first read (0 on round paths).
    """

    n: int
    t_grid: np.ndarray
    theta_switch: float
    seed: AxisymConformalMetric | None = None
    scale: np.ndarray | None = None
    shift: np.ndarray | None = None
    reparam: np.ndarray | None = None
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
        scale, shift = np.array(self.scale, dtype=float), np.array(self.shift, dtype=float)
        reparam, slice_of = np.array(self.reparam, dtype=float), np.array(self.slice_of)
        rows = reparam.shape[0] if reparam.ndim == 2 else 0
        if self.n != 2:
            raise DomainError(f"axisymmetric paths need n = 2, got {self.n!r}")
        if (reparam.shape != (rows, self.seed.theta_grid.size)
                or scale.shape != (rows,) or shift.shape != (rows,)):
            raise DomainError("scale, shift and reparam must hold one row per distinct slice")
        if not all(np.all(np.isfinite(value)) for value in (scale, shift, reparam)):
            raise DomainError("scale, shift and reparam must be finite")
        if (slice_of.dtype.kind not in "iu" or slice_of.shape != self.t_grid.shape
                or not np.all((slice_of >= 0) & (slice_of < rows))):
            raise DomainError("slice_of must name a row of w for every t sample")
        if np.any(scale[slice_of[self.t_grid >= self.theta_switch - 1e-15]] != 0.0):
            raise DomainError("path is not round on t >= theta_switch")
        for name, value in (("scale", scale), ("shift", shift), ("reparam", reparam),
                            ("slice_of", slice_of)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        drift, bound = _radius_drift(self.seed, self.w)
        if drift > bound:
            raise DomainError(
                f"slice volume radii drift by {drift!r} from the seed's "
                f"{self.seed.volume_radius!r}")

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


@dataclass(frozen=True)
class SliceGeometry:
    """Composed per-slice fields of a normalized path.

    Arrays have shape (n_t, n_theta); round paths use n_theta = 1.
    ``gprime_sq`` is the squared norm of the metric time derivative with
    respect to the slice metric.
    ``min_scalar_curvature`` and ``max_gprime_sq`` are the path-wide
    extremes that the route choice and the amplitude bound read, taken
    once on construction.
    """

    t_grid: np.ndarray
    theta_grid: np.ndarray
    sqrt_det: np.ndarray
    scalar_curvature: np.ndarray
    gprime_sq: np.ndarray
    min_scalar_curvature: float = field(init=False)
    max_gprime_sq: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_scalar_curvature",
                           float(np.min(self.scalar_curvature)))
        object.__setattr__(self, "max_gprime_sq", float(np.max(self.gprime_sq)))


@dataclass(frozen=True)
class EigenPath:
    """Eigenfunction data of -Laplacian + K along a normalized path.

    ``u`` is normalized so the integral of u^2 over each slice equals the
    slice area, ``du_dt`` is its time derivative, and ``laplace_u`` the
    slice Laplacian of u.  Shapes follow SliceGeometry.  ``modes`` is the
    Legendre mode count of the solve and ``tail`` the coefficient tail it
    passed (1 and 0 on round paths).
    """

    t_grid: np.ndarray
    theta_grid: np.ndarray
    lambda1: np.ndarray
    u: np.ndarray
    du_dt: np.ndarray
    laplace_u: np.ndarray
    modes: int
    tail: float


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
    at the default theta grid; normalize_path meets its gauge to fourth
    order in the theta step, so coarser grids get that factor.
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


# Rows per batched spline construction: large enough to amortize the
# per-call cost, small enough that the coefficient arrays stay a few MB.
_ROW_CHUNK = 64


def _not_a_knot(theta: np.ndarray, rows: np.ndarray):
    """scipy's not-a-knot ``CubicSpline`` of each row over theta.

    scipy.interpolate is imported here, on first call, because loading it
    costs far more than a round construction and only the area gauge of
    non-round seeds reads it.
    """
    from scipy.interpolate import CubicSpline

    return CubicSpline(theta, rows, axis=1)


def _cumulative_area_pieces(theta: np.ndarray, w_rows: np.ndarray):
    """PPoly coefficients, shape (5, intervals, rows), of each row's cumulative
    area (the antiderivative of the not-a-knot spline of e^(2w) sin(theta)),
    and its knot values, shape (rows, knots): the constant coefficients, then
    the last piece summed at its end in PPoly's power order, so each equals
    PPoly's own evaluation bit for bit."""
    c = _not_a_knot(theta, np.exp(2.0 * w_rows) * np.sin(theta)).antiderivative().c
    h = theta[-1] - theta[-2]
    last, power = c[-1, -1], h
    for k in range(c.shape[0] - 2, -1, -1):
        last, power = last + c[k, -1] * power, power * h
    return c, np.concatenate([c[-1].T, last[:, None]], axis=1)


def _invert_on_pieces(theta: np.ndarray, c: np.ndarray, knots: np.ndarray,
                      targets: np.ndarray) -> np.ndarray:
    """x with each row's cumulative area (``_cumulative_area_pieces``) at its targets.

    The knot values bracket each target in one knot interval, whose quartic
    is gathered once.  Newton solves for the offset dx into it, bisecting the
    bracket [lo, hi] when a step leaves it, until no point moves by more than
    ``_STEP_TOL``.  Still moving after ``_MAX_STEPS`` steps, or a residual
    above 1e-12 of the row's total, raises InternalConsistencyError.
    """
    idx = np.array([np.searchsorted(k, t, side="right") for k, t in zip(knots, targets)])
    idx = np.minimum(idx - 1, theta.size - 2)
    row = np.arange(idx.shape[0])[:, None]
    c4, c3, c2, c1, knot = (coef[idx, row] for coef in c)
    rise = targets - knot
    lo, hi = np.zeros(idx.shape), theta[idx + 1] - theta[idx]
    dx = hi * (rise / (knots[row, idx + 1] - knot))

    def residual(dx):
        return dx * (c1 + dx * (c2 + dx * (c3 + dx * c4))) - rise

    for _ in range(_MAX_STEPS):
        resid = residual(dx)
        lo, hi = np.where(resid < 0.0, dx, lo), np.where(resid > 0.0, dx, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = dx - resid / (c1 + dx * (2.0 * c2 + dx * (3.0 * c3 + dx * 4.0 * c4)))
        step = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        moved, dx = float(np.max(np.abs(step - dx))), step
        if moved <= _STEP_TOL:
            break
    worst = float(np.max(np.abs(residual(dx)) / knots[:, -1:]))
    if moved > _STEP_TOL or worst > 1e-12:
        raise InternalConsistencyError(
            f"area map inversion left a residual of {worst!r} of the total, its last "
            f"step moving by {moved!r}")
    return theta[idx] + dx


def _match_cumulative_areas(seed: AxisymConformalMetric, w_rows: np.ndarray):
    """Reparametrizing maps and dilations matching each slice's area to the seed's.

    For exponent row w_k with cumulative area C_k (``_cumulative_area_pieces``),
    the dilation 0.5 log(C_0(pi) / C_k(pi)) brings its total back to the
    seed's C_0(pi), and the map solves C_k(x) = C_0(theta) * C_k(pi) / C_0(pi)
    at every interior theta sample (``_invert_on_pieces``); the end points
    are 0 and pi.  Splines are built per chunk of rows.  Returns the maps
    and the dilations.

    Each chunk is checked before its maps are inverted; a seed too steep
    for the theta grid fails with ConstructionError when a cumulative area
    does not increase strictly over the knots (diagnostics ``row``,
    ``column``, ``theta``), or when the dilated slices' volume radii drift
    past ``_radius_drift``'s bound (``drift`` and ``bound`` of the first
    chunk past it).
    """
    theta = seed.theta_grid
    _, seed_knots = _cumulative_area_pieces(theta, seed.w[None, :])
    base, total0 = seed_knots[0, 1:-1], float(seed_knots[0, -1])
    maps = np.empty(w_rows.shape)
    maps[:, 0], maps[:, -1] = 0.0, math.pi
    shift = np.empty(w_rows.shape[0])
    for lo in range(0, w_rows.shape[0], _ROW_CHUNK):
        chunk = slice(lo, lo + _ROW_CHUNK)
        c, knots = _cumulative_area_pieces(theta, w_rows[chunk])
        flat = np.argwhere(~(np.diff(knots, axis=1) > 0.0))
        if flat.size:
            row, col = int(lo + flat[0, 0]), int(flat[0, 1]) + 1
            raise ConstructionError(
                f"cumulative area is not strictly increasing on slice row {row} at theta "
                f"column {col}: the theta grid does not resolve the area density",
                diagnostics={"row": row, "column": col, "theta": float(theta[col])},
            )
        shift[chunk] = [0.5 * math.log(total0 / row_total) for row_total in knots[:, -1]]
        drift, bound = _radius_drift(seed, w_rows[chunk] + shift[chunk, None])
        if drift > bound:
            raise ConstructionError(
                f"slice volume radii drift by {drift!r}, above the bound {bound!r}: the "
                "theta grid does not resolve the seed's area gauge",
                diagnostics={"drift": drift, "bound": bound},
            )
        maps[chunk, 1:-1] = _invert_on_pieces(theta, c, knots, base * (knots[:, -1:] / total0))
    return maps, shift


def normalize_path(seed: AxisymConformalMetric, n_t: int = _DEFAULT_N_T) -> MetricPath:
    """Normalize the conformal family of an axisymmetric seed.

    Applies, in order: a smooth time clamp making the path constant on
    [``_THETA_SWITCH``, 1]; a per-slice dilation fixing every total area
    to the seed area; and a theta reparametrization per slice matching
    cumulative area functions, which renders the area form time
    independent.  The residual time dependence of the area form (the
    maps, each inverted to rounding on its target's knot interval,
    differentiated on their own) is the path's ``volume_form_deviation``,
    measured on first read.

    Slices with the same ramp value (every t >= ``_THETA_SWITCH``)
    coincide, so the path stores one row per distinct slice, an affine
    blend of the seed: ``scale`` is 1 - ramp and ``shift`` the dilation of
    each row.  The maps of all rows are inverted in batches.  The slice
    and eigen fields, which only some collar routes read, are computed on
    demand and memoized on the returned path.

    A seed too steep for the theta grid fails with ConstructionError in
    ``_match_cumulative_areas``, before any map is inverted: its cumulative
    area stops increasing, or the slice areas drift from the seed's beyond
    the bound that a hand-built ``MetricPath`` is refused for.
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

    levels, slice_of = np.unique(ramp, return_inverse=True)
    scale = 1.0 - levels
    maps, shift = _match_cumulative_areas(seed, scale[:, None] * seed.w)
    return MetricPath(
        n=2,
        t_grid=t_grid,
        theta_switch=_THETA_SWITCH,
        seed=seed,
        scale=scale,
        shift=shift,
        reparam=maps,
        slice_of=slice_of,
    )


def _composed_exponent(path: MetricPath):
    """The seed's Chebyshev series, the points x = cos(Theta_j) of every
    distinct slice's map, and each slice's exponent composed with its map.

    Row j is the blend scale_j w + shift_j of the seed's w, so at x it is
    scale_j w(x) + shift_j, with w(x) summed from w's series (Clenshaw).
    """
    series = _chebyshev_series(path.seed.w)
    x = np.cos(path.reparam)
    exponent = path.scale[:, None] * np.polynomial.chebyshev.chebval(x, series)
    return series, x, exponent + path.shift[:, None]


def _measure_volume_form_deviation(path: MetricPath) -> float:
    """Max time derivative of the composed area form, measured honestly.

    The theta derivative of each reparametrizing map is taken from the
    sampled map itself (spline differentiation), not from the chain-rule
    identity that would make the area form static by construction.  At a
    knot it is the spline's linear coefficient; the last knot, which
    closes the last piece, is evaluated.  The composed exponent is the
    slice fields' (``_composed_exponent``).
    """
    theta, maps = path.seed.theta_grid, path.reparam
    h = theta[-1] - theta[-2]
    dmap = np.empty(maps.shape)
    for lo in range(0, maps.shape[0], _ROW_CHUNK):
        c = _not_a_knot(theta, maps[lo:lo + _ROW_CHUNK]).c
        dmap[lo:lo + _ROW_CHUNK, :-1] = c[2].T
        dmap[lo:lo + _ROW_CHUNK, -1] = (3.0 * c[0, -1] * h + 2.0 * c[1, -1]) * h + c[2, -1]
    sqrt_det = np.exp(2.0 * _composed_exponent(path)[2]) * np.sin(maps) * dmap
    dt = float(path.t_grid[1] - path.t_grid[0])
    time_deriv = diff1_4th(sqrt_det[path.slice_of].T, dt).T
    return float(np.max(np.abs(time_deriv)))


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
    series converges spectrally; the eigen solve, ``gaussian_curvature``
    and the composed fields (``_composed_exponent``, ``_composed_fields``)
    read it.  Trailing coefficients at the rounding level of a row (16 eps
    times its largest sample) are set to zero, and the columns past every
    row's last kept coefficient are dropped.
    """
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
    """Ground states u = sum c_k p_k and their round-sphere Laplacians
    -sum k(k+1) c_k p_k, row j of ``coeffs`` summed at row j of x.

    Both sums take one forward pass of the recurrence
    (k+1) P_(k+1) = (2k+1) x P_k - k P_(k-1).
    A ground state that is not positive at x raises ConstructionError,
    which carries the smallest of the eigenvalues ``values``.
    """
    weights = coeffs * np.sqrt(np.arange(coeffs.shape[1]) + 0.5)
    previous, current = np.zeros(x.shape), np.ones(x.shape)
    u = weights[:, :1] * current
    laplacian = np.zeros(u.shape)
    for k in range(1, coeffs.shape[1]):
        previous, current = current, ((2 * k - 1) / k) * x * current - ((k - 1) / k) * previous
        term = weights[:, k, None] * current
        u += term
        laplacian -= (k * (k + 1.0)) * term
    if not np.min(u) > 0.0:
        raise ConstructionError(
            "ground state is not positive",
            diagnostics={"min_u": float(np.min(u)), "min_lambda1": float(np.min(values))},
        )
    return u, laplacian


def lambda1(metric: AxisymConformalMetric) -> tuple[float, np.ndarray]:
    """First eigenvalue and eigenfunction of -Laplacian + K on the metric.

    The operator is restricted to axisymmetric functions and solved by the
    Legendre-Galerkin method of ``_ground_states``, so the eigenvalue is
    good to rounding for smooth seeds; the eigenfunction is summed on the
    metric grid and normalized so its squared integral equals the total
    area.
    """
    values, coeffs, _, _ = _ground_states(metric.w[None, :])
    u, _ = _ground_state_sums(values, coeffs, np.cos(metric.theta_grid)[None, :])
    return float(values[0]), u[0]


def curvature_floor_along_path(path: MetricPath) -> float:
    """Minimum scalar curvature over every slice of the path.

    Read from the memoized slice fields (``slice_geometry``), the same
    fields the collar's energy condition reads; the minimum is taken once,
    when they are built.  ``collar.select_route`` derives each
    constant-lapse curvature floor from it.
    """
    return path.slice_fields.min_scalar_curvature


def _composed_fields(path: MetricPath):
    """Composed conformal data of every distinct slice in the fixed area gauge.

    Returns exponent, curvature, map derivative and map arrays with one
    row per distinct slice, summed at the maps from the seed's Chebyshev
    series: the exponent is ``_composed_exponent``'s and row j's curvature
    e^(-2 exponent) (1 - scale_j Laplacian(w)).  The map derivative uses
    the chain rule through the cumulative-area identity, dTheta/dtheta = density0(theta) / density_t(Theta), the
    derivative of the exact map, with the seed's density taken at its
    samples.  Both densities vanish at the poles, where the identity's
    limit gives dTheta/dtheta = e^(w_seed - exponent).
    """
    maps = path.reparam
    series, x, exponent = _composed_exponent(path)
    laplacian = path.scale[:, None] * np.polynomial.chebyshev.chebval(
        x, _laplacian_series(series))
    curvature = np.exp(-2.0 * exponent) * (1.0 - laplacian)
    density0 = np.exp(2.0 * path.seed.w) * np.sin(path.seed.theta_grid)
    density = np.exp(2.0 * exponent) * np.sin(maps)
    dmap, poles = np.empty(maps.shape), [0, -1]
    dmap[:, 1:-1] = density0[1:-1] / density[:, 1:-1]
    dmap[:, poles] = np.exp(path.seed.w[poles] - exponent[:, poles])
    return exponent, curvature, dmap, maps


def slice_geometry(path: MetricPath) -> SliceGeometry:
    """Slice fields of a normalized path in the fixed area gauge.

    Memoized on the path (``MetricPath.slice_fields``).  For round paths
    all fields are constant with a single theta sample per slice.
    """
    return path.slice_fields


def _slice_geometry(path: MetricPath) -> SliceGeometry:
    if path.is_round:
        n_t = path.t_grid.size
        shape = (n_t, 1)
        r_o = path.r_o
        return SliceGeometry(
            t_grid=path.t_grid,
            theta_grid=np.zeros(1),
            sqrt_det=np.full(shape, r_o ** path.n),
            scalar_curvature=np.full(shape, path.n * (path.n - 1) / r_o ** 2),
            gprime_sq=np.zeros(shape),
        )

    exponent, curvature, dmap, maps = _composed_fields(path)
    conf = np.exp(2.0 * exponent)
    # Expanded to every t sample for the time derivatives.
    a_comp = (conf * dmap ** 2)[path.slice_of]
    b_comp = (conf * np.sin(maps) ** 2)[path.slice_of]

    dt = float(path.t_grid[1] - path.t_grid[0])
    ratio_a = diff1_4th(a_comp.T, dt).T / a_comp
    ratio_b = np.empty(a_comp.shape)
    ratio_b[:, 1:-1] = diff1_4th(b_comp.T, dt).T[:, 1:-1] / b_comp[:, 1:-1]
    # At a pole the composed metric is e^(2 w_seed) g* for every t, so both
    # time derivatives vanish there (b'/b tends to a'/a).
    ratio_a[:, [0, -1]] = ratio_b[:, [0, -1]] = 0.0

    return SliceGeometry(
        t_grid=path.t_grid,
        theta_grid=path.seed.theta_grid,
        sqrt_det=np.sqrt(a_comp * b_comp),
        scalar_curvature=2.0 * curvature[path.slice_of],
        gprime_sq=ratio_a ** 2 + ratio_b ** 2,
    )


def eigen_along_path(path: MetricPath) -> EigenPath:
    """Eigenfunction data of -Laplacian + K along a normalized path.

    Eigenpairs of every distinct slice come from one batched
    Legendre-Galerkin solve in the conformal gauge (``_ground_states``),
    are summed at the reparametrizing maps (``_ground_state_sums``),
    expanded to every t sample and differentiated in time.  Memoized on
    the path (``MetricPath.eigen_fields``).
    """
    return path.eigen_fields


def _eigen_path(path: MetricPath) -> EigenPath:
    n_t = path.t_grid.size
    if path.is_round:
        n = path.n
        r_o = path.r_o
        shape = (n_t, 1)
        return EigenPath(
            t_grid=path.t_grid,
            theta_grid=np.zeros(1),
            lambda1=np.full(n_t, 0.5 * n * (n - 1) / r_o ** 2),
            u=np.ones(shape),
            du_dt=np.zeros(shape),
            laplace_u=np.zeros(shape),
            modes=1,
            tail=0.0,
        )

    values, coeffs, modes, tail = _ground_states(path.w)
    _, x, exponent = _composed_exponent(path)
    u, lap_round = _ground_state_sums(values, coeffs, x)
    u_comp = u[path.slice_of]
    lap_comp = (np.exp(-2.0 * exponent) * lap_round)[path.slice_of]

    dt = float(path.t_grid[1] - path.t_grid[0])
    du_dt = diff1_4th(u_comp.T, dt).T
    return EigenPath(
        t_grid=path.t_grid,
        theta_grid=path.seed.theta_grid,
        lambda1=values[path.slice_of],
        u=u_comp,
        du_dt=du_dt,
        laplace_u=lap_comp,
        modes=modes,
        tail=tail,
    )
