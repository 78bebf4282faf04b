"""Seed geometries and normalized metric paths on the sphere.

Round seeds are supported in every dimension; non-round seeds are
axisymmetric conformal metrics e^(2w(theta)) g* on the 2-sphere.  A seed
is deformed to the round metric through the conformal family with
exponent (1-t)w, and the raw family is then normalized so that

- the path starts at the seed and is constant after a switch time,
- every time slice has the same total area as the seed,
- the area form is independent of time, achieved by matching cumulative
  area functions through a monotone reparametrization of theta.

The module also provides the Gaussian curvature of a seed, the first
eigenvalue and eigenfunction of -Laplacian + K restricted to axisymmetric
functions, curvature floors with lapse-threshold suggestions, and the
composed slice fields (volume form, scalar curvature, time-derivative
norms, eigenfunction data) consumed by the collar construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .errors import ConstructionError, DomainError, InternalConsistencyError
from .numutil import diff1_4th, diff2_4th, simpson_uniform, smooth_step
from .quasilocal import unit_sphere_volume

__all__ = [
    "AxisymConformalMetric",
    "MetricPath",
    "SliceGeometry",
    "EigenPath",
    "axisym_metric_from_function",
    "round_metric",
    "gaussian_curvature",
    "conformal_path",
    "normalize_path",
    "round_path",
    "lambda1",
    "CurvatureFloor",
    "curvature_floor_along_path",
    "slice_geometry",
    "eigen_along_path",
]

_DEFAULT_N_THETA = 1025
_DEFAULT_N_T = 513
_POLE_TOL = 1e-6
# Slices of a path, evenly spaced in t, on which the first eigenvalue floor
# is solved.
_EIGEN_SAMPLES = 65


@dataclass(frozen=True)
class AxisymConformalMetric:
    """Axisymmetric conformal metric e^(2w(theta)) g* on the 2-sphere.

    The exponent w is sampled on a uniform theta grid over [0, pi] with
    both endpoints included.  Pole regularity (w'(0) = w'(pi) = 0 up to
    grid tolerance) is enforced on construction; the order records how
    many odd derivatives are required to vanish at the poles.
    """

    theta_grid: np.ndarray
    w: np.ndarray
    pole_regularity_order: int = 1

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
        scale = _POLE_TOL * (1.0 + float(np.max(np.abs(dw))))
        if abs(dw[0]) > scale or abs(dw[-1]) > scale:
            raise DomainError(
                "pole-irregular exponent: w'(0) = "
                f"{dw[0]!r}, w'(pi) = {dw[-1]!r}"
            )

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

    Either a genuinely axisymmetric path (``metrics`` holds one conformal
    gauge representative per t and ``reparam`` the theta maps taking the
    gauge representative to the area-normalized slice) or a constant round
    path tagged by ``round_radius``.  ``volume_form_deviation`` is the
    measured maximum time derivative of the slice area form.
    """

    n: int
    t_grid: np.ndarray
    theta_switch: float
    volume_form_deviation: float
    metrics: tuple | None = None
    reparam: np.ndarray | None = None
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
        if (self.round_radius is None) == (self.metrics is None):
            raise DomainError("exactly one of metrics / round_radius must be set")
        if self.round_radius is not None and not self.round_radius > 0.0:
            raise DomainError("round_radius must be positive")
        if self.metrics is not None:
            if len(self.metrics) != t.size:
                raise DomainError("need one metric per t sample")
            if self.reparam is None or self.reparam.shape != (
                t.size,
                self.metrics[0].theta_grid.size,
            ):
                raise DomainError("reparam must hold one theta map per t sample")
        object.__setattr__(self, "t_grid", t)

    @property
    def is_round(self) -> bool:
        return self.round_radius is not None

    @property
    def r_o(self) -> float:
        """Volume radius shared by every slice of the path."""
        if self.round_radius is not None:
            return self.round_radius
        return self.metrics[0].volume_radius

    @cached_property
    def min_curvature(self) -> float:
        """Minimum Gaussian (sectional) curvature over every slice."""
        if self.is_round:
            return 1.0 / self.r_o ** 2
        theta = self.metrics[0].theta_grid
        return float(np.min(_curvature_of(
            theta, np.array([metric.w for metric in self.metrics]))))

    @cached_property
    def min_lambda1(self) -> float:
        """Minimum first eigenvalue of -Laplacian + K over the path.

        Solved with ``lambda1`` on 65 slices evenly spaced in t; for a round
        path it is half the scalar curvature n(n-1)/r_o^2.
        """
        if self.is_round:
            return 0.5 * (self.n * (self.n - 1) / self.r_o ** 2)
        count = min(_EIGEN_SAMPLES, self.t_grid.size)
        indices = np.unique(
            np.round(np.linspace(0, self.t_grid.size - 1, count)).astype(int)
        )
        return min(lambda1(self.metrics[idx])[0] for idx in indices)

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
    ``gprime_sq`` is the squared norm of the metric time derivative,
    ``trace_gprime`` its trace, both with respect to the slice metric.
    """

    t_grid: np.ndarray
    theta_grid: np.ndarray
    sqrt_det: np.ndarray
    scalar_curvature: np.ndarray
    gprime_sq: np.ndarray
    trace_gprime: np.ndarray


@dataclass(frozen=True)
class EigenPath:
    """Eigenfunction data of -Laplacian + K along a normalized path.

    ``u`` is normalized so the integral of u^2 over each slice equals the
    slice area, ``du_dt`` is its time derivative, and ``laplace_u`` the
    slice Laplacian of u.  Shapes follow SliceGeometry.
    """

    t_grid: np.ndarray
    theta_grid: np.ndarray
    lambda1: np.ndarray
    u: np.ndarray
    du_dt: np.ndarray
    laplace_u: np.ndarray


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


def _laplacian_axisym(theta: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Round-sphere Laplacian of an axisymmetric function from samples.

    Computes f'' + cot(theta) f' with fourth-order differences along the
    last axis; at the poles the limit is 2 f''(pole) for pole-regular data.
    """
    dtheta = float(theta[1] - theta[0])
    d1 = diff1_4th(values, dtheta)
    d2 = diff2_4th(values, dtheta)
    out = np.empty_like(values)
    out[..., 1:-1] = (d2[..., 1:-1]
                      + d1[..., 1:-1] * (np.cos(theta[1:-1]) / np.sin(theta[1:-1])))
    out[..., 0] = 2.0 * d2[..., 0]
    out[..., -1] = 2.0 * d2[..., -1]
    return out


def _curvature_of(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K = e^(-2w) (1 - Laplacian w) for exponent samples along the last axis."""
    return np.exp(-2.0 * w) * (1.0 - _laplacian_axisym(theta, w))


def gaussian_curvature(metric: AxisymConformalMetric) -> np.ndarray:
    """Gaussian curvature samples K = e^(-2w) (1 - Laplacian w)."""
    return _curvature_of(metric.theta_grid, metric.w)


def conformal_path(seed: AxisymConformalMetric, t: float) -> AxisymConformalMetric:
    """Metric at time t of the conformal family with exponent (1-t)w."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"path time must lie in [0, 1], got {t!r}")
    return AxisymConformalMetric(
        theta_grid=metric_grid_copy(seed.theta_grid),
        w=(1.0 - t) * seed.w,
        pole_regularity_order=seed.pole_regularity_order,
    )


def metric_grid_copy(theta: np.ndarray) -> np.ndarray:
    return np.array(theta, dtype=float, copy=True)


def _time_clamp(t: np.ndarray, theta_switch: float) -> np.ndarray:
    """Smooth ramp from 0 at t=0 to exactly 1 for t >= theta_switch."""
    return smooth_step(np.asarray(t, dtype=float) / theta_switch)


def _cumulative_area_spline(theta: np.ndarray, w: np.ndarray):
    """Spline of the area integrand e^(2w) sin(theta) and its antiderivative."""
    integrand = np.exp(2.0 * w) * np.sin(theta)
    density = CubicSpline(theta, integrand)
    return density, density.antiderivative()


# Rows per batched spline construction: large enough to amortize the
# per-call cost, small enough that the coefficient arrays stay a few MB.
_ROW_CHUNK = 64


def _intervals(theta: np.ndarray, x: np.ndarray):
    """Spline interval i with theta[i] <= x < theta[i+1] (the last interval
    also holds theta[-1]) and the offset x - theta[i], for a uniform grid.

    x / h finds the interval up to one place where the float grid points
    are not exact multiples of h; the two comparisons settle it exactly.
    """
    last = theta.size - 2
    idx = np.clip((x * (1.0 / (theta[1] - theta[0]))).astype(np.intp), 0, last)
    idx -= (x < theta[idx]) & (idx > 0)
    idx += (x >= theta[idx + 1]) & (idx < last)
    return idx, x - theta[idx]


def _ppoly_at(c: np.ndarray, flat: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Piecewise polynomials at offsets dx into the pieces numbered flat.

    c holds PPoly coefficients, highest power first, of shape
    (order, pieces).  The power sum runs in PPoly's own order, so every
    value equals the evaluation of a PPoly holding that piece.
    """
    value = c[-1].take(flat)
    power = dx
    for k in range(c.shape[0] - 2, -1, -1):
        value = value + c[k].take(flat) * power
        power = power * dx
    return value


def _match_cumulative_areas(theta, w_rows, base, total0):
    """Reparametrizing maps matching each slice's area to the seed's.

    For exponent row w_k with cumulative area C_k (antiderivative of the
    not-a-knot spline of e^(2w_k) sin(theta)), solve
    C_k(x) = base * C_k(pi) / total0 at every theta sample, where base is
    the seed's cumulative area on the grid and total0 its total.  Splines
    are built per chunk of rows and Newton steps from piecewise-linear
    guesses run on a whole chunk at once; points the Newton steps leave
    off by more than 1e-12 of the total are bracketed by brentq on the
    row's own spline.  Returns the maps and the totals C_k(pi).
    """
    from scipy.optimize import brentq

    maps = np.empty(w_rows.shape)
    totals = np.empty(w_rows.shape[0])
    for lo in range(0, w_rows.shape[0], _ROW_CHUNK):
        chunk = slice(lo, lo + _ROW_CHUNK)
        density = CubicSpline(theta, np.exp(2.0 * w_rows[chunk]) * np.sin(theta), axis=1)
        # Pieces numbered row by row: row r, interval i is r * intervals + i.
        pieces = [np.ascontiguousarray(np.swapaxes(c, 1, 2)).reshape(c.shape[0], -1)
                  for c in (density.c, density.antiderivative().c)]
        offsets = (np.arange(density.c.shape[2]) * (theta.size - 1))[:, None]

        def evaluate(x):
            """Density and cumulative area of every row at its points x."""
            idx, dx = _intervals(theta, x)
            return tuple(_ppoly_at(c, idx + offsets, dx) for c in pieces)

        knot_density, samples = evaluate(np.broadcast_to(theta, w_rows[chunk].shape))
        if not np.all(np.diff(samples, axis=1) > 0.0):
            raise InternalConsistencyError("cumulative area is not strictly increasing")
        total = samples[:, -1:]
        targets = base * (total / total0)
        x = np.array([np.interp(row, grid, theta) for row, grid in zip(targets, samples)])
        slope_floor = 1e-12 * np.max(knot_density, axis=1, keepdims=True)
        for _ in range(6):
            slope, cumulative = evaluate(x)
            x = np.clip(x - (cumulative - targets) / np.maximum(slope, slope_floor),
                        0.0, math.pi)
        resid = np.abs(evaluate(x)[1] - targets)
        for row, col in zip(*np.nonzero(resid > 1e-12 * total)):
            _, row_cumulative = _cumulative_area_spline(theta, w_rows[lo + row])
            x[row, col] = brentq(
                lambda v, tt=targets[row, col]: row_cumulative(v) - tt, 0.0, math.pi,
                xtol=1e-14, rtol=8.9e-16,
            )
        x[:, 0] = 0.0
        x[:, -1] = math.pi
        maps[chunk] = x
        totals[chunk] = total[:, 0]
    return maps, totals


def normalize_path(
    seed: AxisymConformalMetric,
    n_t: int = _DEFAULT_N_T,
    theta_switch: float = 0.75,
) -> MetricPath:
    """Normalize the conformal family of an axisymmetric seed.

    Applies, in order: a smooth time clamp making the path constant on
    [theta_switch, 1]; a per-slice dilation fixing every total area to the
    seed area; and a theta reparametrization per slice matching cumulative
    area functions, which renders the area form time independent.  The
    residual time dependence of the area form is measured independently
    (Newton-inverted maps differentiated on their own) and reported as
    ``volume_form_deviation``.

    Slices with the same ramp value (every t >= theta_switch) coincide and
    are solved once; the maps of all slices are inverted in batches.  Path
    quantities that only some routes read (the eigenvalue floor, slice and
    eigen fields) are not computed here but on demand, memoized on the
    returned path.
    """
    theta = seed.theta_grid
    t_grid = np.linspace(0.0, 1.0, n_t)
    ramp = _time_clamp(t_grid, theta_switch)

    if float(np.max(np.abs(seed.w - seed.w[0]))) == 0.0:
        # Constant exponent: the path never moves.
        return MetricPath(
            n=2,
            t_grid=t_grid,
            theta_switch=theta_switch,
            volume_form_deviation=0.0,
            round_radius=seed.volume_radius,
        )

    _, cumulative0 = _cumulative_area_spline(theta, seed.w)
    total0 = float(cumulative0(math.pi))
    levels, slice_of = np.unique(ramp, return_inverse=True)
    w_raw = (1.0 - levels)[:, None] * seed.w
    # Cumulative matching for the dilated metric reduces to matching the
    # undilated cumulative against a rescaled target.
    maps, totals = _match_cumulative_areas(theta, w_raw, cumulative0(theta), total0)
    # Dilations bringing each slice area back to the seed area.
    distinct = [
        AxisymConformalMetric(theta_grid=theta, w=w + 0.5 * math.log(total0 / total))
        for w, total in zip(w_raw, totals)
    ]
    metrics = tuple(distinct[j] for j in slice_of)
    maps = maps[slice_of]

    deviation = _measure_volume_form_deviation(t_grid, theta, metrics, maps)
    return MetricPath(
        n=2,
        t_grid=t_grid,
        theta_switch=theta_switch,
        volume_form_deviation=deviation,
        metrics=metrics,
        reparam=maps,
    )


def _compose_rows(theta: np.ndarray, rows: np.ndarray, points: np.ndarray,
                  nu: int = 0) -> np.ndarray:
    """Row k of ``rows``, as a not-a-knot cubic spline in theta (its nu-th
    derivative for nu = 1), evaluated at row k of ``points``.

    One spline is built per chunk of rows instead of one per row.
    """
    out = np.empty(points.shape)
    for lo in range(0, rows.shape[0], _ROW_CHUNK):
        chunk = slice(lo, lo + _ROW_CHUNK)
        c = CubicSpline(theta, rows[chunk], axis=1).c
        idx, dx = _intervals(theta, points[chunk])
        row = np.arange(c.shape[2])[:, None]
        c3, c2, c1, c0 = (c[i][idx, row] for i in range(4))
        if nu == 0:
            out[chunk] = ((c3 * dx + c2) * dx + c1) * dx + c0
        else:
            out[chunk] = (3.0 * c3 * dx + 2.0 * c2) * dx + c1
    return out


def _measure_volume_form_deviation(t_grid, theta, metrics, maps) -> float:
    """Max time derivative of the composed area form, measured honestly.

    The theta derivative of each reparametrizing map is taken from the
    sampled map itself (spline differentiation), not from the chain-rule
    identity that would make the area form static by construction.
    """
    w_rows = np.array([metric.w for metric in metrics])
    knots = np.broadcast_to(theta, maps.shape)
    dmap = _compose_rows(theta, maps, knots, nu=1)
    sqrt_det = (np.exp(2.0 * _compose_rows(theta, w_rows, maps))
                * np.sin(maps) * dmap)
    dt = float(t_grid[1] - t_grid[0])
    time_deriv = diff1_4th(sqrt_det.T, dt).T
    return float(np.max(np.abs(time_deriv)))


def round_path(
    n: int,
    r_o: float,
    n_t: int = _DEFAULT_N_T,
    theta_switch: float = 0.75,
) -> MetricPath:
    """Constant round path in dimension n with slice radius r_o."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    if not r_o > 0.0:
        raise DomainError(f"radius must be positive, got {r_o!r}")
    return MetricPath(
        n=n,
        t_grid=np.linspace(0.0, 1.0, n_t),
        theta_switch=theta_switch,
        volume_form_deviation=0.0,
        round_radius=r_o,
    )


def _sl_matrices(theta: np.ndarray, w: np.ndarray):
    """Tridiagonal discretization of -(sin u')' + K e^(2w) sin u = lam e^(2w) sin u.

    Finite-volume form with lumped weights; pole cells use the quadratic
    vanishing of the weight.  Returns the symmetrized tridiagonal (diag,
    offdiag), the lumping weights, and the scaling used to symmetrize.
    """
    dtheta = float(theta[1] - theta[0])
    size = theta.size
    lap_w = _laplacian_axisym(theta, w)
    # K e^(2w) = 1 - Laplacian(w) in this gauge.
    potential_density = (1.0 - lap_w) * np.sin(theta)
    weight_density = np.exp(2.0 * w) * np.sin(theta)

    mass = np.empty(size)
    pot = np.empty(size)
    mass[1:-1] = dtheta * weight_density[1:-1]
    pot[1:-1] = dtheta * potential_density[1:-1]
    mass[0] = math.exp(2.0 * w[0]) * dtheta ** 2 / 8.0
    mass[-1] = math.exp(2.0 * w[-1]) * dtheta ** 2 / 8.0
    pot[0] = (1.0 - lap_w[0]) * dtheta ** 2 / 8.0
    pot[-1] = (1.0 - lap_w[-1]) * dtheta ** 2 / 8.0

    face = np.sin(theta[:-1] + 0.5 * dtheta) / dtheta
    diag = pot.copy()
    diag[0] += face[0]
    diag[-1] += face[-1]
    diag[1:-1] += face[:-1] + face[1:]
    off = -face

    scale = np.sqrt(mass)
    sym_diag = diag / mass
    sym_off = off / (scale[:-1] * scale[1:])
    return sym_diag, sym_off, mass, scale


def _solve_sl(theta: np.ndarray, w: np.ndarray):
    """Lowest eigenpair of the discretized operator on the given grid."""
    sym_diag, sym_off, mass, scale = _sl_matrices(theta, w)
    vals, vecs = eigh_tridiagonal(
        sym_diag, sym_off, select="i", select_range=(0, 0)
    )
    u = vecs[:, 0] / scale
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    if np.min(u) <= 0.0:
        raise ConstructionError(
            "ground state is not positive",
            diagnostics={"min_u": float(np.min(u))},
        )
    residual = _sl_residual(sym_diag, sym_off, float(vals[0]), vecs[:, 0])
    if residual > 1e-8:
        raise ConstructionError(
            "eigenvalue solve did not converge",
            diagnostics={"residual": residual},
        )
    return float(vals[0]), u


def _sl_residual(diag, off, value, vec) -> float:
    prod = diag * vec
    prod[:-1] += off * vec[1:]
    prod[1:] += off * vec[:-1]
    return float(np.linalg.norm(prod - value * vec) / np.linalg.norm(vec))


def lambda1(metric: AxisymConformalMetric) -> tuple[float, np.ndarray]:
    """First eigenvalue and eigenfunction of -Laplacian + K on the metric.

    The operator is restricted to axisymmetric functions and discretized
    as a weighted Sturm-Liouville problem; the eigenvalue is Richardson
    extrapolated from the metric grid and a doubled grid, and the
    eigenfunction (from the fine grid, restricted back) is normalized so
    its squared integral equals the total area.
    """
    theta = metric.theta_grid
    value_coarse, _ = _solve_sl(theta, metric.w)

    fine_theta = np.linspace(0.0, math.pi, 2 * (theta.size - 1) + 1)
    fine_w = CubicSpline(theta, metric.w)(fine_theta)
    value_fine, u_fine = _solve_sl(fine_theta, fine_w)

    value = (4.0 * value_fine - value_coarse) / 3.0
    u = u_fine[::2]

    weight = np.exp(2.0 * metric.w) * np.sin(theta)
    norm_sq = 2.0 * math.pi * simpson_uniform(u * u * weight, metric.theta_step)
    u = u * math.sqrt(metric.area() / norm_sq)
    return value, u


@dataclass(frozen=True)
class CurvatureFloor:
    """Curvature floor of a path and lapse-threshold candidates.

    ``min_curvature`` is the minimum sectional curvature over the path
    (Gaussian curvature for n = 2).  Candidates follow the selection
    rules: the eigenvalue route scales the minimum first eigenvalue down
    by the margin; the positive-scalar route scales half the minimum
    scalar curvature down (present only if that minimum is positive); the
    negative-floor route scales the negative part of the curvature up.

    ``kappa_eigenfunction`` is computed on demand: the first read solves
    the eigenvalue floor of the path (``MetricPath.min_lambda1``), which is
    memoized on the path, so routes that never read it never pay for it.
    """

    path: MetricPath = field(repr=False, compare=False)
    min_curvature: float
    margin: float
    kappa_negative_floor: float
    kappa_positive_scalar: float | None

    @property
    def kappa_eigenfunction(self) -> float:
        return self.path.min_lambda1 * (1.0 - self.margin)


def curvature_floor_along_path(path: MetricPath, margin: float = 0.05) -> CurvatureFloor:
    """Curvature floor and lapse-threshold candidates for a path.

    The curvature minimum is memoized on the path and the eigenvalue floor
    is computed on demand (see CurvatureFloor), so this only applies the
    margin.
    """
    min_k = path.min_curvature
    n = path.n
    min_scal = n * (n - 1) / path.r_o ** 2 if path.is_round else 2.0 * min_k
    return CurvatureFloor(
        path=path,
        min_curvature=min_k,
        margin=margin,
        kappa_negative_floor=max(0.0, -min_k) * (1.0 + margin),
        kappa_positive_scalar=(
            0.5 * min_scal * (1.0 - margin) if min_scal > 0.0 else None
        ),
    )


def _composed_fields(path: MetricPath):
    """Composed conformal data of every slice in the fixed area gauge.

    Returns exponent, curvature, map derivative and map arrays of shape
    (n_t, n_theta), where each row is the conformal-gauge field evaluated
    along the reparametrizing map.  The map derivative uses the chain
    rule through the cumulative-area identity, which is the derivative of
    the exact solution map.
    """
    theta = path.metrics[0].theta_grid
    maps = path.reparam
    w_rows = np.array([metric.w for metric in path.metrics])
    exponent = _compose_rows(theta, w_rows, maps)
    curvature = _compose_rows(theta, _curvature_of(theta, w_rows), maps)
    density0, _ = _cumulative_area_spline(theta, path.metrics[0].w)
    base_density = density0(theta)
    dmap = np.empty_like(maps)
    for k in range(path.t_grid.size):
        # Chain rule: dTheta/dtheta = density0(theta) / density_t(Theta),
        # with both densities measured in the common area normalization.
        density_t = np.exp(2.0 * exponent[k]) * np.sin(maps[k])
        dmap[k] = _safe_ratio(base_density, density_t, theta, maps[k])
    return exponent, curvature, dmap, maps


def _safe_ratio(numer, denom, theta, composed):
    """Ratio of area densities with pole values filled by parity."""
    out = np.empty_like(numer)
    interior = slice(1, -1)
    out[interior] = numer[interior] / denom[interior]
    # At the poles both densities vanish linearly, so the ratio extends to
    # an even smooth function; fit out = c0 + c2 theta^2 to the two nearest
    # interior values.
    out[0] = out[1] - (out[2] - out[1]) / 3.0
    out[-1] = out[-2] - (out[-3] - out[-2]) / 3.0
    return out


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
            trace_gprime=np.zeros(shape),
        )

    theta = path.metrics[0].theta_grid
    exponent, curvature, dmap, maps = _composed_fields(path)
    conf = np.exp(2.0 * exponent)
    a_comp = conf * dmap ** 2
    b_comp = conf * np.sin(maps) ** 2

    dt = float(path.t_grid[1] - path.t_grid[0])
    da = diff1_4th(a_comp.T, dt).T
    db_full = diff1_4th(b_comp.T, dt).T

    # The azimuthal component vanishes quadratically at the poles; its
    # logarithmic derivative is continued from the interior by parity.
    ratio_b = np.empty_like(db_full)
    ratio_b[:, 1:-1] = db_full[:, 1:-1] / b_comp[:, 1:-1]
    ratio_b[:, 0] = ratio_b[:, 1] - (ratio_b[:, 2] - ratio_b[:, 1]) / 3.0
    ratio_b[:, -1] = ratio_b[:, -2] - (ratio_b[:, -3] - ratio_b[:, -2]) / 3.0
    ratio_a = da / a_comp

    return SliceGeometry(
        t_grid=path.t_grid,
        theta_grid=theta,
        sqrt_det=np.sqrt(a_comp * b_comp),
        scalar_curvature=2.0 * curvature,
        gprime_sq=ratio_a ** 2 + ratio_b ** 2,
        trace_gprime=ratio_a + ratio_b,
    )


def eigen_along_path(path: MetricPath) -> EigenPath:
    """Eigenfunction data of -Laplacian + K along a normalized path.

    Eigenpairs are computed per slice in the conformal gauge, composed
    with the reparametrizing maps, and differentiated in time.  Memoized
    on the path (``MetricPath.eigen_fields``).
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
        )

    theta = path.metrics[0].theta_grid
    values = np.empty(n_t)
    u_gauge = np.empty((n_t, theta.size))
    lap_gauge = np.empty((n_t, theta.size))
    for k in range(n_t):
        metric = path.metrics[k]
        value, u = _solve_sl(theta, metric.w)
        weight = np.exp(2.0 * metric.w) * np.sin(theta)
        norm_sq = 2.0 * math.pi * simpson_uniform(u * u * weight, metric.theta_step)
        u_gauge[k] = u * math.sqrt(metric.area() / norm_sq)
        values[k] = value
        lap_gauge[k] = np.exp(-2.0 * metric.w) * _laplacian_axisym(theta, u_gauge[k])
    u_comp = _compose_rows(theta, u_gauge, path.reparam)
    lap_comp = _compose_rows(theta, lap_gauge, path.reparam)

    dt = float(path.t_grid[1] - path.t_grid[0])
    du_dt = diff1_4th(u_comp.T, dt).T
    return EigenPath(
        t_grid=path.t_grid,
        theta_grid=theta,
        lambda1=values,
        u=u_comp,
        du_dt=du_dt,
        laplace_u=lap_comp,
    )
