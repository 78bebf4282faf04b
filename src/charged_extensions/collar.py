"""Collar extensions over normalized paths of sphere metrics.

A collar is the cylinder [0,1] x S^n with metric v^2 dt^2 + F(t)^2 g(t),
F(t) = sqrt(1 + eps t^2), where g(t) is a normalized path of metrics and
the lapse v is either a constant A or A times the first eigenfunction of
-Laplacian + R/2 on each slice.  The module evaluates the scalar
curvature of the collar, verifies the strict dominant energy condition
against the electric field q / (v r_o^n F^n) d_t, searches for workable
lapse amplitudes and bending parameters eps, computes the Hawking mass
curve along the foliation with monotonicity verdicts, and converts the
round tail of the collar into an arclength radial profile for gluing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lambda_rn
from .errors import (
    ConstructionError,
    DomainError,
    NotApplicableError,
    PreconditionError,
)
from .lambda_rn import RNParams, SampledProfile
from .numutil import diff1_4th, simpson_uniform
from .quasilocal import HawkingCurve, m_o, unit_sphere_volume
from .sphere_seed import MetricPath, eigen_along_path, slice_geometry

__all__ = [
    "EIGENFUNCTION_LAPSE",
    "CONSTANT_LAPSE",
    "CollarSpec",
    "ChargedCollar",
    "MonotonicityReport",
    "IMCFReport",
    "collar_scalar_curvature",
    "build_collar",
    "find_A0_bound",
    "find_A0",
    "hawking_curve",
    "find_eps0",
    "monotonicity_check",
    "tail_to_arclength",
    "imcf_reparametrization",
]

EIGENFUNCTION_LAPSE = "EigenfunctionLapse"
CONSTANT_LAPSE = "ConstantLapse"

# Admissibility routes for the curvature floor behind the lapse bound.
_ROUTE_POSITIVE_SCALAR = "PositiveScalar"
_ROUTE_NEGATIVE_FLOOR = "NegativeFloor"
_ROUTE_EIGENFUNCTION = "Eigenfunction"


@dataclass(frozen=True)
class CollarSpec:
    """Parameters of a collar extension.

    The charge bound (curvature floor minus charge density must be
    positive in the case-appropriate combination) is validated here; the
    curvature-floor admissibility of the path itself is validated when
    the collar is built.
    """

    path: MetricPath
    epsilon: float
    A: float
    kappa: float
    case_id: str
    q: float
    lam: float
    r_o: float

    def __post_init__(self) -> None:
        if self.case_id not in (EIGENFUNCTION_LAPSE, CONSTANT_LAPSE):
            raise DomainError(f"unknown lapse case {self.case_id!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        if not self.A > 0.0:
            raise DomainError(f"lapse amplitude must be positive, got {self.A!r}")
        if self.kappa < 0.0:
            raise DomainError(f"kappa must be nonnegative, got {self.kappa!r}")
        if self.lam > 0.0:
            raise DomainError(f"lam must be nonpositive, got {self.lam!r}")
        if not self.r_o > 0.0:
            raise DomainError(f"r_o must be positive, got {self.r_o!r}")
        if abs(self.r_o - self.path.r_o) > 1e-9 * self.r_o:
            raise DomainError(
                f"r_o {self.r_o!r} does not match the path radius {self.path.r_o!r}"
            )
        if not (self._charge_gap_scalar() > 0.0 or self._charge_gap_negative() > 0.0):
            raise PreconditionError(
                "charge too large for the curvature floor: "
                f"q={self.q!r}, kappa={self.kappa!r}, lam={self.lam!r}"
            )

    @property
    def n(self) -> int:
        return self.path.n

    @cached_property
    def margin_fields(self):
        """Amplitude-independent (base, well, u, reference), memoized per spec."""
        base, well, u = _margin_parts(self)
        return base, well, u, _reference_density(self)[:, None]

    def _charge_gap_scalar(self) -> float:
        """Floor of the positive-scalar/eigenfunction energy inequality."""
        n = self.n
        return 2.0 * (self.kappa - self.lam) - n * (n - 1) * self.q ** 2 / self.r_o ** (2 * n)

    def _charge_gap_negative(self) -> float:
        """Floor of the negative-curvature (n=2) energy inequality."""
        if self.n != 2:
            return -math.inf
        return -2.0 * (self.kappa + self.lam) - 2.0 * self.q ** 2 / self.r_o ** 4


@dataclass(frozen=True)
class ChargedCollar:
    """A built collar with its verification fields.

    scalar_curvature and dec_margin are sampled over (t, theta) with a
    single theta column for round paths; mean_curvature is per t (the
    slice minimum when the lapse varies over the slice).
    """

    spec: CollarSpec
    scalar_curvature: np.ndarray
    dec_margin: np.ndarray
    mean_curvature: np.ndarray
    hawking: HawkingCurve

    def __post_init__(self) -> None:
        for name in ("scalar_curvature", "dec_margin", "mean_curvature"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not np.min(self.dec_margin) > 0.0:
            raise DomainError("energy margin must be strictly positive")
        if self.mean_curvature[0] != 0.0:
            raise DomainError("mean curvature must vanish on the boundary slice")
        if not np.all(self.mean_curvature[1:] > 0.0):
            raise DomainError("mean curvature must be positive off the boundary")


@dataclass(frozen=True)
class MonotonicityReport:
    """Verdict on the sign of dM/dt along the collar foliation."""

    case_id: str
    n: int
    min_dmass_dt: float
    dmass_dt_origin: float
    tol: float
    monotone: bool
    asserted: bool
    a1: float | None
    a_satisfies_a1: bool | None
    integral_condition_value: float | None
    integral_condition_ok: bool | None
    verdict: str


@dataclass(frozen=True)
class IMCFReport:
    """Arclength reparametrization with the inverse-flow speed check."""

    t_samples: np.ndarray
    s_samples: np.ndarray
    max_speed_error: float


def _shape_factor(spec: CollarSpec):
    t = spec.path.t_grid
    F = np.sqrt(1.0 + spec.epsilon * t * t)
    dF = spec.epsilon * t / F
    d2F = spec.epsilon / F ** 3
    return t, F, dF, d2F


def _admissible_route(spec: CollarSpec) -> str:
    """Select the curvature-floor route backing the lapse bound."""
    geometry = slice_geometry(spec.path)
    min_scal = float(np.min(geometry.scalar_curvature))
    if spec.case_id == EIGENFUNCTION_LAPSE:
        eigen = eigen_along_path(spec.path)
        min_lam1 = float(np.min(eigen.lambda1))
        if min_lam1 > spec.kappa and spec._charge_gap_scalar() > 0.0:
            return _ROUTE_EIGENFUNCTION
        raise PreconditionError(
            "eigenfunction lapse needs kappa below the first eigenvalue "
            f"(min lambda1 = {min_lam1!r}, kappa = {spec.kappa!r})"
        )
    if min_scal > 2.0 * spec.kappa and spec._charge_gap_scalar() > 0.0:
        return _ROUTE_POSITIVE_SCALAR
    if spec.n == 2 and 0.5 * min_scal > -spec.kappa and spec._charge_gap_negative() > 0.0:
        return _ROUTE_NEGATIVE_FLOOR
    raise PreconditionError(
        "no admissible curvature floor: min slice scalar curvature "
        f"{min_scal!r} with kappa {spec.kappa!r}"
    )


def _energy_floor(spec: CollarSpec, route: str) -> float:
    if route == _ROUTE_NEGATIVE_FLOOR:
        return spec._charge_gap_negative()
    return spec._charge_gap_scalar()


def _margin_parts(spec: CollarSpec):
    """Decompose collar curvature fields by their lapse dependence.

    Returns arrays (base, well) over (t, theta) such that the collar
    scalar curvature is base + well / A^2 plus the electromagnetic and
    cosmological reference gives dec margin = (base - reference) + well / A^2.
    Caching the amplitude-independent parts keeps the A search cheap.
    """
    n = spec.n
    geometry = slice_geometry(spec.path)
    t, F, dF, d2F = _shape_factor(spec)
    col = lambda a: a[:, None]

    r_scal = geometry.scalar_curvature
    gp_sq = geometry.gprime_sq
    if spec.case_id == EIGENFUNCTION_LAPSE:
        eigen = eigen_along_path(spec.path)
        u = eigen.u
        lap_ratio = eigen.laplace_u / u
        uprime_ratio = eigen.du_dt / u
        inv_u_sq = 1.0 / (u * u)
    else:
        u = None
        lap_ratio = 0.0
        uprime_ratio = 0.0
        inv_u_sq = 1.0

    base = r_scal / col(F) ** 2 - 2.0 * lap_ratio / col(F) ** 2
    shape = n * ((n - 1) * col(dF) ** 2 + 2.0 * col(F) * col(d2F)) / col(F) ** 2
    well = inv_u_sq * (
        2.0 * n * uprime_ratio * col(dF) / col(F) - shape - 0.25 * gp_sq
    )
    base = np.broadcast_to(base, well.shape) if np.shape(base) != np.shape(well) else base
    return base, well, u


def _reference_density(spec: CollarSpec):
    """2 Lambda + n(n-1) |E|^2 along the collar, per t."""
    n = spec.n
    _, F, _, _ = _shape_factor(spec)
    charge_density = n * (n - 1) * spec.q ** 2 / (spec.r_o ** (2 * n) * F ** (2 * n))
    return 2.0 * spec.lam + charge_density


def collar_scalar_curvature(spec: CollarSpec, t: float, theta: float = 0.0) -> float:
    """Scalar curvature of the collar at the grid point nearest (t, theta)."""
    base, well, _, _ = spec.margin_fields
    t_idx = int(np.argmin(np.abs(spec.path.t_grid - t)))
    if well.shape[1] == 1:
        theta_idx = 0
    else:
        theta_grid = slice_geometry(spec.path).theta_grid
        theta_idx = int(np.argmin(np.abs(theta_grid - theta)))
    return float(base[t_idx, theta_idx] + well[t_idx, theta_idx] / spec.A ** 2)


def _slice_inverse_square_integral(spec: CollarSpec) -> np.ndarray:
    """Integral of u^(-2) over each slice of the path."""
    n_t = spec.path.t_grid.size
    if spec.case_id == CONSTANT_LAPSE or spec.path.is_round:
        area = unit_sphere_volume(spec.n) * spec.r_o ** spec.n
        return np.full(n_t, area)
    geometry = slice_geometry(spec.path)
    eigen = eigen_along_path(spec.path)
    dtheta = float(geometry.theta_grid[1] - geometry.theta_grid[0])
    values = np.empty(n_t)
    for k in range(n_t):
        values[k] = 2.0 * math.pi * simpson_uniform(
            geometry.sqrt_det[k] / eigen.u[k] ** 2, dtheta
        )
    return values


def _hawking_along_collar(spec: CollarSpec) -> HawkingCurve:
    n = spec.n
    t, F, dF, _ = _shape_factor(spec)
    radius = spec.r_o * F
    params = RNParams(n=n, m=0.0, q=spec.q, lam=spec.lam)
    inv_sq = _slice_inverse_square_integral(spec)
    curvature_term = dF ** 2 * inv_sq / (
        spec.A ** 2 * unit_sphere_volume(n) * spec.r_o ** (n - 2)
    )
    mass = 0.5 * radius ** (n - 1) * (lambda_rn.eval_p(params, radius) - curvature_term)
    dt = float(t[1] - t[0])
    return HawkingCurve(
        t_grid=t, mass=mass, charge=spec.q, dmass_dt=diff1_4th(mass, dt)
    )


def build_collar(spec: CollarSpec) -> ChargedCollar:
    """Assemble a collar and verify the strict energy condition.

    Raises a construction error carrying the worst (t, theta) sample if
    the margin R - 2 Lambda - n(n-1)|E|^2 is not strictly positive.
    """
    _admissible_route(spec)
    base, well, u, reference = spec.margin_fields
    scalar = base + well / spec.A ** 2
    margin = scalar - reference
    flat = int(np.argmin(margin))
    worst = np.unravel_index(flat, margin.shape)
    min_margin = float(margin[worst])
    if not min_margin > 0.0:
        theta_grid = (
            slice_geometry(spec.path).theta_grid
            if margin.shape[1] > 1
            else np.zeros(1)
        )
        raise ConstructionError(
            "energy condition violated on the collar",
            diagnostics={
                "min_margin": min_margin,
                "t": float(spec.path.t_grid[worst[0]]),
                "theta": float(theta_grid[worst[1]]),
            },
        )

    _, F, dF, _ = _shape_factor(spec)
    if u is None:
        u_max = np.ones_like(F)
    else:
        u_max = np.max(u, axis=1)
    mean_curvature = spec.n * dF / (spec.A * F * u_max)
    return ChargedCollar(
        spec=spec,
        scalar_curvature=scalar,
        dec_margin=margin,
        mean_curvature=mean_curvature,
        hawking=_hawking_along_collar(spec),
    )


def _trial_spec(path, epsilon, amplitude, kappa, case_id, q, lam) -> CollarSpec:
    return CollarSpec(
        path=path,
        epsilon=epsilon,
        A=amplitude,
        kappa=kappa,
        case_id=case_id,
        q=q,
        lam=lam,
        r_o=path.r_o,
    )


def find_A0_bound(
    path: MetricPath, epsilon: float, kappa: float, case_id: str, q: float, lam: float
) -> float:
    """Closed-form lapse amplitude from the conservative energy estimate.

    The estimate bounds the collar margin below by floor - C / A^2 with
    C collecting the shape constant (4 for n=2, n(n-1) otherwise), the
    metric velocity and, for the eigenfunction lapse, the eigenfunction
    terms; the bound is positive for A above sqrt(C / floor).
    """
    spec = _trial_spec(path, epsilon, 1.0, kappa, case_id, q, lam)
    route = _admissible_route(spec)
    floor = _energy_floor(spec, route)
    n = path.n
    c_n = 4.0 if n == 2 else float(n * (n - 1))
    geometry = slice_geometry(path)
    numerator = c_n + 0.25 * float(np.max(geometry.gprime_sq))
    min_u_sq = 1.0
    if case_id == EIGENFUNCTION_LAPSE:
        eigen = eigen_along_path(path)
        drift = 2.0 * n * eigen.du_dt / eigen.u
        numerator -= min(0.0, float(np.min(drift)))
        min_u_sq = float(np.min(eigen.u)) ** 2
    return math.sqrt(numerator / (floor * min_u_sq))


def find_A0(
    path: MetricPath, epsilon: float, kappa: float, case_id: str, q: float, lam: float
) -> float:
    """Smallest workable lapse amplitude, to a factor 1.05.

    Starts from the closed-form estimate of find_A0_bound and refines
    downward by geometric bisection against the direct pointwise margin
    check, which is authoritative; the returned amplitude always passes
    the direct check.
    """
    probe = _trial_spec(path, epsilon, 1.0, kappa, case_id, q, lam)
    base, well, _, reference = probe.margin_fields
    core = base - reference

    def passes(amplitude: float) -> bool:
        return float(np.min(core + well / amplitude ** 2)) > 0.0

    hi = find_A0_bound(path, epsilon, kappa, case_id, q, lam)
    bumps = 0
    while not passes(hi):
        hi *= 1.05
        bumps += 1
        if bumps > 200:
            raise ConstructionError(
                "no lapse amplitude passes the margin check",
                diagnostics={"last_tried": hi},
            )

    for _ in range(60):
        if passes(hi / 2.0):
            hi /= 2.0
        else:
            break
    else:
        return hi
    lo = hi / 2.0
    while hi / lo > 1.05:
        mid = math.sqrt(hi * lo)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def hawking_curve(collar: ChargedCollar) -> HawkingCurve:
    """Hawking mass along the collar foliation."""
    return collar.hawking


def _far_end_mass(n, r_o, q, lam, epsilon, amplitude) -> float:
    """Mass of the last collar slice for a round constant-lapse collar."""
    params = RNParams(n=n, m=0.0, q=q, lam=lam)
    stretch = 1.0 + epsilon
    radius = math.sqrt(stretch) * r_o
    loss = epsilon ** 2 * r_o ** 2 / (stretch * amplitude ** 2)
    return 0.5 * radius ** (n - 1) * (lambda_rn.eval_p(params, radius) - loss)


def find_eps0(n: int, r_o: float, q: float, lam: float, a0: float) -> float:
    """Largest grid epsilon for which the far-end mass exceeds m_o.

    Searches the geometric grid 1, 1/2, ..., 2^-20 and requires the mass
    gain at the given amplitude and at ten times it (the gain grows with
    the amplitude, which this spot-checks).
    """
    params = RNParams(n=n, m=0.0, q=q, lam=lam)
    if not lambda_rn.eval_h(params, r_o) > 0.0:
        raise PreconditionError(
            f"quasi-local sub-extremality fails at r_o = {r_o!r}"
        )
    reference = m_o(n, r_o, q, lam)
    for k in range(21):
        epsilon = 2.0 ** (-k)
        gain = _far_end_mass(n, r_o, q, lam, epsilon, a0) - reference
        gain_big = _far_end_mass(n, r_o, q, lam, epsilon, 10.0 * a0) - reference
        if gain > 0.0 and gain_big > 0.0:
            return epsilon
    raise ConstructionError(
        "no epsilon on the geometric grid grows the far-end mass",
        diagnostics={"r_o": r_o, "q": q, "lam": lam, "a0": a0},
    )


def _a1_threshold(collar: ChargedCollar) -> float:
    """Amplitude above which dM/dt > 0 off the boundary, n >= 3 constant lapse."""
    spec = collar.spec
    n = spec.n
    _, F, dF, d2F = _shape_factor(spec)
    params = RNParams(n=n, m=0.0, q=spec.q, lam=spec.lam)
    h_start = lambda_rn.eval_h(params, spec.r_o * float(F[0]))
    grow = (n - 1) * float(np.max(F ** (n - 2) * dF ** 2))
    bend = 2.0 * float(np.max(F ** (n - 1) * np.abs(d2F)))
    a1_sq = spec.r_o ** (2 * n) * float(np.max(F)) ** n * (grow + bend) / ((n - 1) * h_start)
    return math.sqrt(a1_sq)


def _slice_curvature_integral(collar: ChargedCollar) -> float:
    """Max over t of the integral of R(g(t)) over the slice."""
    spec = collar.spec
    path = spec.path
    n = spec.n
    if path.is_round:
        return n * (n - 1) * unit_sphere_volume(n) * spec.r_o ** (n - 2)
    geometry = slice_geometry(path)
    dtheta = float(geometry.theta_grid[1] - geometry.theta_grid[0])
    values = [
        2.0 * math.pi * simpson_uniform(
            geometry.scalar_curvature[k] * geometry.sqrt_det[k], dtheta
        )
        for k in range(path.t_grid.size)
    ]
    return max(values)


def monotonicity_check(collar: ChargedCollar, tol: float = 1e-8) -> MonotonicityReport:
    """Sign verdict for dM/dt along the collar.

    For n = 2 the mass is nondecreasing unconditionally (up to tol).  For
    n >= 3 with constant lapse the verdict is asserted when the amplitude
    reaches the explicit threshold a1 and the slice curvature integral
    stays within the round-value bound; with the eigenfunction lapse the
    derivative is reported without an asserted sign.
    """
    spec = collar.spec
    n = spec.n
    dm = collar.hawking.dmass_dt
    min_dm = float(np.min(dm))
    origin = float(dm[0])

    a1 = None
    a_reaches = None
    integral_value = None
    integral_ok = None
    if n == 2:
        asserted = True
        monotone = min_dm >= -tol
        verdict = "nondecreasing" if monotone else "violated"
    elif spec.case_id == CONSTANT_LAPSE:
        a1 = _a1_threshold(collar)
        a_reaches = spec.A >= a1
        integral_value = _slice_curvature_integral(collar)
        bound = n * (n - 1) * unit_sphere_volume(n) * spec.r_o ** (n - 2)
        integral_ok = integral_value <= bound * (1.0 + 1e-9) + 1e-12
        asserted = bool(a_reaches and integral_ok)
        monotone = bool(np.all(dm[1:] > 0.0)) if asserted else min_dm >= -tol
        if asserted:
            verdict = "increasing" if monotone else "violated"
        elif not a_reaches:
            verdict = "unasserted (amplitude below a1)"
        else:
            verdict = "unasserted (slice curvature integral too large)"
    else:
        asserted = False
        monotone = min_dm >= -tol
        verdict = "empirical only"
    return MonotonicityReport(
        case_id=spec.case_id,
        n=n,
        min_dmass_dt=min_dm,
        dmass_dt_origin=origin,
        tol=tol,
        monotone=monotone,
        asserted=asserted,
        a1=a1,
        a_satisfies_a1=a_reaches,
        integral_condition_value=integral_value,
        integral_condition_ok=integral_ok,
        verdict=verdict,
    )


def tail_to_arclength(collar: ChargedCollar) -> SampledProfile:
    """Arclength radial profile of the round constant tail of the collar.

    On the tail the path is a fixed round sphere of radius r_o, so with
    s = A t the collar metric is ds^2 + f(s)^2 g* with
    f(s) = sqrt(1 + eps s^2 / A^2) r_o; the profile carries analytic
    derivatives and a dense evaluator.
    """
    spec = collar.spec
    path = spec.path
    if not path.is_round:
        tail_first = int(np.searchsorted(path.t_grid, path.theta_switch - 1e-15))
        for k in range(tail_first, path.t_grid.size):
            w_k = path.metrics[k].w
            if float(np.max(w_k) - np.min(w_k)) > 1e-10:
                raise PreconditionError("collar tail is not round")
        if spec.case_id == EIGENFUNCTION_LAPSE:
            u_tail = eigen_along_path(path).u[tail_first:]
            if float(np.max(np.abs(u_tail - 1.0))) > 1e-6:
                raise PreconditionError("lapse is not constant on the collar tail")

    keep = path.t_grid >= path.theta_switch - 1e-15
    t_tail = path.t_grid[keep]
    amplitude = spec.A
    epsilon = spec.epsilon
    r_o = spec.r_o

    def evaluate(s):
        s = np.asarray(s, dtype=float)
        f = r_o * np.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
        df = epsilon * s * r_o ** 2 / (amplitude ** 2 * f)
        d2f = epsilon * r_o ** 2 / (amplitude ** 2 * f) - df * df / f
        return f, df, d2f

    s_grid = amplitude * t_tail
    f, df, d2f = evaluate(s_grid)
    profile = SampledProfile(
        s_grid=s_grid,
        f=f,
        df=df,
        d2f=d2f,
        provenance=np.array(["collar"] * s_grid.size),
        charge=spec.q,
    )
    profile.evaluator = evaluate
    return profile


def imcf_reparametrization(collar: ChargedCollar, t_start: float | None = None) -> IMCFReport:
    """Arclength of the inverse-flow time s(t) = n log F(t) with speed check.

    Verifies |v (dt/ds) H - 1| pointwise on the selected samples, which
    certifies that the foliation runs at inverse mean curvature speed.
    Only defined when the lapse is constant on slices.
    """
    spec = collar.spec
    if spec.case_id == EIGENFUNCTION_LAPSE and not spec.path.is_round:
        raise NotApplicableError(
            "inverse-flow reparametrization needs a slice-constant lapse"
        )
    t, F, _, _ = _shape_factor(spec)
    if t_start is None:
        t_start = float(t[1])
    if t_start < 0.0:
        raise PreconditionError("t_start must be nonnegative")
    keep = t >= t_start - 1e-15
    t_sel = t[keep]
    if t_sel.size < 5:
        raise PreconditionError("too few samples beyond t_start")
    s_sel = spec.n * np.log(F[keep])
    ds_dt = diff1_4th(s_sel, float(t_sel[1] - t_sel[0]))
    h_sel = collar.mean_curvature[keep]
    positive = t_sel > 0.0
    speed_error = np.abs(
        spec.A * h_sel[positive] / ds_dt[positive] - 1.0
    )
    max_error = float(np.max(speed_error)) if speed_error.size else 0.0
    return IMCFReport(t_samples=t_sel, s_samples=s_sel, max_speed_error=max_error)
