"""Surgery on rotationally symmetric radial profiles.

Profiles enter as warped-product radii f(s) over an arclength interval; the
strict dominant energy condition is the pointwise inequality

    Omega[f] = (n-1)/(2f) * (h(f)/f^(2(n-1)) - f'^2) > f''

with h the companion polynomial of the model family.  This module joins two
such profiles across a gap (monotone bridge, then a variable-radius
mollification certified against a margin floor), bends a model tail so its
radius and slope can be matched from below, and combines the two to graft a
model end of prescribed mass and charge onto a collar tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq
from scipy.special import erfc

from .errors import (
    ConstructionError,
    DomainError,
    InternalConsistencyError,
    PreconditionError,
    VerificationError,
)
from .lambda_rn import (
    EXTREMAL,
    SUB_EXTREMAL,
    RNParams,
    SampledProfile,
    classify,
    eval_h,
    eval_p,
    model_arclength,
    rn_profile,
    rn_profile_mu,
)
from .numutil import simpson_uniform, smooth_step, smooth_step_d1, smooth_step_d2
from .quasilocal import hawking_rotsym

__all__ = [
    "GlueInputs",
    "BendResult",
    "dec_margin_operator",
    "junction_mass_floor",
    "translate_right_interval",
    "BridgedProfile",
    "build_bridge",
    "mollify_and_certify",
    "bend",
    "glue_to_rn",
]

_EQUALITY_TOL = 1e-9
_GL64 = leggauss(64)
_MOLLIFIER_NORM = None


# ---------------------------------------------------------------------------
# Pointwise margin
# ---------------------------------------------------------------------------

def _margin_arrays(n: int, q: float, lam: float, f, df, d2f):
    params = RNParams(n, 0.0, q, lam)
    f = np.asarray(f, dtype=float)
    h = eval_h(params, f)
    omega = (n - 1) / (2.0 * f) * (h / f ** (2 * (n - 1)) - np.asarray(df) ** 2)
    return omega - np.asarray(d2f)


def dec_margin_operator(n: int, q: float, lam: float,
                        profile: SampledProfile) -> np.ndarray:
    """Pointwise margin Omega[f] - f'' at the samples of a profile.

    Strictly positive margin at every sample is the discrete form of the
    strict dominant energy condition for the warped product with fiber
    radius f, charge q and cosmological constant lam.
    """
    return _margin_arrays(n, q, lam, profile.f, profile.df, profile.d2f)


def junction_mass_floor(n: int, q: float, lam: float, radius: float) -> float:
    """Lower bound the Hawking mass of a junction sphere must meet.

    Equals q^2/radius^(n-1) + 2*lam*radius^(n+1)/(n(n-1)(n+1)); a junction
    with mass at or above this floor can absorb a monotone bridge without
    losing the strict energy condition.
    """
    if radius <= 0.0:
        raise DomainError(f"junction radius must be positive, got {radius!r}")
    return (q * q / radius ** (n - 1)
            + 2.0 * lam * radius ** (n + 1) / (n * (n - 1) * (n + 1)))


# ---------------------------------------------------------------------------
# Dense evaluation of sampled profiles
# ---------------------------------------------------------------------------

def _spline_evaluator(profile: SampledProfile):
    """Hermite fallback for profiles that carry no dense evaluator."""
    fsp = CubicHermiteSpline(profile.s_grid, profile.f, profile.df)
    dsp = CubicHermiteSpline(profile.s_grid, profile.df, profile.d2f)
    ddsp = dsp.derivative()

    def evaluate(s):
        s = np.asarray(s, dtype=float)
        return fsp(s), dsp(s), ddsp(s)

    return evaluate


def _evaluator_of(profile: SampledProfile):
    return profile.evaluator if profile.evaluator is not None else _spline_evaluator(profile)


def _shift_profile(profile: SampledProfile, shift: float) -> SampledProfile:
    base = _evaluator_of(profile)

    def evaluate(s):
        return base(np.asarray(s, dtype=float) - shift)

    return SampledProfile(
        profile.s_grid + shift,
        profile.f.copy(),
        profile.df.copy(),
        profile.d2f.copy(),
        profile.provenance.copy(),
        charge=profile.charge,
        evaluator=evaluate,
    )


# ---------------------------------------------------------------------------
# Inputs of the junction surgery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlueInputs:
    """Two ordered radial profiles to be joined, with a common target charge.

    The left profile ends below the right profile's start while its slope
    does not: the bridge between them can then be monotone with nonpositive
    second derivative.  Both junction spheres must carry Hawking mass at or
    above :func:`junction_mass_floor`; when one sits exactly on the floor the
    target charge must be strictly smaller in magnitude than that profile's
    charge, otherwise the joined profile could not keep a strict margin.
    """

    n: int
    left: SampledProfile
    right: SampledProfile
    lam: float
    target_charge: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        lam = float(self.lam)
        if not math.isfinite(lam) or lam > 0.0:
            raise DomainError(f"cosmological constant must be finite and <= 0, got {lam}")
        object.__setattr__(self, "lam", lam)
        q = float(self.target_charge)
        if not math.isfinite(q):
            raise DomainError(f"target charge must be finite, got {q}")
        object.__setattr__(self, "target_charge", q)
        q1, q2 = self.left.charge, self.right.charge
        if q * q > min(q1 * q1, q2 * q2):
            raise DomainError(
                "target charge magnitude exceeds a constituent charge: "
                f"|{q}| > min(|{q1}|, |{q2}|)")
        if not self.f1_b1 < self.f2_a2:
            raise PreconditionError(
                f"left profile must end below the right profile's start: "
                f"{self.f1_b1} >= {self.f2_a2}")
        if not self.slope_left >= self.slope_right:
            raise PreconditionError(
                f"left end slope {self.slope_left} must be >= right start "
                f"slope {self.slope_right}")
        self._check_junction(self.left, self.f1_b1, self.slope_left, "left")
        self._check_junction(self.right, self.f2_a2, self.slope_right, "right")

    def _check_junction(self, profile, radius, slope, side):
        mass = hawking_rotsym(self.n, profile.charge, self.lam, radius, slope)
        floor = junction_mass_floor(self.n, profile.charge, self.lam, radius)
        scale = 1.0 + abs(floor)
        if mass < floor - 1e-12 * scale:
            raise PreconditionError(
                f"{side} junction Hawking mass {mass} lies below the floor {floor}")
        if abs(mass - floor) <= _EQUALITY_TOL * scale:
            qt, qp = self.target_charge, profile.charge
            if not qt * qt < qp * qp:
                raise PreconditionError(
                    f"{side} junction mass sits exactly on the floor; the "
                    "target charge must then be strictly smaller in magnitude "
                    f"than {qp}")

    @property
    def b1(self) -> float:
        return float(self.left.s_grid[-1])

    @property
    def a2(self) -> float:
        return float(self.right.s_grid[0])

    @property
    def f1_b1(self) -> float:
        return float(self.left.f[-1])

    @property
    def f2_a2(self) -> float:
        return float(self.right.f[0])

    @property
    def slope_left(self) -> float:
        return float(self.left.df[-1])

    @property
    def slope_right(self) -> float:
        return float(self.right.df[0])


# ---------------------------------------------------------------------------
# Interval translation
# ---------------------------------------------------------------------------

def translate_right_interval(inputs: GlueInputs):
    """Slide the right profile so a monotone concave bridge can span the gap.

    With end slope c1, start slope c2 and radius gap df, the bridge length is
    L = 2*df/(c1 + c2): for equal slopes this is the unique admissible
    length df/c, otherwise L*c1 > df > L*c2 holds strictly, which is exactly
    the room a decreasing bridge slope needs.  Returns the shifted right
    profile together with the applied shift.
    """
    c1, c2 = inputs.slope_left, inputs.slope_right
    gap = inputs.f2_a2 - inputs.f1_b1
    if c1 <= 0.0:
        raise InternalConsistencyError(
            "left end slope must be positive to bridge a positive radius gap")
    length = 2.0 * gap / (c1 + c2)
    if not length * c1 >= gap * (1.0 - 1e-12):
        raise InternalConsistencyError("bridge length violates the upper slope bound")
    if c2 < c1 and not length * c2 <= gap * (1.0 + 1e-12):
        raise InternalConsistencyError("bridge length violates the lower slope bound")
    shift = (inputs.b1 + length) - inputs.a2
    return _shift_profile(inputs.right, shift), shift


# ---------------------------------------------------------------------------
# Bridge construction
# ---------------------------------------------------------------------------

def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running integral of uniform samples, fourth order.

    Even prefixes accumulate composite Simpson pairs; odd prefixes add the
    half-cell integral of the local parabola through the last three samples.
    """
    out = np.zeros_like(y)
    pair = dx / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2])
    out[2::2] = np.cumsum(pair)
    out[1] = dx / 12.0 * (5.0 * y[0] + 8.0 * y[1] - y[2])
    if y.shape[0] > 3:
        out[3::2] = out[2:-1:2] + dx / 12.0 * (
            -y[1:-2:2] + 8.0 * y[2:-1:2] + 5.0 * y[3::2])
    return out


@dataclass(eq=False)
class BridgedProfile:
    """A C^{1,1} join: left profile, monotone bridge segment, right profile.

    The bridge slope is zeta(s) = c2 + (c1 - c2) * psi(tau) with psi a smooth
    unit step falling from 1 to 0 across a band centered at x_c inside (0,1);
    its center is the one free shape parameter.  The radius is the running
    integral of zeta starting from the left junction value.
    """

    left: SampledProfile
    right: SampledProfile
    a1: float
    b1: float
    a2: float
    b2: float
    x_c: float
    rho: float
    _istep_table: np.ndarray = field(repr=False, default=None)
    _table_x: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        xs = np.linspace(0.0, 1.0, 16385)
        self._table_x = xs
        self._istep_table = _cumulative_simpson(smooth_step(xs), xs[1])

    @property
    def f1_b1(self) -> float:
        return float(self.left.f[-1])

    @property
    def slope_left(self) -> float:
        return float(self.left.df[-1])

    @property
    def slope_right(self) -> float:
        return float(self.right.df[0])

    @property
    def length(self) -> float:
        return self.a2 - self.b1

    @property
    def junctions(self):
        return self.b1, self.a2

    def _step_arg(self, tau):
        return (tau - (self.x_c - self.rho)) / (2.0 * self.rho)

    def zeta(self, s):
        tau = (np.asarray(s, dtype=float) - self.b1) / self.length
        psi = 1.0 - smooth_step(self._step_arg(tau))
        return self.slope_right + (self.slope_left - self.slope_right) * psi

    def zeta_prime(self, s):
        tau = (np.asarray(s, dtype=float) - self.b1) / self.length
        dpsi = -smooth_step_d1(self._step_arg(tau)) / (2.0 * self.rho)
        return (self.slope_left - self.slope_right) * dpsi / self.length

    def _istep(self, w):
        w = np.asarray(w, dtype=float)
        out = np.where(w >= 1.0, w - 0.5, 0.0)
        inner = (w > 0.0) & (w < 1.0)
        out = np.where(inner,
                       np.interp(np.clip(w, 0.0, 1.0),
                                 self._table_x, self._istep_table),
                       out)
        return out

    def _bridge_values(self, s):
        tau = (s - self.b1) / self.length
        w = self._step_arg(tau)
        psi_integral = tau - 2.0 * self.rho * self._istep(w)
        dc = self.slope_left - self.slope_right
        f = self.f1_b1 + self.length * (self.slope_right * tau + dc * psi_integral)
        df = self.slope_right + dc * (1.0 - smooth_step(w))
        d2f = -dc * smooth_step_d1(w) / (2.0 * self.rho * self.length)
        return f, df, d2f

    def evaluate(self, s):
        """Piecewise values (f, f', f'') across left piece, bridge, right piece."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        f = np.empty_like(s)
        df = np.empty_like(s)
        d2f = np.empty_like(s)
        left_mask = s <= self.b1
        right_mask = s >= self.a2
        mid_mask = ~(left_mask | right_mask)
        if np.any(left_mask):
            vals = _evaluator_of(self.left)(s[left_mask])
            f[left_mask], df[left_mask], d2f[left_mask] = vals
        if np.any(right_mask):
            vals = _evaluator_of(self.right)(s[right_mask])
            f[right_mask], df[right_mask], d2f[right_mask] = vals
        if np.any(mid_mask):
            f[mid_mask], df[mid_mask], d2f[mid_mask] = self._bridge_values(s[mid_mask])
        return f, df, d2f


def build_bridge(inputs: GlueInputs, shifted: SampledProfile) -> BridgedProfile:
    """Join the left profile to the shifted right profile by a C^{1,1} bridge.

    The step center is solved so the bridge slope integrates to exactly the
    radius gap; by symmetry of the step the integral is an affine function of
    the center, and the root is bracketed strictly inside (0,1) whenever the
    translation left admissible room.  The solved bridge is re-integrated
    numerically as an independent confirmation.
    """
    c1, c2 = inputs.slope_left, float(shifted.df[0])
    b1 = inputs.b1
    a2 = float(shifted.s_grid[0])
    length = a2 - b1
    if length <= 0.0:
        raise InternalConsistencyError("shifted right interval must start beyond b1")
    gap = float(shifted.f[0]) - inputs.f1_b1
    dc = c1 - c2

    if dc <= 1e-14 * (1.0 + abs(c1)):
        if abs(length * c1 - gap) > 1e-9 * (1.0 + abs(gap)):
            raise InternalConsistencyError(
                "equal-slope bridge cannot meet the radius gap at this distance")
        x_c = 0.5
    else:
        def residual(x):
            return length * (c2 + dc * x) - gap

        lo, hi = 1e-3, 1.0 - 1e-3
        if not residual(lo) < 0.0 < residual(hi):
            raise InternalConsistencyError(
                "no admissible step center: the translated interval leaves "
                "the required slope average out of range")
        x_c = brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16)

    rho = 0.95 * min(x_c, 1.0 - x_c)
    bridge = BridgedProfile(
        left=inputs.left,
        right=shifted,
        a1=float(inputs.left.s_grid[0]),
        b1=b1,
        a2=a2,
        b2=float(shifted.s_grid[-1]),
        x_c=x_c,
        rho=rho,
    )

    ss = np.linspace(b1, a2, 4097)
    integral = simpson_uniform(bridge.zeta(ss), ss[1] - ss[0])
    if abs(integral - gap) > 1e-10 * (1.0 + abs(gap)):
        raise InternalConsistencyError(
            f"bridge slope integrates to {integral}, expected the radius gap {gap}")
    return bridge


# ---------------------------------------------------------------------------
# Variable-radius mollification
# ---------------------------------------------------------------------------

def _mollifier_norm() -> float:
    global _MOLLIFIER_NORM
    if _MOLLIFIER_NORM is None:
        val, _ = quad(lambda s: math.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0,
                      epsabs=1e-15, epsrel=1e-13)
        _MOLLIFIER_NORM = 1.0 / val
    return _MOLLIFIER_NORM


def _bump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    inner = np.abs(s) < 1.0
    out[inner] = np.exp(-1.0 / (1.0 - s[inner] ** 2))
    return _mollifier_norm() * out


class _Cutoff:
    """Smooth cutoff: 0 on the outer halves, 1 on a plateau around the gap."""

    def __init__(self, mid1, b1, a2, mid2):
        self.mid1, self.mid2 = mid1, mid2
        self.plateau = min(b1 - mid1, mid2 - a2) / 4.0
        self.lo_hi = b1 - self.plateau
        self.hi_lo = a2 + self.plateau
        self.w_l = self.lo_hi - mid1
        self.w_r = mid2 - self.hi_lo

    def value(self, t):
        t = np.asarray(t, dtype=float)
        rising = smooth_step((t - self.mid1) / self.w_l)
        falling = smooth_step((self.mid2 - t) / self.w_r)
        return np.minimum(rising, falling)

    def derivatives(self, t):
        """First and second derivative at t (scalar or array); every value
        is the same whether t comes alone or inside an array."""
        t = np.asarray(t, dtype=float)
        rising = t < self.lo_hi
        width = np.where(rising, self.w_l, self.w_r)
        x = np.where(rising, t - self.mid1, self.mid2 - t) / width
        d1 = smooth_step_d1(x) / width
        return np.where(rising, d1, -d1), smooth_step_d2(x) / (width * width)


def _gl_panels(lo: float, hi: float, breaks, nodes, weights):
    """Gauss nodes and weights on [lo, hi] split at the interior breaks."""
    edges = [lo] + [b for b in sorted(breaks) if lo < b < hi] + [hi]
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(half * nodes + 0.5 * (a + b))
        ws.append(half * weights)
    return np.concatenate(xs), np.concatenate(ws)


def _mollified_points(bridge: BridgedProfile, cutoff: _Cutoff, eps: float, ts):
    """Values (f, f', f'') of the variable-radius mollification at points ts.

    The Gauss nodes of every point go through a single bridge evaluation,
    and the cutoff derivatives of all partial-cutoff points through a single
    call.  The weighted sums stay per-point 1-D dot products, because a
    batched product rounds differently; every value equals the
    one-point-at-a-time value bit for bit.
    """
    ts = np.asarray(ts, dtype=float)
    etas = cutoff.value(ts)
    partial = (etas > 0.0) & (etas < 1.0)
    detas, d2etas = np.zeros_like(ts), np.zeros_like(ts)
    detas[partial], d2etas[partial] = cutoff.derivatives(ts[partial])
    xs64, ws64 = _GL64
    phi64 = _bump(xs64) * ws64
    phis, args = [], []
    for t, eta in zip(ts, etas):
        radius = eps * eta
        if radius == 0.0:
            phi = None
            args.append(np.array([t]))
        elif eta >= 1.0:
            breaks = [(t - j) / eps for j in bridge.junctions]
            xs, ws = _gl_panels(-1.0, 1.0, breaks, *_GL64)
            phi = _bump(xs) * ws
            args.append(t - eps * xs)
        else:
            phi = phi64
            args.append(t - radius * xs64)
        phis.append(phi)
    fv, dfv, d2fv = bridge.evaluate(np.concatenate(args))

    out = np.empty((3, ts.size))
    start = 0
    for i, (eta, phi, arg) in enumerate(zip(etas, phis, args)):
        f, df, d2f = (v[start:start + arg.size] for v in (fv, dfv, d2fv))
        start += arg.size
        if phi is None:
            out[:, i] = f[0], df[0], d2f[0]
        elif eta >= 1.0:
            out[:, i] = f @ phi, df @ phi, d2f @ phi
        else:
            deta, d2eta = detas[i], d2etas[i]
            chain = 1.0 - eps * deta * xs64
            out[:, i] = (f @ phi, (df * chain) @ phi,
                         (d2f * chain ** 2 - df * eps * d2eta * xs64) @ phi)
    return out


_FD1_6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_FD2_6 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def _fd_crosscheck(t, h, values, df_ref, d2f_ref, fmax):
    """Compare analytic mollified derivatives at t against sixth-order
    stencils of the mollified values at t + (-3..3) h."""
    fd1 = float(_FD1_6 @ values) / h
    fd2 = float(_FD2_6 @ values) / (h * h)
    round1 = 8.0 * np.finfo(float).eps * fmax / h
    round2 = 8.0 * np.finfo(float).eps * fmax / (h * h)
    tol1 = 1e-5 * (1.0 + abs(df_ref)) + round1
    tol2 = 1e-5 * (1.0 + abs(d2f_ref)) + round2
    if abs(fd1 - df_ref) > tol1 or abs(fd2 - d2f_ref) > tol2:
        raise InternalConsistencyError(
            "mollified derivatives disagree with finite differences at "
            f"t={t}: f' {fd1} vs {df_ref}, f'' {fd2} vs {d2f_ref}")


def _margin_floor(bridge: BridgedProfile, n: int, q: float, lam: float) -> float:
    """Infimum of the margin over the join, excluding the two junction points."""
    worst = math.inf
    for lo, hi, sl in ((bridge.a1, bridge.b1, np.s_[:-1]),
                       (bridge.b1, bridge.a2, np.s_[1:-1]),
                       (bridge.a2, bridge.b2, np.s_[1:])):
        ss = np.linspace(lo, hi, 2049)[sl]
        f, df, d2f = bridge.evaluate(ss)
        worst = min(worst, float(np.min(_margin_arrays(n, q, lam, f, df, d2f))))
    return worst


def mollify_and_certify(bridge: BridgedProfile, q: float, lam: float,
                        n: int) -> SampledProfile:
    """Smooth the C^{1,1} join into a certified strictly-DEC profile.

    The mollification radius is eps scaled by a smooth cutoff that vanishes
    on the outer half-intervals, so the output reproduces both inputs there
    sample-exactly, and equals the plain eps-mollification on a plateau
    around the bridge.  The margin infimum of the join away from the two
    junction points sets a floor 3d > 0; eps is halved until the smoothed
    profile stays C^1-close to the join and keeps margin >= d/2 everywhere.
    Each eps evaluates all of its points in one batch, and the output is bit
    for bit the one of a point-by-point evaluation.
    """
    a1, b1, a2, b2 = bridge.a1, bridge.b1, bridge.a2, bridge.b2
    mid1 = 0.5 * (a1 + b1)
    mid2 = 0.5 * (a2 + b2)
    cutoff = _Cutoff(mid1, b1, a2, mid2)

    floor3 = _margin_floor(bridge, n, q, lam)
    if floor3 <= 0.0:
        raise PreconditionError(
            f"margin floor off the junctions is {floor3}; the join must be "
            "strictly DEC away from the junction points before smoothing")
    d = floor3 / 3.0

    left_keep = bridge.left.s_grid <= mid1
    right_keep = bridge.right.s_grid >= mid2
    seg1 = np.linspace(mid1, b1, 257)
    seg2 = np.linspace(b1, a2, 257)
    seg3 = np.linspace(a2, mid2, 257)
    middle = np.concatenate([seg1, seg2[1:], seg3[1:]])
    left_last = float(bridge.left.s_grid[left_keep][-1])
    right_first = float(bridge.right.s_grid[right_keep][0])
    middle = middle[(middle > left_last) & (middle < right_first)]

    ft, dft, d2ft = bridge.evaluate(middle)
    fmax = float(np.max(np.abs(ft)))
    tol_val = 0.01 * (1.0 + fmax)
    tol_slope = 0.02 * (1.0 + float(np.max(np.abs(dft))))
    monotone = float(np.min(bridge.left.df)) > 0.0 and float(np.min(bridge.right.df)) > 0.0
    # Three points in each cutoff band, each followed by its seven stencil
    # points, cross-check the analytic derivatives of the mollification.
    checks = []
    for band_lo, band_hi in ((mid1, cutoff.lo_hi), (cutoff.hi_lo, mid2)):
        width = band_hi - band_lo
        checks += [(band_lo + frac * width, width / 64.0)
                   for frac in (0.35, 0.5, 0.65)]
    points = np.concatenate(
        [middle] + [[t, *(t + (np.arange(7) - 3) * h)] for t, h in checks])

    eps = 0.5 * min(cutoff.plateau, mid1 - a1, b2 - mid2)
    eps_floor = (b2 - a1) * 2.0 ** -30
    trace = []
    while eps >= eps_floor:
        values = _mollified_points(bridge, cutoff, eps, points)
        fm, dfm, d2fm = values[:, :middle.size]
        for j, (t, h) in enumerate(checks):
            at = middle.size + 8 * j
            _fd_crosscheck(t, h, values[0, at + 1:at + 8], values[1, at],
                           values[2, at], fmax)

        margins = _margin_arrays(n, q, lam, fm, dfm, d2fm)
        min_margin = float(np.min(margins))
        close = (float(np.max(np.abs(fm - ft))) <= tol_val
                 and float(np.max(np.abs(dfm - dft))) <= tol_slope)
        positive_slope = (not monotone) or float(np.min(dfm)) > 0.0
        if min_margin >= 0.5 * d and close and positive_slope:
            s_grid = np.concatenate([bridge.left.s_grid[left_keep], middle,
                                     bridge.right.s_grid[right_keep]])
            f = np.concatenate([bridge.left.f[left_keep], fm,
                                bridge.right.f[right_keep]])
            df = np.concatenate([bridge.left.df[left_keep], dfm,
                                 bridge.right.df[right_keep]])
            d2f = np.concatenate([bridge.left.d2f[left_keep], d2fm,
                                  bridge.right.d2f[right_keep]])
            provenance = np.concatenate([
                bridge.left.provenance[left_keep],
                np.array(["mollified"] * middle.size),
                bridge.right.provenance[right_keep]])
            return SampledProfile(s_grid, f, df, d2f, provenance, charge=q)
        trace.append({"epsilon": eps, "min_margin": min_margin,
                      "worst_s": float(middle[int(np.argmin(margins))]),
                      "c1_close": close})
        eps *= 0.5

    raise ConstructionError(
        "no mollification radius certified the margin floor",
        {"d": d, "margin_trace": trace})


# ---------------------------------------------------------------------------
# Bending a model tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BendResult:
    """A model profile bent below a station s0, identity beyond it.

    delta is the width of the bent band [s0 - delta, s0); sigma holds the
    reparametrization samples at the profile grid (sigma(s) = s beyond s0);
    scale is the length scale of the deformation bump; min_margin is the
    smallest certified margin among band samples with a nonzero deformation.
    """

    delta: float
    profile: SampledProfile
    sigma: np.ndarray
    s0: float
    scale: float
    min_margin: float


def _deformation(scale: float, s0: float):
    """Closures sigma, sigma', sigma'' of the bend reparametrization.

    sigma(s) = s - G(s0 - s) with G(y) the integral of exp(-(scale/x)^2)
    from 0 to y, evaluated in closed form via the complementary error
    function; sigma is smooth, increasing, below the identity on s < s0 and
    exactly the identity beyond.
    """
    root_pi = math.sqrt(math.pi)

    def g_int(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        pos = y > 0.0
        z = scale / y[pos]
        out[pos] = y[pos] * np.exp(-z * z) - scale * root_pi * erfc(z)
        return out

    def sigma(s):
        s = np.asarray(s, dtype=float)
        return s - g_int(s0 - s)

    def sigma_dot(s):
        s = np.asarray(s, dtype=float)
        y = s0 - s
        out = np.ones_like(y)
        pos = y > 0.0
        out[pos] += np.exp(-((scale / y[pos]) ** 2))
        return out

    def sigma_ddot(s):
        s = np.asarray(s, dtype=float)
        y = s0 - s
        out = np.zeros_like(y)
        pos = y > 0.0
        out[pos] = -2.0 * scale * scale * np.exp(-((scale / y[pos]) ** 2)) / y[pos] ** 3
        return out

    return sigma, sigma_dot, sigma_ddot


def _bend_certificate(params, base_eval, sigma_fns, s_band):
    """Margins on the bent band by two routes.

    The direct route evaluates Omega - f'' on the composed profile.  The
    closed route uses the algebraic identity that on an exactly saturated
    base profile the margin reduces to

        -(1 - sigma'^2) * (n-1) h(f)/(2 f^(2n-1)) - (f' o sigma) * sigma''

    whose first term is negative and second positive; both vanish with the
    deformation.  The two must agree to rounding, and the closed form must
    be strictly positive wherever the deformation is numerically nonzero.
    """
    sigma, sigma_dot, sigma_ddot = sigma_fns
    n = params.n
    sig = sigma(s_band)
    sdot = sigma_dot(s_band)
    sddot = sigma_ddot(s_band)
    u, du, d2u = base_eval(sig)
    f = u
    df = du * sdot
    d2f = d2u * sdot ** 2 + du * sddot
    direct = _margin_arrays(n, params.q, params.lam, f, df, d2f)
    bump = sdot - 1.0
    h = eval_h(params, f)
    closed = (-bump * (2.0 + bump) * (n - 1) * h / (2.0 * f ** (2 * n - 1))
              - du * sddot)
    return f, df, d2f, direct, closed, bump


def bend(params: RNParams, s0: float, alpha: float | None = None,
         slope_cap: float | None = None, *,
         profile: SampledProfile | None = None) -> BendResult:
    """Bend a model radial profile concavely below the station s0.

    The profile is the model profile of params, from rn_profile or
    rn_profile_mu, extending beyond s0; by default rn_profile on
    [0, s0 + 5].  It is composed with a reparametrization that runs slower
    than arclength on [s0 - delta, s0) and is the identity beyond, which
    lowers the radius and slope approaching s0 from the left while the strong
    concavity keeps the margin strictly positive on the band.  delta is
    halved until the certificate holds; when requested the bent start value
    stays above alpha and the bent start slope below slope_cap (and below
    the unbent slope at s0 whenever the profile is convex there).
    """
    s0 = float(s0)
    if s0 <= 0.0:
        raise DomainError(f"bend station must be positive, got {s0}")
    base = rn_profile(params, s0 + 5.0) if profile is None else profile
    s_max = float(base.s_grid[-1])
    if s_max <= s0:
        raise DomainError("profile must extend beyond the bend station")
    base_eval = base.evaluator
    _, du0, d2u0 = (float(v) for v in base_eval(s0))
    if du0 <= 0.0:
        raise PreconditionError(
            f"profile slope at the bend station must be positive, got {du0}")
    caps = []
    if slope_cap is not None:
        caps.append(float(slope_cap))
    if d2u0 > 0.0:
        caps.append(du0)
    cap = min(caps) if caps else None

    trace = []
    delta = 0.5 * s0
    while delta >= s0 * 2.0 ** -30:
        _, du_start, _ = (float(v) for v in base_eval(s0 - delta))
        if cap is not None:
            headroom = cap / max(du_start, 1e-300) - 1.0
            if headroom <= 0.0:
                trace.append({"delta": delta, "reason": "no slope headroom"})
                delta *= 0.5
                continue
            bump_target = min(0.3, 0.5 * headroom)
        else:
            bump_target = 0.3
        scale = delta * math.sqrt(-math.log(bump_target))
        sigma_fns = _deformation(scale, s0)
        if float(sigma_fns[0](np.array([s0 - delta]))[0]) < float(base.s_grid[0]):
            trace.append({"delta": delta, "reason": "band leaves the profile domain"})
            delta *= 0.5
            continue

        band = np.linspace(s0 - delta, s0, 1025)
        f, df, d2f, direct, closed, bump = _bend_certificate(
            params, base_eval, sigma_fns, band)
        active = bump > 0.0
        agree_tol = 1e-8 * (1.0 + float(np.max(np.abs(d2f))) + float(np.max(np.abs(direct))))
        reasons = []
        if np.any(np.abs(direct - closed) > agree_tol):
            raise InternalConsistencyError(
                "bend margin routes disagree beyond rounding: "
                f"max difference {float(np.max(np.abs(direct - closed)))}")
        if np.any(closed[active] <= 0.0):
            reasons.append("nonpositive margin on the deformed band")
        if np.any(np.abs(direct[~active]) > 1e-9):
            reasons.append("saturation tolerance exceeded where the bend vanishes")
        if alpha is not None and not f[0] > alpha + 1e-10 * (1.0 + abs(alpha)):
            reasons.append("band start value at or below alpha")
        if cap is not None and not df[0] < cap:
            reasons.append("band start slope at or above the cap")
        if not float(np.min(df)) > 0.0:
            reasons.append("bent slope loses positivity")
        if not reasons:
            tail = np.linspace(s0, s_max, 2049)[1:]
            grid = np.concatenate([band, tail])
            ut, dut, d2ut = base_eval(tail)
            f_all = np.concatenate([f, ut])
            df_all = np.concatenate([df, dut])
            d2f_all = np.concatenate([d2f, d2ut])
            provenance = np.concatenate([
                np.array(["bent"] * band.size), np.array(["ode"] * tail.size)])
            sigma_samples = sigma_fns[0](grid)

            def evaluate(s, _sig=sigma_fns, _ev=base_eval, _s0=s0):
                s = np.asarray(s, dtype=float)
                sig = _sig[0](s)
                sdot = _sig[1](s)
                sddot = _sig[2](s)
                u, du, d2u = _ev(sig)
                return u, du * sdot, d2u * sdot ** 2 + du * sddot

            profile = SampledProfile(grid, f_all, df_all, d2f_all, provenance,
                                     charge=params.q, evaluator=evaluate)
            min_margin = float(np.min(closed[active])) if np.any(active) else 0.0
            return BendResult(delta=delta, profile=profile, sigma=sigma_samples,
                              s0=s0, scale=scale, min_margin=min_margin)
        trace.append({"delta": delta, "scale": scale,
                      "min_margin": float(np.min(closed[active])) if np.any(active) else None,
                      "reason": "; ".join(reasons)})
        delta *= 0.5

    raise ConstructionError("no band width certified the bend", {"trace": trace})


# ---------------------------------------------------------------------------
# Gluing a collar tail to a model end
# ---------------------------------------------------------------------------

def _locate_station(params, start, f_b, df_b, in_image):
    """Pick the radius r_C of the station where bending will start.

    The model slope at radius r is sqrt(p(r)), so the station is found in
    radius.  In-image: shoot the radius target f_b + eps downward in eps
    until the slope there falls strictly below the tail slope.  Out of
    image: the radius beyond the profile start where the slope reaches a
    fixed fraction of the tail slope, which exists because the slope grows
    continuously from its value at the start.
    """
    def slope(r):
        return math.sqrt(max(float(eval_p(params, r)), 0.0))

    if in_image:
        target = df_b * (1.0 - 1e-6)
        eps = 0.25 * f_b
        for _ in range(50):
            if 0.0 < slope(f_b + eps) <= target:
                return f_b + eps
            eps *= 0.5
        raise ConstructionError(
            "radius shooting found no station with slope below the tail slope",
            {"tail_slope": df_b, "last_epsilon": eps})

    target = 0.55 * df_b
    if not slope(start) < target:
        raise ConstructionError(
            "profile starts with slope above the matching target",
            {"target": target})
    width = start
    for _ in range(40):
        if slope(start + width) > target:
            return brentq(lambda r: float(eval_p(params, r)) - target * target,
                          start, start + width, xtol=1e-14, rtol=8.9e-16)
        width *= 2.0
    raise ConstructionError(
        "profile slope never reaches the matching target",
        {"target": target, "r_max": start + width})


def glue_to_rn(n: int, collar_tail: SampledProfile, m_star: float, m_e: float,
               q_e: float, lam: float):
    """Graft a model end of mass m_e and charge q_e onto a collar tail.

    The tail must end with positive slope and Hawking mass m_star at or
    above the junction mass floor; the end parameters must dominate the tail
    (m_e >= m_star and q_e^2 <= q^2, strictly in at least one).  The
    station radius is chosen so radius and slope can be matched from below;
    one model profile for (m_e, q_e, lam) is sampled from its start to the
    cut past the station and bent below the station, the bent piece is
    bridged to the tail and mollified with target charge q_e, and the
    untouched model tail is reattached beyond the surgery.  Returns the combined profile and an
    attachment record with the matching radius r_C and station s_match
    beyond which the output is exactly the model profile.
    """
    if int(n) != n or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    n = int(n)
    q = float(collar_tail.charge)
    m_star, m_e, q_e, lam = (float(v) for v in (m_star, m_e, q_e, lam))
    b1 = float(collar_tail.s_grid[-1])
    f_b = float(collar_tail.f[-1])
    df_b = float(collar_tail.df[-1])
    if df_b <= 0.0:
        raise PreconditionError(
            f"collar tail must end with positive slope, got {df_b}")
    m_check = hawking_rotsym(n, q, lam, f_b, df_b)
    if abs(m_star - m_check) > 1e-8 * (1.0 + abs(m_star)):
        raise PreconditionError(
            f"declared tail mass {m_star} disagrees with the Hawking mass "
            f"{m_check} of the tail end")
    floor = junction_mass_floor(n, q, lam, f_b)
    scale_f = 1.0 + abs(floor)
    if m_star < floor - 1e-12 * scale_f:
        raise PreconditionError(
            f"tail mass {m_star} lies below the junction mass floor {floor}")
    on_floor = abs(m_star - floor) <= _EQUALITY_TOL * scale_f
    if not (m_e >= m_star and q_e * q_e <= q * q):
        raise PreconditionError(
            "end parameters must dominate the tail: need m_e >= m_star and "
            f"q_e^2 <= q^2, got m_e={m_e}, m_star={m_star}, q_e={q_e}, q={q}")
    if not (m_e > m_star or q_e * q_e < q * q):
        raise PreconditionError(
            "end parameters must dominate the tail strictly in mass or charge")
    if on_floor and not q_e * q_e < q * q:
        raise PreconditionError(
            "tail mass sits exactly on the junction floor; the end charge "
            "must then satisfy q_e^2 < q^2")

    params_e = RNParams(n, m_e, q_e, lam)
    cls = classify(params_e)
    if cls.kind == SUB_EXTREMAL:
        mu = None
        in_image = f_b >= cls.r_plus
    elif cls.kind == EXTREMAL:
        if f_b > cls.r_plus:
            mu = f_b
            in_image = True
        else:
            mu = None
            for j in range(1, 61):
                cand = cls.r_plus * (1.0 + 2.0 ** -j)
                if (float(eval_p(params_e, cand)) > 0.0
                        and math.sqrt(float(eval_p(params_e, cand))) <= 0.5 * df_b):
                    mu = cand
                    break
            if mu is None:
                raise ConstructionError(
                    "no start radius near the degenerate horizon matches the "
                    "tail slope", {"tail_slope": df_b, "r_plus": cls.r_plus})
            in_image = False
    else:
        mu = f_b
        in_image = True

    r_c = _locate_station(params_e, cls.r_plus if mu is None else mu,
                          f_b, df_b, in_image)
    if not r_c > f_b:
        raise InternalConsistencyError(
            f"station radius {r_c} does not exceed the tail radius {f_b}")

    # The model end runs 4 max(1, r_C) beyond the station in arclength, but
    # no further than that beyond r_C in radius: where the radius grows
    # exponentially (lam < 0) the far-end mass f^(n-1)(p(f) - f'^2)/2 would
    # otherwise cancel to no digits.  For lam = 0, f' < 1 and the radius
    # bound never binds.
    reach = 4.0 * max(1.0, r_c)
    s0, s_reach = (float(s) for s in
                   model_arclength(params_e, [r_c, r_c + reach], mu))
    s_cut = min(s0 + reach, s_reach)
    if mu is None:
        model = rn_profile(params_e, s_cut)
    else:
        model = rn_profile_mu(params_e, mu, s_cut)
    bend_res = bend(params_e, s0, alpha=f_b, slope_cap=df_b, profile=model)
    delta = bend_res.delta
    s1 = s0 - 0.5 * delta
    piece = np.linspace(s0 - delta, s1, 257)
    pf, pdf, pd2f = bend_res.profile.evaluator(piece)
    right = SampledProfile(piece, pf, pdf, pd2f,
                           np.array(["bent"] * piece.size),
                           charge=q_e, evaluator=bend_res.profile.evaluator)

    inputs = GlueInputs(n, collar_tail, right, lam, q_e)
    shifted, shift = translate_right_interval(inputs)
    bridge = build_bridge(inputs, shifted)
    glued = mollify_and_certify(bridge, q_e, lam, n)

    b2s = float(glued.s_grid[-1])
    attach = np.linspace(b2s, s_cut + shift, 1025)[1:]
    af, adf, ad2f = bend_res.profile.evaluator(attach - shift)
    attach_prov = np.where(attach - shift < s0, "bent", "ode")
    s_grid = np.concatenate([glued.s_grid, attach])
    f = np.concatenate([glued.f, af])
    df = np.concatenate([glued.df, adf])
    d2f = np.concatenate([glued.d2f, ad2f])
    provenance = np.concatenate([glued.provenance, attach_prov])
    combined = SampledProfile(s_grid, f, df, d2f, provenance, charge=q_e)

    far_mass = hawking_rotsym(n, q_e, lam, float(f[-1]), float(df[-1]))
    if abs(far_mass - m_e) > 1e-8 * (1.0 + abs(m_e)):
        raise VerificationError(
            f"far-end Hawking mass {far_mass} does not reproduce the end "
            f"mass {m_e}")
    margins = dec_margin_operator(n, q_e, lam, combined)
    s_match = s0 + shift
    strict_hi = s_match - bend_res.scale / 5.0
    strict = s_grid < strict_hi
    if np.any(margins[strict] <= 0.0):
        worst = int(np.argmin(np.where(strict, margins, np.inf)))
        raise VerificationError(
            f"margin {margins[worst]} at s={s_grid[worst]} is not strictly "
            "positive inside the surgery region")
    if np.any(margins[~strict] < -1e-9):
        worst = int(np.argmin(np.where(~strict, margins, np.inf)))
        raise VerificationError(
            f"margin {margins[worst]} at s={s_grid[worst]} violates the "
            "saturation tolerance on the model end")

    record = {"m_e": m_e, "q_e": q_e, "lambda": lam,
              "r_C": r_c, "s_match": s_match}
    return combined, record
