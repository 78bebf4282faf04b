"""Surgery on rotationally symmetric radial profiles.

Profiles enter as warped-product radii f(s) over an arclength interval; the
strict dominant energy condition is the pointwise inequality

    Omega[f] = (n-1)/(2f) * (h(f)/f^(2(n-1)) - f'^2) > f''

with h the companion polynomial of the model family.  This module joins two
such profiles across a gap (a monotone bridge, whose junctions are then
blended in f'' and certified against a margin floor), bends a model tail so its
radius and slope can be matched from below, and combines the two to graft a
model end of prescribed mass and charge onto a collar tail.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebint

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
    ExtremalityClass,
    RNParams,
    SampledProfile,
    _p_beyond_root,
    _profile_arclength,
    classify,
    eval_h,
    model_arclength,
    radial_coordinate,
    rn_profile,
    rn_profile_mu,
)
from .numutil import (
    _smooth_step_jet,
    brent_root,
    dct1,
    erfc,
    simpson_uniform,
    smooth_step,
)
from .quasilocal import hawking_rotsym

__all__ = [
    "GlueInputs",
    "BendResult",
    "dec_margin_operator",
    "junction_mass_floor",
    "BridgedProfile",
    "build_bridge",
    "mollify_and_certify",
    "bend",
    "glue_to_rn",
    "glue_bent_model",
]

_EQUALITY_TOL = 1e-9


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
    Each profile carries its dense evaluator, which the join reads between
    and beyond its samples.
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
        for side, profile in (("left", self.left), ("right", self.right)):
            if profile.evaluator is None:
                raise DomainError(f"{side} profile carries no dense evaluator")
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
# The join: a bridge between two pieces, blended into each
# ---------------------------------------------------------------------------

def _shift_profile(profile: SampledProfile, shift: float) -> SampledProfile:
    base = profile.evaluator

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


# The step's integral is tabulated at the knots j / 2^14 of [0, 1].
_ISTEP_INTERVALS = 2 ** 14


@functools.cache
def _istep_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knots of [0, 1], the running integral of smooth_step at them and the
    slope of each knot interval, shared by every bridge."""
    xs = np.linspace(0.0, 1.0, _ISTEP_INTERVALS + 1)
    values = _cumulative_simpson(smooth_step(xs), xs[1])
    table = (xs, values, np.diff(values) / np.diff(xs))
    for array in table:
        array.flags.writeable = False
    return table


# Chebyshev-Lobatto points cos(pi k / 128), k = 0..128, of the blend zones,
# written as sines so that the set is exactly symmetric about its middle
# point, which is exactly 0.
_ZONE_DEGREE = 128
_LOBATTO = np.sin(np.pi * np.arange(_ZONE_DEGREE, -_ZONE_DEGREE - 1, -2)
                  / (2 * _ZONE_DEGREE))


def _zone_weight(x, outer: float):
    """Blend weight at x = (s - mid) / width of a zone: 1 at its outer end
    x = outer, 0 at its inner end x = -outer, smooth_step between."""
    return smooth_step(0.5 * (1.0 + outer * x))


@dataclass(frozen=True)
class _Zone:
    """A junction zone [mid - width, mid + width] across which f'' blends
    from a piece into the bridge.

    f'' is the weight of :func:`_zone_weight` times the piece's f'', read
    through the piece's evaluator; f' and f are the Chebyshev series of f''
    on the Lobatto points, integrated once and twice from the piece's values
    at the outer end.  The series are in x = (s - mid) / width, so a zone
    moves with its piece by a new mid and evaluator.
    """

    evaluate: object
    mid: float
    width: float
    outer: float
    series: np.ndarray

    @classmethod
    def build(cls, evaluate, mid: float, width: float, outer: float) -> "_Zone":
        f, df, d2f = evaluate(mid + width * _LOBATTO)
        end = 0 if outer > 0.0 else -1
        d2f_series = dct1(_zone_weight(_LOBATTO, outer) * d2f) / _ZONE_DEGREE
        d2f_series[[0, -1]] *= 0.5
        df_series = chebint(d2f_series, k=float(df[end]), lbnd=outer, scl=width)
        f_series = chebint(df_series, k=float(f[end]), lbnd=outer, scl=width)
        # Rows f, f' over T_0..T_130; f' has no T_130 term.
        series = np.zeros((2, f_series.size))
        series[0], series[1, :-1] = f_series, df_series
        return cls(evaluate, mid, width, outer, series)

    def inner(self) -> tuple[float, float]:
        """(f, f') at the inner end x = -outer, where T_j = (-outer)^j and
        the bridge takes over."""
        f, df = self.series @ (-self.outer) ** np.arange(self.series.shape[1])
        return float(f), float(df)

    def values(self, s):
        """(f, f', f'') at points s of the zone.  The series are summed
        over T_j(x) = cos(j arccos x) point by point, so a value does not
        depend on the other points."""
        x = (s - self.mid) / self.width
        d2f = _zone_weight(x, self.outer) * self.evaluate(s)[2]
        chebyshev = np.cos(np.multiply.outer(np.arccos(np.clip(x, -1.0, 1.0)),
                                             np.arange(self.series.shape[1])))
        f, df = ((chebyshev * row).sum(axis=-1) for row in self.series)
        return f, df, d2f


@dataclass(eq=False)
class BridgedProfile:
    """A join: left piece, bridge, right piece translated by shift.

    The bridge runs from radius f_start and slope c1 = slope_left at
    start = b1 + width to slope c2 = slope_right at end = a2 - width.  Its
    slope is zeta(s) = c2 + (c1 - c2) * psi(tau) with psi a smooth unit step
    falling from 1 to 0 across the band [x_c - rho, x_c + rho] of (0, 1),
    and its radius is the running integral of zeta, so f'' vanishes near
    both of its ends.  With width 0 the bridge meets the pieces' end
    samples, a C^{1,1} join (:func:`build_bridge`); otherwise each junction
    is a blend zone of that half-width (:class:`_Zone`) and the join is
    C^infinity.  piece is the right piece before its translation.
    """

    left: SampledProfile
    right: SampledProfile
    piece: SampledProfile
    shift: float
    f_start: float
    slope_left: float
    slope_right: float
    width: float = 0.0
    zones: tuple = ()

    x_c = 0.5
    rho = 0.475

    @property
    def a1(self) -> float:
        return float(self.left.s_grid[0])

    @property
    def b1(self) -> float:
        return float(self.left.s_grid[-1])

    @property
    def a2(self) -> float:
        return float(self.right.s_grid[0])

    @property
    def b2(self) -> float:
        return float(self.right.s_grid[-1])

    @property
    def start(self) -> float:
        return self.b1 + self.width

    @property
    def end(self) -> float:
        return self.a2 - self.width

    @property
    def length(self) -> float:
        return self.end - self.start

    def _step_arg(self, tau):
        return (tau - (self.x_c - self.rho)) / (2.0 * self.rho)

    def zeta(self, s):
        tau = (np.asarray(s, dtype=float) - self.start) / self.length
        psi = 1.0 - smooth_step(self._step_arg(tau))
        return self.slope_right + (self.slope_left - self.slope_right) * psi

    @staticmethod
    def _istep(w):
        """Integral of smooth_step from 0 to w: at the w inside (0, 1) the
        shared table's linear interpolation, whose knot interval is
        floor(w 2^14) and whose value is the one np.interp gives bit for
        bit."""
        w = np.asarray(w, dtype=float)
        out = np.where(w >= 1.0, w - 0.5, 0.0)
        inner = (w > 0.0) & (w < 1.0)
        w = w[inner]
        xs, values, slopes = _istep_table()
        j = (w * _ISTEP_INTERVALS).astype(np.intp)
        out[inner] = slopes[j] * (w - xs[j]) + values[j]
        return out

    def _bridge_values(self, s):
        """(f, f', f'') on the bridge; the step's jet, whose temporaries
        are the largest, is taken while the fewest arrays are alive."""
        tau = (s - self.start) / self.length
        w = self._step_arg(tau)
        dc = self.slope_left - self.slope_right
        step, dstep = _smooth_step_jet(w, 1)
        df = self.slope_right + dc * (1.0 - step)
        d2f = -dc * dstep / (2.0 * self.rho * self.length)
        del step, dstep
        psi_integral = tau - 2.0 * self.rho * self._istep(w)
        f = self.f_start + self.length * (self.slope_right * tau + dc * psi_integral)
        return f, df, d2f

    def evaluate(self, s):
        """Piecewise values (f, f', f'') across left piece, zones, bridge
        and right piece, as the rows of one array; each part takes all of
        its points in one call, and its values are written into the rows
        one at a time."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty((3,) + s.shape)
        left, right = s <= self.b1 - self.width, s >= self.a2 + self.width
        middle = ~(left | right)
        parts = [(left, self.left.evaluator), (right, self.right.evaluator)]
        if self.zones:
            near = middle & (s < self.start)
            far = middle & (s > self.end)
            middle &= ~(near | far)
            parts += [(near, self.zones[0].values), (far, self.zones[1].values)]
        for mask, values in parts + [(middle, self._bridge_values)]:
            if mask.any():
                _scatter_rows(out, mask, values(s[mask]))
        return out


def _scatter_rows(out, mask, rows) -> None:
    """out[i][mask] = rows[i] for each row; the rows are released on return."""
    for target, row in zip(out, rows):
        target[mask] = row


def _close(left: SampledProfile, piece: SampledProfile, f_start: float, c1: float,
           f_end: float, c2: float, width: float = 0.0, zones=()) -> BridgedProfile:
    """Bridge (f_start, c1) at b1 + width to (f_end, c2), translating the
    right piece so that the bridge has length 2 (f_end - f_start) / (c1 + c2).

    The step is centered at x_c = 1/2 and symmetric about it, so the bridge
    slope averages (c1 + c2) / 2 and integrates to the radius gap.  zones
    are in the pieces' own coordinates; the right one moves with its piece.
    """
    length = 2.0 * (f_end - f_start) / (c1 + c2)
    b1 = float(left.s_grid[-1])
    shift = (b1 + width + length + width) - float(piece.s_grid[0])
    right = _shift_profile(piece, shift)
    if zones:
        zones = (zones[0], dataclasses.replace(
            zones[1], evaluate=right.evaluator, mid=float(right.s_grid[0])))
    return BridgedProfile(left, right, piece, shift, f_start, c1, c2, width, zones)


def build_bridge(inputs: GlueInputs) -> BridgedProfile:
    """Join the two pieces of inputs by a C^{1,1} bridge.

    The bridge meets the pieces' end samples, and the right piece is
    translated to the closed-form length of :func:`_close`; the bridge slope
    is re-integrated numerically as an independent confirmation.
    """
    c1 = inputs.slope_left
    if c1 <= 0.0:
        raise InternalConsistencyError(
            "left end slope must be positive to bridge a positive radius gap")
    bridge = _close(inputs.left, inputs.right, inputs.f1_b1, c1,
                    inputs.f2_a2, inputs.slope_right)
    gap = inputs.f2_a2 - inputs.f1_b1
    ss = np.linspace(bridge.b1, bridge.a2, 4097)
    integral = simpson_uniform(bridge.zeta(ss), ss[1] - ss[0])
    if abs(integral - gap) > 1e-10 * (1.0 + abs(gap)):
        raise InternalConsistencyError(
            f"bridge slope integrates to {integral}, expected the radius gap {gap}")
    return bridge


def _blend(bridge: BridgedProfile, width: float) -> BridgedProfile | None:
    """The join of bridge's pieces with a blend zone of half-width width at
    each junction, re-closed by a bridge between the zones' inner ends;
    None when the zones' inner ends leave no bridge of positive length."""
    zones = (_Zone.build(bridge.left.evaluator, bridge.b1, width, -1.0),
             _Zone.build(bridge.piece.evaluator, float(bridge.piece.s_grid[0]),
                         width, 1.0))
    (f_start, c1), (f_end, c2) = (zone.inner() for zone in zones)
    if not (f_end > f_start and c1 + c2 > 0.0):
        return None
    return _close(bridge.left, bridge.piece, f_start, c1, f_end, c2, width, zones)


def _margin_floor(bridge: BridgedProfile, n: int, q: float, lam: float) -> float:
    """Infimum of the margin over the join, excluding the two junction points.

    The three segments' samples take one evaluation and one minimum, which
    is NaN when any margin is."""
    segments = [np.linspace(lo, hi, 2049)[sl]
                for lo, hi, sl in ((bridge.a1, bridge.b1, np.s_[:-1]),
                                   (bridge.b1, bridge.a2, np.s_[1:-1]),
                                   (bridge.a2, bridge.b2, np.s_[1:]))]
    margins = _margin_arrays(n, q, lam, *bridge.evaluate(np.concatenate(segments)))
    return float(np.min(margins))


def _join_samples(join: BridgedProfile):
    """The kept samples of each piece, outside its half nearest the
    bridge, and the points between them: a 257-point grid on each of
    [mid1, b1], [b1, a2] and [a2, mid2], and the zones' Lobatto points."""
    mid1 = 0.5 * (join.a1 + join.b1)
    mid2 = 0.5 * (join.a2 + join.b2)
    left_keep = join.left.s_grid <= mid1
    right_keep = join.right.s_grid >= mid2
    seg1 = np.linspace(mid1, join.b1, 257)
    seg3 = np.linspace(join.a2, mid2, 257)
    middle = np.unique(np.concatenate(
        [seg1, np.linspace(join.b1, join.a2, 257), seg3]
        + [zone.mid + zone.width * _LOBATTO for zone in join.zones]))
    # An input sample at mid1 or mid2 (a piece of an odd sample count has
    # one there) may round to either side of it, and the join reproduces the
    # inputs at both; a middle point within half a middle step of a kept
    # sample would repeat that sample an ulp away.
    above = float(join.left.s_grid[left_keep][-1]) + 0.5 * (seg1[1] - seg1[0])
    below = float(join.right.s_grid[right_keep][0]) - 0.5 * (seg3[1] - seg3[0])
    return left_keep, middle[(middle > above) & (middle < below)], right_keep


# The blend width halves at most this many times.
_WIDTH_HALVINGS = 30


def mollify_and_certify(bridge: BridgedProfile, q: float, lam: float,
                        n: int) -> tuple[SampledProfile, BridgedProfile]:
    """Blend the C^{1,1} join of :func:`build_bridge` into a certified
    strictly-DEC profile.

    At each junction f'' becomes weight * (the piece's f'') on a zone of
    half-width w about it (:class:`_Zone`), with a weight falling smoothly
    from 1 where the piece goes on to 0 where the bridge, affine near its
    ends, takes over; so every blended f'' lies between the two one-sided
    values.  A bridge of the closed form re-closes the join between the
    zones' inner ends (:func:`_blend`).  The margin infimum of the plain join
    away from its two junction points sets a floor 3d > 0.  w starts at
    min(0.02 bridge length, 1/4 of each piece) and halves while some sample
    of the blend has margin below d/2.  The samples are a 257-point grid
    on each of the bridge and the pieces' halves nearest it, and the
    zones' Lobatto points, all tagged "mollified"; the pieces' other
    samples are kept as they are.  Returns the sampled profile and the
    blended join it samples, whose shift places the right piece.
    """
    floor3 = _margin_floor(bridge, n, q, lam)
    if not floor3 > 0.0:
        raise PreconditionError(
            f"margin floor off the junctions is {floor3}; the join must be "
            "strictly DEC away from the junction points before smoothing")
    d = floor3 / 3.0

    width = min(0.02 * bridge.length, 0.25 * (bridge.b1 - bridge.a1),
                0.25 * (bridge.b2 - bridge.a2))
    trace = []
    for _ in range(_WIDTH_HALVINGS):
        join = _blend(bridge, width)
        if join is None:
            trace.append({"width": width, "reason": "no bridge between the zones"})
            width *= 0.5
            continue
        left_keep, middle, right_keep = _join_samples(join)
        fm, dfm, d2fm = join.evaluate(middle)
        margins = _margin_arrays(n, q, lam, fm, dfm, d2fm)
        min_margin = float(np.min(margins))
        if min_margin >= 0.5 * d:
            left, right = join.left, join.right
            glued = SampledProfile(
                np.concatenate([left.s_grid[left_keep], middle, right.s_grid[right_keep]]),
                np.concatenate([left.f[left_keep], fm, right.f[right_keep]]),
                np.concatenate([left.df[left_keep], dfm, right.df[right_keep]]),
                np.concatenate([left.d2f[left_keep], d2fm, right.d2f[right_keep]]),
                np.concatenate([left.provenance[left_keep],
                                np.full(middle.size, "mollified"),
                                right.provenance[right_keep]]),
                charge=q)
            return glued, join
        trace.append({"width": width, "min_margin": min_margin,
                      "worst_s": float(middle[int(np.argmin(margins))])})
        width *= 0.5

    raise ConstructionError(
        "no blend width certified the margin floor",
        {"d": d, "width_trace": trace})


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
    """Jet s -> (sigma, sigma', sigma'') of the bend reparametrization.

    sigma(s) = s - G(s0 - s) with G(y) the integral of exp(-(scale/x)^2)
    from 0 to y, evaluated in closed form via the complementary error
    function; sigma is smooth, increasing, below the identity on s < s0 and
    exactly the identity beyond.  The three share one exp(-(scale/y)^2).
    """
    root_pi = math.sqrt(math.pi)

    def band(y):
        """G(y), exp(-(scale/y)^2) and sigma'' at an array of y > 0."""
        z = scale / y
        e = np.exp(-z * z)
        return y * e - scale * root_pi * erfc(z, e), e, -2.0 * scale * scale * e / y ** 3

    def jet(s):
        s = np.asarray(s, dtype=float)
        y = s0 - s
        # An array wholly inside the band needs no masks.  A 0-d y takes the
        # masked path, whose y[pos] is 1-d: ** rounds there as in an array.
        if y.ndim and y.size and float(y.min()) > 0.0:
            g, e, sddot = band(y)
            return s - g, 1.0 + e, sddot
        pos = y > 0.0
        g, sdot, sddot = np.zeros_like(y), np.ones_like(y), np.zeros_like(y)
        g[pos], e, sddot[pos] = band(y[pos])
        sdot[pos] += e
        return s - g, sdot, sddot

    return jet


def _bend_certificate(params, base_eval, deform, s_band):
    """Margins on the bent band by two routes.

    The direct route evaluates Omega - f'' on the composed profile.  The
    closed route uses the algebraic identity that on an exactly saturated
    base profile the margin reduces to

        -(1 - sigma'^2) * (n-1) h(f)/(2 f^(2n-1)) - (f' o sigma) * sigma''

    whose first term is negative and second positive; both vanish with the
    deformation.  The two must agree to rounding, and the closed form must
    be strictly positive wherever the deformation is numerically nonzero.
    """
    n = params.n
    sig, sdot, sddot = deform(s_band)
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
        deform = _deformation(scale, s0)
        if float(deform(np.array([s0 - delta]))[0][0]) < float(base.s_grid[0]):
            trace.append({"delta": delta, "reason": "band leaves the profile domain"})
            delta *= 0.5
            continue

        band = np.linspace(s0 - delta, s0, 1025)
        f, df, d2f, direct, closed, bump = _bend_certificate(
            params, base_eval, deform, band)
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
                np.full(band.size, "bent"), np.full(tail.size, "ode")])
            sigma_samples = deform(grid)[0]

            def evaluate(s, _deform=deform, _ev=base_eval):
                sig, sdot, sddot = _deform(s)
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

def _bent_piece(bend_res: BendResult, charge: float) -> SampledProfile:
    """257 samples of a bent profile on [s0 - delta, s0 - delta/2]."""
    s0, delta = bend_res.s0, bend_res.delta
    piece = np.linspace(s0 - delta, s0 - 0.5 * delta, 257)
    f, df, d2f = bend_res.profile.evaluator(piece)
    return SampledProfile(piece, f, df, d2f, np.full(piece.size, "bent"),
                          charge=charge, evaluator=bend_res.profile.evaluator)


def _locate_station(params, cls, start, f_b, df_b, in_image):
    """Pick the radius r_C of the station where bending will start.

    The model slope at radius r is sqrt(p(r)), so the station is found in
    radius; cls is the classification of params, and above a degenerate
    horizon p is taken in factored form.  In-image: shoot the radius target
    f_b + eps downward in eps until the slope there falls strictly below
    the tail slope.  Out of image: the radius beyond the profile start
    where the slope reaches a fixed fraction of the tail slope, which
    exists because the slope grows continuously from its value at the
    start.
    """
    def p(r):
        return _p_beyond_root(params, cls, r)

    def slope(r):
        return math.sqrt(max(p(r), 0.0))

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
            return brent_root(lambda r: p(r) - target * target,
                          start, start + width, xtol=1e-14, rtol=8.9e-16)
        width *= 2.0
    raise ConstructionError(
        "profile slope never reaches the matching target",
        {"target": target, "r_max": start + width})


def glue_to_rn(n: int, collar_tail: SampledProfile, m_star: float, m_e: float,
               q_e: float, lam: float, *, cls: ExtremalityClass | None = None):
    """Graft a model end of mass m_e and charge q_e onto a collar tail.

    The tail must end with positive slope and Hawking mass m_star at or
    above the junction mass floor; the end parameters must dominate the tail
    (m_e >= m_star and q_e^2 <= q^2, strictly in at least one).  The
    station radius is chosen so radius and slope can be matched from below;
    one model profile for (m_e, q_e, lam) is sampled from its start to the
    cut past the station and bent below the station, the bent piece is
    bridged to the tail and blended with target charge q_e, and the
    untouched model tail is reattached beyond the surgery.  Returns the
    combined profile and an attachment record with the matching radius r_C
    and station s_match beyond which the output is exactly the model
    profile.  A caller that has classified (n, m_e, q_e, lam) passes the
    class as cls; it is classified here otherwise.  A degenerate end needs
    a tail ending beyond its horizon.  The tail must carry a dense
    evaluator: one without is refused with :class:`GlueInputs`' DomainError
    on entry, before any model-end work.
    """
    if int(n) != n or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    if collar_tail.evaluator is None:
        raise DomainError("left profile carries no dense evaluator")
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
    cls = classify(params_e) if cls is None else cls
    if cls.kind == SUB_EXTREMAL:
        mu = None
        in_image = f_b >= cls.r_plus
    else:
        if cls.kind == EXTREMAL and f_b <= cls.r_plus:
            # A degenerate end's mass is the junction floor at its horizon,
            # and the floor falls with radius and grows with the charge, so
            # a tail ending at or inside the horizon has floor(f_b) >= m_e
            # >= m_star: the preconditions above admit it only within their
            # 1e-12 slack below the floor.
            raise PreconditionError(
                f"tail radius {f_b} does not exceed the degenerate horizon "
                f"radius {cls.r_plus} of the end parameters")
        mu = f_b
        in_image = True

    r_c = _locate_station(params_e, cls, cls.r_plus if mu is None else mu,
                          f_b, df_b, in_image)
    if not r_c > f_b:
        raise InternalConsistencyError(
            f"station radius {r_c} does not exceed the tail radius {f_b}")

    # The model end runs 4 max(1, r_C) beyond the station in arclength, but
    # no further than that beyond r_C in radius: where the radius grows
    # exponentially (lam < 0) the far-end mass f^(n-1)(p(f) - f'^2)/2 would
    # otherwise cancel to no digits.  For lam = 0, f' < 1 and the radius
    # bound never binds.  The station arclengths and the profile read one
    # arclength table.
    reach = 4.0 * max(1.0, r_c)
    table = _profile_arclength(params_e, mu, cls)
    s0, s_reach = (float(s) for s in
                   model_arclength(params_e, [r_c, r_c + reach], mu, arclength=table))
    if not s0 > 0.0:
        # r_C so close to the model's start that its arclength rounds to 0.
        raise ConstructionError(
            "bend station arclength is not positive",
            {"r_C": r_c, "r_plus": cls.r_plus, "s0": s0})
    s_cut = min(s0 + reach, s_reach)
    if mu is None:
        model = rn_profile(params_e, s_cut, arclength=table)
    else:
        model = rn_profile_mu(params_e, mu, s_cut, arclength=table)
    bend_res = bend(params_e, s0, alpha=f_b, slope_cap=df_b, profile=model)
    right = _bent_piece(bend_res, q_e)

    inputs = GlueInputs(n, collar_tail, right, lam, q_e)
    glued, join = mollify_and_certify(build_bridge(inputs), q_e, lam, n)
    shift = join.shift

    # The attachment is sampled in model arclength, so its last sample is
    # the model end at exactly s_cut.
    attach = np.linspace(float(glued.s_grid[-1]) - shift, s_cut, 1025)[1:]
    af, adf, ad2f = bend_res.profile.evaluator(attach)
    attach_prov = np.where(attach < s0, "bent", "ode")
    s_grid = np.concatenate([glued.s_grid, attach + shift])
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


def glue_bent_model(params: RNParams, radius: float, m_e: float):
    """Glue a model end of mass m_e onto the model of params, bent below radius.

    The bent piece stands in for a collar tail with its end Hawking mass as
    the far mass.  Returns the piece, the far mass, the glued profile and
    the attachment record of glue_to_rn.
    """
    left = _bent_piece(bend(params, radial_coordinate(params, radius)), params.q)
    far_mass = hawking_rotsym(params.n, params.q, params.lam,
                              float(left.f[-1]), float(left.df[-1]))
    glued, record = glue_to_rn(params.n, left, far_mass, m_e, params.q,
                               params.lam)
    return left, far_mass, glued, record
