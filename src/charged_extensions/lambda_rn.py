"""Model geometry of the charged rotationally symmetric family.

The family is parameterized by a sphere dimension n >= 2, a mass m, a charge
q, and a nonpositive cosmological constant. All of its radial structure is
carried by the potential

    p(r) = 1 - 2m/r^(n-1) + q^2/r^(2(n-1)) - 2*lam*r^2/(n(n+1))

and its monotone companion

    h(r) = r^(2(n-1)) - q^2 - 2*lam*r^(2n)/(n(n-1)),

which is strictly increasing with image (-q^2, inf) and satisfies the exact
identity p'(r) = (n-1)*h(r)/r^(2n-1) - (n-1)*p(r)/r at every r > 0.

This module classifies parameter tuples by the largest positive root of p
(non-degenerate, degenerate, or absent), computes the critical mass of that
trichotomy, and performs the arclength change of variables s(r), the
integral of p^(-1/2).  The boundary-extended radial profile u with
u(0) = r_plus, u'(0) = 0 and its interior-started variant are sampled by
inverting s(r) at every grid point: s(tau) under r = start + tau^2 is
tabulated by Gauss-Legendre quadrature on quarter-octave panels, a cubic
Hermite guess inside each sample's panel is refined by vectorized Newton
steps, and each step integrates only over the stretch it moves, so that
u' = sqrt(p(u)) and u'' = p'(u)/2 hold exactly at the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DomainError,
    InternalConsistencyError,
    NotApplicableError,
)
from .numutil import CubicHermite, brent_root

__all__ = [
    "SUB_EXTREMAL",
    "EXTREMAL",
    "SUPER_EXTREMAL",
    "RNParams",
    "ExtremalityClass",
    "SampledProfile",
    "DECReport",
    "eval_p",
    "eval_dp",
    "eval_d2p",
    "eval_h",
    "classify",
    "critical_mass",
    "radial_coordinate",
    "model_arclength",
    "rn_profile",
    "rn_profile_mu",
    "verify_model_identities",
]

SUB_EXTREMAL = "SubExtremal"
EXTREMAL = "Extremal"
SUPER_EXTREMAL = "SuperExtremal"

_BRENT_KW = dict(xtol=1e-14, rtol=8.9e-16, maxiter=200)

# Degeneracy band of a root of p: |p'| <= _DEGENERACY_TOL (1 + |p''| r) at
# the root counts as a double root.  classify and
# quasilocal.ql_subextremality read the same band.
_DEGENERACY_TOL = 1e-9

# Largest violation of the model scalar-curvature identity that
# verify_model_identities accepts.
_IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class RNParams:
    """Parameter tuple (n, m, q, lam) of the model family, lam <= 0."""

    n: int
    m: float
    q: float
    lam: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"dimension parameter n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("m", "q", "lam"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"parameter {name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.lam > 0.0:
            raise DomainError(f"cosmological constant must be <= 0, got {self.lam}")


@dataclass(frozen=True)
class ExtremalityClass:
    """Root classification: kind plus the horizon radii when they exist.

    r_plus is absent exactly when no positive root exists; r_minus is present
    only in the non-degenerate case when a second, smaller root exists.
    """

    kind: str
    r_plus: float | None = None
    r_minus: float | None = None


@dataclass
class SampledProfile:
    """A positive radial profile f(s) sampled on an increasing grid.

    df and d2f hold first and second derivative values at the samples;
    provenance tags each sample as analytic, ode, or mollified. The
    evaluator gives dense access as an elementwise callable s -> (f, df,
    d2f); surgery inputs must carry one (``surgery.GlueInputs`` refuses a
    piece without), while a finished profile may leave it None.  It is
    excluded from equality and export.
    """

    s_grid: np.ndarray
    f: np.ndarray
    df: np.ndarray
    d2f: np.ndarray
    provenance: np.ndarray
    charge: float = 0.0
    evaluator: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.df = np.asarray(self.df, dtype=float)
        self.d2f = np.asarray(self.d2f, dtype=float)
        self.provenance = np.asarray(self.provenance)
        if not np.all(np.diff(self.s_grid) > 0.0):
            raise DomainError("profile grid must be strictly increasing")
        if not np.all(self.f > 0.0):
            raise DomainError("profile values must be strictly positive")


@dataclass(frozen=True)
class DECReport:
    """Pointwise energy-condition verdict for a sampled profile."""

    max_violation: float
    tol: float
    passed: bool
    worst_s: float


# ---------------------------------------------------------------------------
# The potential p, its derivatives, and the companion h
# ---------------------------------------------------------------------------

def _check_positive_radius(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if arr.ndim:
        positive = (arr > 0.0).all() and np.isfinite(arr).all()
    else:
        value = float(arr)
        positive = value > 0.0 and math.isfinite(value)
    if not positive:
        raise DomainError("radius must be a positive finite real")
    return arr


def _p_at(params: RNParams, arr):
    """p at radii the caller has checked (:func:`_check_positive_radius`)."""
    n, m, q, lam = params.n, params.m, params.q, params.lam
    return (1.0 - 2.0 * m / arr ** (n - 1) + q * q / arr ** (2 * (n - 1))
            - 2.0 * lam * arr ** 2 / (n * (n + 1)))


def _dp_at(params: RNParams, arr):
    """p' at radii the caller has checked (:func:`_check_positive_radius`)."""
    n, m, q, lam = params.n, params.m, params.q, params.lam
    return (2.0 * m * (n - 1) / arr ** n
            - 2.0 * q * q * (n - 1) / arr ** (2 * n - 1)
            - 4.0 * lam * arr / (n * (n + 1)))


def eval_p(params: RNParams, r):
    """Evaluate the potential p at radius r (scalar or array), r > 0."""
    val = _p_at(params, _check_positive_radius(r))
    return val if isinstance(val, np.ndarray) and val.ndim else float(val)


def eval_dp(params: RNParams, r):
    """First derivative p'(r)."""
    val = _dp_at(params, _check_positive_radius(r))
    return val if isinstance(val, np.ndarray) and val.ndim else float(val)


def eval_d2p(params: RNParams, r):
    """Second derivative p''(r)."""
    arr = _check_positive_radius(r)
    n, m, q, lam = params.n, params.m, params.q, params.lam
    val = (-2.0 * m * n * (n - 1) / arr ** (n + 1)
           + 2.0 * q * q * (n - 1) * (2 * n - 1) / arr ** (2 * n)
           - 4.0 * lam / (n * (n + 1)))
    return val if isinstance(val, np.ndarray) and val.ndim else float(val)


def eval_h(params: RNParams, r):
    """Evaluate the companion h at radius r; strictly increasing in r."""
    arr = _check_positive_radius(r)
    n, q, lam = params.n, params.q, params.lam
    val = (arr ** (2 * (n - 1)) - q * q
           - 2.0 * lam * arr ** (2 * n) / (n * (n - 1)))
    return val if isinstance(val, np.ndarray) and val.ndim else float(val)


def _poly_p(params: RNParams, r: float) -> float:
    """The polynomial r^(2(n-1)) * p(r); well conditioned near r = 0."""
    n, m, q, lam = params.n, params.m, params.q, params.lam
    value = (r ** (2 * (n - 1)) - 2.0 * m * r ** (n - 1) + q * q
             - 2.0 * lam * r ** (2 * n) / (n * (n + 1)))
    if not math.isfinite(value):
        # Float products overflow to inf silently, unlike float powers.
        raise OverflowError(f"r^(2(n-1)) p(r) is not finite at r = {r}")
    return value


# ---------------------------------------------------------------------------
# Roots and classification
# ---------------------------------------------------------------------------

def _h_root(params: RNParams) -> float:
    """Unique positive root of h; requires q^2 != 0."""
    n, q, lam = params.n, params.q, params.lam
    r0 = abs(q) ** (1.0 / (n - 1))
    if lam == 0.0:
        return r0
    # h(r0) = -2*lam*r0^(2n)/(n(n-1)) >= 0 brackets from above; shrink the
    # lower end until h goes negative (its limit at 0+ is -q^2).
    lo = r0
    try:
        with np.errstate(over="raise"):
            while eval_h(params, lo) >= 0.0:
                lo *= 0.5
                if lo < 1e-300:
                    raise InternalConsistencyError("failed to bracket the root of h")
            return brent_root(lambda r: eval_h(params, r), lo, r0, **_BRENT_KW)
    except FloatingPointError as exc:
        raise DomainError(f"h overflows while its root is bracketed for {params}") from exc


def _newton_polish(params: RNParams, r: float, steps: int = 3) -> float:
    for _ in range(steps):
        fr = eval_p(params, r)
        dfr = eval_dp(params, r)
        if dfr == 0.0:
            break
        step = fr / dfr
        if not math.isfinite(step):
            break
        r_next = r - step
        if r_next <= 0.0:
            break
        r = r_next
    return r


def _crosscheck_root(params: RNParams, r0: float) -> None:
    """Verify the derivative identity p' = (n-1) h / r^(2n-1) at a root of p.

    The identity holds for all r once the -(n-1) p / r term is included; at a
    root that term vanishes, so the two routes must agree to rounding.
    """
    n = params.n
    lhs = eval_dp(params, r0)
    rhs = (n - 1) * eval_h(params, r0) / r0 ** (2 * n - 1)
    resid = lhs - rhs + (n - 1) * eval_p(params, r0) / r0
    if abs(resid) > 1e-8 * (1.0 + abs(lhs)):
        raise InternalConsistencyError(
            f"root derivative identity violated at r={r0}: residual {resid}")


def classify(params: RNParams) -> ExtremalityClass:
    """Classify the parameters by the positive roots of p.

    The largest root r_plus, when present, is non-degenerate exactly when
    p'(r_plus) > 0, equivalently h(r_plus) > 0. Numerically a degenerate root
    is declared inside the band |p'(r_plus)| <= ``_DEGENERACY_TOL`` *
    (1 + |p''(r_plus)| * r_plus); the trichotomy is exact in the continuum
    and the band is a documented choice.

    Roots are located by Brent's bracketed method (``brent_root``) on the
    polynomial form r^(2(n-1)) p(r) followed by a Newton polish, with the
    companion h providing the brackets: for q != 0 its unique root separates
    the two roots of p whenever they exist. Every root is cross-checked
    against the derivative identity linking p' and h.  Parameters whose
    roots cannot be bracketed within the float range, or resolved by
    Brent's method in float64, raise DomainError.
    """
    try:
        return _classify(params)
    except (OverflowError, RuntimeError) as exc:
        # RuntimeError is brent_root's refusal: no convergence, because the
        # rounding noise of p exceeds the root tolerance at the scale of
        # these parameters, or a NaN value of p.
        raise DomainError(
            f"the roots of p for parameters {params} cannot be located in "
            f"float64: {exc}") from exc


def _classify(params: RNParams) -> ExtremalityClass:
    n, m, q = params.n, params.m, params.q

    # A charge whose square underflows is uncharged in every formula of p.
    if q * q == 0.0:
        if m <= 0.0:
            # p >= 1 for m <= 0 when lam <= 0: no positive root.
            return ExtremalityClass(SUPER_EXTREMAL)
        # g(r) = r^(n-1) - 2m - 2*lam*r^(n+1)/(n(n+1)) is strictly
        # increasing from -2m, so p has exactly one positive root.
        def g(r):
            return (r ** (n - 1) - 2.0 * m
                    - 2.0 * params.lam * r ** (n + 1) / (n * (n + 1)))
        hi = max(1.0, (2.0 * m) ** (1.0 / (n - 1)))
        while g(hi) <= 0.0:
            hi *= 2.0
        lo = hi
        while g(lo) >= 0.0:
            lo *= 0.5
        r_plus = _newton_polish(params, brent_root(g, lo, hi, **_BRENT_KW))
        _crosscheck_root(params, r_plus)
        return ExtremalityClass(SUB_EXTREMAL, r_plus=r_plus)

    r_h = _h_root(params)
    p_rh = eval_p(params, r_h)
    # At the root of h the derivative identity collapses to
    # p'(r_h) = -(n-1) p(r_h) / r_h, so the degeneracy band on p' translates
    # directly to a band on p(r_h).
    dp_rh = -(n - 1) * p_rh / r_h
    band = _DEGENERACY_TOL * (1.0 + abs(eval_d2p(params, r_h)) * r_h)
    if abs(dp_rh) <= band:
        return ExtremalityClass(EXTREMAL, r_plus=r_h)
    if p_rh > 0.0:
        # p is positive at the separator and can only cross upward beyond it
        # and downward before it, both impossible here: no roots at all.
        return ExtremalityClass(SUPER_EXTREMAL)

    # Non-degenerate: exactly one root on each side of r_h.
    hi = r_h
    while _poly_p(params, hi) <= 0.0:
        hi *= 2.0
    r_plus = _newton_polish(
        params, brent_root(lambda r: _poly_p(params, r), r_h, hi, **_BRENT_KW))
    lo = r_h
    while _poly_p(params, lo) <= 0.0:
        lo *= 0.5
    r_minus = _newton_polish(
        params, brent_root(lambda r: _poly_p(params, r), lo, r_h, **_BRENT_KW))
    _crosscheck_root(params, r_plus)
    _crosscheck_root(params, r_minus)
    return ExtremalityClass(SUB_EXTREMAL, r_plus=r_plus, r_minus=r_minus)


def critical_mass(n: int, q: float, lam: float) -> float:
    """Mass threshold of the trichotomy for fixed (n, q, lam).

    Masses strictly above the threshold classify as non-degenerate, strictly
    below as rootless. For q = 0 the threshold is 0; for q != 0 it is the
    value (r^(n-1)/2) * (1 + q^2/r^(2(n-1)) - 2*lam*r^2/(n(n+1))) at the
    unique root r of h.
    """
    params = RNParams(n, 0.0, q, lam)
    if q * q == 0.0:
        return 0.0
    r = _h_root(params)
    return 0.5 * r ** (n - 1) * eval_p(params, r)


# ---------------------------------------------------------------------------
# Arclength coordinate and radial profiles
# ---------------------------------------------------------------------------

def radial_coordinate(params: RNParams, r: float) -> float:
    """Arclength s(r) = integral of p^(-1/2) from r_plus to r, r >= r_plus.

    The value is model_arclength's, the one the boundary-extended profile
    inverts.  Only non-degenerate parameters are accepted; the degenerate
    horizon is at infinite distance.
    """
    cls = classify(params)
    if cls.kind != SUB_EXTREMAL:
        raise NotApplicableError(
            "arclength coordinate requires a non-degenerate horizon; "
            f"parameters classify as {cls.kind}")
    r_plus = cls.r_plus
    r = float(r)
    if r < r_plus * (1.0 - 1e-12):
        raise DomainError(f"radius {r} lies inside the horizon radius {r_plus}")
    if r <= r_plus:
        return 0.0
    return model_arclength(params, r, cls=cls)


def _exact_evaluator(params: RNParams, s_grid, f, df):
    """Dense evaluator: cubic Hermite interpolant for f, exact first-integral
    identities for df = sqrt(p(f)) and d2f = p'(f)/2."""
    spline = CubicHermite(s_grid, f, df)

    def evaluate(s):
        f = _check_positive_radius(spline(s))
        df = np.sqrt(np.maximum(_p_at(params, f), 0.0))
        d2f = 0.5 * _dp_at(params, f)
        return f, df, d2f

    return evaluate


# Panels grow geometrically by 2^(1/4) from a first panel ending at
# _FIRST_PANEL sqrt(start).  Near tau = 0 the integrand varies on the scale
# sqrt(start - r0) set by the nearest root r0 below the start.  That scale
# is 2^-30 sqrt(start) for the closest start glue_to_rn takes (2^-60 above a
# degenerate horizon), so even there every panel is smooth on its width.
# The nearest singularity of the speed then lies at least 8 half-widths
# from a panel's midpoint (11 beyond the first panel), so 8 Gauss-Legendre
# nodes integrate a whole panel to rounding, and 6 nodes the short stretch
# a Newton correction covers.  A cubic Hermite guess on a quarter-octave
# panel is good to about 2e-5 in tau, so the first Newton correction
# leaves a step far below the 1e-8 tau stopping test.
_FIRST_PANEL = 2.0 ** -32
_PANELS_PER_OCTAVE = 4
_PANELS_PER_BATCH = 32
_GL_EDGE = leggauss(8)
_GL_STEP = leggauss(6)
_NEWTON_STEPS = 8


class _Arclength:
    """The arclength s(r) = integral of p^(-1/2) from a start radius, and its
    inverse.

    With r = start + tau^2 the arclength is S(tau), the integral of
    g(t) = 2t / sqrt(p(start + t^2)) from 0 to tau, smooth down to tau = 0
    also at a horizon.  p(start + t^2) is evaluated as p(start) + t^2 D with
    D = (p(r) - p(start)) / (r - start) expanded termwise, so no difference
    of nearby values is taken; at a horizon p(start) = 0 and g = 2/sqrt(D).
    Above a double root of p (a degenerate horizon) D itself cancels, and p
    is evaluated in the factored form of :func:`_second_divided` instead.
    S and dr/ds are tabulated at the edges of quarter-octave panels, grown
    in batches as far as a caller asks, S as a compensated running sum of
    the panel integrals (:func:`_running_sum`); the table depends only on
    (params, start), so one table serves every caller of the same start.
    Arclengths
    between edges are 8-node Gauss-Legendre integrals from the panel's
    lower edge.
    """

    def __init__(self, params: RNParams, start: float, p_start: float,
                 double_root: float | None = None):
        self.params = params
        self.start = start
        self.p_start = p_start
        self.double_root = double_root
        # Largest radius whose 2n-th power, the highest power the model
        # functions take, stays finite.
        self.r_max = float(np.finfo(float).max) ** (1.0 / (2 * params.n))
        first = math.sqrt(start) * _FIRST_PANEL
        self.tau = np.array([0.0, first])
        self.s = np.array([0.0, float(self._integral(0.0, first))])
        self.rate = self._rate(self.tau)

    def _divided(self, r):
        """D(r) = (p(r) - p(start)) / (r - start) without cancellation."""
        n, m, q = self.params.n, self.params.m, self.params.q
        x, y = 1.0 / r, 1.0 / self.start
        # (r^-k - start^-k) / (r - start) = -x y b_k with
        # b_k = sum_{j<k} x^(k-1-j) y^j, built as b_{k+1} = x b_k + y^k;
        # the mass term takes k = n-1, the charge term k = 2(n-1).  b_1 = 1
        # enters as a scalar (x * 1.0 is x); each b_k is a new array, so the
        # in-place steps never touch b_mass.
        b, y_k = 1.0, 1.0
        for k in range(1, 2 * n - 2):
            if k == n - 1:
                b_mass = b
            y_k = y_k * y
            b = x * b
            b += y_k
        k_lam = 2.0 * self.params.lam / (n * (n + 1))
        out = 2.0 * m * b_mass - q * q * b
        out *= x * y
        lam_term = r + self.start
        lam_term *= k_lam
        out -= lam_term
        return out

    def _p(self, r, dr):
        """p(r) at r = start + dr, with no difference of nearby values."""
        if self.double_root is None:
            p = self._divided(r)
            p *= dr
            p += self.p_start
            return p
        root = self.double_root
        return ((self.start - root) + dr) ** 2 * _second_divided(self.params, root, r)

    def _rate(self, tau):
        """dr/ds = sqrt(p(start + tau^2))."""
        square = tau * tau
        return np.sqrt(self._p(self.start + square, square))

    def _speed(self, tau):
        """ds/dtau = 2 tau / sqrt(p(start + tau^2))."""
        if self.p_start == 0.0:
            return 2.0 / np.sqrt(self._divided(self.start + tau * tau))
        return 2.0 * tau / self._rate(tau)

    def _integral(self, lo, hi, rule=_GL_EDGE):
        """Integral of the speed over [lo, hi], elementwise, by the Gauss-
        Legendre rule (nodes, weights)."""
        nodes, weights = rule
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        half = 0.5 * (hi - lo)
        tau = half[..., None] * nodes + (0.5 * (hi + lo))[..., None]
        return half * (self._speed(tau) @ weights)

    def _grow(self, covered) -> None:
        """Append batches of panels until covered(table) holds."""
        steps = np.arange(1, _PANELS_PER_BATCH + 1) / _PANELS_PER_OCTAVE
        while not covered():
            last = self.tau[-1]
            edges = last * 2.0 ** steps
            edges = edges[self.start + edges * edges <= self.r_max]
            if edges.size == 0:
                raise DomainError(
                    "model profile radius leaves the floating-point range "
                    f"beyond r = {self.start + last * last}")
            lows = np.concatenate([[last], edges[:-1]])
            pieces = self._integral(lows, edges)
            self.tau = np.concatenate([self.tau, edges])
            self.s = np.concatenate([self.s, _running_sum(self.s[-1], pieces)])
            self.rate = np.concatenate([self.rate, self._rate(edges)])

    def at_radius(self, r):
        """Arclength from the start to the radii r >= start."""
        tau = np.sqrt(np.asarray(r, dtype=float) - self.start)
        self._grow(lambda: self.tau[-1] >= np.max(tau))
        j = np.clip(np.searchsorted(self.tau, tau, side="right") - 1,
                    0, self.tau.size - 2)
        return self.s[j] + self._integral(self.tau[j], tau)

    def tau_at(self, s):
        """tau with S(tau) = s for every s in [0, S(inf)).

        A cubic Hermite guess inside each point's panel is refined by Newton
        steps tau <- tau - (S(tau) - s)/g(tau).  S(tau) is the table value at
        the panel edge plus the integral of g from the edge: an 8-node
        integral at the guess, to which each correction adds only the
        6-node integral over its own step.
        """
        s = np.asarray(s, dtype=float)
        self._grow(lambda: self.s[-1] >= np.max(s))
        j = np.clip(np.searchsorted(self.s, s, side="right") - 1,
                    0, self.s.size - 2)
        lo, hi = self.tau[j], self.tau[j + 1]
        s_lo, width = self.s[j], self.s[j + 1] - self.s[j]
        # Cubic Hermite guess for r - start = tau^2, which is smooth in s,
        # with slope dr/ds at the panel edges.
        u = (s - s_lo) / width
        guess = ((1.0 + 2.0 * u) * (1.0 - u) ** 2 * lo * lo
                 + u * (1.0 - u) ** 2 * width * self.rate[j]
                 + u * u * (3.0 - 2.0 * u) * hi * hi
                 + u * u * (u - 1.0) * width * self.rate[j + 1])
        tau = np.zeros_like(s)
        live = s > 0.0
        lo, hi, s_lo, s = lo[live], hi[live], s_lo[live], s[live]
        t = np.clip(np.sqrt(np.maximum(guess[live], 0.0)), lo, hi)
        part = self._integral(lo, t)
        for _ in range(_NEWTON_STEPS):
            step = (s_lo + part - s) / self._speed(t)
            t_new = np.clip(t - step, lo, hi)
            if np.all(np.abs(step) <= 1e-8 * t_new):
                tau[live] = t_new
                return tau
            part = part + self._integral(t, t_new, _GL_STEP)
            t = t_new
        raise InternalConsistencyError(
            "arclength inversion did not converge: largest Newton step "
            f"{float(np.max(np.abs(step)))}")

    def sample(self, s_grid: np.ndarray):
        """f, f' = sqrt(p(f)) and f'' = p'(f)/2 at the arclengths s_grid."""
        tau = self.tau_at(s_grid)
        f = self.start + tau * tau
        df = np.sqrt(self._p(f, f - self.start))
        return f, df, 0.5 * eval_dp(self.params, f)


def _running_sum(first, pieces):
    """first + pieces[0] + ... + pieces[k] for every k, each rounded once.

    np.cumsum adds left to right, so the rounding error of each partial sum
    is recovered exactly by TwoSum and the errors are added back; a table
    of many panels then carries one rounding per batch, not one per panel.
    """
    x = np.concatenate([[first], pieces])
    total = np.cumsum(x)
    before, after = total[:-1], total[1:]
    added = after - before
    error = (before - (after - added)) + (x[1:] - added)
    return after + np.cumsum(error)


def _second_divided(params: RNParams, root: float, r):
    """p[root, root, r], the second divided difference, expanded termwise.

    Beyond a double root p(r) = (r - root)^2 p[root, root, r], which keeps
    its relative accuracy however close r comes to the root, where p itself
    cancels.
    """
    n, m, q = params.n, params.m, params.q
    x, y = 1.0 / root, 1.0 / r
    # p[root, root, r] of r^-k is x^2 y c_k with c_k = h_{k-1}(x, x, y), the
    # complete symmetric polynomial, built as c_{k+1} = x c_k + b_{k+1} from
    # the b_k of _Arclength._divided; the mass term takes k = n-1, the
    # charge term k = 2(n-1), and the lam r^2 term contributes a constant.
    b, c, y_k = 1.0, 1.0, 1.0
    for k in range(1, 2 * n - 2):
        if k == n - 1:
            c_mass = c
        y_k = y_k * y
        b = x * b + y_k
        c = x * c + b
    k_lam = 2.0 * params.lam / (n * (n + 1))
    return x * x * y * (q * q * c - 2.0 * m * c_mass) - k_lam


def _p_beyond_root(params: RNParams, cls: ExtremalityClass, r: float) -> float:
    """p(r) at a radius r beyond the largest root of p; cls is the
    classification of params.  Above a degenerate horizon p is taken in the
    factored form (r - r_plus)^2 p[r_plus, r_plus, r] of
    :func:`_second_divided`, which keeps its relative accuracy however
    close r comes to the horizon, where eval_p cancels to noise."""
    if cls.kind == EXTREMAL:
        root = cls.r_plus
        return (r - root) ** 2 * _second_divided(params, root, r)
    return float(eval_p(params, r))


def _profile_arclength(params: RNParams, mu: float | None,
                       cls: ExtremalityClass | None,
                       arclength: _Arclength | None = None) -> _Arclength:
    """Arclength from the profile start: the horizon r_plus (p = 0 exactly)
    when mu is None, otherwise mu, which must lie beyond every root with
    p(mu) > 0.  cls is the classification of params, computed here when
    None; above a degenerate horizon p is taken in factored form
    (:func:`_second_divided`).  A table a caller built for params and the
    same start is passed as arclength and returned as it is."""
    if arclength is not None:
        if (arclength.params != params or (arclength.p_start == 0.0) != (mu is None)
                or (mu is not None and arclength.start != float(mu))):
            raise DomainError(
                "arclength table belongs to other parameters or another start")
        return arclength
    cls = classify(params) if cls is None else cls
    if mu is None:
        if cls.kind != SUB_EXTREMAL:
            raise NotApplicableError(
                "boundary-extended profile requires a non-degenerate horizon; "
                f"parameters classify as {cls.kind}")
        return _Arclength(params, cls.r_plus, 0.0)
    mu = float(mu)
    if mu <= 0.0:
        raise DomainError("profile start radius mu must be positive")
    if cls.r_plus is not None and mu <= cls.r_plus:
        raise DomainError(
            f"mu={mu} must exceed the largest root {cls.r_plus}")
    p_mu = _p_beyond_root(params, cls, mu)
    if p_mu <= 0.0:
        raise DomainError(f"p(mu) must be positive, got {p_mu} at mu={mu}")
    return _Arclength(params, mu, p_mu, cls.r_plus if cls.kind == EXTREMAL else None)


def model_arclength(params: RNParams, r, mu: float | None = None, *,
                    cls: ExtremalityClass | None = None,
                    arclength: _Arclength | None = None):
    """Arclength at which the model profile reaches radius r (scalar or array).

    The profile starts at the horizon r_plus when mu is None, as in
    rn_profile, and at mu otherwise, as in rn_profile_mu; the value is the
    one those profiles invert, so the profile samples radius r exactly there.
    A caller that has classified params passes the class as cls.  A caller
    that samples the profile of the same start as well builds the arclength
    table once and passes it as arclength to both calls; the table grows as
    far as either asks, and every value is bit-identical to one from a
    fresh table.
    """
    arclength = _profile_arclength(params, mu, cls, arclength)
    r = np.asarray(r, dtype=float)
    if np.any(r < arclength.start) or not np.all(np.isfinite(r)):
        raise DomainError(
            f"radii must be finite and at least the start {arclength.start}")
    s = arclength.at_radius(r)
    return s if s.ndim else float(s)


def _model_profile(arclength: _Arclength, s_max: float, grid_n: int,
                   provenance: np.ndarray) -> SampledProfile:
    if s_max <= 0.0 or grid_n < 9:
        raise DomainError("need s_max > 0 and at least 9 grid points")
    s_grid = np.linspace(0.0, s_max, grid_n)
    f, df, d2f = arclength.sample(s_grid)
    params = arclength.params
    return SampledProfile(s_grid, f, df, d2f, provenance, charge=params.q,
                          evaluator=_exact_evaluator(params, s_grid, f, df))


def rn_profile(params: RNParams, s_max: float, grid_n: int = 4097, *,
               arclength: _Arclength | None = None) -> SampledProfile:
    """Boundary-extended radial profile u on [0, s_max].

    u solves u' = sqrt(p(u)) with u(0) = r_plus and u'(0) = 0.  Every sample
    inverts the arclength s(r) = integral of p^(-1/2) from r_plus, whose
    horizon singularity the substitution r = r_plus + tau^2 removes, so
    u' = sqrt(p(u)) and u'' = p'(u)/2 hold at each sample to rounding.
    arclength, when given, is the table model_arclength read for the same
    start.
    """
    arclength = _profile_arclength(params, None, None, arclength)
    return _model_profile(arclength, s_max, grid_n,
                          np.repeat(["analytic", "ode"], [1, grid_n - 1]))


def rn_profile_mu(params: RNParams, mu: float, s_max: float,
                  grid_n: int = 4097, *,
                  arclength: _Arclength | None = None) -> SampledProfile:
    """Interior-started radial profile with u(0) = mu, u'(0) = sqrt(p(mu)).

    Valid whenever p(mu) > 0 and mu lies beyond the largest root if one
    exists; covers the degenerate and rootless configurations that the
    boundary-extended profile cannot reach.  Samples invert the arclength
    from mu exactly as in rn_profile; arclength is as there.
    Above a degenerate horizon p(mu) is evaluated in factored form, so mu
    may come as close to the horizon as floats resolve.
    """
    arclength = _profile_arclength(params, mu, None, arclength)
    return _model_profile(arclength, s_max, grid_n, np.full(grid_n, "ode"))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_model_identities(params: RNParams, profile: SampledProfile) -> DECReport:
    """Check that the profile reproduces the model scalar-curvature identity.

    In rotational symmetry R = n((n-1)(1 - f'^2) - 2 f f'')/f^2, and on the
    model family this must equal 2*lam + n(n-1) q^2 / f^(2n) pointwise, so
    the residual measures how well the stored f' and f'' satisfy the
    first-integral relations f'^2 = p(f) and f'' = p'(f)/2.  The profile
    passes when the largest residual stays below ``_IDENTITY_TOL``.
    """
    n, q, lam = params.n, params.q, params.lam
    f, df, d2f = profile.f, profile.df, profile.d2f
    scalar = n * ((n - 1) * (1.0 - df ** 2) - 2.0 * f * d2f) / f ** 2
    expected = 2.0 * lam + n * (n - 1) * q * q / f ** (2 * n)
    violation = np.abs(scalar - expected)
    worst = int(np.argmax(violation))
    max_violation = float(violation[worst])
    return DECReport(max_violation=max_violation, tol=_IDENTITY_TOL,
                     passed=bool(max_violation < _IDENTITY_TOL),
                     worst_s=float(profile.s_grid[worst]))
