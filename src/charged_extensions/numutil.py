"""Shared numerical helpers.

Uniform-grid Simpson quadrature, fourth-order finite differences with
one-sided closures, an infinitely smooth monotone step and the jet of its
first two analytic derivatives, and the deterministic artifact text: the
float formatter and the JSON renderer every artifact goes through.

It also holds the kernels that keep the package free of scipy, each a
port of the scipy routine it replaces, so that roots, profiles and
fields keep their bits: Brent's bracketed root finder
(``brent_root``, scipy's ``brentq`` loop), the piecewise cubic Hermite
interpolant (``CubicHermite``, scipy's ``CubicHermiteSpline`` coefficients
and evaluation), the complementary error function for nonnegative
arguments (``erfc``, the Cephes rational forms behind scipy's) and the
type-I discrete cosine transform (``dct1``, by a real FFT of the even
extension).  Everything here is pure NumPy or plain Python.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "brent_root",
    "CubicHermite",
    "erfc",
    "dct1",
    "simpson_uniform",
    "diff1_4th",
    "diff2_4th",
    "smooth_step",
    "fmt17",
    "json_text",
]


def brent_root(f, a: float, b: float, *, xtol: float, rtol: float,
               maxiter: int = 100) -> float:
    """Root of f in the bracket [a, b] by Brent's method.

    A line-for-line port of scipy's ``brentq`` (its C loop), so it returns
    the same root bit for bit.  It stops at the first iterate x whose
    bracket half-width is below (xtol + rtol |x|) / 2, or at a zero of f.
    f(a) and f(b) of one sign raise ValueError.  A NaN value of f, or no
    convergence after ``maxiter`` iterations, raises RuntimeError.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise RuntimeError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur!r}")


class CubicHermite:
    """Piecewise cubic interpolant of values y and slopes dydx at strictly
    increasing knots x, extrapolated by its end pieces.

    Its coefficients and evaluation are those of scipy's
    ``CubicHermiteSpline``: each piece is a cubic in the offset from its
    left knot, summed in ascending powers, a point on an interior knot
    belongs to the piece it starts and the last knot to the last piece.
    It evaluates values only, no derivative.
    """

    def __init__(self, x, y, dydx):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dydx = np.asarray(dydx, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        # One column per piece: its left knot, then its coefficients of
        # offset^0..^3; a point gathers its whole column at once.
        self._table = np.stack([x[:-1], y[:-1], dydx[:-1], (slope - dydx[:-1]) / dx - t, t / dx])
        self._inner = x[1:-1].copy()

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        # The count of interior knots at or below s is its piece.
        column = self._table.take(np.searchsorted(self._inner, s.ravel(), side="right"), axis=1)
        ds = s.ravel() - column[0]
        out = column[1]
        out += 0.0  # scipy's sum starts from 0.0, which turns -0.0 into 0.0
        power = ds
        for k in range(2, column.shape[0]):
            term = column[k]
            term *= power
            out += term
            if k + 1 < column.shape[0]:
                power = power * ds
        return out.reshape(s.shape)


# Cephes' rational forms for erf on [0, 1) (T/U in z^2) and for
# erfc e^(z^2) on [1, 8) (P/Q) and [8, inf) (R/S), highest power first;
# the denominators are monic, their leading 1 left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989759085e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# log of the largest double: Cephes' erfc returns 0 once z^2 exceeds it.
_ERFC_MAXLOG = 7.09782712893383996843e2


def _ratio(x: np.ndarray, num, den, scale) -> np.ndarray:
    """scale * num(x) / den(x) by Horner's rule in Cephes' rounding (polevl
    for the numerator, p1evl for the monic denominator), in place."""
    p = np.full(x.shape, num[0])
    for c in num[1:]:
        p *= x
        p += c
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    p *= scale
    p /= q
    return p


def erfc(z, e=None):
    """Complementary error function at z >= 0, elementwise.

    Cephes' algorithm, the one behind scipy's ``erfc``: 1 - erf(z) with
    erf's rational form below 1, and e * P(z) / Q(z) with e = exp(-z^2)
    and one of two rational forms from 1 on.  A caller that already holds
    exp(-z * z) passes it as ``e``.  The value is 0 once z^2 exceeds the log
    of the largest double, as Cephes' is.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    if e is None:
        with np.errstate(over="ignore"):
            e = np.exp(-(flat * flat))
    e = np.asarray(e, dtype=float).ravel()
    # The form for [1, 8) on every point; the other ranges overwrite it.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _ratio(flat, _ERFC_P, _ERFC_Q, e)
    low = flat < 1.0
    if low.any():
        x = flat[low]
        out[low] = 1.0 - _ratio(x * x, _ERF_T, _ERF_U, x)
    high = flat >= 8.0
    if high.any():
        with np.errstate(over="ignore"):
            square = flat * flat
        out[high] = 0.0
        high &= square <= _ERFC_MAXLOG
        out[high] = _ratio(flat[high], _ERFC_R, _ERFC_S, e[high])
    out = out.reshape(z.shape)
    return out if out.ndim else float(out)


def dct1(rows: np.ndarray) -> np.ndarray:
    """Unnormalized type-I DCT along the last axis (scipy.fft's ``dct``
    type 1): the real part of the FFT of each row's even extension
    y_0..y_(N-1), y_(N-2)..y_1."""
    rows = np.asarray(rows, dtype=float)
    return np.fft.rfft(np.concatenate([rows, rows[..., -2:0:-1]], axis=-1), axis=-1).real


def simpson_uniform(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on a uniform grid with an odd sample count."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] % 2 != 1 or y.shape[-1] < 3:
        raise ValueError("Simpson rule needs an odd number of samples (>= 3)")
    acc = y[..., 0] + y[..., -1] + 4.0 * y[..., 1:-1:2].sum(axis=-1) \
        + 2.0 * y[..., 2:-2:2].sum(axis=-1)
    return acc * (dx / 3.0)


# Fourth-order finite-difference closures. Interior stencils are the
# standard centered ones; the two rows at each end use one-sided stencils of
# matching order so the arrays keep full length.

_D1_EDGE = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
]) / 12.0

_D2_EDGE = np.array([
    [45.0, -154.0, 214.0, -156.0, 61.0, -10.0],
    [10.0, -15.0, -4.0, 14.0, -6.0, 1.0],
]) / 12.0


def diff1_4th(y: np.ndarray, dx: float) -> np.ndarray:
    """First derivative of uniformly sampled data, fourth order everywhere."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < 6:
        raise ValueError("need at least 6 samples for the 4th-order stencils")
    d = np.empty_like(y)
    d[..., 2:-2] = (y[..., :-4] - 8.0 * y[..., 1:-3]
                    + 8.0 * y[..., 3:-1] - y[..., 4:]) / 12.0
    for i in (0, 1):
        d[..., i] = np.tensordot(y[..., :5], _D1_EDGE[i], axes=(-1, 0))
        d[..., -1 - i] = -np.tensordot(y[..., -5:][..., ::-1], _D1_EDGE[i],
                                       axes=(-1, 0))
    return d / dx


def diff2_4th(y: np.ndarray, dx: float) -> np.ndarray:
    """Second derivative of uniformly sampled data, fourth order everywhere."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < 6:
        raise ValueError("need at least 6 samples for the 4th-order stencils")
    d = np.empty_like(y)
    d[..., 2:-2] = (-y[..., :-4] + 16.0 * y[..., 1:-3] - 30.0 * y[..., 2:-2]
                    + 16.0 * y[..., 3:-1] - y[..., 4:]) / 12.0
    for i in (0, 1):
        d[..., i] = np.tensordot(y[..., :6], _D2_EDGE[i], axes=(-1, 0))
        d[..., -1 - i] = np.tensordot(y[..., -6:][..., ::-1], _D2_EDGE[i],
                                      axes=(-1, 0))
    return d / (dx * dx)


# exp(-1/x) underflows to exactly zero for x <= 1/746, so phi and its
# derivatives are zero there; evaluating their formulas on such x would
# divide that zero by a power of x that underflows to zero as well.
_PHI_ZERO = 1.0 / 746.0


def _phi_jet(x: np.ndarray, order: int) -> list[np.ndarray]:
    """phi(x) = exp(-1/x) for x > 0 (identically zero otherwise; C-infinity
    at 0) and its first ``order`` derivatives, all from one exp."""
    jet = [np.zeros_like(x) for _ in range(order + 1)]
    pos = x > _PHI_ZERO
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        xp = x[pos]
        e = np.exp(-1.0 / xp)
        jet[0][pos] = e
        if order >= 1:
            xp2 = xp * xp
            jet[1][pos] = e / xp2
        if order >= 2:
            jet[2][pos] = e * (1.0 - 2.0 * xp) / (xp2 * xp2)
    return jet


def _smooth_step_jet(x, order: int) -> tuple:
    """:func:`smooth_step` at x and its first ``order`` (at most 2) derivatives.

    phi(x) and phi(1-x) take one exp each.  Powers are explicit products:
    NumPy evaluates ** on a 0-d input with a scalar power routine that can
    round differently from its array loop, and a value must not depend on
    whether it was computed alone or inside an array.  Derivatives are 0
    outside (0, 1) and the first is nonnegative.
    """
    x = np.asarray(x, dtype=float)
    a = _phi_jet(x, order)
    b = _phi_jet(1.0 - x, order)
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


def smooth_step(x):
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1.

    Built as phi(x) / (phi(x) + phi(1-x)) with phi(x) = exp(-1/x); all
    derivatives vanish at both endpoints, so compositions stay smooth across
    gluing seams.  Its derivatives come from ``_smooth_step_jet``.
    """
    return _smooth_step_jet(x, 0)[0]


def fmt17(value):
    """Format a float with 17 significant digits (lossless round-trip), or
    each float of an array into a list after one finiteness check of the
    whole array; a non-finite value raises DomainError."""
    if isinstance(value, np.ndarray):
        numbers = np.asarray(value, dtype=float).ravel()
        finite = np.isfinite(numbers)
        if finite.all():
            return [format(number, ".17g") for number in numbers.tolist()]
        number = float(numbers[np.argmin(finite)])
    else:
        number = float(value)
        if math.isfinite(number):
            return format(number, ".17g")
    raise DomainError(f"non-finite value in output: {number!r}")


def _render_json(value, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_render_json(item, level + 1)}"
            for key, item in sorted(value.items())
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        parts = [f"{inner}{_render_json(item, level + 1)}" for item in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt17(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise DomainError(f"cannot serialize {type(value)!r} into an artifact")


def json_text(payload: dict) -> str:
    """Artifact JSON: sorted keys, two-space indent, floats through fmt17.

    numpy scalars, arrays and tuples render as their plain JSON values, so
    identical payloads give byte-identical text.
    """
    return _render_json(payload, 0) + "\n"
