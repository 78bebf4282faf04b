"""Shared numerical helpers.

Uniform-grid Simpson quadrature, fourth-order finite differences with
one-sided closures, an infinitely smooth monotone step with two analytic
derivatives, and deterministic float formatting. Everything here is pure and
allocation-light; the heavier machinery (root finding, splines, banded
solves) is imported from scipy at the point of use.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "simpson_uniform",
    "diff1_4th",
    "diff2_4th",
    "smooth_step",
    "smooth_step_d1",
    "smooth_step_d2",
    "fmt17",
]


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


def _phi(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) for x > 0, identically zero otherwise; C-infinity at 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > _PHI_ZERO
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def _phi_d1(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > _PHI_ZERO
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        xp = x[pos]
        out[pos] = np.exp(-1.0 / xp) / (xp * xp)
    return out


def _phi_d2(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > _PHI_ZERO
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        xp = x[pos]
        xp2 = xp * xp
        out[pos] = np.exp(-1.0 / xp) * (1.0 - 2.0 * xp) / (xp2 * xp2)
    return out


def smooth_step(x):
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1.

    Built as phi(x) / (phi(x) + phi(1-x)) with phi(x) = exp(-1/x); all
    derivatives vanish at both endpoints, so compositions stay smooth across
    gluing seams.
    """
    x = np.asarray(x, dtype=float)
    a = _phi(x)
    b = _phi(1.0 - x)
    den = a + b
    out = np.where(x >= 1.0, 1.0, np.where(x <= 0.0, 0.0, 0.0))
    inner = (x > 0.0) & (x < 1.0)
    out = np.where(inner, np.divide(a, den, out=np.zeros_like(a),
                                    where=den > 0.0), out)
    return out if out.ndim else float(out)


def smooth_step_d1(x):
    """First derivative of :func:`smooth_step`; nonnegative everywhere.

    Powers are explicit products here and in :func:`smooth_step_d2`: NumPy
    evaluates ** on a 0-d input with a scalar power routine that can round
    differently from its array loop, and a value must not depend on whether
    it was computed alone or inside an array.
    """
    x = np.asarray(x, dtype=float)
    a, b = _phi(x), _phi(1.0 - x)
    a1, b1 = _phi_d1(x), _phi_d1(1.0 - x)
    s = a + b
    den = s * s
    num = a1 * b + a * b1
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    out = np.where((x <= 0.0) | (x >= 1.0), 0.0, out)
    return out if out.ndim else float(out)


def smooth_step_d2(x):
    """Second derivative of :func:`smooth_step`."""
    x = np.asarray(x, dtype=float)
    a, b = _phi(x), _phi(1.0 - x)
    a1, b1 = _phi_d1(x), _phi_d1(1.0 - x)
    a2, b2 = _phi_d2(x), _phi_d2(1.0 - x)
    s = a + b
    num = (a2 * b - a * b2) * s - 2.0 * (a1 * b + a * b1) * (a1 - b1)
    den = s * s * s
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    out = np.where((x <= 0.0) | (x >= 1.0), 0.0, out)
    return out if out.ndim else float(out)


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")
