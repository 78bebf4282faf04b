"""Shared numerical helpers.

Uniform-grid Simpson quadrature, fourth-order finite differences with
one-sided closures, an infinitely smooth monotone step and the jet of its
first two analytic derivatives, and the deterministic artifact text: the
float formatter and the JSON renderer every artifact goes through.
Everything here is pure NumPy and allocation-light; root finding and
splines are left to the modules that use them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "simpson_uniform",
    "diff1_4th",
    "diff2_4th",
    "smooth_step",
    "fmt17",
    "json_text",
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


def fmt17(value) -> str:
    """Format a float with 17 significant digits (lossless round-trip);
    a non-finite value raises DomainError."""
    number = float(value)
    if not math.isfinite(number):
        raise DomainError(f"non-finite value in output: {number!r}")
    return format(number, ".17g")


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
