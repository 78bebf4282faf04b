"""Closed-form output checks of one construction.

Every check compares a returned figure with a value this file computes
itself from the generated inputs, never with the library's own figure; the
one verdict taken from the library is ``verify_outward_minimizing``.  Each
check returns the names of the oracles a construction violates; an empty
list means the construction is certified.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

MASS_GAP_TOL = 1e-8  # PipelineConfig.mass_gap_tol, the requested agreement
SLACK_TOL = 1e-9  # seed volume radius by quadrature vs the library's grid
FAR_MASS_TOL = 1e-8  # the model end's own far-mass bound
# The far mass cancels terms of size f^(n-1) f'^2 / 2; float64 samples of f
# and f' carry a relative error of a few units in the last place, so the
# mass they determine is only known to within a few eps times those terms.
ROUNDING = 16 * sys.float_info.epsilon


def hawking_far(n: int, q: float, lam: float, f: float, df: float):
    """Hawking mass 1/2 f^(n-1) (p_0(f) - f'^2) of the last profile sample.

    Evaluated exactly in rational arithmetic from the float samples, and
    returned with the size of the cancelling terms.
    """
    f, df, q, lam = (Fraction(x) for x in (f, df, q, lam))
    power = f ** (n - 1)
    charge = q * q / f ** (2 * (n - 1))
    cosmo = 2 * lam * f * f / (n * (n + 1))
    mass = power * (1 + charge - cosmo - df * df) / 2
    size = power * (1 + charge + abs(cosmo) + df * df) / 2
    return float(mass), float(size)


def far_mass_digits(m: float, far_mass: float) -> float:
    """-log10 of the relative far-mass error, capped at 16 digits."""
    err = abs(far_mass - m) / (1.0 + abs(m))
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))


def check_extension(op: dict, result: dict) -> list[str]:
    """Oracles of one returned extension.

    ``result`` holds achieved_mass, penrose_slack, min_margin,
    outward_minimizing, charges (every charge the output reports) and the
    last profile sample (f_far, df_far).
    """
    m, q, lam, n = op["m"], op["q"], op["lam"], op["n"]
    bad = []
    if not abs(result["achieved_mass"] - m) <= MASS_GAP_TOL * (1.0 + abs(m)):
        bad.append("achieved_mass")
    if not abs(result["penrose_slack"] - (m - op["m_o"])) <= SLACK_TOL * (1.0 + abs(m)):
        bad.append("penrose_slack")
    far, size = hawking_far(n, q, lam, result["f_far"], result["df_far"])
    if not abs(far - m) <= FAR_MASS_TOL * (1.0 + abs(m)) + ROUNDING * size:
        bad.append("far_mass")
    if not result["min_margin"] > 0.0:
        bad.append("min_margin")
    if result["outward_minimizing"] != "pass":
        bad.append("outward_minimizing")
    if any(charge != q for charge in result["charges"]):
        bad.append("charge")
    return bad


def check_witness(op: dict, m_o_reported: float, witness: dict) -> list[str]:
    """Oracles of one succeeded witness of a bartnik ladder."""
    mass = (1.0 + 2.0 ** -witness["k"]) * op["m_o"]
    bad = []
    if not abs(witness["mass"] - mass) <= SLACK_TOL * (1.0 + abs(mass)):
        bad.append("witness_mass")
    slack = witness["penrose_slack"]
    if not abs(slack - (witness["mass"] - op["m_o"])) <= SLACK_TOL * (1.0 + abs(mass)):
        bad.append("penrose_slack")
    if not abs(m_o_reported - op["m_o"]) <= SLACK_TOL * (1.0 + abs(op["m_o"])):
        bad.append("m_o")
    return bad
