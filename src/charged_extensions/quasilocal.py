"""Quasi-local mass and charge bookkeeping for sphere data.

This module evaluates the generalized Hawking mass of a sphere from its
area, mean-curvature integral, charge and cosmological constant, both in
the general form and in the closed form available in rotational symmetry.
It also decides quasi-local sub-extremality of minimal spheres, computes
the reference mass of a minimal boundary and the slack of the mass
inequality.

All quantities are scalars; curve containers hold numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lambda_rn
from .errors import DomainError, InternalConsistencyError

__all__ = [
    "INNER_ROOT",
    "SphereData",
    "HawkingCurve",
    "unit_sphere_volume",
    "hawking_mass",
    "hawking_rotsym",
    "ql_subextremality",
    "m_o",
    "penrose_slack",
]

# Report value for a minimal sphere sitting at an inner (cosmological or
# Cauchy type) root of the associated model potential.  Distinct from the
# three extremality kinds so callers can see the state without an error.
INNER_ROOT = "InnerRootConfiguration"

# Auxiliary mass values probed by the rotationally symmetric evaluator to
# confirm that the result does not depend on the choice.
_ROTSYM_PROBE_MASSES = (0.0, 1.0, -1.0)
_ROTSYM_PROBE_TOL = 1e-12

_DUAL_FORM_TOL = 1e-12


@dataclass(frozen=True)
class SphereData:
    """Geometric data of a single sphere.

    Attributes
    ----------
    n : int
        Dimension of the sphere.
    volume : float
        Area (n-volume) of the sphere, positive.
    mean_curvature_sq_integral : float
        Integral of H^2 over the sphere, nonnegative.
    charge : float
        Electric charge enclosed by the sphere.
    lam : float
        Cosmological constant, nonpositive.
    """

    n: int
    volume: float
    mean_curvature_sq_integral: float
    charge: float
    lam: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n!r}")
        for name in ("volume", "mean_curvature_sq_integral", "charge", "lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.volume <= 0.0:
            raise DomainError(f"volume must be positive, got {self.volume!r}")
        if self.mean_curvature_sq_integral < 0.0:
            raise DomainError(
                "mean_curvature_sq_integral must be nonnegative, got "
                f"{self.mean_curvature_sq_integral!r}"
            )
        if self.lam > 0.0:
            raise DomainError(f"lam must be nonpositive, got {self.lam!r}")

    @property
    def volume_radius(self) -> float:
        """Radius of the round sphere with the same area."""
        return (self.volume / unit_sphere_volume(self.n)) ** (1.0 / self.n)


@dataclass(frozen=True)
class HawkingCurve:
    """Hawking mass sampled along a family of spheres.

    The charge is a single constant because the flux through every sphere
    of the family agrees (the field is divergence free between them).
    """

    t_grid: np.ndarray
    mass: np.ndarray
    charge: float
    dmass_dt: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t_grid, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        dm = np.asarray(self.dmass_dt, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise DomainError("t_grid must be a 1-d array with at least 2 samples")
        if not np.all(np.diff(t) > 0.0):
            raise DomainError("t_grid must be strictly increasing")
        if mass.shape != t.shape or dm.shape != t.shape:
            raise DomainError("mass and dmass_dt must match t_grid in shape")
        if not math.isfinite(self.charge):
            raise DomainError(f"charge must be finite, got {self.charge!r}")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "dmass_dt", dm)


def unit_sphere_volume(n: int) -> float:
    """Volume of the unit n-sphere, 2*pi^((n+1)/2) / Gamma((n+1)/2)."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"dimension must be an integer >= 1, got {n!r}")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def hawking_mass(data: SphereData) -> float:
    """Generalized Hawking mass of a sphere.

    Evaluates the definitional form

        M = (r^(n-1)/2) * (p_{0,Q,L}(r) - (1 / (n^2 w_n r^(n-2))) * int H^2)

    with r the volume radius and w_n the unit sphere volume, and checks it
    against the expanded polynomial form; the two must agree to 1e-12.
    """
    n = data.n
    omega = unit_sphere_volume(n)
    r = data.volume_radius
    params = lambda_rn.RNParams(n=n, m=0.0, q=data.charge, lam=data.lam)
    curvature_term = data.mean_curvature_sq_integral / (n * n * omega * r ** (n - 2))
    definitional = 0.5 * r ** (n - 1) * (lambda_rn.eval_p(params, r) - curvature_term)

    expanded = (
        0.5 * r ** (n - 1)
        + 0.5 * data.charge ** 2 / r ** (n - 1)
        - data.lam * r ** (n + 1) / (n * (n + 1))
        - r * data.mean_curvature_sq_integral / (2.0 * n * n * omega)
    )
    tol = _DUAL_FORM_TOL * max(1.0, abs(definitional), abs(expanded))
    if abs(definitional - expanded) > tol:
        raise InternalConsistencyError(
            "Hawking mass forms disagree: "
            f"{definitional!r} vs {expanded!r}"
        )
    return definitional


def hawking_rotsym(n: int, q: float, lam: float, f: float, df: float) -> float:
    """Hawking mass of a coordinate sphere of a rotationally symmetric metric.

    For a metric ds^2 + f(s)^2 g* with round fibers the mass of the sphere
    at a point with radius f and radial derivative df is

        M = m + (f^(n-1)/2) * (p_{m,q,L}(f) - df^2)

    for every auxiliary mass m.  The evaluation probes several m values and
    raises if the results spread beyond 1e-12, then returns the m=0 value.
    """
    if not f > 0.0:
        raise DomainError(f"sphere radius must be positive, got {f!r}")
    values = []
    for m_probe in _ROTSYM_PROBE_MASSES:
        params = lambda_rn.RNParams(n=n, m=m_probe, q=q, lam=lam)
        values.append(
            m_probe + 0.5 * f ** (n - 1) * (lambda_rn.eval_p(params, f) - df * df)
        )
    spread = max(values) - min(values)
    # The probe values cancel m against a term of size f^(n-1) p / 2, so
    # rounding leaves a spread proportional to that magnitude, not to M.
    params0 = lambda_rn.RNParams(n=n, m=0.0, q=q, lam=lam)
    magnitude = 0.5 * f ** (n - 1) * (abs(lambda_rn.eval_p(params0, f)) + df * df)
    if spread > _ROTSYM_PROBE_TOL * max(1.0, abs(values[0]), magnitude):
        raise InternalConsistencyError(
            f"auxiliary-mass dependence detected in Hawking mass: spread {spread!r}"
        )
    return values[0]


def ql_subextremality(n: int, q: float, lam: float, r_sigma: float) -> str:
    """Classify the extremality of a minimal sphere of volume radius r_sigma.

    The minimal sphere has Hawking mass m_o(n, r_sigma, q, lam), and the
    associated model has a root exactly at r_sigma.  The sign of the
    companion polynomial h at r_sigma decides the kind:

    - h > 0: ``SubExtremal`` (r_sigma is the outer root),
    - h near 0: ``Extremal`` (degenerate root),
    - h < 0: ``InnerRootConfiguration`` (r_sigma is an inner root; flagged
      as a distinct state rather than an error).

    Sub-extremal and inner-root results are cross-validated against the
    model classifier, which must locate a root at r_sigma.
    """
    if not r_sigma > 0.0:
        raise DomainError(f"volume radius must be positive, got {r_sigma!r}")
    mass = m_o(n, r_sigma, q, lam)
    params = lambda_rn.RNParams(n=n, m=mass, q=q, lam=lam)
    hv = lambda_rn.eval_h(params, r_sigma)
    # The root of p at r_sigma is degenerate exactly when p'(r_sigma) = 0,
    # and there p' = (n-1) h / r^(2n-1).  Using the same acceptance band as
    # the model classifier keeps the two decisions consistent.
    dp = (n - 1) * hv / r_sigma ** (2 * n - 1)
    band = lambda_rn._DEGENERACY_TOL * (1.0 + abs(lambda_rn.eval_d2p(params, r_sigma)) * r_sigma)
    if abs(dp) <= band:
        return lambda_rn.EXTREMAL

    if hv > 0.0:
        cls = lambda_rn.classify(params)
        if cls.kind == lambda_rn.EXTREMAL and abs(dp) <= 100.0 * band:
            # Borderline configuration: the classifier evaluates its band at
            # the minimum of p rather than at the sphere, so defer to it.
            return lambda_rn.EXTREMAL
        if cls.kind != lambda_rn.SUB_EXTREMAL or cls.r_plus is None:
            raise InternalConsistencyError(
                f"model classifier disagrees with sub-extremal sphere: {cls!r}"
            )
        if abs(cls.r_plus - r_sigma) > 1e-10 * max(1.0, r_sigma):
            raise InternalConsistencyError(
                "model outer root does not sit at the sphere radius: "
                f"{cls.r_plus!r} vs {r_sigma!r}"
            )
        return lambda_rn.SUB_EXTREMAL

    # Inner root: only reachable with nonzero charge, and the model's inner
    # root must then sit at r_sigma.
    cls = lambda_rn.classify(params)
    if cls.kind == lambda_rn.SUB_EXTREMAL and cls.r_minus is not None:
        if abs(cls.r_minus - r_sigma) > 1e-8 * max(1.0, r_sigma):
            raise InternalConsistencyError(
                "model inner root does not sit at the sphere radius: "
                f"{cls.r_minus!r} vs {r_sigma!r}"
            )
    return INNER_ROOT


def m_o(n: int, r_o: float, q: float, lam: float) -> float:
    """Hawking mass of a minimal sphere of radius r_o.

    Equals (r_o^(n-1)/2) * (1 + q^2/r_o^(2(n-1)) - 2*lam*r_o^2/(n(n+1))),
    which is positive for lam <= 0.
    """
    if not r_o > 0.0:
        raise DomainError(f"radius must be positive, got {r_o!r}")
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    return 0.5 * r_o ** (n - 1) * (
        1.0 + q * q / r_o ** (2 * (n - 1)) - 2.0 * lam * r_o ** 2 / (n * (n + 1))
    )


def penrose_slack(
    n: int, boundary_volume: float, q: float, lam: float, total_mass: float
) -> float:
    """Slack of the mass inequality for a minimal boundary.

    Returns total_mass minus the reference mass of a minimal sphere whose
    area equals boundary_volume.  Nonnegative slack means the inequality
    holds; the model family itself has zero slack.
    """
    if not boundary_volume > 0.0:
        raise DomainError(f"boundary volume must be positive, got {boundary_volume!r}")
    r = (boundary_volume / unit_sphere_volume(n)) ** (1.0 / n)
    return total_mass - m_o(n, r, q, lam)
