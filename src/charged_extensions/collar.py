"""Collar extensions over normalized paths of sphere metrics.

A collar is the cylinder [0,1] x S^n with metric v^2 dt^2 + F(t)^2 g(t),
F(t) = sqrt(1 + eps t^2), where g(t) is a normalized path of metrics and
the lapse v is either a constant A or A times the first eigenfunction of
-Laplacian + R/2 on each slice.  The module evaluates the scalar
curvature of the collar, verifies the strict dominant energy condition
against the electric field q / (v r_o^n F^n) d_t, sets the lapse
amplitude from the margin's crossing, solves the flare eps for a stated
far-mass gain, computes the Hawking mass curve along the foliation with
monotonicity verdicts, and converts the round tail of the collar into an
arclength radial profile for gluing.
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
    PreconditionError,
)
from .lambda_rn import RNParams, SampledProfile
from .numutil import brent_root, diff1_4th
from .quasilocal import HawkingCurve, unit_sphere_volume
from .sphere_seed import (
    MetricPath,
    _row_blocks,
    curvature_floor_along_path,
    eigen_along_path,
    slice_geometry,
)

__all__ = [
    "EIGENFUNCTION_LAPSE",
    "CONSTANT_LAPSE",
    "CollarSpec",
    "ChargedCollar",
    "MonotonicityReport",
    "select_route",
    "build_collar",
    "find_A0",
    "find_eps0",
    "monotonicity_check",
    "tail_to_arclength",
]

EIGENFUNCTION_LAPSE = "EigenfunctionLapse"
CONSTANT_LAPSE = "ConstantLapse"

# Relative distance every curvature-floor candidate keeps from the path
# quantity it bounds.
_FLOOR_MARGIN = 0.05

# How far below zero monotonicity_check lets dM/dt dip before it reports a
# violation where no sign is asserted pointwise.
_MONOTONE_TOL = 1e-8

# find_A0's amplitude over the crossing amplitude sqrt(crossing): the
# geometric middle of [1, 1.05), the bracket a bisection to a factor 1.05
# leaves.  The collar margin is then at least (1 - 1 / 1.05) core at every
# sample.
_AMPLITUDE_FACTOR = math.sqrt(1.05)

# Relative band above the crossing amplitude^2 inside which build_collar
# leaves the verdict to the elementwise check.  Rounding moves the verdict's
# threshold by a few units of 2^-53 only, far inside the band.
_CROSSING_BAND = 1e-12


@dataclass(frozen=True)
class CollarSpec:
    """Parameters of a collar extension, with its amplitude-free energy margin.

    At lapse amplitude A the collar's energy margin is core + well / A^2
    over (t, theta), with core = base - reference, where base + well / A^2
    is the collar's scalar curvature (``_margin_rows``) and reference =
    2 Lambda + n(n-1)|E|^2 per t (``_reference_density``).  The amplitude is
    the collar's one free number, so it is not a field: ``find_A0`` takes
    it from the margin's ``crossing``, and ``build_collar`` takes it as an
    argument, so collars of one spec at any amplitudes share its grids.

    The constructor validates the fields, the charge bound (curvature floor
    minus charge density positive in the case-appropriate combination) and
    the curvature-floor test of the lapse (``_route_floor``).  The boundary
    radius ``r_o`` is the path's.  The crossing and ``build_collar``'s
    verdict come from per-row extremes of base and well (``_row_extremes``);
    the elementwise ``fields`` and ``core`` are built only for a verdict
    those cannot decide, or for the error of a margin without a crossing.
    Everything is computed on first read and kept.
    """

    path: MetricPath
    epsilon: float
    kappa: float
    case_id: str
    q: float
    lam: float

    def __post_init__(self) -> None:
        if self.case_id not in (EIGENFUNCTION_LAPSE, CONSTANT_LAPSE):
            raise DomainError(f"unknown lapse case {self.case_id!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        if self.kappa < 0.0:
            raise DomainError(f"kappa must be nonnegative, got {self.kappa!r}")
        if self.lam > 0.0:
            raise DomainError(f"lam must be nonpositive, got {self.lam!r}")
        if not (self._charge_gap_scalar() > 0.0 or self._charge_gap_negative() > 0.0):
            raise PreconditionError(
                "charge too large for the curvature floor: "
                f"q={self.q!r}, kappa={self.kappa!r}, lam={self.lam!r}"
            )
        _route_floor(self)

    @property
    def n(self) -> int:
        return self.path.n

    @property
    def r_o(self) -> float:
        return self.path.r_o

    def _charge_gap_scalar(self) -> float:
        """Floor of the positive-scalar/eigenfunction energy inequality."""
        n = self.n
        return 2.0 * (self.kappa - self.lam) - n * (n - 1) * self.q ** 2 / self.r_o ** (2 * n)

    def _charge_gap_negative(self) -> float:
        """Floor of the negative-curvature (n=2) energy inequality."""
        if self.n != 2:
            return -math.inf
        return -2.0 * (self.kappa + self.lam) - 2.0 * self.q ** 2 / self.r_o ** 4

    @cached_property
    def shape_factor(self):
        """(t, F, dF, d2F) of the collar's warping F = sqrt(1 + epsilon t^2)."""
        t = self.path.t_grid
        F = np.sqrt(1.0 + self.epsilon * t * t)
        dF = self.epsilon * t / F
        d2F = self.epsilon / F ** 3
        # Shared by every collar of the spec, so none may write to them.
        for array in (F, dF, d2F):
            array.flags.writeable = False
        return t, F, dF, d2F

    @cached_property
    def reference(self) -> np.ndarray:
        """2 Lambda + n(n-1)|E|^2 per t."""
        return _reference_density(self)

    @cached_property
    def fields(self):
        """Elementwise (base, well, reference) over (t, theta)."""
        base, well = _margin_rows(self, slice(None))
        return base, well, self.reference[:, None]

    @cached_property
    def core(self) -> np.ndarray:
        base, _, reference = self.fields
        return base - reference

    @cached_property
    def _extremes(self):
        """(core_min, size, well_min, smallest) per t row: the smallest
        core, the largest |base| and the smallest well; smallest is
        min(well / core) over the grid, or None where ``crossing`` is to
        find it from the rows."""
        base_min, base_max, well_min, smallest = _row_extremes(self)
        size = np.maximum(np.abs(base_min), np.abs(base_max))
        # core = base - reference grows with base, and rounding is monotone.
        return base_min - self.reference, size, well_min, smallest

    @cached_property
    def crossing(self) -> float | None:
        """The amplitude^2 above which the margin is positive.

        Where core > 0, a sample's margin grows with A where well < 0,
        crossing zero at A^2 = -well / core, and is positive at every A
        where well >= 0.  So when every core is normal and positive and some
        well < 0, the crossing is -min(well / core).  None for any other
        field (a core <= 0 or subnormal, a NaN, no well < 0) or when the
        crossing is not a normal finite float.

        Without the quotient from ``_row_extremes`` (the constant lapse),
        the smallest quotient is searched row by row: a row's quotients are
        at least its smallest well over its smallest core where that well is
        negative (rounding is monotone), and are all >= 0 otherwise, so
        after the row of the smallest such bound only rows whose bound lies
        below the smallest quotient found are evaluated.  The result is
        min(well / core) bit for bit.
        """
        core_min, _, well_min, smallest = self._extremes
        tiny = np.finfo(float).tiny
        if not (float(np.min(core_min)) >= tiny and float(np.min(well_min)) < 0.0):
            return None
        if smallest is None:
            bound = well_min / core_min
            smallest = self._smallest_quotient(np.argmin(bound, keepdims=True))
            rows = np.flatnonzero(bound < smallest)
            if rows.size:
                smallest = min(smallest, self._smallest_quotient(rows))
        lower = -smallest
        return lower if tiny <= lower < math.inf else None

    def _smallest_quotient(self, rows: np.ndarray) -> float:
        """min(well / core) over the t rows ``rows``: the smallest of the
        minima of blocks of rows (``_row_blocks``), exactly, with no
        temporary spanning every row."""
        minima = []
        for block in _row_blocks(rows.size):
            base, well = _margin_rows(self, rows[block])
            minima.append(np.min(well / (base - self.reference[rows[block], None])))
        return float(np.min(minima))

    def certifies(self, amplitude: float) -> bool:
        """True when the crossing shows build_collar's elementwise margin
        (base + well / A^2) - reference positive at every sample; False
        leaves the verdict to the elementwise check.

        Above the band, at a sample with well < 0, -fl(well / A^2) <= rho
        core with rho < 1 - band + 5u, so the exact margin of the rounded
        sum is at least core (band - 7u) - u |base|.  Each row's smallest
        core and largest |base| bound that below; the test asks for band / 4
        where band - 7u > band / 2, which leaves room for its own rounding.
        At a sample with well >= 0, fl(well / A^2) >= 0, so by monotone
        rounding the rounded margin is at least the rounded core, which is
        positive.
        """
        lower = self.crossing
        if lower is None or not amplitude ** 2 > lower * (1.0 + _CROSSING_BAND):
            return False
        core_min, size, _, _ = self._extremes
        unit = np.finfo(float).eps / 2.0
        return bool(np.all(core_min * (0.25 * _CROSSING_BAND) > unit * size))


@dataclass(frozen=True)
class ChargedCollar:
    """A built collar at lapse amplitude ``A``, with its verification fields.

    scalar_curvature and dec_margin are sampled over (t, theta) with a
    single theta column for round paths, from the spec's margin fields on
    first read (``build_collar`` certifies the margin without them);
    mean_curvature is per t (the slice minimum when the lapse varies over
    the slice).
    """

    spec: CollarSpec
    A: float
    mean_curvature: np.ndarray
    hawking: HawkingCurve

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_curvature",
                           np.asarray(self.mean_curvature, dtype=float))
        if self.mean_curvature[0] != 0.0:
            raise DomainError("mean curvature must vanish on the boundary slice")
        if not np.all(self.mean_curvature[1:] > 0.0):
            raise DomainError("mean curvature must be positive off the boundary")

    @cached_property
    def scalar_curvature(self) -> np.ndarray:
        base, well, _ = self.spec.fields
        return base + well / self.A ** 2

    @cached_property
    def dec_margin(self) -> np.ndarray:
        return self.scalar_curvature - self.spec.fields[2]


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


def _route_floor(spec: CollarSpec) -> None:
    """The curvature-floor test of the spec's lapse.

    The eigenfunction lapse needs kappa below the first eigenvalue along
    the path; a constant lapse needs kappa below half the slice scalar
    curvature (positive scalar) or, for n = 2, above minus half of it
    (negative floor).  Each test also needs its charge gap positive.
    Raises PreconditionError when no test passes.  Reads only fields the
    spec's collar reads anyway.
    """
    scalar_gap = spec._charge_gap_scalar()
    # Slice fields before eigen fields, as the collar reads them: built in
    # the other order, the slice fields' temporaries come on top of the
    # memoized eigen fields and raise the peak memory of a cold path.
    min_scal = curvature_floor_along_path(spec.path)
    if spec.case_id == EIGENFUNCTION_LAPSE:
        min_lam1 = float(np.min(eigen_along_path(spec.path).slice_lambda1))
        if min_lam1 > spec.kappa and scalar_gap > 0.0:
            return
        raise PreconditionError(
            "eigenfunction lapse needs kappa below the first eigenvalue "
            f"(min lambda1 = {min_lam1!r}, kappa = {spec.kappa!r})"
        )
    if min_scal > 2.0 * spec.kappa and scalar_gap > 0.0:
        return
    if spec.n == 2 and 0.5 * min_scal > -spec.kappa and spec._charge_gap_negative() > 0.0:
        return
    raise PreconditionError(
        "no admissible curvature floor: min slice scalar curvature "
        f"{min_scal!r} with kappa {spec.kappa!r}"
    )


def _route_candidates(path: MetricPath, lam: float):
    """(route, case_id, kappa, refusal) for each route with a candidate
    floor, in order of preference (see select_route); refusal is None or
    why the route cannot be offered.  The eigen fields are built only if
    the eigenfunction route is reached."""
    min_scal = curvature_floor_along_path(path)
    if path.n == 2 and lam < 0.0:
        yield ("negative-floor", CONSTANT_LAPSE,
               max(0.0, -0.5 * min_scal) * (1.0 + _FLOOR_MARGIN), None)
    if path.n == 2 and min_scal <= 0.0:
        try:
            min_lam1 = float(np.min(eigen_along_path(path).slice_lambda1))
        except ConstructionError as exc:
            # Far past the stability edge the ground state falls below the
            # rounding level of its Legendre sum somewhere on the slice; the
            # eigenvalue still says the hypothesis fails.
            min_lam1 = exc.diagnostics.get("min_lambda1", math.nan)
            if not min_lam1 <= 0.0:
                raise
        refusal = None if min_lam1 > 0.0 else (
            "the seed is outside the stability hypothesis lambda1(-Laplacian + K) > 0 "
            f"of the eigenfunction lapse (min lambda1 = {min_lam1!r})")
        yield ("eigenfunction", EIGENFUNCTION_LAPSE, min_lam1 * (1.0 - _FLOOR_MARGIN),
               refusal)
    if min_scal > 0.0:
        yield ("positive-scalar", CONSTANT_LAPSE,
               0.5 * min_scal * (1.0 - _FLOOR_MARGIN), None)


def select_route(path: MetricPath, q: float, lam: float) -> tuple[str, str, float]:
    """The collar's curvature-floor route: (route, lapse case_id, kappa).

    Routes are tried in order of preference, each with its candidate floor
    kept a fixed 5% (``_FLOOR_MARGIN``) from the path quantity it bounds:

    - ``negative-floor`` (constant lapse) for n = 2 against lam < 0, which
      works whatever the sign of the curvature; kappa is 1.05 times minus
      half the minimum slice scalar curvature, or 0;
    - ``eigenfunction`` for n = 2 when the minimum slice scalar curvature
      is not positive; kappa is 0.95 times the minimum first eigenvalue of
      the path's eigen fields, built on this read, once per path and
      after the slice fields.  It is offered only when that minimum is
      positive, the stability hypothesis of Mantoulidis-Schoen;
    - ``positive-scalar`` (constant lapse) when the minimum slice scalar
      curvature is positive; kappa is 0.95 times half of it.

    Each minimum is read from the memoized slice or eigen fields, the
    fields the admissibility test and the collar read.  The first candidate
    that passes the admissibility test of ``CollarSpec`` (its charge gap
    and the curvature test of its lapse) wins.  Raises
    PreconditionError, naming each route's refusal, when none passes.
    """
    refusals = []
    for route, case_id, kappa, refusal in _route_candidates(path, lam):
        if refusal is None:
            try:
                # The flare (1.0 here) does not enter the test.
                CollarSpec(path, 1.0, kappa, case_id, q, lam)
            except PreconditionError as exc:
                refusal = str(exc)
            else:
                return route, case_id, kappa
        refusals.append(f"{route}: {refusal}")
    raise PreconditionError(
        f"no curvature-floor route admits q={q!r}, lam={lam!r}: "
        + "; ".join(refusals)
    )


def _margin_rows(spec: CollarSpec, rows):
    """Collar curvature fields split by their lapse dependence, on the t
    rows ``rows`` (a slice or an index array).

    Returns arrays (base, well) over (rows, theta) such that the collar
    scalar curvature is base + well / A^2 and, with the electromagnetic
    and cosmological reference, dec margin = (base - reference) + well / A^2.
    Any rows are the full grid's rows bit for bit.  The path's fields are
    read on those rows alone (``SliceGeometry.scalar_curvature_at`` and the
    like), so no (n_t, n_theta) grid of them is built.

    The eigenfunction lapse u contributes -2 (Laplacian u / u) / F^2 to base
    and the factor u^-2 and the drift 2n (du/dt / u) F' / F to well.  A
    constant lapse has none of them, so its branch forms base = R / F^2 and
    well = -shape - |g'|^2 / 4 directly (``_lapse_free``); dropping the zero
    terms and the unit factor changes no bit, because the shape term is
    positive.
    """
    n = spec.n
    geometry = slice_geometry(spec.path)
    _, F, dF, d2F = spec.shape_factor
    F, dF, d2F = F[rows, None], dF[rows, None], d2F[rows, None]
    r_scal = geometry.scalar_curvature_at(rows)
    gp_sq = geometry.gprime_sq_at(rows)
    if spec.case_id == CONSTANT_LAPSE:
        return _lapse_free(_shape_term(n, F, dF, d2F), F, r_scal, gp_sq)
    eigen = eigen_along_path(spec.path)
    u = eigen.u_at(rows)
    # In place, so that at most three grids are live: each step rounds as
    # base = R / F^2 - 2 (Laplacian u / u) / F^2 and
    # well = u^-2 (2n (du/dt / u) F' / F - shape - |g'|^2 / 4) do.
    base = eigen.laplace_u_at(rows)
    base /= u
    base *= 2.0
    base /= F ** 2
    np.subtract(r_scal / F ** 2, base, out=base)
    well = np.divide(eigen.du_dt[rows], u)
    well *= 2.0 * n
    well *= dF
    well /= F
    well -= _shape_term(n, F, dF, d2F)
    well -= 0.25 * gp_sq
    inv_u_sq = u * u
    np.divide(1.0, inv_u_sq, out=inv_u_sq)
    well *= inv_u_sq
    return base, well


def _shape_term(n: int, F, dF, d2F):
    return n * ((n - 1) * dF ** 2 + 2.0 * F * d2F) / F ** 2


def _lapse_free(shape, F, r_scal, gp_sq):
    """The constant lapse's (base, well) = (R / F^2, -shape - |g'|^2 / 4)."""
    return r_scal / F ** 2, -shape - 0.25 * gp_sq


def _row_extremes(spec: CollarSpec):
    """(base_min, base_max, well_min, smallest) per t row.

    The first three are each row's extremes of the ``_margin_rows``
    fields.  The constant lapse takes them from the path's per-row
    extremes of R and |g'|^2: base grows with R and well falls with
    |g'|^2, and rounding is monotone, so they are the fields' extremes bit
    for bit; smallest is None.  The eigenfunction lapse reduces its fields
    in one pass over blocks of t rows (``_row_blocks``), in which smallest
    is min(well / core) over the grid: the smallest of the rows' minima,
    which is the grid's minimum exactly.
    """
    if spec.case_id == CONSTANT_LAPSE:
        geometry = slice_geometry(spec.path)
        _, F, dF, d2F = spec.shape_factor
        r_min, r_max = geometry.scalar_curvature_rows
        gp_min, gp_max = geometry.gprime_sq_rows
        shape = _shape_term(spec.n, F, dF, d2F)
        base_min, well_min = _lapse_free(shape, F, r_min, gp_max)
        base_max = _lapse_free(shape, F, r_max, gp_min)[0]
        return base_min, base_max, well_min, None
    extremes = np.empty((4, spec.path.t_grid.size))
    for rows in _row_blocks(extremes.shape[1]):
        base, well = _margin_rows(spec, rows)
        core = base - spec.reference[rows, None]
        extremes[:3, rows] = np.min(base, axis=1), np.max(base, axis=1), np.min(well, axis=1)
        # The quotient is read only where core > 0 everywhere and some well < 0.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            extremes[3, rows] = np.min(np.divide(well, core, out=core), axis=1)
    return (*extremes[:3], float(np.min(extremes[3])))


def _reference_density(spec: CollarSpec):
    """2 Lambda + n(n-1) |E|^2 along the collar, per t."""
    n = spec.n
    _, F, _, _ = spec.shape_factor
    charge_density = n * (n - 1) * spec.q ** 2 / (spec.r_o ** (2 * n) * F ** (2 * n))
    return 2.0 * spec.lam + charge_density


def _slice_inverse_square_integral(spec: CollarSpec) -> np.ndarray:
    """Integral of u^(-2) over each slice of the path (the eigenfunction
    lapse's is memoized on the path)."""
    if spec.case_id == CONSTANT_LAPSE or spec.path.is_round:
        area = unit_sphere_volume(spec.n) * spec.r_o ** spec.n
        return np.full(spec.path.t_grid.size, area)
    return spec.path.inverse_square_integral


def _hawking_along_collar(spec: CollarSpec, A: float) -> HawkingCurve:
    n = spec.n
    t, F, dF, _ = spec.shape_factor
    radius = spec.r_o * F
    params = RNParams(n=n, m=0.0, q=spec.q, lam=spec.lam)
    inv_sq = _slice_inverse_square_integral(spec)
    curvature_term = dF ** 2 * inv_sq / (
        A ** 2 * unit_sphere_volume(n) * spec.r_o ** (n - 2)
    )
    mass = 0.5 * radius ** (n - 1) * (lambda_rn.eval_p(params, radius) - curvature_term)
    dt = float(t[1] - t[0])
    return HawkingCurve(
        t_grid=t, mass=mass, charge=spec.q, dmass_dt=diff1_4th(mass, dt)
    )


def _worst_sample(path: MetricPath, values: np.ndarray):
    """(index, t, theta) of the smallest sample of a (t, theta) field."""
    worst = np.unravel_index(int(np.argmin(values)), values.shape)
    theta_grid = slice_geometry(path).theta_grid
    return worst, float(path.t_grid[worst[0]]), float(theta_grid[worst[1]])


def build_collar(spec: CollarSpec, A: float) -> ChargedCollar:
    """Assemble the collar of spec at lapse amplitude A and verify the
    strict energy condition.

    The verdict is the margin's crossing where ``CollarSpec.certifies``
    shows that rounding cannot flip it; otherwise the margin
    R - 2 Lambda - n(n-1)|E|^2 is checked sample by sample, and a
    construction error carrying the worst (t, theta) sample is raised if
    it is not strictly positive.
    """
    if not A > 0.0:
        raise DomainError(f"lapse amplitude must be positive, got {A!r}")
    if not spec.certifies(A):
        base, well, reference = spec.fields
        margin = (base + well / A ** 2) - reference
        worst, t, theta = _worst_sample(spec.path, margin)
        min_margin = float(margin[worst])
        if not min_margin > 0.0:
            raise ConstructionError(
                "energy condition violated on the collar",
                diagnostics={"min_margin": min_margin, "t": t, "theta": theta},
            )

    _, F, dF, _ = spec.shape_factor
    if spec.case_id == CONSTANT_LAPSE:
        u_max = np.ones_like(F)
    else:
        eigen = eigen_along_path(spec.path)
        u_max = np.max(eigen.slice_u, axis=1)[eigen.slice_of]
    mean_curvature = spec.n * dF / (A * F * u_max)
    return ChargedCollar(
        spec=spec,
        A=A,
        mean_curvature=mean_curvature,
        hawking=_hawking_along_collar(spec, A),
    )


def find_A0(spec: CollarSpec) -> float:
    """The lapse amplitude ``_AMPLITUDE_FACTOR`` sqrt(crossing) of spec.

    The margin core + well / A^2 is positive exactly for A^2 above the
    margin's ``crossing``; at A0^2 = 1.05 crossing it is at least
    (1 - 1 / 1.05) core at every sample, and ``build_collar`` confirms it.
    Raises ConstructionError, with the (t, theta) sample of the smallest
    core (or the first NaN) and its core and well, when the margin has no
    crossing.
    """
    if spec.crossing is None:
        core, well = spec.core, spec.fields[1]
        # A NaN well makes its sample the worst, as a NaN core does.
        worst, t, theta = _worst_sample(spec.path, np.where(np.isnan(well), np.nan, core))
        raise ConstructionError(
            "no lapse amplitude passes the margin check",
            diagnostics={"core": float(core[worst]), "well": float(well[worst]),
                         "t": t, "theta": theta},
        )
    return _AMPLITUDE_FACTOR * math.sqrt(spec.crossing)


def find_eps0(n: int, r_o: float, q: float, lam: float, gain: float) -> float:
    """The collar flare whose far-mass bound gains ``gain`` over m_o, capped at 1.

    At flare epsilon the round tail ends at r = r_o sqrt(1 + epsilon) with
    far mass U(epsilon) - r^(n-1) epsilon^2 r_o^2 / (2 (1 + epsilon) A^2),
    where U = r^(n-1) p_0(r) / 2 and p_0 is the model potential at zero
    mass.  So U bounds the far mass from above at every amplitude A, and it
    increases with epsilon: dU/dr = (n-1) h(r) / (2 r^n) > 0 once the
    sub-extremality h(r_o) > 0 holds.  One bracketed root on (0, 1] solves
    U(epsilon) - m_o = gain; where U(1) falls short of it the flare is 1.

    U - m_o is taken term by term, each r^k - r_o^k as
    r_o^k expm1(k log1p(epsilon) / 2), so no gain cancels against m_o.
    Raises PreconditionError when the sub-extremality fails.
    """
    params = RNParams(n=n, m=0.0, q=q, lam=lam)
    if not lambda_rn.eval_h(params, r_o) > 0.0:
        raise PreconditionError(
            f"quasi-local sub-extremality fails at r_o = {r_o!r}"
        )
    if not gain > 0.0:
        raise DomainError(f"mass gain must be positive, got {gain!r}")
    # 2 (U - m_o) / r_o^(n-1) = E(n-1) + charge E(1-n) - cosmological E(n+1),
    # with E(k) = (1 + epsilon)^(k/2) - 1.
    charge = q * q / r_o ** (2 * (n - 1))
    cosmological = 2.0 * lam * r_o ** 2 / (n * (n + 1))
    target = 2.0 * gain / r_o ** (n - 1)

    def excess(epsilon):
        half_log = 0.5 * math.log1p(epsilon)
        return (math.expm1((n - 1) * half_log) + charge * math.expm1((1 - n) * half_log)
                - cosmological * math.expm1((n + 1) * half_log)) - target

    if not excess(1.0) > 0.0:
        return 1.0
    return brent_root(excess, 0.0, 1.0, xtol=0.0, rtol=8.9e-16)


def _a1_threshold(collar: ChargedCollar) -> float:
    """Amplitude above which dM/dt > 0 off the boundary, n >= 3 constant lapse."""
    spec = collar.spec
    n = spec.n
    _, F, dF, d2F = spec.shape_factor
    params = RNParams(n=n, m=0.0, q=spec.q, lam=spec.lam)
    h_start = lambda_rn.eval_h(params, spec.r_o * float(F[0]))
    grow = (n - 1) * float(np.max(F ** (n - 2) * dF ** 2))
    bend = 2.0 * float(np.max(F ** (n - 1) * np.abs(d2F)))
    a1_sq = spec.r_o ** (2 * n) * float(np.max(F)) ** n * (grow + bend) / ((n - 1) * h_start)
    return math.sqrt(a1_sq)


def _slice_curvature_integral(collar: ChargedCollar) -> float:
    """Max over t of the integral of R(g(t)) over the slice, for n >= 3.

    MetricPath admits axisymmetric paths only for n = 2, so an n >= 3
    path is round and every slice has the round value.
    """
    n, r_o = collar.spec.n, collar.spec.r_o
    return n * (n - 1) * unit_sphere_volume(n) * r_o ** (n - 2)


def monotonicity_check(collar: ChargedCollar) -> MonotonicityReport:
    """Sign verdict for dM/dt along the collar.

    For n = 2 the mass is nondecreasing unconditionally (up to
    ``_MONOTONE_TOL``, which the report records as ``tol``).  For
    n >= 3 with constant lapse the verdict is asserted when the amplitude
    reaches the explicit threshold a1 and the slice curvature integral
    stays within the round-value bound; with the eigenfunction lapse the
    derivative is reported without an asserted sign.
    """
    spec = collar.spec
    n = spec.n
    tol = _MONOTONE_TOL
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
        a_reaches = collar.A >= a1
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
    derivatives and a dense evaluator.  The path itself is round on the
    tail (``MetricPath`` validates that); an eigenfunction lapse must also
    be constant there.
    """
    spec = collar.spec
    path = spec.path
    keep = path.t_grid >= path.theta_switch - 1e-15
    if spec.case_id == EIGENFUNCTION_LAPSE:
        eigen = eigen_along_path(path)
        u_tail = eigen.slice_u[np.unique(eigen.slice_of[keep])]
        if float(np.max(np.abs(u_tail - 1.0))) > 1e-6:
            raise PreconditionError("lapse is not constant on the collar tail")

    t_tail = path.t_grid[keep]
    amplitude = collar.A
    epsilon = spec.epsilon
    r_o = spec.r_o
    amp_sq, r_o_sq = amplitude ** 2, r_o ** 2
    curvature = epsilon * r_o_sq

    def evaluate(s):
        s = np.asarray(s, dtype=float)
        f = r_o * np.sqrt(1.0 + epsilon * s * s / amp_sq)
        df = epsilon * s * r_o_sq / (amp_sq * f)
        d2f = curvature / (amp_sq * f) - df * df / f
        return f, df, d2f

    s_grid = amplitude * t_tail
    f, df, d2f = evaluate(s_grid)
    return SampledProfile(
        s_grid=s_grid,
        f=f,
        df=df,
        d2f=d2f,
        provenance=np.full(s_grid.size, "collar"),
        charge=spec.q,
        evaluator=evaluate,
    )
