"""End-to-end construction of charged extensions of minimal sphere data.

The pipeline accepts minimal-boundary sphere data (a round radius, an
axisymmetric conformal exponent, or an explicit normalized metric path),
builds a mass-gaining collar, and glues a model tail of any requested
total mass above the optimal value.  Reports embed the full resolved
configuration and the verification fields needed by downstream tooling.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import collar as co
from . import lambda_rn as rn
from . import quasilocal as ql
from . import sphere_seed as ss
from . import surgery as su
from .errors import (
    ConstructionError,
    DomainError,
    ExtensionError,
    InternalConsistencyError,
    NotApplicableError,
    PreconditionError,
    VerificationError,
)
from .numutil import json_text, simpson_uniform

__all__ = [
    "PipelineConfig",
    "BartnikDataSpec",
    "ExtensionReport",
    "BartnikReport",
    "SelftestEntry",
    "SelftestResult",
    "construct_extension",
    "verify_outward_minimizing",
    "bartnik_report",
    "selftest",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Numeric knobs of the construction pipeline.

    The grid sizes and tolerances a caller may set live here; every report
    embeds the resolved values through ``as_dict`` so that artifacts are
    self-describing.  Fixed constants of the construction are not knobs:
    the path's switch time (``sphere_seed._THETA_SWITCH``), the 5%
    curvature-floor margin (``collar._FLOOR_MARGIN``), which lives where
    ``collar.select_route`` decides kappa, the collar flare's cap of 0.9 of
    the mass headroom (``_MASS_FRACTION``) and the selftest's fixed
    tolerances and RNG seed (``_SELFTEST_SEED``).

    - ``n_t``: number of time samples along the collar path.
    - ``n_theta``: polar samples of axisymmetric seed metrics.
    - ``mass_gap_tol``: relative gap required between the far collar
      mass and the requested mass.  The model end's mass is not checked
      with it: ``surgery.glue_to_rn`` holds the far-end Hawking mass to
      the requested mass within its own 1e-8 (1 + |m_e|).
    - ``witness_floor``: largest exponent k of the mass witnesses
      (1 + 2^-k) m_o tried by ``bartnik_report``.
    """

    n_t: int = 513
    n_theta: int = 1025
    mass_gap_tol: float = 1e-8
    witness_floor: int = 7

    def __post_init__(self) -> None:
        if not isinstance(self.n_t, int) or self.n_t < 3:
            raise DomainError(f"n_t must be an integer >= 3, got {self.n_t!r}")
        if not isinstance(self.n_theta, int) or self.n_theta < 5:
            raise DomainError(
                f"n_theta must be an integer >= 5, got {self.n_theta!r}"
            )
        if not self.mass_gap_tol > 0.0:
            raise DomainError(
                f"mass_gap_tol must be positive, got {self.mass_gap_tol!r}"
            )
        if not isinstance(self.witness_floor, int) or self.witness_floor < 1:
            raise DomainError(
                f"witness_floor must be an integer >= 1, got {self.witness_floor!r}"
            )

    def as_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


def _resolve_config(config: PipelineConfig | None) -> PipelineConfig:
    if config is None:
        return PipelineConfig()
    if not isinstance(config, PipelineConfig):
        raise DomainError(f"config must be a PipelineConfig, got {type(config)!r}")
    return config


# ---------------------------------------------------------------------------
# Input data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BartnikDataSpec:
    """Minimal-boundary sphere data fed to the construction pipeline.

    Exactly one seed source must be given: a round radius ``r_o``, an
    axisymmetric conformal exponent ``exponent`` (dimension two only), or
    an explicit normalized metric ``path``.  ``h_o`` is the boundary mean
    curvature; only minimal data (``h_o`` identically zero) is supported.
    """

    n: int
    q: float
    lam: float
    r_o: float | None = None
    exponent: Callable[[np.ndarray], np.ndarray] | None = None
    path: ss.MetricPath | None = None
    h_o: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n!r}")
        if not math.isfinite(self.q):
            raise DomainError(f"charge must be finite, got {self.q!r}")
        if not (math.isfinite(self.lam) and self.lam <= 0.0):
            raise DomainError(
                f"cosmological constant must be finite and <= 0, got {self.lam!r}"
            )
        if self.h_o != 0.0:
            raise NotApplicableError(
                "only minimal boundary data is supported; "
                f"got mean curvature h_o = {self.h_o!r}"
            )
        sources = [
            source
            for source in (self.r_o, self.exponent, self.path)
            if source is not None
        ]
        if len(sources) != 1:
            raise DomainError(
                "exactly one seed source among r_o, exponent, path is required; "
                f"got {len(sources)}"
            )
        if self.r_o is not None and not self.r_o > 0.0:
            raise DomainError(f"round radius must be positive, got {self.r_o!r}")
        if self.exponent is not None:
            if not callable(self.exponent):
                raise DomainError("exponent must be callable on polar angles")
            if self.n != 2:
                raise NotApplicableError(
                    "axisymmetric conformal seeds are only supported in "
                    f"dimension two, got n = {self.n}"
                )
        if self.path is not None and self.path.n != self.n:
            raise DomainError(
                f"path dimension {self.path.n} does not match n = {self.n}"
            )


def _resolve_path(data: BartnikDataSpec, config: PipelineConfig) -> ss.MetricPath:
    if data.path is not None:
        return data.path
    if data.exponent is not None:
        seed = ss.axisym_metric_from_function(data.exponent, n_theta=config.n_theta)
        return ss.normalize_path(seed, n_t=config.n_t)
    return ss.round_path(data.n, data.r_o, n_t=config.n_t)


# ---------------------------------------------------------------------------
# Stage bookkeeping
# ---------------------------------------------------------------------------


@contextmanager
def _stage(name: str):
    """Tag failures with the pipeline stage they occurred in."""
    try:
        yield
    except ExtensionError as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"[stage: {name}] {exc.args[0]}",) + exc.args[1:]
        else:
            exc.args = (f"[stage: {name}]",) + exc.args
        raise


# Fraction of the requested-mass headroom the collar flare may consume,
# keeping the far collar mass strictly below the requested total mass.
_MASS_FRACTION = 0.9


def _flare_parameters(
    path: ss.MetricPath,
    data: BartnikDataSpec,
    m: float,
    m_o_val: float,
    kappa: float,
    case_id: str,
) -> co.CollarSpec:
    """Joint choice of the collar flare epsilon and amplitude.

    The flare is capped by ``_MASS_FRACTION`` of the mass headroom (so the
    far collar mass stays below the requested total mass), by the collar's
    epsilon <= 1 and by the largest admissible value for the resulting
    amplitude; amplitude and flare feed each other, so the pair is iterated
    to a fixed point.  Returns the collar spec of the pair.
    """
    headroom = (m / m_o_val) ** (2.0 / (data.n + 1)) - 1.0
    eps = min(1.0, _MASS_FRACTION * headroom)
    for _ in range(6):
        spec = co.find_A0(path, eps, kappa, case_id, data.q, data.lam)
        allowed = co.find_eps0(data.n, path.r_o, data.q, data.lam, spec.A)
        if allowed >= eps:
            return spec
        # Drop this spec's margin before the next search builds its own.
        eps, spec = allowed, None
    return co.find_A0(path, eps, kappa, case_id, data.q, data.lam)


def _build_collar_tail(
    path: ss.MetricPath,
    data: BartnikDataSpec,
    config: PipelineConfig,
    m: float,
    m_o_val: float,
    kappa: float,
    case_id: str,
):
    """Build the collar, halving the flare until its far mass clears m.

    Returns the collar, its arclength tail and the tail's far mass; the
    collar's spec carries the flare, amplitude and kappa it was built with.
    """
    spec = _flare_parameters(path, data, m, m_o_val, kappa, case_id)
    floor = spec.epsilon * 2.0 ** -20
    while True:
        built = co.build_collar(spec)
        tail = co.tail_to_arclength(built)
        f_b = float(tail.f[-1])
        df_b = float(tail.df[-1])
        m_star = ql.hawking_rotsym(data.n, data.q, data.lam, f_b, df_b)
        if m_star < m and m - m_star > config.mass_gap_tol * (1.0 + abs(m)):
            return built, tail, m_star
        if spec.epsilon <= floor:
            raise ConstructionError(
                "collar flare cannot be made small enough to keep the far "
                "collar mass below the requested mass",
                diagnostics={"m": m, "m_star": m_star, "epsilon": spec.epsilon},
            )
        eps = max(floor, 0.5 * spec.epsilon)
        spec = co.find_A0(path, eps, kappa, case_id, data.q, data.lam)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExtensionReport:
    """Outcome of an end-to-end extension construction.

    ``profile`` covers the collar tail and everything glued beyond it;
    the inner half of the collar keeps its two-variable description in
    ``collar``.  ``min_margin`` is the smallest energy margin over the
    collar and surgically modified samples, which are certified strictly
    positive; ``min_margin_exact`` is the smallest margin over the exact
    model samples, where saturation leaves only a rounding-level bound.
    ``bartnik_upper_bound`` restates that the constructed admissible
    extension witnesses an upper bound of ``m_o`` for the Bartnik mass
    of the boundary data.  ``achieved_mass`` is the model end's mass,
    whose far-end Hawking mass ``surgery.glue_to_rn`` has checked.
    """

    n: int
    charge: float
    lam: float
    m_o: float
    requested_mass: float
    achieved_mass: float
    penrose_slack: float
    bartnik_upper_bound: float
    extremality: str
    horizon_radius: float
    min_margin: float
    min_margin_exact: float
    boundary_mean_curvature: float
    min_mean_curvature: float
    profile: rn.SampledProfile
    record: dict
    collar: co.ChargedCollar
    config: dict
    diagnostics: dict


def _assemble_report(
    data: BartnikDataSpec,
    config: PipelineConfig,
    m: float,
    m_o_val: float,
    built: co.ChargedCollar,
    profile: rn.SampledProfile,
    record: dict,
    cls: rn.ExtremalityClass,
    route: str,
    m_star: float,
) -> ExtensionReport:
    n, spec = data.n, built.spec
    r_o = spec.r_o
    if float(record["q_e"]) != data.q or profile.charge != data.q:
        raise InternalConsistencyError(
            "charge was not conserved through the construction: "
            f"requested {data.q!r}, attached {record['q_e']!r}, "
            f"profile {profile.charge!r}"
        )

    if cls.kind != rn.SUB_EXTREMAL or cls.r_plus is None:
        raise VerificationError(
            f"extension parameters classify as {cls.kind}; the construction "
            "requires a sub-extremal exterior"
        )

    slack = ql.penrose_slack(
        n, ql.unit_sphere_volume(n) * r_o ** n, data.q, data.lam, m
    )
    direct = m - m_o_val
    if abs(slack - direct) > 1e-10 * (1.0 + abs(m)):
        raise InternalConsistencyError(
            f"mass-inequality slack routes disagree: {slack!r} vs {direct!r}"
        )
    if not slack > 0.0:
        raise VerificationError(
            f"mass-inequality slack must be positive, got {slack!r}"
        )

    margins = su.dec_margin_operator(n, data.q, data.lam, profile)
    strict = np.isin(profile.provenance, ("collar", "mollified"))
    if not np.any(strict):
        raise InternalConsistencyError("no certified-strict samples in the output")
    min_margin = float(np.min(margins[strict]))
    exact = ~strict
    min_margin_exact = float(np.min(margins[exact])) if np.any(exact) else min_margin
    if not min_margin > 0.0:
        raise VerificationError(
            f"energy margin fails on the certified region: {min_margin!r}"
        )

    h_profile = n * profile.df / profile.f
    boundary_h = float(built.mean_curvature[0])
    min_h = min(
        float(np.min(built.mean_curvature[1:])), float(np.min(h_profile))
    )

    diagnostics = {
        "route": route,
        "kappa": spec.kappa,
        "epsilon": spec.epsilon,
        "amplitude": spec.A,
        "far_collar_mass": m_star,
        "boundary_radius": r_o,
        "gluing_radius": float(record["r_C"]),
        "match_station": float(record["s_match"]),
        "samples": int(profile.s_grid.size),
        "bartnik_statement": (
            f"Bartnik mass <= {m_o_val!r}, witnessed by an admissible "
            f"extension of total mass {m!r}"
        ),
    }
    if route == "eigenfunction":
        eigen = ss.eigen_along_path(spec.path)
        diagnostics["eigen"] = {
            "modes": eigen.modes,
            "tail": eigen.tail,
            "min_lambda1": float(np.min(eigen.lambda1)),
        }
    return ExtensionReport(
        n=n,
        charge=data.q,
        lam=data.lam,
        m_o=m_o_val,
        requested_mass=m,
        achieved_mass=float(record["m_e"]),
        penrose_slack=slack,
        bartnik_upper_bound=m_o_val,
        extremality=cls.kind,
        horizon_radius=float(cls.r_plus),
        min_margin=min_margin,
        min_margin_exact=min_margin_exact,
        boundary_mean_curvature=boundary_h,
        min_mean_curvature=min_h,
        profile=profile,
        record=dict(record),
        collar=built,
        config=config.as_dict(),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def construct_extension(
    data: BartnikDataSpec,
    m: float,
    config: PipelineConfig | None = None,
) -> ExtensionReport:
    """Construct an admissible extension of total mass m for the data.

    The requested mass must strictly exceed the optimal mass of the
    minimal boundary.  The construction chain is: resolve the seed into
    a normalized path, pick the curvature floor and lapse route, build a
    mass-gaining collar whose far mass stays below m, and glue a model
    tail achieving exactly m.  Failures carry the stage they occur in.
    """
    config = _resolve_config(config)
    if not isinstance(data, BartnikDataSpec):
        raise DomainError(f"data must be a BartnikDataSpec, got {type(data)!r}")
    m = float(m)
    if not math.isfinite(m):
        raise DomainError(f"requested mass must be finite, got {m!r}")

    with _stage("seed"):
        path = _resolve_path(data, config)
        m_o_val = ql.m_o(data.n, path.r_o, data.q, data.lam)
        if not m > m_o_val:
            raise PreconditionError(
                f"requested mass {m!r} does not exceed the optimal mass "
                f"{m_o_val!r} of the minimal boundary"
            )

    with _stage("curvature-floor"):
        route, case_id, kappa = co.select_route(path, data.q, data.lam)

    with _stage("collar"):
        built, tail, m_star = _build_collar_tail(
            path, data, config, m, m_o_val, kappa, case_id
        )

    with _stage("surgery"):
        cls = rn.classify(rn.RNParams(n=data.n, m=m, q=data.q, lam=data.lam))
        profile, record = su.glue_to_rn(
            data.n, tail, m_star, m, data.q, data.lam, cls=cls
        )

    with _stage("verification"):
        return _assemble_report(
            data, config, m, m_o_val, built, profile, record, cls, route, m_star
        )


def verify_outward_minimizing(report: ExtensionReport) -> str:
    """Verdict on whether the boundary of an extension is outward-minimizing.

    The verdict is ``"pass"`` when the boundary slice is minimal and every
    later slice of the foliation has strictly positive mean curvature,
    which rules out competing minimal surfaces, and ``"fail"`` otherwise.
    """
    if not isinstance(report, ExtensionReport):
        raise DomainError(f"expected an ExtensionReport, got {type(report)!r}")
    h_profile = report.n * report.profile.df / report.profile.f
    ok = (
        report.boundary_mean_curvature == 0.0
        and report.min_mean_curvature > 0.0
        and bool(np.all(h_profile > 0.0))
    )
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# Mass upper-bound report
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BartnikReport:
    """Witnessed upper bound on the Bartnik mass of minimal sphere data.

    The optimal mass ``m_o`` of the boundary bounds the Bartnik mass
    from above as soon as admissible extensions of total mass
    arbitrarily close to ``m_o`` exist; ``witnesses`` records one
    construction attempt per mass (1 + 2^-k) m_o.  ``witnessed`` is
    False when every attempt failed, which leaves the bound unproven
    rather than asserting the admissible class is empty.
    """

    n: int
    charge: float
    lam: float
    r_o: float
    m_o: float
    upper_bound: float
    subextremality: str
    classification: str
    horizon_radius: float | None
    horizon_matches_boundary: bool
    witnesses: list[dict]
    witnessed: bool
    witness_gap: float | None
    config: dict


def bartnik_report(
    data: BartnikDataSpec, config: PipelineConfig | None = None
) -> BartnikReport:
    """Upper-bound report for the Bartnik mass of the given data.

    Checks the a-priori sub-extremality of the boundary through two
    routes (the companion-polynomial sign and the model classifier,
    whose outer root must sit at the boundary radius) and then witnesses
    the bound with a ladder of constructions at masses (1 + 2^-k) m_o
    for k = 1 up to the configured floor.
    """
    config = _resolve_config(config)
    if not isinstance(data, BartnikDataSpec):
        raise DomainError(f"data must be a BartnikDataSpec, got {type(data)!r}")

    with _stage("seed"):
        path = _resolve_path(data, config)
    # Every witness builds on this one path and its memoized fields.
    ladder_data = replace(data, r_o=None, exponent=None, path=path)
    r_o = path.r_o
    m_o_val = ql.m_o(data.n, r_o, data.q, data.lam)
    verdict = ql.ql_subextremality(data.n, data.q, data.lam, r_o)
    cls = rn.classify(rn.RNParams(n=data.n, m=m_o_val, q=data.q, lam=data.lam))
    matches = (
        cls.r_plus is not None and abs(cls.r_plus - r_o) <= 1e-9 * (1.0 + r_o)
    )

    witnesses = []
    gap = None
    for k in range(1, config.witness_floor + 1):
        mass = (1.0 + 2.0 ** -k) * m_o_val
        entry: dict = {"k": k, "mass": mass}
        try:
            report = construct_extension(ladder_data, mass, config)
        except ExtensionError as exc:
            entry["succeeded"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            entry["succeeded"] = True
            entry["gluing_radius"] = float(report.record["r_C"])
            entry["match_station"] = float(report.record["s_match"])
            entry["penrose_slack"] = report.penrose_slack
            margin = mass - m_o_val
            gap = margin if gap is None else min(gap, margin)
        witnesses.append(entry)

    return BartnikReport(
        n=data.n,
        charge=data.q,
        lam=data.lam,
        r_o=r_o,
        m_o=m_o_val,
        upper_bound=m_o_val,
        subextremality=verdict,
        classification=cls.kind,
        horizon_radius=None if cls.r_plus is None else float(cls.r_plus),
        horizon_matches_boundary=bool(matches),
        witnesses=witnesses,
        witnessed=any(entry["succeeded"] for entry in witnesses),
        witness_gap=gap,
        config=config.as_dict(),
    )


# ---------------------------------------------------------------------------
# Selftest criteria
# ---------------------------------------------------------------------------


# RNG seed of the randomized criteria C1 and C2.
_SELFTEST_SEED = 20260823


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


def _far_end_mass(n: int, q: float, lam: float, profile: rn.SampledProfile) -> float:
    """Hawking mass of the coordinate sphere at a profile's last sample."""
    return ql.hawking_rotsym(n, q, lam, float(profile.f[-1]), float(profile.df[-1]))


def _criterion_horizons(config: PipelineConfig) -> dict:
    tol = 1e-10
    rng = np.random.default_rng(_SELFTEST_SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        mass = float(rng.uniform(0.2, 5.0))
        ratio = float(rng.uniform(0.05, 0.95))
        charge = math.copysign(ratio * mass, rng.uniform(-1.0, 1.0))
        cls = rn.classify(rn.RNParams(n=n, m=mass, q=charge, lam=0.0))
        _require(
            cls.kind == rn.SUB_EXTREMAL and cls.r_plus is not None,
            f"m > |q| parameters misclassified as {cls.kind}",
        )
        closed = (mass + math.sqrt(mass * mass - charge * charge)) ** (
            1.0 / (n - 1)
        )
        worst = max(worst, abs(cls.r_plus - closed))
    _require(worst < tol, f"horizon radius error {worst!r} exceeds {tol!r}")
    for n in (2, 3):
        cls = rn.classify(rn.RNParams(n=n, m=0.7, q=0.7, lam=0.0))
        _require(
            cls.kind == rn.EXTREMAL,
            f"m = |q| parameters misclassified as {cls.kind}",
        )
    return {"samples": 200, "max_error": worst, "tol": tol}


def _criterion_root_identity(config: PipelineConfig) -> dict:
    tol = 1e-8
    rng = np.random.default_rng(_SELFTEST_SEED + 1)
    worst = 0.0
    roots = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        mass = float(rng.uniform(0.3, 4.0))
        # A charge well away from zero keeps the inner root at unit scale,
        # where the absolute tolerance is meaningful; as q -> 0 that root
        # collapses and p' grows like r^(1-2n), drowning the identity in
        # rounding noise.
        ratio = float(rng.uniform(0.3, 0.9))
        charge = math.copysign(ratio * mass, rng.uniform(-1.0, 1.0))
        lam = -float(rng.uniform(0.0, 4.0))
        params = rn.RNParams(n=n, m=mass, q=charge, lam=lam)
        cls = rn.classify(params)
        for root in (cls.r_plus, cls.r_minus):
            if root is None:
                continue
            roots += 1
            lhs = rn.eval_dp(params, root)
            rhs = (n - 1) * rn.eval_h(params, root) / root ** (2 * n - 1)
            worst = max(worst, abs(lhs - rhs))
    _require(roots > 0, "no roots found over the randomized draws")
    _require(worst < tol, f"root-derivative identity error {worst!r} exceeds {tol!r}")
    return {"samples": 200, "roots": roots, "max_error": worst, "tol": tol}


def _criterion_profiles(config: PipelineConfig) -> dict:
    tol = 1e-8
    worst = 0.0
    count = 0
    for n in (2, 3):
        for lam in (0.0, -1.0):
            for mass in (0.6, 1.1, 2.3, 3.4, 4.7):
                params = rn.RNParams(n=n, m=mass, q=0.45 * mass, lam=lam)
                cls = rn.classify(params)
                _require(
                    cls.kind == rn.SUB_EXTREMAL,
                    f"profile parameter set is not sub-extremal: {params}",
                )
                profile = rn.rn_profile(params, 10.0)
                residual = float(
                    np.max(np.abs(profile.df ** 2 - rn.eval_p(params, profile.f)))
                )
                worst = max(worst, residual)
                _require(
                    bool(np.all(profile.d2f > 0.0)),
                    f"profile is not strictly convex for {params}",
                )
                count += 1
    _require(worst < tol, f"first-integral residual {worst!r} exceeds {tol!r}")
    return {"parameter_sets": count, "max_residual": worst, "tol": tol}


def _criterion_model_identity(config: PipelineConfig) -> dict:
    cases = (
        rn.RNParams(n=2, m=1.0, q=0.0, lam=0.0),
        rn.RNParams(n=2, m=1.25, q=0.75, lam=0.0),
        rn.RNParams(n=2, m=1.0, q=0.0, lam=-3.0),
    )
    worst = 0.0
    for params in cases:
        profile = rn.rn_profile(params, 8.0)
        report = rn.verify_model_identities(params, profile)
        _require(
            report.passed,
            f"scalar-curvature identity fails for {params}: "
            f"max violation {report.max_violation!r}",
        )
        worst = max(worst, report.max_violation)
    return {"cases": len(cases), "max_violation": worst, "tol": report.tol}


def _wobble(theta):
    """Conformal exponent of the axisymmetric test seed."""
    return 0.15 * np.cos(theta)


def _scalar_collar(
    path: ss.MetricPath, eps: float, min_amplitude: float = 0.0
) -> co.ChargedCollar:
    _, case_id, kappa = co.select_route(path, 0.0, 0.0)
    spec = co.find_A0(path, eps, kappa, case_id, 0.0, 0.0)
    return co.build_collar(spec.at_amplitude(max(2.0 * spec.A, min_amplitude)))


def _criterion_collar_masses(config: PipelineConfig) -> dict:
    tol = 1e-12
    details = []
    for n in (2, 3):
        reference = ql.m_o(n, 1.0, 0.0, 0.0)
        path = ss.round_path(n, 1.0, n_t=config.n_t)
        for eps in (0.05, 0.1):
            built = _scalar_collar(path, eps)
            curve = built.hawking
            start = float(curve.mass[0])
            end = float(curve.mass[-1])
            bound = (1.0 + eps) ** ((n + 1) / 2.0) * reference
            _require(
                abs(start - reference) < tol * (1.0 + reference),
                f"boundary mass {start!r} differs from m_o {reference!r}",
            )
            _require(
                reference < end < bound,
                f"far mass {end!r} leaves ({reference!r}, {bound!r})",
            )
            details.append(
                {"n": n, "epsilon": eps, "mass_start": start, "mass_end": end}
            )
    return {"collars": details, "tol": tol}


def _criterion_monotonicity(config: PipelineConfig) -> dict:
    details = {}

    round2 = ss.round_path(2, 1.0, n_t=config.n_t)
    built = _scalar_collar(round2, 0.05)
    report = co.monotonicity_check(built)
    _require(
        report.monotone,
        f"round n=2 mass derivative dips to {report.min_dmass_dt!r}",
    )
    details["round_n2_min"] = report.min_dmass_dt

    seed = ss.axisym_metric_from_function(_wobble, n_theta=config.n_theta)
    path = ss.normalize_path(seed, n_t=config.n_t)
    report = co.monotonicity_check(_scalar_collar(path, 0.05))
    _require(
        report.monotone,
        f"axisymmetric mass derivative dips to {report.min_dmass_dt!r}",
    )
    details["axisym_min"] = report.min_dmass_dt

    round3 = ss.round_path(3, 1.0, n_t=config.n_t)
    built3 = _scalar_collar(round3, 0.05)
    report = co.monotonicity_check(built3)
    if not report.asserted and report.a1 is not None:
        built3 = _scalar_collar(round3, 0.05, min_amplitude=1.05 * report.a1)
        report = co.monotonicity_check(built3)
    _require(
        report.asserted,
        f"n=3 monotonicity is not asserted: {report.verdict}",
    )
    curve = built3.hawking
    mask = curve.t_grid > 0.02
    interior = float(np.min(curve.dmass_dt[mask]))
    _require(
        interior > 0.0,
        f"n=3 mass derivative is not positive beyond t = 0.02: {interior!r}",
    )
    details["round_n3_interior_min"] = interior
    details["round_n3_a1"] = report.a1
    return details


def _criterion_gluing(config: PipelineConfig) -> dict:
    params = rn.RNParams(n=2, m=1.0, q=0.0, lam=0.0)
    left, _, glued, record = su.glue_bent_model(params, 3.0, 1.2)

    _require(
        bool(np.all(glued.df > 0.0)), "glued profile is not strictly increasing"
    )
    midpoint = 0.5 * (left.s_grid[0] + left.s_grid[-1])
    protected = left.s_grid <= midpoint
    kept = np.isin(glued.s_grid, left.s_grid[protected])
    matched = int(np.count_nonzero(kept))
    _require(
        matched == int(np.count_nonzero(protected)),
        f"only {matched} input samples survive on the protected half",
    )
    _require(
        bool(np.array_equal(glued.f[kept], left.f[protected]))
        and bool(np.array_equal(glued.df[kept], left.df[protected])),
        "protected half-interval samples were modified",
    )
    margins = su.dec_margin_operator(2, 0.0, 0.0, glued)
    mollified = glued.provenance == "mollified"
    interior = float(np.min(margins[mollified]))
    overall = float(np.min(margins))
    _require(interior > 0.0, f"mollified margin is not positive: {interior!r}")
    _require(
        overall >= -1e-9,
        f"saturated-tail margin dips to {overall!r}",
    )
    return {
        "far_mass": _far_end_mass(2, 0.0, 0.0, glued),
        "preserved_samples": matched,
        "min_mollified_margin": interior,
        "min_margin": overall,
    }


def _criterion_extensions(config: PipelineConfig) -> dict:
    tol = 1e-8
    details = []

    round_data = BartnikDataSpec(n=2, q=0.0, lam=0.0, r_o=1.0)
    report = construct_extension(round_data, 0.55, config)
    far_mass = _far_end_mass(report.n, report.charge, report.lam, report.profile)
    _require(
        abs(far_mass - 0.55) <= tol * (1.0 + 0.55),
        f"round flat extension misses the mass: {far_mass!r}",
    )
    _require(
        abs(report.penrose_slack - 0.05) <= tol,
        f"round flat slack is {report.penrose_slack!r}, expected 0.05",
    )
    _require(
        report.extremality == rn.SUB_EXTREMAL,
        f"extension classifies as {report.extremality}",
    )
    _require(
        verify_outward_minimizing(report) == "pass",
        "extension boundary is not outward-minimizing",
    )
    details.append({"kind": "round-flat", "mass": report.achieved_mass})

    seed = ss.axisym_metric_from_function(_wobble, n_theta=config.n_theta)
    reference = ql.m_o(2, seed.volume_radius, 0.2, -3.0)
    axi_data = BartnikDataSpec(n=2, q=0.2, lam=-3.0, exponent=_wobble)
    report = construct_extension(axi_data, 1.05 * reference, config)
    far_mass = _far_end_mass(report.n, report.charge, report.lam, report.profile)
    _require(
        abs(far_mass - 1.05 * reference) <= tol * (1.0 + reference),
        f"axisymmetric extension misses the mass: {far_mass!r}",
    )
    _require(
        abs(report.penrose_slack - 0.05 * reference) <= tol * (1.0 + reference),
        f"axisymmetric slack is {report.penrose_slack!r}",
    )
    _require(
        report.extremality == rn.SUB_EXTREMAL,
        f"extension classifies as {report.extremality}",
    )
    _require(
        verify_outward_minimizing(report) == "pass",
        "axisymmetric extension boundary is not outward-minimizing",
    )
    details.append({"kind": "axisym-charged-ads", "mass": report.achieved_mass})

    reference = ql.m_o(3, 1.0, 0.1, 0.0)
    high_data = BartnikDataSpec(n=3, q=0.1, lam=0.0, r_o=1.0)
    report = construct_extension(high_data, 1.02 * reference, config)
    far_mass = _far_end_mass(report.n, report.charge, report.lam, report.profile)
    _require(
        abs(far_mass - 1.02 * reference) <= tol * (1.0 + reference),
        f"n=3 extension misses the mass: {far_mass!r}",
    )
    _require(
        abs(report.penrose_slack - 0.02 * reference) <= tol * (1.0 + reference),
        f"n=3 slack is {report.penrose_slack!r}",
    )
    _require(
        report.extremality == rn.SUB_EXTREMAL,
        f"extension classifies as {report.extremality}",
    )
    _require(
        verify_outward_minimizing(report) == "pass",
        "n=3 extension boundary is not outward-minimizing",
    )
    details.append({"kind": "round-charged-n3", "mass": report.achieved_mass})
    return {"instances": details, "tol": tol}


def _criterion_mass_dial(config: PipelineConfig) -> dict:
    tol = 1e-8
    data = BartnikDataSpec(n=2, q=0.0, lam=0.0, r_o=1.0)
    reference = ql.m_o(2, 1.0, 0.0, 0.0)
    masses = []
    for k in range(1, 8):
        mass = (1.0 + 2.0 ** -k) * reference
        report = construct_extension(data, mass, config)
        far_mass = _far_end_mass(report.n, report.charge, report.lam, report.profile)
        _require(
            abs(far_mass - mass) <= tol * (1.0 + mass),
            f"mass dial k={k} misses the target: {far_mass!r}",
        )
        _require(
            abs(report.penrose_slack - 2.0 ** -k * reference) <= tol,
            f"mass dial k={k} slack is {report.penrose_slack!r}",
        )
        masses.append(mass)
    return {"masses": masses, "tol": tol}


def _criterion_eigenvalue(config: PipelineConfig) -> dict:
    tol = 1e-6
    value, _ = ss.lambda1(ss.round_metric(1.0, n_theta=config.n_theta))
    _require(
        abs(value - 1.0) < tol,
        f"round-sphere eigenvalue {value!r} differs from 1 beyond {tol!r}",
    )
    coarse, _ = ss.lambda1(ss.axisym_metric_from_function(_wobble, n_theta=1025))
    fine, _ = ss.lambda1(ss.axisym_metric_from_function(_wobble, n_theta=2049))
    _require(
        abs(coarse - fine) < tol,
        f"eigenvalue moves by {abs(coarse - fine)!r} under grid doubling",
    )
    return {
        "round_value": float(value),
        "axisym_coarse": float(coarse),
        "axisym_fine": float(fine),
        "tol": tol,
    }


def _criterion_area_gauge(config: PipelineConfig) -> dict:
    """The wobble seed's path keeps the Moser flow's continuity equation
    (``volume_form_deviation``, with d(xi rho)/dtheta taken by a theta
    stencil) within 1e-7, and every slice's Simpson area the seed's."""
    deviation_tol = 1e-7
    area_tol = 1e-10
    seed = ss.axisym_metric_from_function(_wobble, n_theta=config.n_theta)
    path = ss.normalize_path(seed, n_t=config.n_t)
    _require(
        path.volume_form_deviation < deviation_tol,
        f"volume-form deviation {path.volume_form_deviation!r} exceeds "
        f"{deviation_tol!r}",
    )
    target = ql.unit_sphere_volume(2) * path.r_o ** 2
    # Each distinct slice's area; the t samples repeat these rows.
    areas = 2.0 * math.pi * simpson_uniform(
        np.exp(2.0 * path.w) * np.sin(seed.theta_grid), seed.theta_step
    )
    worst = float(np.max(np.abs(areas - target)))
    _require(
        worst <= area_tol * (1.0 + target),
        f"slice area drifts by {worst!r} from {target!r}",
    )
    return {
        "volume_form_deviation": float(path.volume_form_deviation),
        "max_area_drift": float(worst),
        "target_area": float(target),
    }


def _criterion_determinism(config: PipelineConfig) -> dict:
    subset = (1, 2)
    first = selftest(config, criteria=subset).to_json()
    second = selftest(config, criteria=subset).to_json()
    _require(
        first == second, "selftest ledgers differ between identical runs"
    )
    return {"criteria_rerun": list(subset), "ledger_bytes": len(first)}


_CRITERIA: dict[int, tuple[str, Callable[[PipelineConfig], dict]]] = {
    1: ("closed-form horizon radii on a flat background", _criterion_horizons),
    2: ("root-derivative identity of the model potential", _criterion_root_identity),
    3: ("first-integral residual and convexity of model profiles", _criterion_profiles),
    4: ("scalar-curvature identity of reconstructed models", _criterion_model_identity),
    5: ("collar mass bookkeeping between boundary and far slice", _criterion_collar_masses),
    6: ("Hawking mass monotonicity along collars", _criterion_monotonicity),
    7: ("certified gluing of bent model profiles", _criterion_gluing),
    8: ("end-to-end extensions for three seed configurations", _criterion_extensions),
    9: ("mass dial down to a 2^-7 relative gap", _criterion_mass_dial),
    10: ("first stability eigenvalue of sphere metrics", _criterion_eigenvalue),
    11: ("area gauge of normalized axisymmetric paths", _criterion_area_gauge),
    12: ("byte-identical selftest ledgers", _criterion_determinism),
}


# ---------------------------------------------------------------------------
# Selftest runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelftestEntry:
    """Outcome of one selftest criterion."""

    criterion: int
    name: str
    passed: bool
    detail: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[C{self.criterion}] {status} {self.name}"


@dataclass(frozen=True)
class SelftestResult:
    """Machine-readable ledger of a selftest run.

    ``to_json`` is deterministic: two runs with the same configuration
    serialize to byte-identical ledgers.
    """

    entries: tuple[SelftestEntry, ...]
    config: dict
    passed: bool

    def lines(self) -> list[str]:
        return [entry.line() for entry in self.entries]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "config": self.config,
            "entries": [
                {
                    "criterion": entry.criterion,
                    "name": entry.name,
                    "passed": entry.passed,
                    "detail": entry.detail,
                }
                for entry in self.entries
            ],
        }

    def to_json(self) -> str:
        return json_text(self.as_dict())


def selftest(
    config: PipelineConfig | None = None,
    criteria: tuple[int, ...] | None = None,
) -> SelftestResult:
    """Run the acceptance criteria and return a deterministic ledger.

    ``criteria`` selects a subset by number; the default runs all of
    them.  Each criterion checks at its own fixed tolerance, which its
    ``detail`` records next to the measured value, and the randomized
    criteria draw from the fixed seed ``_SELFTEST_SEED``; ``config`` sets
    only the grids of the paths and constructions they build.
    """
    config = _resolve_config(config)
    if criteria is None:
        picked = sorted(_CRITERIA)
    else:
        picked = sorted(set(int(item) for item in criteria))
        unknown = [item for item in picked if item not in _CRITERIA]
        if unknown:
            raise DomainError(f"unknown selftest criteria: {unknown!r}")

    entries = []
    for number in picked:
        name, check = _CRITERIA[number]
        try:
            detail = check(config)
            passed = True
        except (ExtensionError, AssertionError) as exc:
            detail = {"error": f"{type(exc).__name__}: {exc}"}
            passed = False
        entries.append(
            SelftestEntry(criterion=number, name=name, passed=passed, detail=detail)
        )
    return SelftestResult(
        entries=tuple(entries),
        config=config.as_dict(),
        passed=all(entry.passed for entry in entries),
    )
