"""Tests for collar extensions over paths of sphere metrics."""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import replace
from decimal import Decimal, localcontext
from functools import cached_property

import numpy as np
import pytest

from charged_extensions import collar as co
from charged_extensions import cli_io, sphere_seed
from charged_extensions.errors import (
    ConstructionError,
    DomainError,
    PreconditionError,
)
from charged_extensions.quasilocal import hawking_rotsym, m_o, unit_sphere_volume

@pytest.fixture(scope="module")
def round2():
    return sphere_seed.round_path(2, 1.0, n_t=513)


@pytest.fixture(scope="module")
def round3():
    return sphere_seed.round_path(3, 1.0, n_t=513)


@pytest.fixture(scope="module")
def cos_path():
    metric = sphere_seed.axisym_metric_from_function(
        lambda theta: 0.2 * np.cos(theta), n_theta=1025
    )
    return sphere_seed.normalize_path(metric, n_t=129)


def round_spec(path, epsilon=0.1, kappa=0.95, case=co.CONSTANT_LAPSE, q=0.0, lam=0.0):
    return co.CollarSpec(
        path=path,
        epsilon=epsilon,
        kappa=kappa,
        case_id=case,
        q=q,
        lam=lam,
    )


def round_collar(path, amplitude=2.0, **fields):
    """The collar of ``round_spec(path, **fields)`` at lapse amplitude ``amplitude``."""
    return co.build_collar(round_spec(path, **fields), amplitude)


def _record_fields(monkeypatch):
    """The list of specs whose elementwise margin fields are built from now on."""
    built = []
    original = co.CollarSpec.fields.func

    def recording(spec):
        built.append(spec)
        return original(spec)

    fields = cached_property(recording)
    fields.__set_name__(co.CollarSpec, "fields")
    monkeypatch.setattr(co.CollarSpec, "fields", fields)
    return built


class TestSpecValidation:
    def test_rejects_bad_case_id(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, case="Mystery")

    def test_rejects_epsilon_out_of_range(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, epsilon=0.0)
        with pytest.raises(DomainError):
            round_spec(round2, epsilon=1.5)

    @pytest.mark.parametrize("amplitude", [0.0, -1.0])
    def test_build_collar_rejects_nonpositive_amplitude(self, round2, amplitude):
        spec = round_spec(round2)
        with pytest.raises(DomainError) as error:
            co.build_collar(spec, amplitude)
        assert str(error.value) == f"lapse amplitude must be positive, got {amplitude!r}"

    def test_rejects_negative_kappa(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, kappa=-0.1)

    def test_rejects_positive_lambda(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, lam=0.2)

    def test_rejects_overlarge_charge(self, round2):
        with pytest.raises(PreconditionError):
            round_spec(round2, q=5.0)

    def test_radius_is_the_path_radius(self, round2, cos_path):
        for path in (round2, cos_path):
            assert round_spec(path, kappa=0.8).r_o == path.r_o


def scalar_curvature_at(collar, t):
    """Scalar curvature of the built collar at the t sample nearest t."""
    k = int(np.argmin(np.abs(collar.spec.path.t_grid - t)))
    return float(collar.scalar_curvature[k, 0])


class TestScalarCurvature:
    def test_boundary_slice_closed_form(self, round2):
        collar = round_collar(round2, epsilon=0.1, amplitude=2.0)
        value = scalar_curvature_at(collar, 0.0)
        assert math.isclose(value, 2.0 - 4.0 * 0.1 / 4.0, rel_tol=0.0, abs_tol=1e-12)

    def test_round_matches_radial_formula(self, round2):
        collar = round_collar(round2, epsilon=0.25, amplitude=1.7)
        n, amplitude, epsilon = 2, 1.7, 0.25
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = amplitude * t
            f = math.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
            df = epsilon * s / (amplitude ** 2 * f)
            d2f = epsilon / (amplitude ** 2 * f) - df * df / f
            expected = n * ((n - 1) * (1.0 - df * df) - 2.0 * f * d2f) / f ** 2
            got = scalar_curvature_at(collar, t)
            assert math.isclose(got, expected, rel_tol=0.0, abs_tol=1e-10)

    def test_small_epsilon_limit(self, round2):
        collar = round_collar(round2, epsilon=1e-6, amplitude=50.0)
        for t in (0.0, 0.5, 1.0):
            assert math.isclose(
                scalar_curvature_at(collar, t), 2.0, rel_tol=0.0, abs_tol=1e-5
            )


class TestBuildCollar:
    def test_round_margin_and_mean_curvature(self, round2):
        built = round_collar(round2, epsilon=0.1, amplitude=2.0)
        assert np.min(built.dec_margin) > 0.0
        assert built.mean_curvature[0] == 0.0
        assert np.all(built.mean_curvature[1:] > 0.0)
        t = round2.t_grid
        F = np.sqrt(1.0 + 0.1 * t * t)
        expected = 0.1 * t / F ** 2
        assert np.max(np.abs(built.mean_curvature - expected)) < 1e-14

    def test_margin_failure_reports_worst_point(self, round2):
        spec = round_spec(round2, epsilon=0.5)
        with pytest.raises(ConstructionError) as err:
            co.build_collar(spec, 0.05)
        diag = err.value.diagnostics
        assert diag["min_margin"] < 0.0
        assert 0.0 <= diag["t"] <= 1.0

    def test_eigen_equals_constant_on_round(self, round2):
        const = round_collar(round2, epsilon=0.1, amplitude=2.0)
        eigen = round_collar(round2, epsilon=0.1, amplitude=2.0, case=co.EIGENFUNCTION_LAPSE)
        assert np.array_equal(const.scalar_curvature, eigen.scalar_curvature)
        assert np.array_equal(const.hawking.mass, eigen.hawking.mass)

    def test_axisym_constant_lapse_margin(self, cos_path):
        built = round_collar(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8)
        assert np.min(built.dec_margin) > 0.0

    def test_axisym_eigen_lapse_margin(self, cos_path):
        built = round_collar(
            cos_path, epsilon=0.1, amplitude=3.0, kappa=0.2,
            case=co.EIGENFUNCTION_LAPSE,
        )
        assert np.min(built.dec_margin) > 0.0
        assert built.mean_curvature[0] == 0.0

    def test_eigen_collars_share_the_path_inverse_square_integral(self, cos_path, monkeypatch):
        # Every eigenfunction-lapse collar of a path reads one memoized
        # O(n_t) array; building more collars integrates no slice again.
        spec = round_spec(cos_path, epsilon=0.1, kappa=0.2, case=co.EIGENFUNCTION_LAPSE)
        first = co.build_collar(spec, 3.0).hawking
        integral = co._slice_inverse_square_integral(spec)
        assert integral is cos_path.inverse_square_integral
        assert integral.shape == cos_path.t_grid.shape
        monkeypatch.setattr(sphere_seed, "simpson_uniform", None)
        again = co.build_collar(spec, 4.0).hawking
        other = replace(spec, epsilon=0.2)
        co.build_collar(other, 4.0)
        assert co._slice_inverse_square_integral(other) is integral
        assert np.any(again.mass != first.mass)

    # The charge gaps are positive; the curvature test of the lapse fails
    # where the spec is made.
    def test_inadmissible_floor_raises(self, round2):
        with pytest.raises(PreconditionError, match="no admissible curvature floor"):
            round_spec(round2, kappa=1.2, lam=0.0)

    def test_eigen_needs_eigenvalue_above_kappa(self, round2):
        with pytest.raises(PreconditionError, match="eigenfunction lapse needs kappa"):
            round_spec(round2, kappa=1.5, lam=-1.6, case=co.EIGENFUNCTION_LAPSE)


class TestAmplitudeSearch:
    def test_amplitude_eigen_matches_constant_on_round(self, round2):
        constant = co.find_A0(round_spec(round2, 0.1, 0.95, co.CONSTANT_LAPSE))
        eigen = co.find_A0(round_spec(round2, 0.1, 0.95, co.EIGENFUNCTION_LAPSE))
        assert constant == eigen

    @pytest.mark.parametrize("kappa", [0.95, 0.8])
    def test_A0_margin_is_a_fraction_of_the_core(self, round2, cos_path, kappa):
        # At A0^2 = 1.05 crossing the margin keeps (1 - 1 / 1.05) of the
        # core at every sample, up to rounding.
        path = round2 if kappa == 0.95 else cos_path
        spec = round_spec(path, 0.1, kappa, co.CONSTANT_LAPSE)
        margin = co.build_collar(spec, co.find_A0(spec)).dec_margin
        assert np.all(margin >= (1.0 - 1.0 / 1.05) * (1.0 - 1e-9) * spec.core)

    def test_refined_is_locally_minimal(self, round2):
        spec = round_spec(round2, epsilon=0.1)
        a0 = co.find_A0(spec)
        with pytest.raises(ConstructionError):
            co.build_collar(spec, a0 / 1.051)

    def test_amplitude_grows_with_charge(self, round2):
        values = [
            co.find_A0(round_spec(round2, 0.1, 0.95, co.CONSTANT_LAPSE, q))
            for q in (0.0, 0.4, 0.7)
        ]
        assert values[0] < values[1] < values[2]

    def test_double_amplitude_always_passes(self, round2, round3):
        for path in (round2, round3):
            a0 = co.find_A0(round_spec(path, epsilon=0.05))
            built = round_collar(path, epsilon=0.05, amplitude=2 * a0)
            assert np.min(built.dec_margin) > 0.0

    @pytest.mark.parametrize("case", [co.CONSTANT_LAPSE, co.EIGENFUNCTION_LAPSE])
    def test_A0_spec_builds_from_the_search_margin_fields(self, cos_path, case, monkeypatch):
        # The spec find_A0 read builds the collar at A0 and at any other
        # amplitude: the build computes no margin fields, and each collar
        # equals one built from a fresh spec bit for bit; the grids, read
        # later, build the spec's fields once.
        spec = round_spec(cos_path, 0.1, 0.8, case, 0.1, -1.0)
        a0 = co.find_A0(spec)
        assert a0 == co.find_A0(round_spec(cos_path, 0.1, 0.8, case, 0.1, -1.0))
        amplitudes = (a0, 2.0 * a0)
        fresh = [co.build_collar(round_spec(cos_path, 0.1, 0.8, case, 0.1, -1.0), a)
                 for a in amplitudes]
        names = ("scalar_curvature", "dec_margin", "mean_curvature")
        want = [{name: getattr(r, name).tobytes() for name in names} for r in fresh]
        parts = _record_fields(monkeypatch)
        built = [co.build_collar(spec, a) for a in amplitudes]
        assert parts == []
        for collar, amplitude, reference, grids in zip(built, amplitudes, fresh, want):
            assert collar.spec is spec and collar.A == amplitude
            assert {name: getattr(collar, name).tobytes() for name in names} == grids
            assert collar.hawking.mass.tobytes() == reference.hawking.mass.tobytes()
        assert parts == [spec]

    def test_a_spec_of_other_fields_gets_its_own_margin(self, cos_path, monkeypatch):
        # Collars of one spec at two amplitudes share its margin, read once;
        # a spec of other fields reads its own.
        spec = round_spec(cos_path, epsilon=0.1, kappa=0.8)
        rows = []

        def counting(spec, original=co._row_extremes):
            rows.append(spec)
            return original(spec)

        monkeypatch.setattr(co, "_row_extremes", counting)
        collars = [co.build_collar(spec, amplitude) for amplitude in (3.0, 6.0)]
        assert all(collar.spec is spec for collar in collars)
        assert len(rows) == 1 and rows[0] is spec
        for changed in ({"epsilon": 0.2}, {"q": 0.1}, {"lam": -1.0}, {"kappa": 0.5},
                        {"case_id": co.EIGENFUNCTION_LAPSE},
                        {"path": _cos_route_path(0.2, 1025, 129)}):
            rows.clear()
            other = replace(spec, **changed)
            assert other.crossing is not None
            assert len(rows) == 1 and rows[0] is other
            assert other.shape_factor is not spec.shape_factor
            assert other.reference is not spec.reference

    def test_axisym_refined_passes(self, cos_path):
        a0 = co.find_A0(round_spec(cos_path, epsilon=0.1, kappa=0.8))
        built = round_collar(cos_path, epsilon=0.1, amplitude=a0, kappa=0.8)
        assert np.min(built.dec_margin) > 0.0


def _elementwise_crossing(spec):
    """-min(well / core) over the samples with well < 0, from the
    elementwise fields."""
    base, well = co._margin_rows(spec, slice(None))
    core = base - co._reference_density(spec)[:, None]
    negative = well < 0.0
    return -float(np.min(well[negative] / core[negative]))


def _elementwise_failure(spec, amplitude):
    """build_collar's error diagnostics at spec and amplitude, from the
    elementwise fields."""
    base, well = co._margin_rows(spec, slice(None))
    margin = (base + well / amplitude ** 2) - co._reference_density(spec)[:, None]
    worst = np.unravel_index(int(np.argmin(margin)), margin.shape)
    theta = sphere_seed.slice_geometry(spec.path).theta_grid
    return {"min_margin": float(margin[worst]), "t": float(spec.path.t_grid[worst[0]]),
            "theta": float(theta[worst[1]])}


def _assert_closed_form(path, epsilon, kappa, case, q, lam):
    """find_A0 returns sqrt(1.05 crossing) to rounding, where the collar
    certifies, and the collar a factor 1 - 2^-20 below sqrt(crossing)
    fails at the elementwise margin's worst sample."""
    spec = co.CollarSpec(path, epsilon, kappa, case, q, lam)
    a0 = co.find_A0(spec)
    crossing = _elementwise_crossing(spec)
    assert spec.crossing == crossing
    # sqrt(1.05), the square root, the product, the square and the quotient
    # each round once.
    assert math.isclose(a0 ** 2 / crossing, 1.05, rel_tol=2.0 ** -49), epsilon
    assert np.min(co.build_collar(spec, a0).dec_margin) > 0.0
    below = math.sqrt(crossing) * (1.0 - 2.0 ** -20)
    with pytest.raises(ConstructionError) as error:
        co.build_collar(spec, below)
    assert str(error.value) == "energy condition violated on the collar"
    assert repr(error.value.diagnostics) == repr(_elementwise_failure(spec, below))


def _substitute_fields(monkeypatch, base, well):
    """Make (base, well) the constant-lapse margin fields of every spec,
    for each reader of the margin: the elementwise fields and the rows of
    ``_margin_rows``, and the per-row extremes of ``_row_extremes``."""
    monkeypatch.setattr(co, "_margin_rows", lambda spec, rows: (base[rows], well[rows]))
    monkeypatch.setattr(co, "_row_extremes", lambda spec: (
        np.min(base, axis=1), np.max(base, axis=1), np.min(well, axis=1), None))


def _cos_route_path(a, n_theta, n_t):
    seed = sphere_seed.axisym_metric_from_function(lambda theta: a * np.cos(theta),
                                                   n_theta=n_theta)
    return sphere_seed.normalize_path(seed, n_t=n_t)


def _eager_eigen_margin(spec):
    """The eigenfunction lapse's (base, well) from the path's per-t grids, one
    full-grid expression each, rounding step by step as ``_margin_rows``."""
    geometry = sphere_seed.slice_geometry(spec.path)
    eigen = sphere_seed.eigen_along_path(spec.path)
    _, F, dF, d2F = (value[:, None] for value in spec.shape_factor)
    u = eigen.u
    base = geometry.scalar_curvature / F ** 2 - (2.0 * (eigen.laplace_u / u)) / F ** 2
    well = ((eigen.du_dt / u) * (2.0 * spec.n) * dF / F - co._shape_term(spec.n, F, dF, d2F)
            - 0.25 * geometry.gprime_sq) * (1.0 / (u * u))
    return base, well


@pytest.mark.parametrize("n_t", [65, 513])
@pytest.mark.parametrize("n_theta", [33, 1025])
def test_blocked_eigen_row_extremes_are_the_unblocked_expression(n_theta, n_t):
    # _row_extremes reduces blocks of t rows; its extremes and smallest
    # quotient are the whole grid's.
    path = _cos_route_path(0.62, n_theta, n_t)
    _, case, kappa = co.select_route(path, 0.0, 0.0)
    assert case == co.EIGENFUNCTION_LAPSE
    spec = co.CollarSpec(path, 0.05, kappa, case, 0.0, 0.0)
    base, well = _eager_eigen_margin(spec)
    rows_base, rows_well = co._margin_rows(spec, slice(None))
    assert rows_base.tobytes() == base.tobytes() and rows_well.tobytes() == well.tobytes()
    got = co._row_extremes(spec)
    want = (np.min(base, axis=1), np.max(base, axis=1), np.min(well, axis=1))
    for value, expected in zip(got, want):
        assert value.tobytes() == expected.tobytes()
    assert got[3] == float(np.min(well / (base - spec.reference[:, None]))) < 0.0


# (route, seed amplitude, q, lam) for each curvature-floor route on cos seeds.
_COS_ROUTES = [
    ("positive-scalar", 0.3, 0.1, 0.0),
    ("eigenfunction", 0.62, 0.0, 0.0),
    ("negative-floor", 0.6, 0.2, -3.5),
]
_EPSILONS = [1.0, 2.0 ** -2, 2.0 ** -5, 2.0 ** -9]


@pytest.fixture(scope="module")
def coarse_cos():
    """A cos path with 17 theta samples, for substituted 513 x 17 fields."""
    return _cos_route_path(0.2, 17, 513)


class TestAmplitudeCrossing:
    """find_A0 takes the amplitude from the margin's crossing in closed form."""

    @pytest.mark.parametrize("n_theta, n_t", [(1025, 513), (33, 65)])
    @pytest.mark.parametrize("route, a, q, lam", _COS_ROUTES,
                             ids=[r[0] for r in _COS_ROUTES])
    def test_cos_amplitudes_are_the_closed_form(self, route, a, q, lam, n_theta, n_t):
        path = _cos_route_path(a, n_theta, n_t)
        chosen, case, kappa = co.select_route(path, q, lam)
        assert chosen == route
        for epsilon in _EPSILONS:
            _assert_closed_form(path, epsilon, kappa, case, q, lam)

    @pytest.mark.parametrize("n_t", [513, 65])
    @pytest.mark.parametrize("n, q, lam", [(2, 0.2, -1.0), (3, 0.1, 0.0), (4, 0.05, -2.0)])
    def test_round_amplitudes_are_the_closed_form(self, n, q, lam, n_t):
        path = sphere_seed.round_path(n, 1.0, n_t=n_t)
        _, case, kappa = co.select_route(path, q, lam)
        for epsilon in _EPSILONS:
            _assert_closed_form(path, epsilon, kappa, case, q, lam)

    def test_constant_lapse_parts_are_the_full_expression(self, cos_path, round3):
        # The constant-lapse branch drops the eigen terms, which are exactly
        # zero there, and its unit factor; every bit of base and well stays.
        for path in (cos_path, round3):
            spec = round_spec(path, epsilon=0.3, kappa=0.5)
            base, well = co._margin_rows(spec, slice(None))
            geometry = sphere_seed.slice_geometry(path)
            _, F, dF, d2F = spec.shape_factor
            F, dF, d2F = F[:, None], dF[:, None], d2F[:, None]
            n = path.n
            shape = n * ((n - 1) * dF ** 2 + 2.0 * F * d2F) / F ** 2
            full_base = geometry.scalar_curvature / F ** 2 - 2.0 * 0.0 / F ** 2
            full_well = 1.0 * (2.0 * n * 0.0 * dF / F - shape - 0.25 * geometry.gprime_sq)
            full_base = np.broadcast_to(full_base, full_well.shape)
            assert base.tobytes() == full_base.tobytes()
            assert well.tobytes() == full_well.tobytes()

    @staticmethod
    def _fields(kind, shape=(513, 17)):
        """(base, well) over a 513 x 17 grid (or ``shape``), for a spec with
        q = 0 and lam = 0, whose reference density is 0."""
        base = np.ones(shape)
        well = -np.ones(shape)
        if kind == "core-negative":  # passes for 1 < A^2 < 4 only
            base[100, 2], well[100, 2] = -0.5, 2.0
        elif kind == "core-zero":
            base[100, 2], well[100, 2] = 0.0, 0.5
        elif kind == "core-subnormal":  # well / A^2 rounds back onto core
            well[:] = -0.1
            base[7, 1], well[7, 1] = 1.5e-323, -1.5e-323
        elif kind == "well-zero":
            well[:, 3] = 0.0
        elif kind == "well-positive":
            well[300, 0] = 0.1
        elif kind == "core-nan":
            base[5, 0] = math.nan
        elif kind == "well-nan":
            well[200, 1] = math.nan
        elif kind == "never":
            base[:] = -1.0
        elif kind == "band":  # the crossing sits exactly on the amplitude 1.5
            well[:] = -0.1
            well[40, 2] = -(1.5 ** 2)
        elif kind == "wide-row":  # a crossing, but a row too wide for its bound
            base[100, 0], base[100, 1] = 1e-3, 1e6
        return base, well

    _WORST = [("core-negative", (100, 2)), ("core-zero", (100, 2)),
              ("core-subnormal", (7, 1)), ("core-nan", (5, 0)), ("well-nan", (200, 1)),
              ("never", (0, 0))]

    @pytest.mark.parametrize("kind, worst", _WORST, ids=[kind for kind, _ in _WORST])
    def test_fields_without_a_crossing_raise_at_the_worst_core(
            self, coarse_cos, kind, worst, monkeypatch):
        # A core <= 0 (even where a window of amplitudes would pass), a
        # subnormal core or a NaN leaves the margin without a crossing;
        # find_A0 names the sample of the smallest core, or of the first NaN.
        base, well = self._fields(kind)
        _substitute_fields(monkeypatch, base, well)
        _, case, kappa = co.select_route(coarse_cos, 0.0, 0.0)
        spec = co.CollarSpec(coarse_cos, 0.1, kappa, case, 0.0, 0.0)
        with pytest.raises(ConstructionError) as error:
            co.find_A0(spec)
        assert str(error.value) == "no lapse amplitude passes the margin check"
        theta = sphere_seed.slice_geometry(coarse_cos).theta_grid
        want = {"core": float(base[worst]), "well": float(well[worst]),
                "t": float(coarse_cos.t_grid[worst[0]]), "theta": float(theta[worst[1]])}
        assert repr(error.value.diagnostics) == repr(want)

    _CROSSING = [("well-zero", 1.0), ("well-positive", 1.0), ("band", 2.25), ("plain", 1.0)]

    @pytest.mark.parametrize("kind, crossing", _CROSSING, ids=[kind for kind, _ in _CROSSING])
    def test_wells_of_either_sign_have_a_crossing(self, coarse_cos, kind, crossing,
                                                  monkeypatch):
        # With core > 0 everywhere, samples with well >= 0 pass at every
        # amplitude, and the crossing is taken over the samples with well < 0.
        _substitute_fields(monkeypatch, *self._fields(kind))
        _, case, kappa = co.select_route(coarse_cos, 0.0, 0.0)
        spec = co.CollarSpec(coarse_cos, 0.1, kappa, case, 0.0, 0.0)
        assert co.find_A0(spec) == math.sqrt(1.05) * math.sqrt(crossing)
        assert spec.crossing == crossing

    @pytest.mark.parametrize("kind", ["core-negative", "core-zero", "core-subnormal",
                                      "well-zero", "well-positive", "core-nan",
                                      "well-nan", "never", "band", "wide-row", "plain"])
    def test_build_collar_verdicts_are_the_elementwise_check(self, coarse_cos, kind,
                                                             monkeypatch):
        # build_collar takes a passing verdict from the crossing only above
        # its band and where the per-row bound holds (not on "wide-row"), and
        # runs the elementwise check for every other verdict: it passes
        # where the elementwise reference does and otherwise raises its
        # error, with the same worst sample.
        path = coarse_cos
        _, case, kappa = co.select_route(path, 0.0, 0.0)
        base, well = self._fields(kind)
        _substitute_fields(monkeypatch, base, well)
        with np.errstate(invalid="ignore"):
            normal = bool(np.min(base) >= np.finfo(float).tiny)
        negative = well < 0.0
        crossing = (-float(np.min(well[negative] / base[negative]))
                    if normal and not np.isnan(well).any() else None)
        parts = _record_fields(monkeypatch)
        theta = sphere_seed.slice_geometry(path).theta_grid
        amplitudes = [0.5, 1.0, 1.5, 2.0, 40.0]
        if crossing is not None:
            amplitudes += [math.sqrt(crossing) * (1.0 + 2.0 ** -20),
                           math.sqrt(crossing) * (1.0 - 2.0 ** -20),
                           co.find_A0(co.CollarSpec(path, 0.1, kappa, case, 0.0, 0.0))]
        for amplitude in amplitudes:
            spec = co.CollarSpec(path, 0.1, kappa, case, 0.0, 0.0)
            margin = (base + well / amplitude ** 2) - co._reference_density(spec)[:, None]
            worst = np.unravel_index(int(np.argmin(margin)), margin.shape)
            parts.clear()
            if margin[worst] > 0.0:
                co.build_collar(spec, amplitude)
                certified = (kind != "wide-row" and crossing is not None
                             and amplitude ** 2 > crossing * (1.0 + 1e-12))
                assert bool(parts) != certified, amplitude
                continue
            with pytest.raises(ConstructionError) as error:
                co.build_collar(spec, amplitude)
            assert str(error.value) == "energy condition violated on the collar"
            want = {"min_margin": float(margin[worst]),
                    "t": float(path.t_grid[worst[0]]), "theta": float(theta[worst[1]])}
            assert repr(error.value.diagnostics) == repr(want)
            assert parts


class TestMarginObject:
    """The margin's crossing and row bounds read no elementwise field on the
    ladders, and the grids a collar computes on first read are the eager
    expressions'."""

    @pytest.mark.parametrize("route, a, q, lam", _COS_ROUTES + [("round", 0.0, 0.1, -1.0)],
                             ids=[r[0] for r in _COS_ROUTES] + ["round"])
    def test_lazy_grids_and_crossing_are_the_eager_expressions(self, route, a, q, lam):
        path = (sphere_seed.round_path(2, 1.0, n_t=513) if route == "round"
                else _cos_route_path(a, 1025, 513))
        _, case, kappa = co.select_route(path, q, lam)
        spec = co.CollarSpec(path, 0.05, kappa, case, q, lam)
        a0 = co.find_A0(spec)
        base, well = co._margin_rows(spec, slice(None))
        reference = co._reference_density(spec)[:, None]
        core = base - reference
        assert spec.crossing == -float(np.min(well / core))
        for amplitude in (a0, 2.0 * a0):
            built = co.build_collar(spec, amplitude)
            scalar = base + well / amplitude ** 2
            assert built.scalar_curvature.tobytes() == scalar.tobytes()
            assert built.dec_margin.tobytes() == (scalar - reference).tobytes()

    @pytest.mark.parametrize("argv", [
        ["bartnik", "--n", "2", "--seed-cos", "0.3"],
        ["bartnik", "--n", "2", "--seed-cos", "0.6", "--lambda", "-3.5"],
        ["bartnik", "--n", "2", "--seed-cos", "0.62"],
    ], ids=["cos-0.3", "cos-0.6-lam", "cos-0.62-eigen"])
    def test_ladders_build_no_elementwise_field(self, argv, monkeypatch):
        # A guard on work: every amplitude and every build of a default cos
        # ladder is decided from the crossing and the row bounds.
        calls = []

        def recording(name):
            def record(*args):
                calls.append(name)
                raise AssertionError(name)
            return record

        monkeypatch.setattr(co.CollarSpec, "fields", property(recording("fields")))
        for grid in ("scalar_curvature", "dec_margin"):
            monkeypatch.setattr(co.ChargedCollar, grid, property(recording(grid)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_io.main(argv) == 0
        assert calls == []
        assert out.getvalue().count('"succeeded": true') == 7


class TestHawkingCurve:
    def test_starts_at_reference_mass(self, round2, round3):
        for path, q, lam in ((round2, 0.0, 0.0), (round2, 0.3, -0.5), (round3, 0.2, 0.0)):
            curve = round_collar(path, epsilon=0.1, amplitude=3.0, q=q, lam=lam).hawking
            assert abs(curve.mass[0] - m_o(path.n, 1.0, q, lam)) < 1e-12
            assert curve.charge == q

    def test_round_3_closed_form(self, round3):
        epsilon, amplitude = 0.1, 2.0
        curve = round_collar(round3, epsilon=epsilon, amplitude=amplitude).hawking
        t = curve.t_grid
        expected = 0.5 * (1.0 + epsilon * t * t - epsilon ** 2 * t * t / amplitude ** 2)
        assert np.max(np.abs(curve.mass - expected)) < 1e-13

    def test_matches_radial_mass_evaluator(self, round2):
        epsilon, amplitude, q, lam = 0.2, 2.5, 0.3, -0.4
        curve = round_collar(round2, epsilon=epsilon, amplitude=amplitude, q=q,
                             lam=lam).hawking
        for idx in (0, 100, 256, 400, 512):
            t = curve.t_grid[idx]
            s = amplitude * t
            f = math.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
            df = epsilon * s / (amplitude ** 2 * f)
            other = hawking_rotsym(2, q, lam, f, df)
            assert math.isclose(curve.mass[idx], other, rel_tol=0.0, abs_tol=1e-12)

    def test_final_mass_bounds(self, round2, round3):
        for path in (round2, round3):
            n = path.n
            for epsilon in (0.05, 0.1):
                spec = round_spec(path, epsilon, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
                curve = co.build_collar(spec, 2 * co.find_A0(spec)).hawking
                reference = m_o(n, 1.0, 0.0, 0.0)
                assert curve.mass[-1] > reference
                assert curve.mass[-1] < (1.0 + epsilon) ** ((n + 1) / 2.0) * reference

    def test_final_mass_taylor_gain(self, round2):
        epsilon = 0.01
        curve = round_collar(round2, epsilon=epsilon, amplitude=100.0).hawking
        gain = curve.mass[-1] - 0.5
        assert math.isclose(gain, epsilon / 4.0, rel_tol=0.02)


# (n, r_o, q, lam) of the flare solve's cases: uncharged, charged, and
# charged with a negative cosmological constant, at three radii.
FLARE_CASES = [
    (n, r_o, u * r_o ** (n - 1), lam_r2 / r_o ** 2)
    for n in (2, 3, 4)
    for r_o in (0.5, 1.0, 2.0)
    for u, lam_r2 in ((0.0, 0.0), (0.3, 0.0), (0.45, -2.5))
]


def _far_mass_gain(n, r_o, q, lam, epsilon):
    """U(epsilon) - m_o of the round tail's far-mass bound, to 40 digits."""
    with localcontext() as context:
        context.prec = 40
        r_o, q, lam = Decimal(r_o), Decimal(q), Decimal(lam)
        r = r_o * (1 + Decimal(epsilon)).sqrt()

        def u(radius):
            return (radius ** (n - 1) + q * q / radius ** (n - 1)
                    - 2 * lam * radius ** (n + 1) / (n * (n + 1))) / 2

        return u(r) - u(r_o)


class TestEpsilonSearch:
    @pytest.mark.parametrize("n, r_o, q, lam", FLARE_CASES)
    def test_far_mass_bound_gains_the_target(self, n, r_o, q, lam):
        # U(eps) - m_o = 0.9 (m - m_o) within an ulp of m, from gaps that
        # leave the flare below 1 down to 2^-50 (U - m_o taken by plain
        # subtraction misses by up to 3.6 ulps on these cases).
        reference = m_o(n, r_o, q, lam)
        for k in (2, 5, 10, 20, 30, 40, 50):
            mass = (1.0 + 2.0 ** -k) * reference
            gain = 0.9 * (mass - reference)
            epsilon = co.find_eps0(n, r_o, q, lam, gain)
            assert 0.0 < epsilon < 1.0
            error = _far_mass_gain(n, r_o, q, lam, epsilon) - Decimal(gain)
            assert abs(error) <= Decimal(math.ulp(mass)), k

    def test_flare_is_one_where_the_bound_falls_short(self):
        # U(1) - m_o = (sqrt(2) - 1) / 2 for the unit uncharged n = 2 sphere.
        short = 0.5 * (math.sqrt(2.0) - 1.0)
        assert co.find_eps0(2, 1.0, 0.0, 0.0, 1.01 * short) == 1.0
        assert co.find_eps0(2, 1.0, 0.0, 0.0, 10.0) == 1.0
        assert co.find_eps0(2, 1.0, 0.0, 0.0, 0.99 * short) < 1.0

    def test_requires_subextremal_radius(self):
        with pytest.raises(PreconditionError):
            co.find_eps0(2, 1.0, 1.0, 0.0, 0.1)

    @pytest.mark.parametrize("n, q, lam", [(2, 0.0, 0.0), (3, 0.1, 0.0), (2, 0.2, -1.0),
                                           (4, 0.3, -0.5)])
    @pytest.mark.parametrize("gap", [0.3, 2.0 ** -20, 2.0 ** -45])
    def test_flare_is_scale_free_bit_for_bit(self, n, q, lam, gap):
        # (r_o, q, lam, gain) -> (c r_o, c^(n-1) q, lam / c^2, c^(n-1) gain)
        # leaves the flare unchanged for c = 2^k.
        r_o = 1.3
        want = co.find_eps0(n, r_o, q, lam, gap)
        for k in range(-20, 21):
            c = 2.0 ** k
            scale = c ** (n - 1)
            got = co.find_eps0(n, c * r_o, scale * q, lam / c ** 2, scale * gap)
            assert got == want, k

    def test_gain_positive_at_returned_epsilon(self):
        epsilon = co.find_eps0(2, 1.0, 0.0, 0.0, 0.9 * 0.05)
        spec = round_spec(sphere_seed.round_path(2, 1.0, n_t=65), epsilon, 0.95,
                          co.CONSTANT_LAPSE, 0.0, 0.0)
        curve = co.build_collar(spec, co.find_A0(spec)).hawking
        assert 0.5 < curve.mass[-1] < 0.5 + 0.9 * 0.05


class TestMonotonicity:
    def test_round_2_nondecreasing(self, round2):
        built = round_collar(round2, epsilon=0.1, amplitude=3.0)
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone
        assert report.min_dmass_dt >= -1e-8
        assert abs(report.dmass_dt_origin) < 1e-10

    def test_axisym_2_nondecreasing(self, cos_path):
        built = round_collar(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8)
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone

    def test_round_3_above_threshold(self, round3):
        probe = round_collar(round3, epsilon=0.1, amplitude=1.0)
        a1 = co.monotonicity_check(probe).a1
        assert a1 is not None and a1 > math.sqrt(0.1)
        built = round_collar(round3, epsilon=0.1, amplitude=1.05 * a1)
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone
        assert report.a_satisfies_a1 and report.integral_condition_ok
        assert np.all(built.hawking.dmass_dt[1:] > 0.0)

    def test_round_3_below_threshold_unasserted(self, round3):
        probe = round_collar(round3, epsilon=0.1, amplitude=1.0)
        a1 = co.monotonicity_check(probe).a1
        built = round_collar(round3, epsilon=0.1, amplitude=0.9 * a1)
        report = co.monotonicity_check(built)
        assert not report.asserted
        assert "a1" in report.verdict

    def test_eigen_3_empirical_only(self, round3):
        built = round_collar(
            round3, epsilon=0.1, amplitude=2.0, case=co.EIGENFUNCTION_LAPSE
        )
        report = co.monotonicity_check(built)
        assert not report.asserted
        assert report.verdict == "empirical only"

    def test_integral_condition_round_equality(self, round3):
        built = round_collar(round3, epsilon=0.1, amplitude=2.0)
        report = co.monotonicity_check(built)
        bound = 6.0 * unit_sphere_volume(3)
        assert math.isclose(report.integral_condition_value, bound, rel_tol=1e-12)


class TestTailProfile:
    def test_round_tail_samples_and_derivatives(self, round2):
        epsilon, amplitude = 0.1, 2.0
        built = round_collar(round2, epsilon=epsilon, amplitude=amplitude)
        profile = co.tail_to_arclength(built)
        assert profile.s_grid[0] == 0.75 * amplitude
        assert profile.s_grid[-1] == amplitude
        assert np.all(profile.provenance == "collar")
        s = profile.s_grid
        f = np.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
        assert np.max(np.abs(profile.f - f)) < 1e-14
        assert np.max(np.abs(profile.df - epsilon * s / (amplitude ** 2 * f))) < 1e-14

    def test_dense_evaluator_consistency(self, round2):
        built = round_collar(round2, epsilon=0.1, amplitude=2.0)
        profile = co.tail_to_arclength(built)
        s = 0.875 * 2.0
        f, df, d2f = profile.evaluator(s)
        step = 1e-3
        f_minus, _, _ = profile.evaluator(s - step)
        f_plus, _, _ = profile.evaluator(s + step)
        assert math.isclose((f_plus - f_minus) / (2 * step), df, rel_tol=1e-7)
        assert math.isclose((f_plus - 2 * f + f_minus) / step ** 2, d2f, rel_tol=1e-5)

    def test_far_end_mass_identity(self, round2):
        epsilon, amplitude, q, lam = 0.1, 2.0, 0.25, -0.3
        built = round_collar(
            round2, epsilon=epsilon, amplitude=amplitude, q=q, lam=lam
        )
        profile = co.tail_to_arclength(built)
        f, df, _ = profile.evaluator(amplitude)
        other = hawking_rotsym(2, q, lam, float(f), float(df))
        assert math.isclose(built.hawking.mass[-1], other, rel_tol=0.0, abs_tol=1e-12)

    def test_charge_carried_over(self, round2):
        built = round_collar(round2, q=0.3)
        assert co.tail_to_arclength(built).charge == 0.3

    def test_axisym_tail_is_round(self, cos_path):
        built = round_collar(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8)
        profile = co.tail_to_arclength(built)
        s = profile.s_grid
        f = np.sqrt(1.0 + 0.1 * s * s / 9.0) * cos_path.r_o
        assert np.max(np.abs(profile.f - f)) < 1e-12

    def test_radial_curvature_identity_on_tail(self, round2):
        epsilon, amplitude = 0.1, 2.0
        built = round_collar(round2, epsilon=epsilon, amplitude=amplitude)
        profile = co.tail_to_arclength(built)
        tail = built.scalar_curvature[round2.t_grid >= round2.theta_switch, 0]
        assert tail.size == profile.s_grid.size
        for s, collar_value in zip(profile.s_grid[:: 32], tail[:: 32]):
            f, df, d2f = profile.evaluator(float(s))
            radial = 2.0 * ((1.0 - df * df) - 2.0 * f * d2f / 1.0) / f ** 2
            assert math.isclose(radial, collar_value, rel_tol=0.0, abs_tol=1e-6)
