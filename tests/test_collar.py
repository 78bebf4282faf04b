"""Tests for collar extensions over paths of sphere metrics."""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from charged_extensions import collar as co
from charged_extensions import cli_io, lambda_rn, pipeline, sphere_seed
from charged_extensions.errors import (
    ConstructionError,
    DomainError,
    PreconditionError,
)
from charged_extensions.quasilocal import hawking_rotsym, m_o, unit_sphere_volume

# Closed-form amplitude estimate for a round 2-sphere collar of unit
# radius with kappa = 0.95 and no charge: sqrt(4 / 1.9).
BOUND_ROUND_2 = math.sqrt(4.0 / (2.0 * 0.95))


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


def round_spec(path, epsilon=0.1, amplitude=2.0, kappa=0.95, case=co.CONSTANT_LAPSE,
               q=0.0, lam=0.0):
    return co.CollarSpec(
        path=path,
        epsilon=epsilon,
        A=amplitude,
        kappa=kappa,
        case_id=case,
        q=q,
        lam=lam,
    )


class TestSpecValidation:
    def test_rejects_bad_case_id(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, case="Mystery")

    def test_rejects_epsilon_out_of_range(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, epsilon=0.0)
        with pytest.raises(DomainError):
            round_spec(round2, epsilon=1.5)

    def test_rejects_nonpositive_amplitude(self, round2):
        with pytest.raises(DomainError):
            round_spec(round2, amplitude=0.0)

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
            assert round_spec(path).r_o == path.r_o


def scalar_curvature_at(spec, t):
    """Scalar curvature of the built collar at the t sample nearest t."""
    k = int(np.argmin(np.abs(spec.path.t_grid - t)))
    return float(co.build_collar(spec).scalar_curvature[k, 0])


class TestScalarCurvature:
    def test_boundary_slice_closed_form(self, round2):
        spec = round_spec(round2, epsilon=0.1, amplitude=2.0)
        value = scalar_curvature_at(spec, 0.0)
        assert math.isclose(value, 2.0 - 4.0 * 0.1 / 4.0, rel_tol=0.0, abs_tol=1e-12)

    def test_round_matches_radial_formula(self, round2):
        spec = round_spec(round2, epsilon=0.25, amplitude=1.7)
        n, amplitude, epsilon = 2, 1.7, 0.25
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = amplitude * t
            f = math.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
            df = epsilon * s / (amplitude ** 2 * f)
            d2f = epsilon / (amplitude ** 2 * f) - df * df / f
            expected = n * ((n - 1) * (1.0 - df * df) - 2.0 * f * d2f) / f ** 2
            got = scalar_curvature_at(spec, t)
            assert math.isclose(got, expected, rel_tol=0.0, abs_tol=1e-10)

    def test_small_epsilon_limit(self, round2):
        spec = round_spec(round2, epsilon=1e-6, amplitude=50.0)
        for t in (0.0, 0.5, 1.0):
            assert math.isclose(
                scalar_curvature_at(spec, t), 2.0, rel_tol=0.0, abs_tol=1e-5
            )


class TestBuildCollar:
    def test_round_margin_and_mean_curvature(self, round2):
        spec = round_spec(round2, epsilon=0.1, amplitude=2.0)
        built = co.build_collar(spec)
        assert np.min(built.dec_margin) > 0.0
        assert built.mean_curvature[0] == 0.0
        assert np.all(built.mean_curvature[1:] > 0.0)
        t = round2.t_grid
        F = np.sqrt(1.0 + 0.1 * t * t)
        expected = 0.1 * t / F ** 2
        assert np.max(np.abs(built.mean_curvature - expected)) < 1e-14

    def test_margin_failure_reports_worst_point(self, round2):
        spec = round_spec(round2, epsilon=0.5, amplitude=0.05)
        with pytest.raises(ConstructionError) as err:
            co.build_collar(spec)
        diag = err.value.diagnostics
        assert diag["min_margin"] < 0.0
        assert 0.0 <= diag["t"] <= 1.0

    def test_eigen_equals_constant_on_round(self, round2):
        const = co.build_collar(round_spec(round2, epsilon=0.1, amplitude=2.0))
        eigen = co.build_collar(
            round_spec(round2, epsilon=0.1, amplitude=2.0, case=co.EIGENFUNCTION_LAPSE)
        )
        assert np.array_equal(const.scalar_curvature, eigen.scalar_curvature)
        assert np.array_equal(const.hawking.mass, eigen.hawking.mass)

    def test_axisym_constant_lapse_margin(self, cos_path):
        spec = round_spec(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8)
        built = co.build_collar(spec)
        assert np.min(built.dec_margin) > 0.0

    def test_axisym_eigen_lapse_margin(self, cos_path):
        spec = round_spec(
            cos_path, epsilon=0.1, amplitude=3.0, kappa=0.2,
            case=co.EIGENFUNCTION_LAPSE,
        )
        built = co.build_collar(spec)
        assert np.min(built.dec_margin) > 0.0
        assert built.mean_curvature[0] == 0.0

    def test_inadmissible_floor_raises(self, round2):
        spec = round_spec(round2, kappa=1.2, lam=0.0, amplitude=5.0)
        with pytest.raises(PreconditionError):
            co.build_collar(spec)

    def test_eigen_needs_eigenvalue_above_kappa(self, round2):
        spec = round_spec(round2, kappa=1.5, lam=-1.6, amplitude=5.0,
                          case=co.EIGENFUNCTION_LAPSE)
        with pytest.raises(PreconditionError):
            co.build_collar(spec)


class TestAmplitudeSearch:
    def test_bound_round_frozen_value(self, round2):
        bound = co.find_A0_bound(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
        assert bound == BOUND_ROUND_2
        assert math.isclose(bound, 1.4509525002200011, rel_tol=1e-13)

    def test_bound_eigen_matches_constant_on_round(self, round2):
        bound_c = co.find_A0_bound(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
        bound_e = co.find_A0_bound(round2, 0.1, 0.95, co.EIGENFUNCTION_LAPSE, 0.0, 0.0)
        assert bound_c == bound_e

    def test_bound_negative_floor_case(self, round2):
        bound = co.find_A0_bound(round2, 0.1, 1.2, co.CONSTANT_LAPSE, 0.0, -2.0)
        assert abs(bound - math.sqrt(4.0 / 1.6)) < 1e-14

    def test_refined_below_bound_and_passes(self, round2):
        a0 = co.find_A0(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
        bound = co.find_A0_bound(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
        assert 0.0 < a0 <= bound
        built = co.build_collar(round_spec(round2, epsilon=0.1, amplitude=a0))
        assert np.min(built.dec_margin) > 0.0

    def test_refined_is_locally_minimal(self, round2):
        a0 = co.find_A0(round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
        spec = round_spec(round2, epsilon=0.1, amplitude=a0 / 1.051)
        with pytest.raises(ConstructionError):
            co.build_collar(spec)

    def test_amplitude_grows_with_charge(self, round2):
        values = [
            co.find_A0(round2, 0.1, 0.95, co.CONSTANT_LAPSE, q, 0.0).A
            for q in (0.0, 0.4, 0.7)
        ]
        assert values[0] < values[1] < values[2]

    def test_double_amplitude_always_passes(self, round2, round3):
        for path in (round2, round3):
            a0 = co.find_A0(path, 0.05, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
            built = co.build_collar(round_spec(path, epsilon=0.05, amplitude=2 * a0))
            assert np.min(built.dec_margin) > 0.0

    @pytest.mark.parametrize("case", [co.CONSTANT_LAPSE, co.EIGENFUNCTION_LAPSE])
    def test_A0_spec_builds_from_the_search_margin_fields(self, cos_path, case, monkeypatch):
        # The search's margin object is the collar's, at A0 and at any other
        # amplitude: the build computes no margin fields, and each collar
        # equals one built from a fresh spec bit for bit; the grids, read
        # later, build the shared margin's fields once.
        spec = co.find_A0(cos_path, 0.1, 0.8, case, 0.1, -1.0)
        assert spec == round_spec(cos_path, 0.1, spec.A, 0.8, case, 0.1, -1.0)
        specs = (spec, spec.at_amplitude(2.0 * spec.A))
        assert specs[1].margin is spec.margin
        fresh = [co.build_collar(round_spec(cos_path, 0.1, s.A, 0.8, case, 0.1, -1.0))
                 for s in specs]
        names = ("scalar_curvature", "dec_margin", "mean_curvature")
        want = [{name: getattr(r, name).tobytes() for name in names} for r in fresh]
        parts = []

        def counting(*args, original=co._margin_parts):
            parts.append(args)
            return original(*args)

        monkeypatch.setattr(co, "_margin_parts", counting)
        built = [co.build_collar(s) for s in specs]
        assert parts == []
        for collar, reference, grids in zip(built, fresh, want):
            assert collar.spec.margin is spec.margin
            assert {name: getattr(collar, name).tobytes() for name in names} == grids
            assert collar.hawking.mass.tobytes() == reference.hawking.mass.tobytes()
        assert parts == [(spec.margin,)]

    def test_a_spec_of_other_fields_gets_its_own_margin(self, cos_path):
        spec = round_spec(cos_path, epsilon=0.1, kappa=0.8)
        assert spec.at_amplitude(3.0).margin is spec.margin
        for changed in ({"epsilon": 0.2}, {"q": 0.1}, {"lam": -1.0}, {"kappa": 0.5},
                        {"case_id": co.EIGENFUNCTION_LAPSE},
                        {"path": _cos_route_path(0.2, 1025, 129)}):
            other = replace(spec, **changed)
            assert other.margin is not spec.margin
            assert other.margin.path is other.path
            assert other.margin.key == (other.epsilon, other.kappa, other.case_id,
                                        other.q, other.lam)

    def test_axisym_refined_passes(self, cos_path):
        a0 = co.find_A0(cos_path, 0.1, 0.8, co.CONSTANT_LAPSE, 0.0, 0.0).A
        built = co.build_collar(
            round_spec(cos_path, epsilon=0.1, amplitude=a0, kappa=0.8)
        )
        assert np.min(built.dec_margin) > 0.0


def _elementwise_find_A0(path, epsilon, kappa, case, q, lam):
    """The amplitude search with the elementwise margin test at every probe.

    Returns (outcome, amplitude, probes): outcome "found" with the amplitude
    found, or "raised" with the ``last_tried`` of the search's error.
    """
    spec = co.CollarSpec(path, epsilon, 1.0, kappa, case, q, lam)
    base, well = co._margin_parts(spec)
    core = base - co._reference_density(spec)[:, None]
    probes = []

    def passes(amplitude):
        probes.append(amplitude)
        return float(np.min(core + well / amplitude ** 2)) > 0.0

    hi = co.find_A0_bound(path, epsilon, kappa, case, q, lam)
    bumps = 0
    while not passes(hi):
        hi *= 1.05
        bumps += 1
        if bumps > 200:
            return "raised", hi, len(probes)
    for _ in range(60):
        if passes(hi / 2.0):
            hi /= 2.0
        else:
            break
    else:
        return "found", hi, len(probes)
    lo = hi / 2.0
    while hi / lo > 1.05:
        mid = math.sqrt(hi * lo)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return "found", hi, len(probes)


def _searched(path, epsilon, kappa, case, q, lam):
    """find_A0 in the shape of _elementwise_find_A0's first two entries."""
    try:
        return "found", co.find_A0(path, epsilon, kappa, case, q, lam).A
    except ConstructionError as exc:
        assert str(exc) == "no lapse amplitude passes the margin check"
        return "raised", exc.diagnostics["last_tried"]


def _substitute_fields(monkeypatch, base, well):
    """Make (base, well) the constant-lapse margin fields of every spec,
    for each reader of the margin: the elementwise fields and the rows of
    ``_margin_rows``, and the per-row extremes of ``_row_extremes``."""
    monkeypatch.setattr(co, "_margin_rows", lambda spec, rows: (base[rows], well[rows]))
    monkeypatch.setattr(co, "_row_extremes", lambda spec: (
        np.min(base, axis=1), np.max(base, axis=1),
        np.min(well, axis=1), np.max(well, axis=1), None))


def _cos_route_path(a, n_theta, n_t):
    seed = sphere_seed.axisym_metric_from_function(lambda theta: a * np.cos(theta),
                                                   n_theta=n_theta)
    return sphere_seed.normalize_path(seed, n_t=n_t)


# (route, seed amplitude, q, lam) for each curvature-floor route on cos seeds.
_COS_ROUTES = [
    ("positive-scalar", 0.3, 0.1, 0.0),
    ("eigenfunction", 0.62, 0.0, 0.0),
    ("negative-floor", 0.6, 0.2, -3.5),
]
_EPSILONS = [1.0, 2.0 ** -2, 2.0 ** -5, 2.0 ** -9]


class TestAmplitudeCrossing:
    """find_A0 decides probes from the margin's crossing with the verdicts,
    and so the amplitude, of the elementwise search."""

    @pytest.mark.parametrize("n_theta, n_t", [(1025, 513), (33, 65)])
    @pytest.mark.parametrize("route, a, q, lam", _COS_ROUTES,
                             ids=[r[0] for r in _COS_ROUTES])
    def test_cos_amplitudes_match_the_elementwise_search(self, route, a, q, lam,
                                                         n_theta, n_t):
        path = _cos_route_path(a, n_theta, n_t)
        chosen, case, kappa = co.select_route(path, q, lam)
        assert chosen == route
        for epsilon in _EPSILONS:
            want = _elementwise_find_A0(path, epsilon, kappa, case, q, lam)
            got = _searched(path, epsilon, kappa, case, q, lam)
            assert got == want[:2], epsilon
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()

    @pytest.mark.parametrize("n, q, lam", [(2, 0.2, -1.0), (3, 0.1, 0.0), (4, 0.05, -2.0)])
    def test_round_amplitudes_match_the_elementwise_search(self, n, q, lam):
        path = sphere_seed.round_path(n, 1.0, n_t=513)
        _, case, kappa = co.select_route(path, q, lam)
        for epsilon in _EPSILONS:
            want = _elementwise_find_A0(path, epsilon, kappa, case, q, lam)
            got = _searched(path, epsilon, kappa, case, q, lam)
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
            assert got[0] == want[0] == "found"

    def test_constant_lapse_parts_are_the_full_expression(self, cos_path, round3):
        # The constant-lapse branch drops the eigen terms, which are exactly
        # zero there, and its unit factor; every bit of base and well stays.
        for path in (cos_path, round3):
            spec = round_spec(path, epsilon=0.3, kappa=0.5)
            base, well = co._margin_parts(spec)
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
    def _fields(kind, hi, shape=(513, 4)):
        """(base, well) over a 513 x 4 grid (or ``shape``), for a spec with
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
        elif kind == "band":  # the crossing sits exactly on the probe hi / 2
            well[:] = -0.1
            well[40, 2] = -((hi / 2.0) ** 2)
        elif kind == "wide-row":  # a crossing, but a row too wide for its bound
            base[100, 0], base[100, 1] = 1e-3, 1e6
        return base, well

    @pytest.mark.parametrize("kind", ["core-negative", "core-zero", "core-subnormal",
                                      "well-zero", "well-positive", "core-nan",
                                      "well-nan", "never", "band"])
    def test_fields_without_a_clear_crossing_run_the_elementwise_test(
            self, round2, kind, monkeypatch):
        # Each field either has no crossing (mixed signs, a subnormal core, a
        # NaN) or puts a probe inside the band around it; those probes run
        # the elementwise test, and the search ends as the elementwise one
        # does, with the same error and last_tried where no amplitude passes.
        args = (round2, 0.1, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0)
        hi = co.find_A0_bound(*args)
        _substitute_fields(monkeypatch, *self._fields(kind, hi))
        calls = []

        def counting(*parts, original=co._margin_passes):
            calls.append(parts[2])
            return original(*parts)

        want = _elementwise_find_A0(*args)
        monkeypatch.setattr(co, "_margin_passes", counting)
        got = _searched(*args)
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        assert got[0] == want[0]
        if kind == "band":
            assert calls == [hi / 2.0]
        else:
            assert len(calls) == want[2]
        if kind in ("core-nan", "well-nan", "never"):
            assert want[0] == "raised"

    @pytest.mark.parametrize("kind", ["core-negative", "core-zero", "core-subnormal",
                                      "well-zero", "well-positive", "core-nan",
                                      "well-nan", "never", "band", "wide-row", "plain"])
    def test_build_collar_verdicts_are_the_elementwise_check(self, kind, monkeypatch):
        # build_collar takes a passing verdict from the crossing only where
        # the per-row bound holds (not on "wide-row"), and runs the
        # elementwise check for every other verdict: it passes where the
        # elementwise reference does and otherwise raises its error, with
        # the same worst sample.
        path = _cos_route_path(0.2, 17, 513)
        _, case, kappa = co.select_route(path, 0.0, 0.0)
        args = (path, 0.1, kappa, case, 0.0, 0.0)
        hi = co.find_A0_bound(*args)
        base, well = self._fields(kind, hi, (513, 17))
        _substitute_fields(monkeypatch, base, well)
        found = _elementwise_find_A0(*args)
        parts = []

        def counting(*spec, original=co._margin_parts):
            parts.append(spec)
            return original(*spec)

        monkeypatch.setattr(co, "_margin_parts", counting)
        theta = sphere_seed.slice_geometry(path).theta_grid
        amplitudes = [hi / 2.0, hi, 2.0 * hi, 40.0] + [found[1]] * (found[0] == "found")
        for amplitude in amplitudes:
            spec = co.CollarSpec(path, 0.1, amplitude, kappa, case, 0.0, 0.0)
            margin = (base + well / amplitude ** 2) - co._reference_density(spec)[:, None]
            worst = np.unravel_index(int(np.argmin(margin)), margin.shape)
            parts.clear()
            if margin[worst] > 0.0:
                co.build_collar(spec)
                elementwise = kind not in ("plain", "band") or amplitude == hi / 2.0
                assert bool(parts) == elementwise, amplitude
                continue
            with pytest.raises(ConstructionError) as error:
                co.build_collar(spec)
            assert str(error.value) == "energy condition violated on the collar"
            want = {"min_margin": float(margin[worst]),
                    "t": float(path.t_grid[worst[0]]), "theta": float(theta[worst[1]])}
            assert repr(error.value.diagnostics) == repr(want)
            assert parts

    def test_default_cos_extension_decides_almost_every_probe_by_the_crossing(
            self, monkeypatch):
        # A guard on work: the eigen-route 0.62 cos extension at the default
        # grids runs the elementwise test at most once per search, where
        # the elementwise search runs it at every probe.
        searches, calls = [], []
        original_find = co.find_A0

        def recording(*args):
            searches.append(args)
            return original_find(*args)

        def counting(*parts, original=co._margin_passes):
            calls.append(parts[2])
            return original(*parts)

        monkeypatch.setattr(co, "find_A0", recording)
        monkeypatch.setattr(co, "_margin_passes", counting)
        data = pipeline.BartnikDataSpec(n=2, q=0.0, lam=0.0,
                                        exponent=lambda theta: 0.62 * np.cos(theta))
        report = pipeline.construct_extension(data, 0.58)
        assert report.diagnostics["route"] == "eigenfunction"
        assert searches
        assert len(calls) <= len(searches)
        probes = [_elementwise_find_A0(*args)[2] for args in searches]
        assert min(probes) >= 5


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
        spec = co.find_A0(path, 0.05, kappa, case, q, lam)
        base, well = co._margin_parts(spec)
        reference = co._reference_density(spec)[:, None]
        core = base - reference
        assert spec.margin.crossing == -float(np.min(well / core))
        for amplitude in (spec.A, 2.0 * spec.A):
            built = co.build_collar(spec.at_amplitude(amplitude))
            scalar = base + well / amplitude ** 2
            assert built.scalar_curvature.tobytes() == scalar.tobytes()
            assert built.dec_margin.tobytes() == (scalar - reference).tobytes()

    @pytest.mark.parametrize("argv", [
        ["bartnik", "--n", "2", "--seed-cos", "0.3"],
        ["bartnik", "--n", "2", "--seed-cos", "0.6", "--lambda", "-3.5"],
    ], ids=["cos-0.3", "cos-0.6-lam"])
    def test_ladders_build_no_elementwise_field(self, argv, monkeypatch):
        # A guard on work: every probe and every build of a default cos
        # ladder is decided from the crossing and the row bounds.
        calls = []

        def recording(name):
            def record(*args):
                calls.append(name)
                raise AssertionError(name)
            return record

        monkeypatch.setattr(co, "_margin_parts", recording("_margin_parts"))
        monkeypatch.setattr(co, "_margin_passes", recording("_margin_passes"))
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
            spec = round_spec(path, epsilon=0.1, amplitude=3.0, q=q, lam=lam)
            curve = co.build_collar(spec).hawking
            assert abs(curve.mass[0] - m_o(path.n, 1.0, q, lam)) < 1e-12
            assert curve.charge == q

    def test_round_3_closed_form(self, round3):
        epsilon, amplitude = 0.1, 2.0
        spec = round_spec(round3, epsilon=epsilon, amplitude=amplitude)
        curve = co.build_collar(spec).hawking
        t = curve.t_grid
        expected = 0.5 * (1.0 + epsilon * t * t - epsilon ** 2 * t * t / amplitude ** 2)
        assert np.max(np.abs(curve.mass - expected)) < 1e-13

    def test_matches_radial_mass_evaluator(self, round2):
        epsilon, amplitude, q, lam = 0.2, 2.5, 0.3, -0.4
        spec = round_spec(round2, epsilon=epsilon, amplitude=amplitude, q=q, lam=lam)
        curve = co.build_collar(spec).hawking
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
                a0 = co.find_A0(path, epsilon, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A
                spec = round_spec(path, epsilon=epsilon, amplitude=2 * a0)
                curve = co.build_collar(spec).hawking
                reference = m_o(n, 1.0, 0.0, 0.0)
                assert curve.mass[-1] > reference
                assert curve.mass[-1] < (1.0 + epsilon) ** ((n + 1) / 2.0) * reference

    def test_final_mass_taylor_gain(self, round2):
        epsilon = 0.01
        spec = round_spec(round2, epsilon=epsilon, amplitude=100.0)
        curve = co.build_collar(spec).hawking
        gain = curve.mass[-1] - 0.5
        assert math.isclose(gain, epsilon / 4.0, rel_tol=0.02)


class TestEpsilonSearch:
    def test_frozen_values(self):
        assert co.find_eps0(2, 1.0, 0.0, 0.0, 1.46) == 1.0
        assert co.find_eps0(2, 1.0, 0.0, 0.0, 0.5) == 0.125

    def test_gain_positive_at_returned_epsilon(self):
        epsilon = co.find_eps0(2, 1.0, 0.0, 0.0, 0.5)
        spec = round_spec(
            sphere_seed.round_path(2, 1.0, n_t=65), epsilon=epsilon, amplitude=0.55
        )
        curve = co.build_collar(spec).hawking
        assert curve.mass[-1] > 0.5

    def test_requires_subextremal_radius(self):
        with pytest.raises(PreconditionError):
            co.find_eps0(2, 1.0, 1.0, 0.0, 2.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("r_o", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("u, lam_r2", [(0.0, 0.0), (0.3, 0.0), (0.45, -2.5)])
    def test_batched_grid_matches_the_scalar_loop(self, n, r_o, u, lam_r2):
        q, lam = u * r_o ** (n - 1), lam_r2 / r_o ** 2
        for a0 in (1e-9, 3e-8, 1e-5, 0.05, 0.5, 1.46, 30.0):
            want = _scalar_eps0(n, r_o, q, lam, a0)
            try:
                got = co.find_eps0(n, r_o, q, lam, a0)
            except ConstructionError:
                got = None
            assert got == want, a0

    def test_no_growing_epsilon_is_a_construction_error(self):
        assert _scalar_eps0(2, 1.0, 0.0, 0.0, 1e-9) is None
        with pytest.raises(ConstructionError, match="no epsilon on the geometric grid"):
            co.find_eps0(2, 1.0, 0.0, 0.0, 1e-9)


def _scalar_eps0(n, r_o, q, lam, a0):
    """The flare search one epsilon and one amplitude at a time (None when no
    epsilon grows the far-end mass): the reference for the batched grid."""
    params = lambda_rn.RNParams(n=n, m=0.0, q=q, lam=lam)
    reference = m_o(n, r_o, q, lam)

    def far_end_mass(epsilon, amplitude):
        stretch = 1.0 + epsilon
        radius = math.sqrt(stretch) * r_o
        loss = epsilon ** 2 * r_o ** 2 / (stretch * amplitude ** 2)
        return 0.5 * radius ** (n - 1) * (lambda_rn.eval_p(params, radius) - loss)

    for k in range(53):
        epsilon = 2.0 ** (-k)
        if (far_end_mass(epsilon, a0) - reference > 0.0
                and far_end_mass(epsilon, 10.0 * a0) - reference > 0.0):
            return epsilon
    return None


class TestMonotonicity:
    def test_round_2_nondecreasing(self, round2):
        built = co.build_collar(round_spec(round2, epsilon=0.1, amplitude=3.0))
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone
        assert report.min_dmass_dt >= -1e-8
        assert abs(report.dmass_dt_origin) < 1e-10

    def test_axisym_2_nondecreasing(self, cos_path):
        built = co.build_collar(round_spec(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8))
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone

    def test_round_3_above_threshold(self, round3):
        probe = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=1.0))
        a1 = co.monotonicity_check(probe).a1
        assert a1 is not None and a1 > math.sqrt(0.1)
        built = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=1.05 * a1))
        report = co.monotonicity_check(built)
        assert report.asserted and report.monotone
        assert report.a_satisfies_a1 and report.integral_condition_ok
        assert np.all(built.hawking.dmass_dt[1:] > 0.0)

    def test_round_3_below_threshold_unasserted(self, round3):
        probe = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=1.0))
        a1 = co.monotonicity_check(probe).a1
        built = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=0.9 * a1))
        report = co.monotonicity_check(built)
        assert not report.asserted
        assert "a1" in report.verdict

    def test_eigen_3_empirical_only(self, round3):
        built = co.build_collar(
            round_spec(round3, epsilon=0.1, amplitude=2.0, case=co.EIGENFUNCTION_LAPSE)
        )
        report = co.monotonicity_check(built)
        assert not report.asserted
        assert report.verdict == "empirical only"

    def test_integral_condition_round_equality(self, round3):
        built = co.build_collar(round_spec(round3, epsilon=0.1, amplitude=2.0))
        report = co.monotonicity_check(built)
        bound = 6.0 * unit_sphere_volume(3)
        assert math.isclose(report.integral_condition_value, bound, rel_tol=1e-12)


class TestTailProfile:
    def test_round_tail_samples_and_derivatives(self, round2):
        epsilon, amplitude = 0.1, 2.0
        built = co.build_collar(round_spec(round2, epsilon=epsilon, amplitude=amplitude))
        profile = co.tail_to_arclength(built)
        assert profile.s_grid[0] == 0.75 * amplitude
        assert profile.s_grid[-1] == amplitude
        assert np.all(profile.provenance == "collar")
        s = profile.s_grid
        f = np.sqrt(1.0 + epsilon * s * s / amplitude ** 2)
        assert np.max(np.abs(profile.f - f)) < 1e-14
        assert np.max(np.abs(profile.df - epsilon * s / (amplitude ** 2 * f))) < 1e-14

    def test_dense_evaluator_consistency(self, round2):
        built = co.build_collar(round_spec(round2, epsilon=0.1, amplitude=2.0))
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
        built = co.build_collar(
            round_spec(round2, epsilon=epsilon, amplitude=amplitude, q=q, lam=lam)
        )
        profile = co.tail_to_arclength(built)
        f, df, _ = profile.evaluator(amplitude)
        other = hawking_rotsym(2, q, lam, float(f), float(df))
        assert math.isclose(built.hawking.mass[-1], other, rel_tol=0.0, abs_tol=1e-12)

    def test_charge_carried_over(self, round2):
        built = co.build_collar(round_spec(round2, q=0.3))
        assert co.tail_to_arclength(built).charge == 0.3

    def test_axisym_tail_is_round(self, cos_path):
        built = co.build_collar(round_spec(cos_path, epsilon=0.1, amplitude=3.0, kappa=0.8))
        profile = co.tail_to_arclength(built)
        s = profile.s_grid
        f = np.sqrt(1.0 + 0.1 * s * s / 9.0) * cos_path.r_o
        assert np.max(np.abs(profile.f - f)) < 1e-12

    def test_radial_curvature_identity_on_tail(self, round2):
        epsilon, amplitude = 0.1, 2.0
        built = co.build_collar(round_spec(round2, epsilon=epsilon, amplitude=amplitude))
        profile = co.tail_to_arclength(built)
        tail = built.scalar_curvature[round2.t_grid >= round2.theta_switch, 0]
        assert tail.size == profile.s_grid.size
        for s, collar_value in zip(profile.s_grid[:: 32], tail[:: 32]):
            f, df, d2f = profile.evaluator(float(s))
            radial = 2.0 * ((1.0 - df * df) - 2.0 * f * d2f / 1.0) / f ** 2
            assert math.isclose(radial, collar_value, rel_tol=0.0, abs_tol=1e-6)
