"""Command-line surface, configuration ingestion, and serialization.

Subcommands cover the model classifier, model profiles, collars, profile
gluing, end-to-end extensions, the mass upper-bound report, and the
selftest.  Values resolve with flags taking precedence over environment
overrides, then config-file entries, then defaults; every artifact echoes
the resolved configuration, prints floats with 17 significant digits, and
is written atomically so identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from . import collar as co
from . import lambda_rn as rn
from . import pipeline as pl
from . import quasilocal as ql
from . import sphere_seed as ss
from . import surgery as su
from .errors import (
    DomainError,
    ExtensionError,
    PreconditionError,
)

__all__ = [
    "SCHEMA_VERSION",
    "ENV_PREFIX",
    "UsageError",
    "RunConfig",
    "fmt17",
    "parse_config",
    "serialize_config",
    "profile_csv",
    "hawking_csv",
    "collar_grid_csv",
    "emit_plotdata",
    "run",
    "main",
]

SCHEMA_VERSION = 1
ENV_PREFIX = "CHARGED_EXTENSIONS_"


class UsageError(Exception):
    """Invalid command line, config file, or environment override."""


@dataclass
class RunConfig:
    """A subcommand together with its fully resolved options.

    Every option of the subcommand is present in ``options``; values not
    set by a flag, environment override, or config file hold their
    documented defaults (or None for truly optional fields like output
    paths and unused seed sources).
    """

    command: str
    options: dict


# ---------------------------------------------------------------------------
# Deterministic formatting
# ---------------------------------------------------------------------------


def fmt17(value) -> str:
    """Format a float with 17 significant digits (lossless round-trip)."""
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


def _json_text(payload: dict) -> str:
    return _render_json(payload, 0) + "\n"


def _atomic_write(path, text: str) -> None:
    """Write text through a temp file and rename it into place."""
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    temp.write_text(text, encoding="utf-8")
    os.replace(temp, target)


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def profile_csv(profile: rn.SampledProfile, margins=None) -> str:
    """CSV text with header s,f,df,d2f,provenance (plus margin when given)."""
    with_margin = margins is not None
    header = "s,f,df,d2f,provenance" + (",margin" if with_margin else "")
    lines = [header]
    provenance = [str(tag) for tag in profile.provenance.tolist()]
    for index in range(profile.s_grid.size):
        row = [
            fmt17(profile.s_grid[index]),
            fmt17(profile.f[index]),
            fmt17(profile.df[index]),
            fmt17(profile.d2f[index]),
            provenance[index],
        ]
        if with_margin:
            row.append(fmt17(margins[index]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def hawking_csv(curve) -> str:
    """CSV text with header t,mass,dmass_dt,charge for a mass curve."""
    lines = ["t,mass,dmass_dt,charge"]
    charge = fmt17(curve.charge)
    for index in range(curve.t_grid.size):
        lines.append(
            ",".join(
                (
                    fmt17(curve.t_grid[index]),
                    fmt17(curve.mass[index]),
                    fmt17(curve.dmass_dt[index]),
                    charge,
                )
            )
        )
    return "\n".join(lines) + "\n"


def collar_grid_csv(built: co.ChargedCollar) -> str:
    """CSV text with header t,theta,R,dec_margin over the collar grid.

    Round collars carry a single homogeneous theta column, reported at
    theta = 0.
    """
    lines = ["t,theta,R,dec_margin"]
    t_grid = built.spec.path.t_grid
    scalar = built.scalar_curvature
    margin = built.dec_margin
    if scalar.shape[1] == 1:
        thetas = np.array([0.0])
    else:
        thetas = ss.slice_geometry(built.spec.path).theta_grid
    for i in range(scalar.shape[0]):
        t_text = fmt17(t_grid[i])
        for j in range(scalar.shape[1]):
            lines.append(
                ",".join(
                    (
                        t_text,
                        fmt17(thetas[j]),
                        fmt17(scalar[i, j]),
                        fmt17(margin[i, j]),
                    )
                )
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Option schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Option:
    key: str
    kind: type
    default: object = None
    required: bool = False
    env: bool = False
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


_MODEL = (
    _Option("n", int, required=True, help="fiber dimension of the model"),
    _Option("m", float, required=True, help="model mass"),
    _Option("q", float, 0.0, help="electric charge"),
    _Option("lambda", float, 0.0, help="cosmological constant (must be <= 0)"),
)

_SEED = (
    _Option("n", int, required=True, help="fiber dimension of the boundary"),
    _Option("q", float, 0.0, help="electric charge"),
    _Option("lambda", float, 0.0, help="cosmological constant (must be <= 0)"),
    _Option("r_o", float, help="round seed radius"),
    _Option(
        "seed_cos",
        float,
        help="amplitude a of the axisymmetric conformal exponent a*cos(theta)",
    ),
    _Option("seed_csv", str, help="CSV file theta,w sampling the conformal exponent"),
)

_PIPELINE = (
    _Option("n_t", int, 513, help="time samples along the collar path"),
    _Option("n_theta", int, 1025, help="polar samples of axisymmetric seeds"),
    _Option("theta_switch", float, 0.75, help="start of the constant far half"),
    _Option("kappa_margin", float, 0.05, help="curvature-floor safety margin"),
    _Option("epsilon_cap", float, 1.0, help="cap on the collar flare"),
    _Option("mass_fraction", float, 0.9, help="mass headroom spent on the flare"),
    _Option("mass_gap_tol", float, 1e-8, env=True, help="mass agreement tolerance"),
    _Option("witness_floor", int, 7, help="largest witness exponent"),
    _Option("tolerance_scale", float, 1.0, env=True, help="selftest tolerance scale"),
    _Option("seed", int, 20260823, help="RNG seed of randomized checks"),
)

_PIPELINE_KEYS = tuple(option.key for option in _PIPELINE)

_COMMANDS: dict[str, tuple[_Option, ...]] = {
    "classify": _MODEL + (_Option("out", str, help="JSON output path"),),
    "rn-profile": _MODEL
    + (
        _Option("s_max", float, 10.0, help="arclength extent of the profile"),
        _Option("samples", int, 4097, help="profile grid size"),
        _Option("out", str, help="CSV output path"),
    ),
    "collar": _SEED
    + (
        _Option("epsilon", float, 0.05, help="collar flare parameter"),
        _Option(
            "amplitude",
            float,
            help="lapse amplitude; defaults to twice the smallest admissible",
        ),
        _Option("n_t", int, 513, help="time samples along the collar path"),
        _Option("n_theta", int, 1025, help="polar samples of axisymmetric seeds"),
        _Option("theta_switch", float, 0.75, help="start of the constant far half"),
        _Option("kappa_margin", float, 0.05, help="curvature-floor safety margin"),
        _Option("out", str, help="JSON summary path"),
        _Option("grid_out", str, help="CSV path for the t,theta,R,dec_margin grid"),
        _Option("hawking_out", str, help="CSV path for the mass curve"),
    ),
    "glue": _MODEL
    + (
        _Option(
            "radius",
            float,
            help="truncation radius of the base model; defaults to 1.5 r_plus",
        ),
        _Option("mass", float, required=True, help="mass of the attached model"),
        _Option("out", str, help="CSV output path for the glued profile"),
        _Option("record_out", str, help="JSON output path for the attachment record"),
    ),
    "extend": _SEED
    + _PIPELINE
    + (
        _Option("mass", float, required=True, help="requested total mass"),
        _Option("out", str, help="JSON report path"),
        _Option("profile_out", str, help="CSV path for the glued profile"),
        _Option("plot_prefix", str, help="prefix for gnuplot data files"),
    ),
    "bartnik": _SEED + _PIPELINE + (_Option("out", str, help="JSON report path"),),
    "selftest": _PIPELINE
    + (
        _Option("criteria", str, help="comma-separated criterion numbers"),
        _Option("out", str, help="JSON ledger path"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charged-extensions",
        description="Construct and verify charged extensions of minimal sphere data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMANDS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument(
            "--config",
            type=str,
            default=None,
            help="flat key-value JSON config file (flags take precedence)",
        )
        for option in options:
            sub.add_argument(
                option.flag,
                dest=option.key,
                type=option.kind,
                default=None,
                help=option.help or None,
            )
    return parser


def _coerce(option: _Option, value, source: str):
    if option.kind is float:
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise UsageError(
            f"type mismatch at key '{option.key}' ({source}): expected a number, "
            f"got {value!r}"
        )
    if option.kind is int:
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        elif isinstance(value, int) and not isinstance(value, bool):
            return int(value)
        raise UsageError(
            f"type mismatch at key '{option.key}' ({source}): expected an integer, "
            f"got {value!r}"
        )
    if not isinstance(value, str):
        raise UsageError(
            f"type mismatch at key '{option.key}' ({source}): expected a string, "
            f"got {value!r}"
        )
    return value


def parse_config(argv=None) -> RunConfig:
    """Resolve a command line into a total RunConfig.

    Precedence per option: command-line flag, then environment override
    (prefix ``CHARGED_EXTENSIONS_``, tolerance options only), then config
    file entry, then the documented default.  Unknown or mistyped config
    keys are usage errors naming the key.
    """
    namespace = _build_parser().parse_args(argv)
    command = namespace.command
    options = _COMMANDS[command]

    file_values: dict = {}
    if namespace.config is not None:
        try:
            raw = json.loads(Path(namespace.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(
                f"malformed config file '{namespace.config}': {exc}"
            ) from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a flat JSON object")
        known = {option.key for option in options}
        for key in raw:
            if key not in known:
                raise UsageError(
                    f"unknown config key '{key}' for command '{command}'"
                )
        file_values = raw

    resolved = {}
    for option in options:
        value = getattr(namespace, option.key)
        if value is None and option.env:
            env_value = os.environ.get(ENV_PREFIX + option.key.upper())
            if env_value is not None:
                value = _coerce(option, env_value, "environment")
        if value is None and option.key in file_values:
            value = _coerce(option, file_values[option.key], "config file")
        if value is None:
            value = option.default
        if value is None and option.required:
            raise UsageError(
                f"missing required option '{option.key}' for command '{command}'"
            )
        resolved[option.key] = value

    lam = resolved.get("lambda")
    if lam is not None and lam > 0.0:
        raise UsageError(
            f"key 'lambda' must be <= 0, got {lam!r}"
        )
    return RunConfig(command=command, options=resolved)


def serialize_config(config: RunConfig) -> str:
    """Flat key-value JSON holding the set options of a RunConfig.

    Unset optional values are omitted, so feeding the text back through
    ``--config`` under the same subcommand reproduces the RunConfig.
    """
    payload = {
        key: value for key, value in config.options.items() if value is not None
    }
    return _json_text(payload)


# ---------------------------------------------------------------------------
# Shared handler pieces
# ---------------------------------------------------------------------------


def _config_echo(config: RunConfig) -> dict:
    return {"command": config.command, **config.options}


def _model_params(options: dict) -> rn.RNParams:
    return rn.RNParams(
        n=options["n"], m=options["m"], q=options["q"], lam=options["lambda"]
    )


def _exponent_from_csv(path: str):
    """Conformal exponent interpolated from CSV rows theta,w.

    The header must be exactly ``theta,w``; the polar angles must be
    strictly increasing.  Interpolation clamps the slope to zero at both
    ends, keeping the exponent pole-regular.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read seed file: {exc}") from exc
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "theta,w":
        raise UsageError(f"seed file '{path}' must start with header 'theta,w'")
    thetas = []
    values = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 2:
            raise UsageError(f"seed file '{path}' has a malformed row: {line!r}")
        try:
            thetas.append(float(cells[0]))
            values.append(float(cells[1]))
        except ValueError as exc:
            raise UsageError(
                f"seed file '{path}' has a non-numeric row: {line!r}"
            ) from exc
    if len(thetas) < 4:
        raise UsageError(f"seed file '{path}' needs at least 4 sample rows")
    spline = CubicSpline(np.asarray(thetas), np.asarray(values), bc_type="clamped")

    def exponent(theta):
        return spline(theta)

    return exponent


def _data_from_options(options: dict) -> pl.BartnikDataSpec:
    kwargs = {"n": options["n"], "q": options["q"], "lam": options["lambda"]}
    if options.get("seed_cos") is not None:
        amplitude = options["seed_cos"]

        def exponent(theta, _a=amplitude):
            return _a * np.cos(theta)

        kwargs["exponent"] = exponent
    elif options.get("seed_csv") is not None:
        kwargs["exponent"] = _exponent_from_csv(options["seed_csv"])
    else:
        kwargs["r_o"] = options.get("r_o")
    return pl.BartnikDataSpec(**kwargs)


def _pipeline_config(options: dict) -> pl.PipelineConfig:
    return pl.PipelineConfig(**{key: options[key] for key in _PIPELINE_KEYS})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _run_classify(config: RunConfig) -> int:
    options = config.options
    cls = rn.classify(_model_params(options))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(config),
        "kind": cls.kind,
        "r_plus": cls.r_plus,
        "r_minus": cls.r_minus,
    }
    _emit(_json_text(payload), options["out"])
    return 0


def _run_rn_profile(config: RunConfig) -> int:
    options = config.options
    profile = rn.rn_profile(
        _model_params(options), options["s_max"], options["samples"]
    )
    _emit(profile_csv(profile), options["out"])
    return 0


def _run_collar(config: RunConfig) -> int:
    options = config.options
    data = _data_from_options(options)
    pipeline_config = pl.PipelineConfig(
        n_t=options["n_t"],
        n_theta=options["n_theta"],
        theta_switch=options["theta_switch"],
        kappa_margin=options["kappa_margin"],
    )
    path = pl._resolve_path(data, pipeline_config)
    floor = ss.curvature_floor_along_path(path, margin=options["kappa_margin"])
    case_id, kappa, route = pl._select_route(path, data.lam, floor)
    epsilon = options["epsilon"]
    amplitude = options["amplitude"]
    if amplitude is None:
        amplitude = 2.0 * co.find_A0(path, epsilon, kappa, case_id, data.q, data.lam)
    built = co.build_collar(
        co.CollarSpec(
            path=path,
            epsilon=epsilon,
            A=amplitude,
            kappa=kappa,
            case_id=case_id,
            q=data.q,
            lam=data.lam,
            r_o=path.r_o,
        )
    )
    mono = co.monotonicity_check(built)
    curve = co.hawking_curve(built)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(config),
        "route": route,
        "case_id": case_id,
        "kappa": kappa,
        "epsilon": epsilon,
        "amplitude": amplitude,
        "r_o": path.r_o,
        "mass_start": float(curve.mass[0]),
        "mass_end": float(curve.mass[-1]),
        "min_margin": float(np.min(built.dec_margin)),
        "min_mean_curvature": float(np.min(built.mean_curvature[1:])),
        "monotonicity": {
            "verdict": mono.verdict,
            "asserted": mono.asserted,
            "min_dmass_dt": mono.min_dmass_dt,
        },
    }
    _emit(_json_text(payload), options["out"])
    if options["grid_out"] is not None:
        _atomic_write(options["grid_out"], collar_grid_csv(built))
    if options["hawking_out"] is not None:
        _atomic_write(options["hawking_out"], hawking_csv(curve))
    return 0


def _run_glue(config: RunConfig) -> int:
    options = config.options
    params = _model_params(options)
    cls = rn.classify(params)
    if cls.kind != rn.SUB_EXTREMAL or cls.r_plus is None:
        raise PreconditionError(
            f"gluing base must be sub-extremal, got {cls.kind}"
        )
    radius = options["radius"]
    if radius is None:
        radius = 1.5 * cls.r_plus
    elif radius <= cls.r_plus:
        raise PreconditionError(
            f"truncation radius {radius!r} must exceed the horizon radius "
            f"{cls.r_plus!r}"
        )
    station = rn.radial_coordinate(params, radius)
    bent = su.bend(params, station)
    grid = np.linspace(station - bent.delta, station - 0.5 * bent.delta, 257)
    f, df, d2f = bent.profile.evaluator(grid)
    left = rn.SampledProfile(
        s_grid=grid,
        f=f,
        df=df,
        d2f=d2f,
        provenance=np.full(grid.shape, "bent"),
        charge=params.q,
        evaluator=bent.profile.evaluator,
    )
    far_mass = ql.hawking_rotsym(
        params.n, params.q, params.lam, float(f[-1]), float(df[-1])
    )
    glued, record = su.glue_to_rn(
        params.n, left, far_mass, options["mass"], params.q, params.lam
    )
    margins = su.dec_margin_operator(params.n, params.q, params.lam, glued)
    _emit(profile_csv(glued, margins), options["out"])
    if options["record_out"] is not None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": _config_echo(config),
            "record": dict(record),
            "truncation_radius": radius,
            "base_far_mass": far_mass,
        }
        _atomic_write(options["record_out"], _json_text(payload))
    return 0


def _extension_payload(config: RunConfig, report: pl.ExtensionReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(config),
        "n": report.n,
        "charge": report.charge,
        "lambda": report.lam,
        "m_o": report.m_o,
        "requested_mass": report.requested_mass,
        "achieved_mass": report.achieved_mass,
        "penrose_slack": report.penrose_slack,
        "bartnik_upper_bound": report.bartnik_upper_bound,
        "extremality": report.extremality,
        "horizon_radius": report.horizon_radius,
        "min_margin": report.min_margin,
        "min_margin_exact": report.min_margin_exact,
        "boundary_mean_curvature": report.boundary_mean_curvature,
        "min_mean_curvature": report.min_mean_curvature,
        "outward_minimizing": pl.verify_outward_minimizing(report),
        "record": dict(report.record),
        "diagnostics": dict(report.diagnostics),
        "pipeline_config": dict(report.config),
    }


def _run_extend(config: RunConfig) -> int:
    options = config.options
    data = _data_from_options(options)
    report = pl.construct_extension(
        data, options["mass"], _pipeline_config(options)
    )
    _emit(_json_text(_extension_payload(config, report)), options["out"])
    if options["profile_out"] is not None:
        margins = su.dec_margin_operator(
            report.n, report.charge, report.lam, report.profile
        )
        _atomic_write(
            options["profile_out"], profile_csv(report.profile, margins)
        )
    if options["plot_prefix"] is not None:
        emit_plotdata(report, options["plot_prefix"])
    return 0


def _run_bartnik(config: RunConfig) -> int:
    options = config.options
    data = _data_from_options(options)
    report = pl.bartnik_report(data, _pipeline_config(options))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(config),
        "n": report.n,
        "charge": report.charge,
        "lambda": report.lam,
        "r_o": report.r_o,
        "m_o": report.m_o,
        "upper_bound": report.upper_bound,
        "subextremality": report.subextremality,
        "classification": report.classification,
        "horizon_radius": report.horizon_radius,
        "horizon_matches_boundary": report.horizon_matches_boundary,
        "witnessed": report.witnessed,
        "witness_gap": report.witness_gap,
        "witnesses": report.witnesses,
        "pipeline_config": dict(report.config),
    }
    _emit(_json_text(payload), options["out"])
    return 0


def _run_selftest(config: RunConfig) -> int:
    options = config.options
    criteria = None
    if options["criteria"] is not None:
        try:
            criteria = tuple(
                int(token.strip()) for token in options["criteria"].split(",")
            )
        except ValueError as exc:
            raise UsageError(
                f"key 'criteria' must be comma-separated integers, "
                f"got {options['criteria']!r}"
            ) from exc
    result = pl.selftest(_pipeline_config(options), criteria=criteria)
    for line in result.lines():
        print(line)
    if options["out"] is not None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": _config_echo(config),
            "result": result.as_dict(),
        }
        _atomic_write(options["out"], _json_text(payload))
    return 0 if result.passed else 4


def emit_plotdata(report: pl.ExtensionReport, prefix) -> list[str]:
    """Write gnuplot-ready whitespace-separated two-column data files.

    Emits ``<prefix>.profile.dat`` with (s, f), ``<prefix>.hawking.dat``
    with (t, mass) along the collar foliation, and ``<prefix>.margin.dat``
    with (s, energy margin).  Returns the written paths.
    """
    prefix = str(prefix)
    profile = report.profile
    margins = su.dec_margin_operator(
        report.n, report.charge, report.lam, profile
    )
    curve = report.collar.hawking

    def _columns(first, second, labels):
        rows = [f"# {labels}"]
        rows.extend(
            f"{fmt17(a)} {fmt17(b)}" for a, b in zip(first, second)
        )
        return "\n".join(rows) + "\n"

    written = []
    for suffix, text in (
        (".profile.dat", _columns(profile.s_grid, profile.f, "s f")),
        (".hawking.dat", _columns(curve.t_grid, curve.mass, "t mass")),
        (".margin.dat", _columns(profile.s_grid, margins, "s margin")),
    ):
        path = prefix + suffix
        _atomic_write(path, text)
        written.append(path)
    return written


_HANDLERS = {
    "classify": _run_classify,
    "rn-profile": _run_rn_profile,
    "collar": _run_collar,
    "glue": _run_glue,
    "extend": _run_extend,
    "bartnik": _run_bartnik,
    "selftest": _run_selftest,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved RunConfig to its subcommand handler."""
    if config.command not in _HANDLERS:
        raise UsageError(f"unknown command '{config.command}'")
    return _HANDLERS[config.command](config)


def main(argv=None) -> int:
    """Entry point: 0 success, 1 I/O failure, 2 usage violation, otherwise
    the ``exit_code`` of the library error (2 precondition violation,
    3 construction failure, 4 verification failure)."""
    try:
        config = parse_config(argv)
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ExtensionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
