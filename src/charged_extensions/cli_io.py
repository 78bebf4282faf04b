"""Command-line surface, configuration ingestion, and serialization.

Subcommands cover the model classifier, model profiles, collars, profile
gluing, end-to-end extensions, the mass upper-bound report, and the
selftest.  Values resolve with flags taking precedence over config-file
entries, then defaults; every artifact echoes the resolved configuration,
prints floats with 17 significant digits, and is written atomically so
identical configurations produce byte-identical files.
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

from . import collar as co
from . import lambda_rn as rn
from . import pipeline as pl
from . import sphere_seed as ss
from . import surgery as su
from .errors import DomainError, ExtensionError, PreconditionError, VerificationError
from .numutil import fmt17, json_text

__all__ = [
    "SCHEMA_VERSION",
    "UsageError",
    "RunConfig",
    "parse_config",
    "profile_csv",
    "hawking_csv",
    "collar_grid_csv",
    "emit_plotdata",
    "run",
    "main",
]

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Invalid command line or config file."""


@dataclass
class RunConfig:
    """A subcommand together with its fully resolved options.

    Every option of the subcommand is present in ``options``; values not
    set by a flag or config file hold their documented defaults (or None
    for truly optional fields like output paths and unused seed sources).
    """

    command: str
    options: dict


# ---------------------------------------------------------------------------
# Artifact output
# ---------------------------------------------------------------------------


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


def _table(header: str, columns, sep: str = ",") -> str:
    """Header line, then one line per row of the columns joined by sep.

    Numeric columns print through ``fmt17``, one call per column; text
    columns, and lists of cells already printed, print as they are.
    """
    cells = [_printed(column) for column in columns]
    return "\n".join([header, *(sep.join(row) for row in zip(*cells))]) + "\n"


def _printed(column) -> list:
    if isinstance(column, list):
        return column
    values = np.asarray(column)
    return values.tolist() if values.dtype.kind == "U" else fmt17(values)


class _Cells(dict):
    """The printed cells of named columns, each printed on first read, so
    artifacts sharing a column print it once."""

    def __init__(self, **columns):
        super().__init__()
        self.columns = columns

    def __missing__(self, name):
        cells = self[name] = _printed(self.columns[name])
        return cells


def _profile_cells(profile: rn.SampledProfile, margins=None) -> _Cells:
    columns = dict(s=profile.s_grid, f=profile.f, df=profile.df, d2f=profile.d2f,
                   provenance=profile.provenance.astype(str))
    if margins is not None:
        columns["margin"] = np.asarray(margins)
    return _Cells(**columns)


def profile_csv(profile: rn.SampledProfile, margins=None, *, cells=None) -> str:
    """CSV text with header s,f,df,d2f,provenance (plus margin when given).

    ``cells``, the printed columns of the profile and margins (which then
    need not be given), lets another artifact share them.
    """
    cells = _profile_cells(profile, margins) if cells is None else cells
    names = [name for name in ("s", "f", "df", "d2f", "provenance", "margin")
             if name in cells.columns]
    return _table(",".join(names), [cells[name] for name in names])


def hawking_csv(curve) -> str:
    """CSV text with header t,mass,dmass_dt,charge for a mass curve."""
    charge = [fmt17(curve.charge)] * curve.t_grid.size
    return _table(
        "t,mass,dmass_dt,charge", (curve.t_grid, curve.mass, curve.dmass_dt, charge)
    )


def collar_grid_csv(built: co.ChargedCollar) -> str:
    """CSV text with header t,theta,R,dec_margin over the collar grid.

    Round collars carry a single homogeneous theta column, reported at
    theta = 0.
    """
    scalar = built.scalar_curvature
    rows, cols = scalar.shape
    thetas = ss.slice_geometry(built.spec.path).theta_grid
    t_text = fmt17(built.spec.path.t_grid)
    return _table(
        "t,theta,R,dec_margin",
        (np.repeat(t_text, cols), np.tile(thetas, rows), scalar.ravel(),
         built.dec_margin.ravel()),
    )


# ---------------------------------------------------------------------------
# Option schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Option:
    key: str
    kind: type
    default: object = None
    required: bool = False
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


def _pipeline_option(key: str, help: str) -> _Option:
    """An option with the type and default of a PipelineConfig field."""
    default = getattr(pl.PipelineConfig(), key)
    return _Option(key, type(default), default, help=help)


# Path options, shared by the collar subcommand.
_PATH = (
    _pipeline_option("n_t", "time samples along the collar path"),
    _pipeline_option("n_theta", "polar samples of axisymmetric seeds"),
)

_PIPELINE = _PATH + (
    _pipeline_option("witness_floor", "largest witness exponent"),
)


_COMMANDS: dict[str, tuple[_Option, ...]] = {
    "classify": _MODEL + (_Option("out", str, help="JSON output path"),),
    "rn-profile": _MODEL
    + (
        _Option("s_max", float, 10.0, help="arclength extent of the profile"),
        _Option("samples", int, 4097, help="profile grid size"),
        _Option("out", str, help="CSV output path"),
    ),
    "collar": _SEED
    + _PATH
    + (
        _Option("epsilon", float, 0.05, help="collar flare parameter"),
        _Option(
            "amplitude",
            float,
            help="lapse amplitude; defaults to twice the smallest admissible",
        ),
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
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMANDS.items():
        # Only full flag names: a prefix accepted today would change meaning
        # once an option sharing it is added.
        sub = subparsers.add_parser(command, allow_abbrev=False)
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


def _coerce(option: _Option, value):
    if option.kind is float:
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise UsageError(
            f"type mismatch at key '{option.key}' (config file): expected a number, "
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
            f"type mismatch at key '{option.key}' (config file): expected an integer, "
            f"got {value!r}"
        )
    if not isinstance(value, str):
        raise UsageError(
            f"type mismatch at key '{option.key}' (config file): expected a string, "
            f"got {value!r}"
        )
    return value


def parse_config(argv=None) -> RunConfig:
    """Resolve a command line into a total RunConfig.

    Precedence per option: command-line flag, then config file entry, then
    the documented default (the pipeline options default to
    ``PipelineConfig``'s values).  Unknown or mistyped config keys are usage
    errors naming the key.
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
        if value is None and option.key in file_values:
            value = _coerce(option, file_values[option.key])
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


# ---------------------------------------------------------------------------
# Shared handler pieces
# ---------------------------------------------------------------------------


def _config_echo(config: RunConfig) -> dict:
    return {"command": config.command, **config.options}


def _model_params(options: dict) -> rn.RNParams:
    return rn.RNParams(
        n=options["n"], m=options["m"], q=options["q"], lam=options["lambda"]
    )


# Largest distance, in radians, of a seed file's polar angle from its node.
_CSV_NODE_TOL = 1e-12


def _exponent_from_csv(path: str):
    """Conformal exponent summed from the Chebyshev series of CSV rows theta,w.

    The header must be exactly ``theta,w``, followed by N >= 4 rows whose
    angles are the uniform grid theta_k = pi k / (N - 1) from 0 to pi, each
    within ``_CSV_NODE_TOL``; any other angles are a UsageError.  Those
    nodes are the Chebyshev-Lobatto points in x = cos(theta), so the
    samples' series (``sphere_seed._chebyshev_series``) is their exact
    polynomial interpolant in x, pole-regular as every polynomial in x is.
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
    nodes = np.linspace(0.0, math.pi, len(thetas))
    off = np.flatnonzero(~(np.abs(np.asarray(thetas) - nodes) <= _CSV_NODE_TOL))
    if off.size:
        k = int(off[0])
        raise UsageError(
            f"seed file '{path}' must sample theta uniformly from 0 to pi: sample k of "
            f"N = {len(thetas)} at pi k / (N - 1), within {_CSV_NODE_TOL:g}; sample "
            f"{k} has theta {thetas[k]!r}, not {float(nodes[k])!r}")
    series = ss._chebyshev_series(np.asarray(values))

    def exponent(theta):
        return np.polynomial.chebyshev.chebval(np.cos(theta), series)

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


def _pipeline_config(options: dict, schema=_PIPELINE) -> pl.PipelineConfig:
    """PipelineConfig from the options of a schema; the rest keep defaults."""
    return pl.PipelineConfig(**{option.key: options[option.key] for option in schema})


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
    _emit(json_text(payload), options["out"])
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
    path = pl._resolve_path(data, _pipeline_config(options, _PATH))
    route, case_id, kappa = co.select_route(path, data.q, data.lam)
    epsilon = options["epsilon"]
    spec = co.CollarSpec(path, epsilon, kappa, case_id, data.q, data.lam)
    amplitude = options["amplitude"]
    if amplitude is None:
        amplitude = 2.0 * co.find_A0(spec)
    built = co.build_collar(spec, amplitude)
    mono = co.monotonicity_check(built)
    curve = built.hawking
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
    _emit(json_text(payload), options["out"])
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
    _, far_mass, glued, record = su.glue_bent_model(params, radius, options["mass"])
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
        _atomic_write(options["record_out"], json_text(payload))
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
    _emit(json_text(_extension_payload(config, report)), options["out"])
    if options["profile_out"] is None and options["plot_prefix"] is None:
        return 0
    # One margin evaluation and one printing of each column serve both.
    cells = _profile_cells(report.profile, su.dec_margin_operator(
        report.n, report.charge, report.lam, report.profile))
    if options["profile_out"] is not None:
        _atomic_write(options["profile_out"], profile_csv(report.profile, cells=cells))
    if options["plot_prefix"] is not None:
        emit_plotdata(report, options["plot_prefix"], cells=cells)
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
    _emit(json_text(payload), options["out"])
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
        _atomic_write(options["out"], json_text(payload))
    return 0 if result.passed else VerificationError.exit_code


def emit_plotdata(report: pl.ExtensionReport, prefix, *, cells=None) -> list[str]:
    """Write gnuplot-ready whitespace-separated two-column data files.

    Emits ``<prefix>.profile.dat`` with (s, f), ``<prefix>.hawking.dat``
    with (t, mass) along the collar foliation, and ``<prefix>.margin.dat``
    with (s, energy margin).  ``cells`` are the printed profile columns
    with their margins, as ``profile_csv`` takes them.  Returns the
    written paths.
    """
    prefix = str(prefix)
    if cells is None:
        cells = _profile_cells(report.profile, su.dec_margin_operator(
            report.n, report.charge, report.lam, report.profile))
    curve = report.collar.hawking
    written = []
    for suffix, header, columns in (
        (".profile.dat", "# s f", (cells["s"], cells["f"])),
        (".hawking.dat", "# t mass", (curve.t_grid, curve.mass)),
        (".margin.dat", "# s margin", (cells["s"], cells["margin"])),
    ):
        path = prefix + suffix
        _atomic_write(path, _table(header, columns, sep=" "))
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


def _diagnostics_text(diagnostics: dict) -> str:
    """A failure's diagnostics as artifact JSON, or one line saying why
    they cannot be (a non-finite or unserializable value)."""
    try:
        return json_text(diagnostics)
    except DomainError as exc:
        return f"diagnostics not serializable: {exc}\n"


def main(argv=None) -> int:
    """Entry point: 0 success or ``--help``, 1 I/O failure, 2 usage
    violation (argparse's rejections included), otherwise the ``exit_code``
    of the library error (2 precondition violation, 3 construction failure,
    4 verification failure).  Every outcome is returned, none raised."""
    try:
        config = parse_config(argv)
        return run(config)
    except SystemExit as exc:  # argparse: 2 after a usage message, 0 after --help
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ExtensionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(_diagnostics_text(exc.diagnostics), end="", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
