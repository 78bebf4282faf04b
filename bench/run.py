#!/usr/bin/env python3
"""Seeded benchmark of the charged-extension pipeline.

Run from the root of a source checkout:

    python3 bench/run.py --workload round-dial --seed 1 --seconds 40 --trace 0

One client in one process drives the library in a closed loop: the next
operation starts when the previous one returns.  An operation is one
``pipeline.construct_extension`` call or one in-process ``cli_io.main``
invocation; each witness of a ``bartnik`` ladder counts as one attempted
construction.  Every construction that returns, the extension behind each
ladder witness included, is checked against closed forms (``oracles.py``);
a typed error, an untyped exception or a violated oracle counts as a failed
construction and is listed in the failure ledger.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics
of ``BENCHMARK.json``, its times in reference seconds: wall seconds
rescaled by a machine-speed probe timed between constructions
(``reference.py``).  ``--trace 1`` covers a fixed prefix of the same
operations twice, untraced and then with every public layer function
wrapped (``tracing.py``), and reports the per-layer metrics; the fixed
prefix makes every count metric repeat exactly for a given seed.

Human-readable lines start with ``#``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # setup_s counts from here, imports included

import os

# One client, one process, no extra threads: pin the BLAS pools before numpy
# is imported, and drop environment overrides of the library's tolerances.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [key for key in os.environ if key.startswith("CHARGED_EXTENSIONS_")]:
    del os.environ[_var]

import argparse
import collections
import contextlib
import copy
import functools
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import oracles
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WITNESSES = 7  # PipelineConfig.witness_floor: witnesses per bartnik ladder
TAIL_BEYOND = 10
SETUP_REPEATS = 2  # fresh interpreters that repeat the run's own set-up
_STAGE = re.compile(r"\[stage: ([^\]]+)\]")
_CLI_ERROR = re.compile(r"error: (\w+): (.*)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import the package from this checkout's source tree, never elsewhere."""
    package = SRC / "charged_extensions"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    from charged_extensions import cli_io, errors, pipeline

    if Path(pipeline.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported {pipeline.__file__}, not {package}")
    return pipeline, cli_io, errors.ExtensionError


def setup_seconds(args, own: float) -> float:
    """Median set-up time over this process and SETUP_REPEATS fresh ones.

    Each fresh interpreter does what this one did before its first
    operation: import this file (which pins the BLAS pools), import the
    package, generate the inputs; it prints the seconds since this file's
    first line.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "run.import_library(); run.workloads.generate(sys.argv[2], int(sys.argv[3])); "
        "import time; print(time.perf_counter() - run.START)"
    )
    samples = [own]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "bench"), args.workload, str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def provenance(args) -> dict:
    import numpy
    import scipy

    def git(*cmd):
        if not (ROOT / ".git").exists():
            return None
        done = subprocess.run(
            ["git", *cmd], cwd=ROOT, capture_output=True, text=True, check=False
        )
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _inputs(op: dict) -> dict:
    keys = ("op", "seed", "n", "r_o", "a", "q", "lam", "k", "m")
    return {key: op[key] for key in keys if key in op}


def _failure(op: dict, kind: str, type_name: str, message: str, bad=()) -> dict:
    stage = _STAGE.search(message)
    return {
        "index": op["index"],
        "inputs": _inputs(op),
        "kind": kind,
        "type": type_name,
        "stage": stage.group(1) if stage else None,
        "oracles": list(bad),
        "message": message[:200],
    }


def fail_tag(failure: dict) -> str:
    """Ledger bucket of a failure: its stage tag, or why it has none."""
    if failure["kind"] in ("untyped", "oracle"):
        return failure["kind"]
    return failure["stage"] or "untagged"


def _outcome(seconds: float, attempted: int) -> dict:
    return {
        "seconds": seconds,
        "attempted": attempted,
        "failures": [],
        "digits": [],
        "latencies": [],
        "ref_latencies": [],
        "bytes": 0,
    }


class Runner:
    """Runs operations against the imported library and checks their output."""

    def __init__(self, pipeline, cli_io, extension_error, workdir: Path):
        self.pl = pipeline
        self.cli = cli_io
        self.extension_error = extension_error
        self.workdir = workdir
        # While an operation runs, ``calls`` collects ((seconds, ref_s),
        # report) of every construct_extension call that returns: the
        # latency of each construction, and the reports a bartnik ladder
        # builds but never writes out, so the oracles can check every
        # witness.  The kept copy drops the collar, whose grids the oracles
        # never read, so holding seven reports does not raise peak_rss_mb.
        self.calls = None
        # While ``passes`` is a list (untraced runs), the reference probe
        # runs after every construction; its pass time goes to ``passes``,
        # each latency is rescaled by the probes on either side of it, and
        # the probe's own wall time goes to ``probe_s`` so the operation's
        # time can leave it out.
        self.passes = None
        self.probe_s = 0.0
        original = pipeline.construct_extension

        @functools.wraps(original)
        def collecting(*args, **kwargs):
            start = time.perf_counter()
            report = original(*args, **kwargs)
            seconds = time.perf_counter() - start
            if self.calls is not None:
                kept = copy.copy(report)
                kept.collar = None
                self.calls.append(((seconds, self._probe_after(seconds)), kept))
            return report

        tracing.rebind({id(original): collecting})

    def _probe_after(self, seconds: float) -> float | None:
        """Probes the machine; returns ``seconds`` in reference seconds."""
        if self.passes is None:
            return None
        start = time.perf_counter()
        self.passes.append(reference.probe())
        self.probe_s += time.perf_counter() - start
        return seconds * reference.PASS_REF_S / (0.5 * (self.passes[-2] + self.passes[-1]))

    def run(self, op: dict, tracer=None) -> dict:
        """One timed operation; the tracer records only inside the call."""
        self.probe_s = 0.0
        if op["op"] == "construct":
            return self._construct(op, tracer)
        return self._cli(op, tracer)

    def _construct(self, op, tracer):
        failure = None
        self.calls = []
        if tracer is not None:
            tracer.op = op["index"]
        start = time.perf_counter()
        try:
            data = self.pl.BartnikDataSpec(n=op["n"], q=op["q"], lam=op["lam"], r_o=op["r_o"])
            report = self.pl.construct_extension(data, op["m"])
        except self.extension_error as exc:
            failure = _failure(op, "typed", type(exc).__name__, str(exc))
        except Exception as exc:  # noqa: BLE001 - untyped failures are counted
            failure = _failure(op, "untyped", type(exc).__name__, str(exc))
        finally:
            seconds = time.perf_counter() - start - self.probe_s
            if tracer is not None:
                tracer.op = None
            calls, self.calls = self.calls, None
        outcome = _outcome(seconds, 1)
        if failure is not None:
            outcome["failures"].append(failure)
        else:
            self._check(op, self.extension_result(report), outcome, calls[0][0])
        return outcome

    def extension_result(self, report) -> dict:
        """The figures of an ExtensionReport that the oracles check."""
        return {
            "achieved_mass": report.achieved_mass,
            "penrose_slack": report.penrose_slack,
            "min_margin": report.min_margin,
            "outward_minimizing": self.pl.verify_outward_minimizing(report),
            "charges": [report.charge, report.record["q_e"], report.profile.charge],
            "f_far": float(report.profile.f[-1]),
            "df_far": float(report.profile.df[-1]),
        }

    def _check(self, op, result, outcome, timing):
        """Oracles of one construction; a certified one adds its latency.

        ``timing`` is (wall seconds, reference seconds or None).
        """
        bad = oracles.check_extension(op, result)
        if bad:
            outcome["failures"].append(
                _failure(op, "oracle", "OracleViolation", ", ".join(bad), bad)
            )
            return
        far, _ = oracles.hawking_far(
            op["n"], op["q"], op["lam"], result["f_far"], result["df_far"]
        )
        outcome["digits"].append(oracles.far_mass_digits(op["m"], far))
        seconds, ref_s = timing
        outcome["latencies"].append(seconds)
        if ref_s is not None:
            outcome["ref_latencies"].append(ref_s)

    def _cli(self, op, tracer):
        opdir = self.workdir / f"op{op['index']}"
        opdir.mkdir(parents=True)
        argv = [op["op"], f"--n={op['n']}", f"--q={op['q']!r}", f"--lambda={op['lam']!r}"]
        if op["seed"] == "round":
            argv.append(f"--r-o={op['r_o']!r}")
        else:
            argv.append(f"--seed-cos={op['a']!r}")
        if op["op"] == "extend":
            argv += [
                f"--mass={op['m']!r}",
                f"--out={opdir / 'e.json'}",
                f"--profile-out={opdir / 'e.csv'}",
                f"--plot-prefix={opdir / 'e'}",
            ]
        else:
            argv.append(f"--out={opdir / 'b.json'}")
        stderr = io.StringIO()
        code, untyped = None, None
        self.calls = []
        if tracer is not None:
            tracer.op = op["index"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - untyped failures are counted
            untyped = exc
        finally:
            seconds = time.perf_counter() - start - self.probe_s
            if tracer is not None:
                tracer.op = None
            calls, self.calls = self.calls, None
        attempted = 1 if op["op"] == "extend" else WITNESSES
        outcome = _outcome(seconds, attempted)
        outcome["bytes"] = sum(path.stat().st_size for path in opdir.iterdir())
        try:
            if untyped is not None:
                failure = _failure(op, "untyped", type(untyped).__name__, str(untyped))
            elif code != 0:
                match = _CLI_ERROR.search(stderr.getvalue())
                type_name, message = match.groups() if match else ("ExitCode", "")
                failure = _failure(op, "typed", type_name, f"exit {code}: {message}")
            else:
                try:
                    if op["op"] == "extend":
                        self._check_extend(op, opdir, outcome, calls)
                    else:
                        self._check_bartnik(op, opdir, outcome, calls)
                    return outcome
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    failure = _failure(
                        op, "oracle", "OracleViolation", f"artifact: {exc!r}", ["artifact"]
                    )
            outcome["failures"] = [failure] * attempted
            return outcome
        finally:
            shutil.rmtree(opdir)

    def _check_extend(self, op, opdir, outcome, calls):
        if len(calls) != 1:
            raise ValueError(f"{len(calls)} constructions returned, not 1")
        payload = json.loads((opdir / "e.json").read_text())
        last = (opdir / "e.csv").read_text().rstrip("\n").rsplit("\n", 1)[1].split(",")
        result = {
            "achieved_mass": payload["achieved_mass"],
            "penrose_slack": payload["penrose_slack"],
            "min_margin": payload["min_margin"],
            "outward_minimizing": payload["outward_minimizing"],
            "charges": [payload["charge"], payload["record"]["q_e"]],
            "f_far": float(last[1]),
            "df_far": float(last[2]),
        }
        self._check(op, result, outcome, calls[0][0])

    def _check_bartnik(self, op, opdir, outcome, calls):
        """Checks each witness's JSON entry and the extension it was built as."""
        payload = json.loads((opdir / "b.json").read_text())
        witnesses = payload["witnesses"]
        succeeded = [witness for witness in witnesses if witness["succeeded"]]
        if len(witnesses) != WITNESSES or len(succeeded) != len(calls):
            failure = _failure(op, "oracle", "OracleViolation", "witness_count", ["witness_count"])
            outcome["failures"] = [failure] * WITNESSES
            return
        calls = iter(calls)
        for witness in witnesses:
            k = witness["k"]
            witness_op = dict(op, k=k, m=(1.0 + 2.0 ** -k) * op["m_o"])
            if not witness["succeeded"]:
                type_name, _, message = witness["error"].partition(": ")
                outcome["failures"].append(
                    _failure(witness_op, "typed", type_name, f"k={k}: {message}")
                )
                continue
            timing, report = next(calls)
            bad = oracles.check_witness(op, payload["m_o"], witness)
            if bad:
                outcome["failures"].append(
                    _failure(witness_op, "oracle", "OracleViolation", ", ".join(bad), bad)
                )
                continue
            self._check(witness_op, self.extension_result(report), outcome, timing)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value.

    Below 2 * TAIL_BEYOND samples that percentile would lie under the median,
    so the median is reported instead, as the 50th percentile; at exactly
    2 * TAIL_BEYOND samples the two rules meet, so the figure does not jump
    when a run certifies one construction more or less.
    """
    ordered = sorted(latencies)
    size = len(ordered)
    if size < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (size - TAIL_BEYOND) / size, ordered[size - TAIL_BEYOND - 1]


def summarize(outcomes: list[dict]) -> dict:
    attempted = sum(o["attempted"] for o in outcomes)
    failures = [f for o in outcomes for f in o["failures"]]
    latencies = [seconds for o in outcomes for seconds in o["latencies"]]
    digits = [d for o in outcomes for d in o["digits"]]
    busy = sum(o["seconds"] for o in outcomes)
    return {
        "operations": len(outcomes),
        "attempted": attempted,
        "failed": len(failures),
        "certified": attempted - len(failures),
        "failures": failures,
        "latencies": latencies,
        "digits": digits,
        "busy_s": busy,
    }


def in_reference_seconds(outcomes: list[dict]) -> list[dict]:
    """The outcomes with their times in reference seconds (``reference.py``).

    An operation is rescaled by the mean probe pass time of the probes
    before it and inside it; each construction by the probes on either side
    of it.  A spell of slow machine slows the probe with the operation.
    """
    return [
        dict(
            outcome,
            seconds=outcome["seconds"] * reference.PASS_REF_S / outcome["pass_s"],
            latencies=outcome["ref_latencies"],
        )
        for outcome in outcomes
    ]


def end_to_end(outcomes: list[dict], setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and their wall-second twins."""
    wall = summarize(outcomes)
    ref = summarize(in_reference_seconds(outcomes))
    if not wall["latencies"] or not wall["digits"]:
        raise SystemExit("bench: no certified construction in the run")

    def times(summary):
        return (
            summary["certified"] / summary["busy_s"],
            statistics.median(summary["latencies"]),
            tail(summary["latencies"])[1],
        )

    metrics = dict(zip(("extensions_per_ref_s", "latency_p50_ref_s", "latency_tail_ref_s"),
                       times(ref)))
    metrics.update({
        "certified_ratio": wall["certified"] / wall["attempted"],
        "far_mass_digits": min(wall["digits"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return metrics, dict(zip(("extensions_per_s", "latency_p50_s", "latency_tail_s"),
                             times(wall)))


def per_layer(names: list[str], tracer, outcomes, untraced, ops: int) -> dict:
    """Per-operation layer figures named in BENCHMARK.json."""
    stats = tracer.per_name()
    traced = summarize(outcomes)
    plain = summarize(untraced)
    tags = collections.Counter(fail_tag(failure) for failure in traced["failures"])
    values = {}
    for name in names:
        head, _, field = name.rpartition(".")
        if name == "trace.overhead_ratio":
            value = (traced["certified"] / traced["busy_s"]) / (
                plain["certified"] / plain["busy_s"]
            )
        elif name == "pipeline.failed_op_s":
            value = sum(o["seconds"] for o in outcomes if o["failures"]) / ops
        elif head == "pipeline.fail":
            value = tags.get(field, 0)
        elif name == "cli_io.bytes_written_per_op":
            value = sum(o["bytes"] for o in outcomes) / ops
        elif head in tracing.LAYERS:
            value = sum(s["self_s"] for key, s in stats.items() if key.startswith(head + ".")) / ops
        else:
            if head not in tracer.wrapped:
                raise SystemExit(f"bench: {name} names no traced public function")
            entry = stats.get(head, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
            value = entry["calls" if field == "calls_per_op" else field] / ops
        values[name] = value
    return values


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(metrics: dict, units: dict, summary: dict) -> None:
    """The result line; a run is incorrect when any output broke an oracle."""
    result = {
        "correct": not any(f["kind"] == "oracle" for f in summary["failures"]),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))


def report_failures(args, summary: dict) -> None:
    for failure in summary["failures"]:
        entry = {"workload": args.workload, "seed": args.seed, **failure}
        print("# failure " + json.dumps(entry))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    pipeline, cli_io, extension_error = import_library()
    ops = workloads.generate(args.workload, args.seed)
    setup_s = time.perf_counter() - START
    print("# provenance " + json.dumps(provenance(args)))
    print(f"# inputs {args.workload} seed={args.seed} hash={workloads.input_hash(ops)} "
          f"drawn={len(ops)}")

    workdir = ROOT / ".bench_work" / str(os.getpid())
    runner = Runner(pipeline, cli_io, extension_error, workdir)
    try:
        if args.trace:
            return traced_run(args, spec, runner, ops[: workloads.TRACE_OPS[args.workload]])
        return untraced_run(args, spec, runner, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def untraced_run(args, spec, runner, ops, setup_s) -> int:
    setup_s = setup_seconds(args, setup_s)
    outcomes = []
    passes = [reference.probe()]
    deadline = time.perf_counter() + args.seconds
    for op in ops:
        if op["slot"] == 0 and time.perf_counter() >= deadline:
            break
        runner.passes = passes[-1:]
        outcome = runner.run(op)
        if len(runner.passes) == 1:  # no construction returned
            runner.passes.append(reference.probe())
        outcome["pass_s"] = statistics.fmean(runner.passes)
        passes += runner.passes[1:]
        outcomes.append(outcome)
    runner.passes = None
    summary = summarize(outcomes)
    metrics, wall = end_to_end(outcomes, setup_s)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(f"# operations {summary['operations']} constructions {summary['attempted']} "
          f"certified {summary['certified']} busy {summary['busy_s']:.3f} s")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for name, value in wall.items():
        print(f"# {name} = {value:.6g} {'1/s' if name.startswith('extensions') else 's'} "
              "(wall, not rescaled)")
    print(f"# fail_ratio = {summary['failed'] / summary['attempted']:.6g} 1 "
          f"({summary['failed']} of {summary['attempted']} constructions)")
    percentile = tail(summary["latencies"])[0]
    print(f"# latency_tail is p{percentile:.1f} of {len(summary['latencies'])} "
          f"certified constructions")
    print("# probe pass seconds " + " ".join(f"{p:.5f}" for p in passes))
    print("# operation seconds " + " ".join(f"{o['seconds']:.3f}" for o in outcomes))
    print("# construction seconds " + " ".join(f"{t:.3f}" for t in summary["latencies"]))
    print("# construction far-mass digits " + " ".join(f"{d:.2f}" for d in summary["digits"]))
    report_failures(args, summary)
    emit(metrics, units, summary)
    return 0


def traced_run(args, spec, runner, prefix) -> int:
    """Per-layer metrics of a fixed prefix of the workload's operations."""
    count = len(prefix)
    untraced = [runner.run(op) for op in prefix]
    tracer = tracing.Tracer()
    wrapped = tracer.install()
    try:
        outcomes = [runner.run(op, tracer) for op in prefix]
    finally:
        tracer.uninstall()
    summary = summarize(outcomes)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = per_layer(list(units), tracer, outcomes, untraced, count)
    print(f"# traced {count} operations, {wrapped} functions wrapped, "
          f"{len(tracer.name)} spans")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    report_failures(args, summary)
    emit(metrics, units, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
