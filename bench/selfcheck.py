#!/usr/bin/env python3
"""Self-tests of the benchmark at a tiny size.

Run from the root of a source checkout (takes about five minutes):

    python3 bench/selfcheck.py

Checks that the oracles reject a perturbed achieved mass and a negative
margin, also on the extension behind a bartnik witness; that times read in
reference seconds scale with the probe; that a seed fixes the inputs; that every metric of BENCHMARK.json is printed with its unit;
that two traced runs of one seed give identical count metrics on the prefix
the benchmark traces (any that differ are listed as unstable); and that the
benchmark refuses to run without the program's source.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import oracles
import run
import workloads

ROOT = run.ROOT
COUNT_SUFFIXES = (".calls_per_op", ".bytes_written_per_op")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        check=False,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_oracles() -> None:
    pipeline, cli_io, extension_error = run.import_library()
    op = workloads.generate("round-dial", 0, 1)[0]
    report = pipeline.construct_extension(
        pipeline.BartnikDataSpec(n=op["n"], q=op["q"], lam=op["lam"], r_o=op["r_o"]),
        op["m"],
    )
    runner = run.Runner(pipeline, cli_io, extension_error, ROOT / ".bench_work")
    result = runner.extension_result(report)
    assert oracles.check_extension(op, result) == [], "a true result must pass"
    shifted = dict(result, achieved_mass=result["achieved_mass"] * (1.0 + 1e-6))
    assert "achieved_mass" in oracles.check_extension(op, shifted)
    negative = dict(result, min_margin=-abs(result["min_margin"]))
    assert "min_margin" in oracles.check_extension(op, negative)
    far = dict(result, df_far=result["df_far"] * (1.0 + 1e-4))
    assert "far_mass" in oracles.check_extension(op, far)
    outcome = run._outcome(1.0, 1)
    runner._check(op, shifted, outcome, (1.0, None))
    assert [f["kind"] for f in outcome["failures"]] == ["oracle"], outcome
    assert outcome["latencies"] == [], "a failed construction has no latency sample"
    assert run.summarize([outcome])["failed"] == 1


def check_witness_oracles() -> None:
    """A ladder witness is judged on the extension built for it, not only on its JSON."""
    pipeline, cli_io, extension_error = run.import_library()
    op = workloads.generate("round-dial", 0, 1)[0]
    op = dict(op, op="bartnik", k=1, m=1.5 * op["m_o"])
    report = pipeline.construct_extension(
        pipeline.BartnikDataSpec(n=op["n"], q=op["q"], lam=op["lam"], r_o=op["r_o"]),
        op["m"],
    )
    shifted = copy.copy(report)
    shifted.achieved_mass *= 1.0 + 1e-6
    witnesses = [{"k": 1, "mass": op["m"], "succeeded": True,
                  "penrose_slack": report.penrose_slack}]
    witnesses += [{"k": k, "succeeded": False, "error": "CollarError: [stage: collar] skipped"}
                  for k in range(2, run.WITNESSES + 1)]
    runner = run.Runner(pipeline, cli_io, extension_error, ROOT / ".bench_work")
    opdir = ROOT / ".bench_work" / "witness"
    opdir.mkdir(parents=True, exist_ok=True)
    (opdir / "b.json").write_text(json.dumps({"m_o": op["m_o"], "witnesses": witnesses}))
    outcomes = []
    try:
        for kept in (report, shifted):
            outcome = run._outcome(1.0, run.WITNESSES)
            runner._check_bartnik(op, opdir, outcome, [((0.5, None), kept)])
            outcomes.append(outcome)
    finally:
        shutil.rmtree(opdir)
    good, bad = outcomes
    skipped = ["typed"] * (run.WITNESSES - 1)
    assert [f["kind"] for f in good["failures"]] == skipped, good["failures"]
    assert good["latencies"] == [0.5], good
    assert [f["kind"] for f in bad["failures"]] == ["oracle"] + skipped, bad["failures"]
    assert "achieved_mass" in bad["failures"][0]["oracles"], bad["failures"][0]
    assert bad["latencies"] == [], bad


def check_reference_seconds() -> None:
    """On a machine at half the reference speed, times read half in ref_s."""
    slow = 2.0 * run.reference.PASS_REF_S
    runner = run.Runner(*run.import_library(), ROOT / ".bench_work")
    runner.passes = [slow]
    probe, run.reference.probe = run.reference.probe, lambda: slow
    try:
        ref_s = runner._probe_after(3.0)
    finally:
        run.reference.probe = probe
    assert ref_s == 1.5 and runner.passes == [slow, slow], (ref_s, runner.passes)
    outcome = dict(run._outcome(4.0, 1), latencies=[3.0], ref_latencies=[ref_s], pass_s=slow)
    scaled = run.in_reference_seconds([outcome])[0]
    assert scaled["seconds"] == 2.0 and scaled["latencies"] == [1.5], scaled


def check_inputs() -> None:
    for name in workloads.WORKLOADS:
        count = workloads.TRACE_OPS[name]
        first = workloads.input_hash(workloads.generate(name, 5, count))
        again = workloads.input_hash(workloads.generate(name, 5, count))
        other = workloads.input_hash(workloads.generate(name, 6, count))
        assert first == again, f"{name}: same seed, different inputs"
        assert first != other, f"{name}: different seeds, same inputs"


def check_metrics_and_counts() -> list[str]:
    spec = run.load_spec()
    unstable = []
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace)]
            first = bench(*args)
            result = last_json(first)
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace={trace}: {sorted(set(got) ^ set(wanted))}"
            for name, unit in wanted.items():
                assert f"# {name} = " in first.stdout and f" {unit}\n" in first.stdout, name
            if not trace:
                continue
            second = last_json(bench(*args))["metrics"]
            for name, metric in result["metrics"].items():
                if name.endswith(COUNT_SUFFIXES) or name.startswith("pipeline.fail."):
                    if metric["value"] != second[name]["value"]:
                        unstable.append(
                            f"{workload} {name}: {metric['value']} vs {second[name]['value']}"
                        )
    return unstable


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = bench("--workload", "round-dial", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0, "ran without the program's source"
    assert '"metrics"' not in done.stdout, "printed a result without the program's source"


def main() -> int:
    failed = 0
    for check in (check_oracles, check_witness_oracles, check_reference_seconds,
                  check_inputs, check_bare_directory):
        try:
            check()
            print(f"ok   {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    try:
        unstable = check_metrics_and_counts()
    except AssertionError as exc:
        failed += 1
        print(f"FAIL check_metrics_and_counts: {exc}")
    else:
        for line in unstable:
            print(f"UNSTABLE {line}")
        failed += bool(unstable)
        print(f"{'FAIL' if unstable else 'ok  '} check_metrics_and_counts")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
