"""Fixed CLI case set whose artifacts a pure refactor must leave byte-identical.

Usage::

    PYTHONPATH=src python tests/artifact_cases.py OUTDIR

Each case runs in-process through ``cli_io.main`` inside its own directory
``OUTDIR/<name>``, with output paths relative to it (artifacts echo their
own output paths), and its stdout, stderr and exit code are written next to
its artifacts.  Two trees agree byte for byte when ``diff -r`` of their
output directories is empty.  Not collected by pytest; ``test_cli_io``
checks that every argv still parses.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

CASES = [
    ("classify", ["classify", "--n", "2", "--m", "1.25", "--q", "0.75", "--lambda", "0"]),
    ("rn-profile", ["rn-profile", "--n", "2", "--m", "1", "--s-max", "10",
                    "--out", "profile.csv"]),
    ("rn-profile-n3", ["rn-profile", "--n", "3", "--m", "1", "--q", "0.3",
                       "--lambda", "-1.5", "--s-max", "10", "--out", "profile.csv"]),
    ("rn-profile-n4", ["rn-profile", "--n", "4", "--m", "0.5", "--q", "0.2",
                       "--lambda", "-3", "--s-max", "6", "--out", "profile.csv"]),
    ("collar-round", ["collar", "--n", "2", "--r-o", "1.0", "--epsilon", "0.05",
                      "--hawking-out", "hawking.csv", "--grid-out", "grid.csv"]),
    ("glue", ["glue", "--n", "2", "--m", "1.0", "--mass", "1.2",
              "--out", "glued.csv", "--record-out", "record.json"]),
    ("extend-round", ["extend", "--n", "2", "--r-o", "1.0", "--mass", "0.55",
                      "--out", "report.json", "--profile-out", "profile.csv",
                      "--plot-prefix", "run"]),
    ("bartnik-round", ["bartnik", "--n", "2", "--r-o", "1.0", "--out", "bartnik.json"]),
    ("selftest", ["selftest"]),
    ("selftest-subset", ["selftest", "--criteria", "1,4,12", "--out", "ledger.json"]),
    ("selftest-full", ["selftest", "--out", "ledger.json"]),
    ("extend-cos-0.62", ["extend", "--n", "2", "--seed-cos", "0.62", "--mass", "0.58",
                         "--out", "report.json", "--profile-out", "profile.csv",
                         "--plot-prefix", "run"]),
    ("extend-cos-0.3", ["extend", "--n", "2", "--seed-cos", "0.3", "--mass", "0.7"]),
    ("bartnik-cos-0.3", ["bartnik", "--n", "2", "--seed-cos", "0.3"]),
    ("bartnik-cos-0.6-lam", ["bartnik", "--n", "2", "--seed-cos", "0.6",
                             "--lambda", "-3.5"]),
    ("collar-cos-0.62", ["collar", "--n", "2", "--seed-cos", "0.62",
                         "--grid-out", "grid.csv", "--hawking-out", "hawking.csv"]),
    ("collar-cos-0.3", ["collar", "--n", "2", "--seed-cos", "0.3",
                        "--grid-out", "grid.csv", "--hawking-out", "hawking.csv"]),
    ("extend-n3", ["extend", "--n", "3", "--r-o", "1.0", "--q", "0.1",
                   "--lambda", "-1.5", "--mass", "0.65"]),
]


def write_cases(outdir) -> None:
    """Run every case in ``outdir/<name>`` and keep its streams and exit code."""
    from charged_extensions import cli_io

    home = os.getcwd()
    for name, argv in CASES:
        case_dir = Path(outdir, name)
        case_dir.mkdir(parents=True, exist_ok=True)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(case_dir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_io.main(list(argv))
        finally:
            os.chdir(home)
        (case_dir / "stdout.txt").write_text(out.getvalue(), encoding="utf-8")
        (case_dir / "stderr.txt").write_text(err.getvalue(), encoding="utf-8")
        (case_dir / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/artifact_cases.py OUTDIR")
    write_cases(Path(sys.argv[1]).resolve())
