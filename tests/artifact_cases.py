"""Fixed CLI case set whose artifacts a pure refactor must leave byte-identical.

Usage::

    PYTHONPATH=src python tests/artifact_cases.py OUTDIR
    python tests/artifact_cases.py --compare OLD NEW

Each case runs in-process through ``cli_io.main`` inside its own directory
``OUTDIR/<name>``, with output paths relative to it (artifacts echo their
own output paths), and its stdout, stderr and exit code are written next to
its artifacts.  Two trees agree byte for byte when ``diff -r`` of their
output directories is empty.  ``--compare`` lists, for every file that
differs between two such trees, which numeric fields moved and their
largest absolute shift, also relative to the field's largest magnitude in
the old tree; it exits 1 when any file differs.
Not collected by pytest; ``test_cli_io`` checks that every argv still
parses and that the comparison reads JSON, tables and text.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
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
    ("collar-cos-0.6-lam", ["collar", "--n", "2", "--seed-cos", "0.6", "--lambda", "-3.5",
                            "--grid-out", "grid.csv", "--hawking-out", "hawking.csv"]),
    # An amplitude below the margin's crossing: the energy condition fails.
    ("collar-cos-0.3-below", ["collar", "--n", "2", "--seed-cos", "0.3",
                              "--amplitude", "0.2"]),
    # On a coarse grid the pole columns carry the most weight.
    ("collar-cos-0.62-coarse", ["collar", "--n", "2", "--seed-cos", "0.62", "--n-theta", "33",
                                "--n-t", "65", "--grid-out", "grid.csv",
                                "--hawking-out", "hawking.csv"]),
    ("extend-cos-0.62-coarse", ["extend", "--n", "2", "--seed-cos", "0.62", "--n-theta", "33",
                                "--n-t", "65", "--mass", "0.9"]),
    ("extend-n3", ["extend", "--n", "3", "--r-o", "1.0", "--q", "0.1",
                   "--lambda", "-1.5", "--mass", "0.65"]),
    ("extend-csv-0.3", ["extend", "--n", "2", "--seed-csv", "seed.csv", "--mass", "0.7"]),
    ("extend-cos-2-lam", ["extend", "--n", "2", "--seed-cos", "2", "--lambda", "-200",
                          "--mass", "700"]),
    ("extend-round-n4", ["extend", "--n", "4", "--r-o", "2", "--q", "3.2", "--lambda", "-0.5",
                         "--mass", "5.4400830078125"]),
    ("extend-round-small", ["extend", "--n", "2", "--r-o", "0.5", "--q", "0.1",
                            "--lambda", "-4", "--mass", "0.3647916666666667"]),
    # A mass dial rung m = (1 + 2^-28) m_o: the collar spends 0.9 of the gap.
    ("extend-round-dial", ["extend", "--n", "2", "--r-o", "1.0",
                           "--mass", "0.5000000018626451"]),
]


def _cos_seed_csv(a: float, samples: int = 41) -> str:
    """A ``--seed-csv`` file sampling a cos(theta) at uniform polar angles."""
    thetas = (math.pi * k / (samples - 1) for k in range(samples))
    return "\n".join(["theta,w"] + [f"{t!r},{a * math.cos(t)!r}" for t in thetas]) + "\n"


# Input files of a case, written into its directory before it runs, so its
# argv names them relatively and its echoed config is byte-stable.
INPUTS = {"extend-csv-0.3": {"seed.csv": _cos_seed_csv(0.3)}}


def write_cases(outdir) -> None:
    """Run every case in ``outdir/<name>`` and keep its streams and exit code."""
    from charged_extensions import cli_io

    home = os.getcwd()
    for name, argv in CASES:
        case_dir = Path(outdir, name)
        case_dir.mkdir(parents=True, exist_ok=True)
        for file, text in INPUTS.get(name, {}).items():
            (case_dir / file).write_text(text, encoding="utf-8")
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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _flatten(value, key, fields) -> None:
    """Leaves of a JSON value by key path; list entries share ``key[]``."""
    if isinstance(value, dict):
        for name, item in value.items():
            _flatten(item, f"{key}.{name}" if key else name, fields)
    elif isinstance(value, list):
        for item in value:
            _flatten(item, key + "[]", fields)
    else:
        fields.setdefault(key, []).append(value)


def _fields(text: str) -> dict[str, list]:
    """Values of an artifact by field: JSON by key path, a table with a
    header row (``#`` allowed) by column name, other text as ``line k``
    with its numbers parsed and its words kept as they are."""
    try:
        fields: dict[str, list] = {}
        _flatten(json.loads(text), "", fields)
        return fields
    except ValueError:
        pass
    rows = [re.split(r"[,\s]+", line.strip().lstrip("#").strip())
            for line in text.splitlines() if line.strip()]
    if (len(rows) > 1 and not any(_NUMBER.fullmatch(cell) for cell in rows[0])
            and all(len(row) == len(rows[0]) for row in rows)):
        return {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}
    return {f"line {k + 1}": re.split(r"[,\s]+", line.strip())
            for k, line in enumerate(text.splitlines())}


def _number(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str) and _NUMBER.fullmatch(value):
        return float(value)
    return None


def _shift(old: list, new: list) -> str | None:
    """How a field moved between two trees, or None if it did not.  The
    relative shift is the largest absolute one over the field's largest
    finite magnitude in the old tree, so exact zeros in a field do not make
    it infinite."""
    if old == new:
        return None
    if not (old and new):
        return f"only in {'old' if old else 'new'}"
    if len(old) != len(new):
        return f"count {len(old)} -> {len(new)}"
    scale = abs_ = 0.0
    for a, b in zip(old, new):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                return f"non-numeric value {a!r} -> {b!r}"
            continue
        if math.isfinite(x):
            scale = max(scale, abs(x))
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        abs_ = max(abs_, abs(y - x))
    rel = abs_ / scale if scale else math.inf
    return f"max rel shift {rel:.2g} (abs {abs_:.2g})"


def compare_trees(old, new) -> list[str]:
    """One line per moved field of every file that differs between two
    output trees of ``write_cases``, and one per file found in one only."""
    old, new = Path(old), Path(new)
    names = sorted({p.relative_to(root).as_posix() for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {'old' if a.is_file() else 'new'}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        before = _fields(a.read_text(encoding="utf-8"))
        after = _fields(b.read_text(encoding="utf-8"))
        moved = [f"{name}: {key} {change}" for key in sorted(set(before) | set(after))
                 if (change := _shift(before.get(key, []), after.get(key, [])))]
        lines.extend(moved or [f"{name}: differs in layout only"])
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        report = compare_trees(sys.argv[2], sys.argv[3])
        print("\n".join(report) if report else "identical")
        raise SystemExit(1 if report else 0)
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/artifact_cases.py OUTDIR | --compare OLD NEW")
    write_cases(Path(sys.argv[1]).resolve())
