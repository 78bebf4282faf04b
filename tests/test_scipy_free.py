"""The package import and every construction load no scipy module.

The package reads NumPy alone, on round and on axisymmetric seeds; scipy
is a test-only dependency.  The check runs in a fresh interpreter,
because pytest's own warning filters import ``scipy.integrate`` into this
one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import charged_extensions

SRC = Path(charged_extensions.__file__).resolve().parent.parent

_RUNS = """
import math
import sys
from charged_extensions import cli_io, pipeline as pl

data = pl.BartnikDataSpec(n=2, q=0.2, lam=-1.0, r_o=1.0)
pl.construct_extension(data, 0.75)
pl.bartnik_report(data)
with open("seed.csv", "w") as handle:
    handle.write("theta,w\\n" + "".join(
        f"{math.pi * k / 40!r},{0.3 * math.cos(math.pi * k / 40)!r}\\n" for k in range(41)))
runs = [
    ["extend", "--n", "2", "--r-o", "1.0", "--mass", "0.55", "--out", "report.json",
     "--profile-out", "profile.csv", "--plot-prefix", "run"],
    ["extend", "--n", "2", "--seed-cos", "0.62", "--mass", "0.58", "--out", "cos.json"],
    ["extend", "--n", "2", "--seed-csv", "seed.csv", "--mass", "0.7", "--out", "csv.json"],
    ["collar", "--n", "2", "--seed-cos", "0.3", "--grid-out", "grid.csv"],
    ["bartnik", "--n", "2", "--seed-cos", "0.6", "--lambda", "-3.5", "--out", "bartnik.json"],
]
for argv in runs:
    code = cli_io.main(argv)
    assert code == 0, (argv, code)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_constructions_load_no_scipy(tmp_path) -> None:
    # A round construction, a round bartnik_report, and in-process CLI runs:
    # a round extend writing every artifact, an eigen-route cos extend, a
    # --seed-csv extend, a cos collar with --grid-out and a negative-floor
    # cos bartnik ladder.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", _RUNS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert {p.name for p in tmp_path.iterdir()} >= {
        "report.json", "profile.csv", "cos.json", "csv.json", "grid.csv", "bartnik.json"}
