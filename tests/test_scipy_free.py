"""The package import and every round construction load no scipy module.

scipy is read only by the area gauge of non-round seeds
(``sphere_seed._not_a_knot``), which imports it on first call.  The check
runs in a fresh interpreter, because pytest's own warning filters import
``scipy.integrate`` into this one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import charged_extensions

SRC = Path(charged_extensions.__file__).resolve().parent.parent

_ROUND_RUNS = """
import sys
from charged_extensions import cli_io, pipeline as pl

data = pl.BartnikDataSpec(n=2, q=0.2, lam=-1.0, r_o=1.0)
pl.construct_extension(data, 0.75)
pl.bartnik_report(data)
code = cli_io.main(["extend", "--n", "2", "--r-o", "1.0", "--mass", "0.55",
                    "--out", "report.json", "--profile-out", "profile.csv",
                    "--plot-prefix", "run"])
assert code == 0, code
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_round_runs_load_no_scipy(tmp_path) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", _ROUND_RUNS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert {p.name for p in tmp_path.iterdir()} >= {"report.json", "profile.csv"}
