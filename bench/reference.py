"""Reference probe: a fixed task that measures how fast the machine runs now.

The machine the benchmark was tuned on does not run at one speed: over tens
of seconds to minutes it slows and recovers by up to a factor of two, in
wall and CPU time alike, and every operation slows with it.  The benchmark
therefore times this probe between operations and reports the time metrics
in reference seconds (``ref_s``): wall seconds rescaled to the speed at
which one probe pass takes ``PASS_REF_S``.

The probe uses neither the program nor anything a change to the program can
reach, so it measures the machine alone.  Its mix follows the program's: a
scalar Python float loop (the model-profile integrator is one) and numpy
work on arrays of a few thousand samples (the grids).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PASS_REF_S = 0.005  # one reference second is the time of 200 probe passes
PASSES = 3  # passes per probe; the probe reports their median
STEPS = 14000
SAMPLES = 4097
SWEEPS = 30


def _pass() -> float:
    start = time.perf_counter()
    y, v, h = 1.0, 0.0, 1e-3
    for _ in range(STEPS):
        a = -y / (1.0 + y * y)
        mid = y + 0.5 * h * v
        b = -mid / (1.0 + mid * mid)
        y += h * (v + 0.5 * h * a)
        v += h * b
    x = np.linspace(0.1, 4.0, SAMPLES)
    for _ in range(SWEEPS):
        z = np.sqrt(1.0 + x * x) * np.exp(-x) + np.gradient(x * x, 1e-3)
        x = x + 1e-12 * z
    return time.perf_counter() - start


def probe() -> float:
    """Wall seconds of one probe pass now: the median of PASSES passes."""
    return statistics.median(_pass() for _ in range(PASSES))
