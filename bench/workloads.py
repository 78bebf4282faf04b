"""Seeded inputs of the benchmark workloads.

Inputs are plain dicts of numbers and strings, drawn from one
``numpy.random.Generator`` per run, so the same seed gives the same inputs
and their hash identifies them.  Draws come in fixed blocks: every block has
the same mix of dimensions, routes and operation kinds, and a run measures
whole blocks, so every run sees the same mix whatever the seed.  Closed
forms the oracles need (the volume radius of the seed and its optimal mass
m_o) are computed here, never taken from the library.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("round-dial", "cli-ladder")

# Operations drawn per run: several times what one run measures on a
# two-core machine.  A run stops early only if it exhausts them.
DRAWS = {"round-dial": 480, "cli-ladder": 48}

# Operations of the traced run: whole blocks, so the same mix as the
# untraced runs, and a fixed count, so count metrics repeat exactly.
TRACE_OPS = {"round-dial": 16, "cli-ladder": 4}

ROUND_DIMENSIONS = (2, 2, 2, 2, 3, 3, 4, 4)  # one round-dial block
ROUND_LAM_ZERO = 3  # draws of a block with lam = 0

# The far-end mass error grows with |lam|, and far_mass_digits is a minimum
# over a run, so every negative lam of cli-ladder comes from one narrow band.
CLI_LAM_BAND = (3.0, 4.0)


def m_o(n: int, r: float, q: float, lam: float) -> float:
    """Optimal mass of a minimal sphere of volume radius r."""
    return 0.5 * r ** (n - 1) * (
        1.0 + q * q / r ** (2 * (n - 1)) - 2.0 * lam * r * r / (n * (n + 1))
    )


def cos_seed_geometry(a: float) -> tuple[float, float]:
    """Volume radius and minimum Gauss curvature of exp(2 a cos(theta)) g_round.

    The area is 4 pi sinh(2a) / (2a); the Gauss curvature is
    exp(-2a cos(theta)) (1 + 2a cos(theta)), smallest at cos(theta) = -sign(a).
    """
    radius = math.sqrt(math.sinh(2.0 * a) / (2.0 * a)) if a else 1.0
    return radius, math.exp(2.0 * abs(a)) * (1.0 - 2.0 * abs(a))


def _with_m_o(draw: dict) -> dict:
    draw["m_o"] = m_o(draw["n"], draw["r_o"], draw["q"], draw["lam"])
    return draw


def _with_mass(draw: dict, k: int) -> dict:
    """Request m = (1 + 2^-k) m_o."""
    _with_m_o(draw)
    draw["k"] = k
    draw["m"] = (1.0 + 2.0 ** -k) * draw["m_o"]
    return draw


def _flat_round_seed(rng, n: int) -> dict:
    r = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    q = rng.uniform(0.0, 0.5) * r ** (n - 1)
    return {"seed": "round", "n": n, "r_o": r, "q": q, "lam": 0.0}


def _cos_seed(rng, negative: bool, lam_band: tuple[float, float] | None) -> dict:
    """An n = 2 seed a cos(theta) on which the construction's hypotheses hold.

    ``negative`` asks for |a| > 1/2, where the Gauss curvature dips below
    zero (the eigenfunction lapse when lam = 0).  lam is 0 without a
    ``lam_band``, else -U(lam_band).  A negative lam must dominate the
    negative curvature plus the charge term, and a flat background needs the
    charge below the positive curvature floor; draws that miss these
    hypotheses are redrawn, since the library rejects them by design.
    """
    while True:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        a = sign * (rng.uniform(0.55, 0.7) if negative else rng.uniform(0.0, 0.45))
        r, k_min = cos_seed_geometry(a)
        q = rng.uniform(0.0, 0.3) * r
        charge = q * q / r ** 4
        if lam_band is None:
            lam = 0.0
            if k_min > 0.0 and charge > 0.5 * k_min:
                continue
        else:
            lam = -rng.uniform(*lam_band)
            if -lam < 1.25 * (max(0.0, -k_min) + charge):
                continue
        return {"seed": "cos", "n": 2, "a": a, "r_o": r, "q": q, "lam": lam}


def _strata(rng, size: int) -> np.ndarray:
    """One uniform draw from each of ``size`` equal strata of [0, 1), shuffled."""
    return (rng.permutation(size) + rng.uniform(size=size)) / size


def _round_dial_block(rng, block: int) -> list[dict]:
    """Eight round seeds, n = 2, 2, 2, 2, 3, 3, 4, 4, in random order.

    r_o, the charge fraction u and the gap exponent k are drawn stratified
    across the block, so every block spans their ranges: r_o log-uniform on
    [0.5, 2], q = u r_o^(n-1) with u in [0, 0.5), m = (1 + 2^-k) m_o with k
    in 1..16.  Three draws have lam = 0; the others lam = -U(0.4, 2.5) /
    r_o^2, with |lam| at most 4.  Every draw lies where the construction
    certifies today: |lam| r_o^2 > 0.4 > u^2 keeps the n = 2 negative-floor
    route above its charge floor, and |lam| <= 4 keeps the far-end mass well
    inside the model end's 1e-8 check, which |lam| near 10 breaks.
    """
    size = len(ROUND_DIMENSIONS)
    radius = np.exp(np.log(0.5) + np.log(4.0) * _strata(rng, size))
    charge = 0.5 * _strata(rng, size)
    gaps = 1 + (16 * _strata(rng, size)).astype(int)
    flat = rng.permutation(size) < ROUND_LAM_ZERO
    ops = []
    for n, r, u, k, lam_zero in zip(ROUND_DIMENSIONS, radius, charge, gaps, flat):
        r, u, k = float(r), float(u), int(k)
        lam = 0.0 if lam_zero else -min(4.0, rng.uniform(0.4, 2.5) / (r * r))
        seed = {"seed": "round", "n": n, "r_o": r, "q": u * r ** (n - 1), "lam": lam}
        ops.append(dict(_with_mass(seed, k), op="construct"))
    return [ops[i] for i in rng.permutation(size)]


def _cli_block(rng, block: int) -> list[dict]:
    """extend, bartnik, extend, bartnik: both ladders on cos seeds, one
    extend on a cos seed and one on a round seed.

    One ladder takes the positive-scalar route (lam = 0) and the other the
    negative-floor route (lam in CLI_LAM_BAND); the cos extend has |a| in
    [0.55, 0.7] and lam = 0, so it takes the eigenfunction lapse, and every
    block runs all three collar routes.  The round extend has lam = 0 and
    its dimension cycles through 2, 3, 4 by block.  A ladder shares one path
    among its seven witnesses, so every block's median construction is a cos
    witness from the middle of its group: the round extend is faster, and
    the cos extend, which builds its path for one construction, is slower.
    Extend masses have gaps 2^-k with k in 1..7, the depth of the ladder.
    """
    ladders = [_cos_seed(rng, False, None), _cos_seed(rng, False, CLI_LAM_BAND)]
    extends = [_cos_seed(rng, True, None), _flat_round_seed(rng, 2 + block % 3)]
    if rng.uniform() < 0.5:
        ladders.reverse()
    if rng.uniform() < 0.5:
        extends.reverse()
    ops = []
    for ladder, extend in zip(ladders, extends):
        ops.append(dict(_with_mass(extend, int(rng.integers(1, 8))), op="extend"))
        ops.append(dict(_with_m_o(ladder), op="bartnik"))
    return ops


_BLOCKS = {"round-dial": _round_dial_block, "cli-ladder": _cli_block}


def generate(workload: str, seed: int, count: int | None = None) -> list[dict]:
    """The first ``count`` operations of a workload (default: a full run).

    Each operation records its ``index`` in the run and its ``slot`` in its
    block; a run starts a block (slot 0) only while time is left.
    """
    count = DRAWS[workload] if count is None else count
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops: list[dict] = []
    block = 0
    while len(ops) < count:
        drawn = _BLOCKS[workload](rng, block)
        ops.extend(dict(op, slot=slot) for slot, op in enumerate(drawn))
        block += 1
    for index, op in enumerate(ops[:count]):
        op["index"] = index
    return ops[:count]


def input_hash(ops: list[dict]) -> str:
    """Digest of the generated inputs; floats enter with all their digits."""
    text = json.dumps(ops, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
