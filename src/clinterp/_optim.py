"""Deterministic search plumbing.

Every search in the package runs through batched_search, a box-constrained
random search that scores whole blocks of rows in one call, so that seeding
and tie-breaking behave identically everywhere: one generator fixes the
draws and ties go to the earlier row. spawn_rngs serves the samplers that
need one generator per sample, and cube_corners the exact enumerations over
the corners of a cube.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def batched_search(
    score: Callable[[np.ndarray], np.ndarray],
    seeds: np.ndarray,
    *,
    lo: float,
    hi: float,
    rows: int,
    keep: int,
    half: float,
    iters: int,
    tol: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, int]:
    """Minimize score, which maps an (m, k) array of rows to m values, over
    the box [lo, hi]^k.

    The seed rows (clipped to the box) are scored first and the best keep of
    them become incumbents. Each of at most iters rounds draws rows rows,
    shared evenly among the incumbents, uniformly within +-half of each and
    clipped to the box, so that faces and corners stay reachable; every
    incumbent adopts its best row if that row improves it. The half-width
    halves every round until it falls below tol. From the best incumbent,
    rounds of single-coordinate steps (sizes half 2^-j down to tol, both
    signs) follow while a round improves, again at most iters of them. Ties
    go to the earlier row. Returns the best row, its value and the number
    of rows scored.
    """
    seeds = np.clip(np.atleast_2d(np.asarray(seeds, dtype=float)), lo, hi)
    k = seeds.shape[1]
    vals = score(seeds)
    scored = seeds.shape[0]
    pick = np.argsort(vals, kind="stable")[:max(1, keep)]
    inc, inc_vals = seeds[pick], vals[pick]
    m = len(pick)
    per = math.ceil(max(1, rows) / m)
    width = half
    for _ in range(iters):
        if width < tol:
            break
        cand = np.clip(inc[:, None, :] + rng.uniform(-width, width, (m, per, k)), lo, hi)
        vals = score(cand.reshape(-1, k)).reshape(m, per)
        scored += m * per
        j = np.argmin(vals, axis=1)
        won = np.flatnonzero(vals[np.arange(m), j] < inc_vals)
        inc[won] = cand[won, j[won]]
        inc_vals[won] = vals[won, j[won]]
        width /= 2.0

    i = int(np.argmin(inc_vals))
    point, value = inc[i], float(inc_vals[i])
    ladder = half * 0.5 ** np.arange(max(1, math.ceil(math.log2(half / tol))))
    moves = (np.eye(k)[:, None, :]
             * np.concatenate([ladder, -ladder])[None, :, None]).reshape(-1, k)
    for _ in range(iters):
        cand = np.clip(point + moves, lo, hi)
        vals = score(cand)
        scored += cand.shape[0]
        j = int(np.argmin(vals))
        if not vals[j] < value:
            break
        point, value = cand[j], float(vals[j])
    return point, value, scored


def cube_corners(k: int) -> np.ndarray:
    """The 2^k corners of [0, 1]^k as rows, bit i of the row index in column i."""
    return (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(float)


def bisect_largest(pred: Callable[[float], bool], lo: float, hi: float, *, tol: float = 1e-12) -> float:
    """Largest x in [lo, hi] with pred(x), for pred true on an initial segment.

    Assumes pred(lo) holds; returns lo if nothing larger verifies. The returned
    point is always one where pred was evaluated and found true.
    """
    if pred(hi):
        return hi
    good, bad = lo, hi
    while bad - good > tol:
        mid = 0.5 * (good + bad)
        if pred(mid):
            good = mid
        else:
            bad = mid
    return good
