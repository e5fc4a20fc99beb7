"""Deterministic search plumbing.

Every search in the package runs through batched_search, a box-constrained
random search that scores whole blocks of rows in one call, so that seeding
and tie-breaking behave identically everywhere: one generator fixes the
draws and ties go to the earlier row. interval_minimize serves the
one-dimensional minimizations, many intervals per call on a shrinking grid,
and grid_bracket the monotone level searches, many rows per call, each
settled on a fixed grid in a few guided probes. spawn_rngs serves the
samplers that need one generator per sample, and cube_corners the exact
enumerations over the corners of a cube.
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


def interval_minimize(
    score: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    *,
    xatol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize score, which maps a 1-D array of points to their values, on
    each of the intervals [lo_i, hi_i] at once.

    Every round scores 33 evenly spaced points on every interval, both ends
    included, in one call, then shrinks each interval to the two grid cells
    around its best point. Those cells hold the minimizer of a unimodal
    function, and the first grid is a presample for one that is not. Rounds
    end once the cells around every best point span at most xatol. Each
    interval keeps the best point it has scored; ties keep the earlier one.
    Returns the best point and value per interval.
    """
    points = 33
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    lo, hi = lo.copy(), hi.copy()
    m = lo.shape[0]
    frac = np.linspace(0.0, 1.0, points)
    rows = np.arange(m)
    best_t = lo.copy()
    best = np.full(m, math.inf)
    last = math.inf
    while True:
        grid = lo[:, None] + (hi - lo)[:, None] * frac
        grid[:, -1] = hi
        vals = score(grid.ravel()).reshape(m, points)
        j = np.argmin(vals, axis=1)
        won = vals[rows, j] < best
        best_t[won] = grid[won, j[won]]
        best[won] = vals[won, j[won]]
        width = float(np.max(hi - lo))
        # the second test ends a round that rounding kept from shrinking
        if not (2.0 * width / (points - 1) > xatol and width < last):
            return best_t, best
        last = width
        lo = grid[rows, np.maximum(j - 1, 0)]
        hi = grid[rows, np.minimum(j + 1, points - 1)]


def grid_bracket(
    probe: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    n: int,
    cap: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The grid cell where a monotone test stops marking a level, for n rows
    at once.

    probe(rows, lam) tests row rows[i] at the level lam[i] > 0 and returns
    whether each level is marked, together with a residual that falls as lam
    grows and is positive where the level is marked. A row marked at a level
    is marked at every lower one, and level 0 counts as marked. On the grid
    lam_j = cap (j 2^-steps), j = 0, ..., 2^steps, every row's answer is the
    cell (lam_j, lam_(j+1)) with lam_j marked and lam_(j+1) not; rows marked
    at cap report (cap, inf). The cell is unique, so the answer is the one a
    plain bisection of the grid returns, and the residual only decides which
    levels get probed. The grid has at most 52 halvings, so that its float
    indices stay exact and its cells stay at least an ulp of cap wide.

    Every row is probed at cap first; after that, each round probes every
    row whose cell is still open once. The index comes from regula falsi in
    log lam on the residuals at the two ends of the row's index range, with
    the Illinois rule: an end kept twice in a row has its residual halved.
    Until the low end has a finite residual, the guess takes the residual to
    fall by one per unit of log lam: the log of a quasi-concave function's
    inverse in its second argument grows at least that fast in the log of
    its target. The index range is bisected where the guess is not finite,
    and after three probes that leave more than half the range.
    """
    steps = min(steps, 52)
    size = 2.0 ** steps
    stuck, r_hi = probe(np.arange(n), np.full(n, cap, dtype=float))
    r_hi = np.array(r_hi, dtype=float)
    lo = np.zeros(n)
    hi = np.full(n, size)
    # log(j / size) at each end of the range; the low end starts unknown
    t_lo = np.full(n, -math.inf)
    t_hi = np.zeros(n)
    r_lo = np.full(n, math.nan)
    kept = np.zeros(n, dtype=int)
    tries = np.zeros(n, dtype=int)
    ref = hi.copy()
    while True:
        rows = np.flatnonzero(~stuck & (hi - lo > 1.0))
        if rows.size == 0:
            break
        a, b = lo[rows], hi[rows]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rl, rh = r_lo[rows], r_hi[rows]
            t = np.where(np.isfinite(rl),
                         t_lo[rows] + rl / (rl - rh) * (t_hi[rows] - t_lo[rows]),
                         t_hi[rows] + rh)
            guess = np.floor(size * np.exp(t))
        halve = (tries[rows] >= 3) | ~np.isfinite(guess)
        m = np.where(halve, np.floor(0.5 * (a + b)), np.clip(guess, a + 1.0, b - 1.0))
        bad, r = probe(rows, cap * (m / size))
        up, down = rows[bad], rows[~bad]
        r_hi[up[kept[up] == 1]] /= 2.0
        r_lo[down[kept[down] == -1]] /= 2.0
        lo[up], r_lo[up], kept[up] = m[bad], r[bad], 1
        hi[down], r_hi[down], kept[down] = m[~bad], r[~bad], -1
        t_lo[up], t_hi[down] = np.log(m[bad] / size), np.log(m[~bad] / size)
        width = hi[rows] - lo[rows]
        reset = halve | (width <= 0.5 * ref[rows])
        tries[rows] = np.where(reset, 0, tries[rows] + 1)
        ref[rows] = np.where(reset, width, ref[rows])
    return (np.where(stuck, cap, cap * (lo / size)),
            np.where(stuck, math.inf, cap * (hi / size)))


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
