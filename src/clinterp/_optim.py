"""Deterministic multistart search plumbing.

Every randomized search in the package goes through these helpers so that
seeding and tie-breaking behave identically everywhere: per-start generators
are spawned from one SeedSequence, and the winner is the lexicographically
smallest (value, start index) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize


@dataclass(frozen=True)
class SearchResult:
    """The winning start's value and point; n_evals counts every start."""

    value: float
    point: np.ndarray
    start_index: int
    n_evals: int


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def multistart_minimize(
    fun: Callable[[np.ndarray], float],
    starts: Sequence[np.ndarray],
    *,
    maxiter: int = 200,
    xatol: float = 1e-10,
    fatol: float = 1e-12,
) -> SearchResult:
    """Nelder-Mead from each start, deterministic reduction over starts."""
    runs = [
        minimize(
            fun,
            np.asarray(s, dtype=float),
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol},
        )
        for s in starts
    ]
    i = min(range(len(runs)), key=lambda k: (float(runs[k].fun), k))
    return SearchResult(float(runs[i].fun), np.asarray(runs[i].x, dtype=float), i,
                        sum(int(r.nfev) for r in runs))


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
