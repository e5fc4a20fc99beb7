"""Compatible pairs of lattices and the interpolation-space machinery.

A couple is two lattice specs on a common R^n. This module computes the sum
and intersection quasi-norms, the interpolation quasi-norm

    ||x||_phi = inf{lam > 0 : |x| <= lam phi(u, v), ||u||_X0 <= 1, ||v||_X1 <= 1}

with certified brackets (exact closed forms where the couple and function
admit them; otherwise a batched search over the first witness u, whose inner
problem in lam is solved exactly for many rows at once, plus a
branch-and-bound certificate over u),
the equivalence of the phi-space with the sum of its piecewise-linear and
vanishing parts, the truncation traces that approximate intersection vectors
inside the phi-space, and the constructive factorization x = phi(f, g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from ._optim import batched_search, cube_corners, grid_bracket, interval_minimize
from .errors import (
    DescriptorError,
    DomainError,
    InfeasibleDecompositionError,
    PreconditionError,
    SolverError,
    UnsupportedExpressionError,
)
from .quasiconcave import (
    BKDecomposition,
    InterpolationFunction,
    eval_phi,
    has_vanishing_limits,
    invert_phi,
    is_doubly_bounded,
    mirror,
    phi1,
    power_piece,
    split_convex_part,
)


@dataclass(frozen=True)
class Couple:
    x0: lat.LatticeSpec
    x1: lat.LatticeSpec

    def __post_init__(self):
        if self.x0.dim != self.x1.dim:
            raise DomainError("couple legs must share the ambient dimension")

    @property
    def dim(self) -> int:
        return self.x0.dim

    def describe(self) -> str:
        return f"{self.x0.describe()}|{self.x1.describe()}"


def parse_couple(text: str) -> Couple:
    parts = text.strip().split("|")
    if len(parts) != 2:
        raise DescriptorError(f"couple descriptor needs two lattices joined by '|': {text!r}")
    return Couple(lat.parse_lattice(parts[0]), lat.parse_lattice(parts[1]))


@dataclass
class NormEstimate:
    lower: float
    upper: float
    witness: dict | None = None
    method: str = ""
    iterations: int = 0
    flags: tuple = ()


def _absx(c: Couple, x) -> np.ndarray:
    arr = x.entries if isinstance(x, lat.LatticeVector) else np.asarray(x, dtype=float)
    if arr.shape != (c.dim,):
        raise DomainError(f"expected {c.dim} entries, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector entries must be finite")
    return np.abs(arr)


def intersection_norm(c: Couple, x) -> float:
    a = _absx(c, x)
    return max(lat.norm(c.x0, a), lat.norm(c.x1, a))


# ---------------------------------------------------------------------------
# sum norm


def _relaxed_leg(spec: lat.LatticeSpec) -> lat.LatticeSpec:
    """A convex lattice whose norm minorizes the given one (equal if convex)."""
    if spec.p >= 1.0:
        return spec
    # (sum w |y|^p)^{1/p} >= sum w^{1/p} |y| for p < 1
    return lat.weighted_lp(1.0, spec.dim, (spec.w ** (1.0 / spec.p)).tolist())


def _sum_with_linf(other: lat.LatticeSpec, a: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact sum norm when one leg is l-infinity, and the l-infinity part.

    Any split whose l-infinity part has norm t is dominated by the capped
    split with l-infinity part |x| ^ t, so the problem is the
    one-dimensional minimization of h(t) = ||(|x|-t)+||_other + t over
    t in [0, max|x|]. One
    _optim.interval_minimize call scans every segment between consecutive
    values of |x| at once; its first 33-point grid per segment is a
    presample, since h need not be unimodal on a segment when the other leg
    is only a quasi-norm. Ties go to the earlier segment.
    """
    support = np.arange(other.dim)

    def h(t: np.ndarray) -> np.ndarray:
        return lat.norm_rows(other, np.maximum(a[None, :] - t[:, None], 0.0), support) + t

    vmax = float(np.max(a))
    pts = np.unique(np.concatenate(([0.0, vmax], a[(a > 0.0) & (a < vmax)])))
    ts, vals = interval_minimize(h, pts[:-1], pts[1:], xatol=1e-13 * max(1.0, vmax))
    i = int(np.argmin(vals))
    return float(vals[i]), np.minimum(a, ts[i])


def _coordinate_descent(c: Couple, a: np.ndarray, x0: np.ndarray,
                        sweeps: int = 60) -> tuple[float, np.ndarray]:
    """Cyclic exact 1-D minimization of ||x0||_X0 + ||a-x0||_X1 over the box.

    Each coordinate j of the support moves to the best point that
    _optim.interval_minimize finds on [0, a_j], to within
    1e-13 max(1, a_j), if that improves the value. Sweeps run until one
    stops improving: an ill-conditioned valley is crossed slowly, so a small
    gain per sweep does not mean the optimum is near.
    """
    support = np.flatnonzero(a)
    a_sup = a[support]
    s = x0[support].copy()

    def split(rows: np.ndarray) -> np.ndarray:
        return (lat.norm_rows(c.x0, rows, support)
                + lat.norm_rows(c.x1, a_sup - rows, support))

    current = float(split(s[None, :])[0])
    for _ in range(sweeps):
        previous, start = current, s.copy()
        for j in range(len(support)):
            def h(t: np.ndarray, j=j) -> np.ndarray:
                rows = np.repeat(s[None, :], len(t), axis=0)
                rows[:, j] = t
                return split(rows)

            t, val = interval_minimize(h, 0.0, a_sup[j], xatol=1e-13 * max(1.0, a_sup[j]))
            if val[0] < current:
                s[j] = t[0]
                current = float(val[0])
        # pattern move: a valley the sweeps zigzag along is followed by one
        # line search along the sweep's displacement, up to the box's face
        step = s - start
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step > 0.0, (a_sup - s) / step, np.where(step < 0.0, -s / step, math.inf))
        reach = float(np.min(room))
        if 0.0 < reach < math.inf:
            base = s.copy()
            t, val = interval_minimize(lambda t: split(np.clip(base + t[:, None] * step, 0.0, a_sup)),
                                          0.0, reach, xatol=1e-13 * max(1.0, reach))
            if val[0] < current:
                s = np.clip(base + t[0] * step, 0.0, a_sup)
                current = float(val[0])
        if not current < previous:
            break
    x0 = np.zeros(c.dim)
    x0[support] = s
    return current, x0


def sum_norm(c: Couple, x, *, seed: int = 0, starts: int = 32, iters: int = 200,
             tol: float = 1e-9) -> NormEstimate:
    """inf{||x0||_X0 + ||x1||_X1 : |x| = x0 + x1, x0, x1 >= 0}.

    The restriction to nonnegative splits of |x| loses nothing because both
    legs are ideals with monotone norms. Exact reductions cover nested
    unweighted legs, l-infinity legs, identical convex legs and two weighted
    l1 legs ("separable-l1"). Otherwise a batched search ("batched-search")
    runs over the split fractions s in [0, 1]^k on the support, x0 = |x| s,
    scoring each block of rows with one norm_rows call per leg. The seed
    rows are s = 1/2 and the corners of the box (_split_seeds): with both
    exponents below 1 the objective is concave and its minimum sits at a
    corner, and a mixed couple can have its optimum on a face.
    _optim.batched_search follows the best `starts` of them as incumbents,
    with 16 * starts rows per round, a half-width of 1 halving down to tol
    and at most iters rounds of each stage, and exact coordinate descent
    polishes the result. seed fixes the draws, so equal seeds give equal
    estimates; iterations counts the rows scored.
    On the "batched-search" and "linf-cap" routes with both legs convex the
    lower bound is the duality bound of _dual_lower at the returned split;
    below p = 1 it is the lower bound of the same problem over the convex
    minorant legs (flag "nonconvex" on "batched-search").
    """
    a = _absx(c, x)
    if not np.any(a > 0):
        return NormEstimate(0.0, 0.0, {"x0": [0.0] * c.dim}, "zero")

    convex = c.x0.p >= 1.0 and c.x1.p >= 1.0

    if (c.x0.weights is None and c.x1.weights is None
            and c.x0.p != c.x1.p and max(c.x0.p, c.x1.p) >= 1.0):
        # unweighted exponents nest: the weaker norm is dominated pointwise,
        # so sending all mass to the weak leg is optimal (triangle inequality
        # there closes the lower bound); exact even if the strong leg is p < 1.
        # Weights (1/n on sub) can reverse the domination, so they stay out
        weak_is_x1 = c.x1.p > c.x0.p
        weak = c.x1 if weak_is_x1 else c.x0
        val = lat.norm(weak, a)
        x0 = np.zeros(c.dim) if weak_is_x1 else a
        return NormEstimate(val, val, {"x0": x0.tolist()}, "nested-legs")

    if math.isinf(c.x0.p) or math.isinf(c.x1.p):
        inf_is_x1 = math.isinf(c.x1.p)
        val, capped = _sum_with_linf(c.x0 if inf_is_x1 else c.x1, a)
        x0, x1 = (a - capped, capped) if inf_is_x1 else (capped, a - capped)
        lower = _dual_lower(c, a, x0, x1) if convex else _relaxation_lower(c, a)
        return NormEstimate(min(lower, val), val, {"x0": x0.tolist()}, "linf-cap")

    if convex and c.x0.p == c.x1.p and np.array_equal(c.x0.w, c.x1.w):
        # identical convex legs: the triangle inequality pins the value
        val = lat.norm(c.x0, a)
        return NormEstimate(val, val, {"x0": a.tolist()}, "identical-legs")

    if c.x0.p == 1.0 and c.x1.p == 1.0:
        # both norms are linear on the positive cone, so each coordinate
        # goes whole to the leg with the smaller weight
        val = float(np.sum(a * np.minimum(c.x0.w, c.x1.w)))
        x0 = np.where(c.x0.w <= c.x1.w, a, 0.0)
        return NormEstimate(val, val, {"x0": x0.tolist()}, "separable-l1")

    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    support = np.flatnonzero(a)
    k = len(support)
    a_sup = a[support]

    def score(rows: np.ndarray) -> np.ndarray:
        """||a s||_X0 + ||a (1 - s)||_X1 for each row s of split fractions."""
        return (lat.norm_rows(c.x0, a_sup * rows, support)
                + lat.norm_rows(c.x1, a_sup * (1.0 - rows), support))

    s_best, _, scored = batched_search(
        score, _split_seeds(k), lo=0.0, hi=1.0, rows=16 * max(1, starts), keep=starts,
        half=1.0, iters=iters, tol=tol, rng=np.random.default_rng(seed))
    x0 = np.zeros(c.dim)
    x0[support] = a_sup * s_best
    val, x0 = _coordinate_descent(c, a, x0)
    if convex:
        lower, flags = _dual_lower(c, a, x0, a - x0), ()
    else:
        lower, flags = _relaxation_lower(c, a), ("nonconvex",)
    return NormEstimate(min(lower, val), val, {"x0": x0.tolist()}, "batched-search",
                        iterations=scored, flags=flags)


def _split_seeds(k: int) -> np.ndarray:
    """s = 1/2 and the corners of [0, 1]^k (all 2^k while k <= 12, else s = 0
    and s = 1), the seed rows of every search over split fractions."""
    corners = cube_corners(k) if k <= 12 else np.stack([np.zeros(k), np.ones(k)])
    return np.vstack([np.full(k, 0.5), corners])


def _subgradient(leg: lat.LatticeSpec, part: np.ndarray, other: lat.LatticeSpec) -> np.ndarray:
    """A subgradient y >= 0 of a convex leg's norm at part != 0, of dual norm 1.

    Where the norm is not differentiable the choice serves the other leg: p = 1
    puts w_j on the support of part only, and l-infinity spreads y over the
    maximal coordinates of part in proportion to the other leg's weights,
    which makes the other leg's dual norm least.
    """
    if math.isinf(leg.p):
        y = np.where(part == np.max(part), other.w, 0.0)
        return y / np.sum(y)
    if leg.p == 1.0:
        return np.where(part > 0.0, leg.w, 0.0)
    return leg.w * (part / lat.norm(leg, part)) ** (leg.p - 1.0)


def _dual_lower(c: Couple, a: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> float:
    """A proved lower bound on the sum norm of a over two convex legs.

    For every y >= 0 and every split a = x0 + x1, Holder on each leg gives
    <a, y> <= (||x0||_X0 + ||x1||_X1) max(||y||_X0', ||y||_X1'), so the
    ratio bounds the infimum from below (lattice.dual_norm). At an optimal
    split the legs share a subgradient, which makes the bound exact. So y
    runs over the segment between the legs' subgradients at their parts of
    the given split (_subgradient), where the ratio is quasiconcave, and
    _optim.interval_minimize finds its best point; the segment's ends are
    the single-leg bounds. The result is shrunk by 2 (n + 4) machine
    epsilons, which covers the rounding of the dot product, the powers and
    the sums.
    """
    ys = [_subgradient(leg, part, other)
          for leg, part, other in ((c.x0, x0, c.x1), (c.x1, x1, c.x0)) if np.any(part > 0.0)]
    ends = np.stack(ys * (3 - len(ys)))  # one subgradient stands for both ends

    def neg_bound(lam: np.ndarray) -> np.ndarray:
        y = ends[0] + lam[:, None] * (ends[1] - ends[0])
        return -(y @ a) / np.maximum(lat.dual_norm(c.x0, y), lat.dual_norm(c.x1, y))

    _, vals = interval_minimize(neg_bound, 0.0, 1.0, xatol=1e-13)
    return -float(vals[0]) * (1.0 - 2.0 * (c.dim + 4) * np.finfo(float).eps)


def _relaxation_lower(c: Couple, a: np.ndarray) -> float:
    # only the lower bound of the minorizing problem bounds the original
    return sum_norm(Couple(_relaxed_leg(c.x0), _relaxed_leg(c.x1)), a).lower


# ---------------------------------------------------------------------------
# interpolation norm


def _oracle_rows(c: Couple, f: InterpolationFunction, rows: np.ndarray
                 ) -> tuple[str, np.ndarray, np.ndarray, np.ndarray] | None:
    """Closed-form interpolation norms of the rows of an (m, n) array of
    nonnegative vectors, with their witnesses: (method, lam, u, v), one
    entry or row per input row, or None where no closed form applies.

    - min: the intersection norm, u = x/||x||_X0 and v = x/||x||_X1.
    - power on (weighted) lp legs: with 1/r = (1-theta)/p0 + theta/p1 and
      the matching weight product, the weighted r-norm over coef; Holder in
      one direction and the explicit witness in the other make it exact for
      every exponent range. Where 1/r = 0 (theta 0 or 1 on an l-infinity
      leg, or two l-infinity legs) it is max x / coef, with witness 1 on an
      l-infinity leg and 0 on a finite one, whose share of the exponent is 0.
    - plmax(alpha, beta) and max = plmax(1, 1): each coordinate is served by
      one leg, so minimize max(||x'||_X0/alpha, ||x''||_X1/beta) over the
      assignments of the union support to the legs (cube corners, bit i
      sending support coordinate i to the first leg; ties to the earlier
      one). A leg that serves only zero coordinates costs 0, even at a zero
      coefficient. Only up to 12 support coordinates; lam is inf where no
      assignment is finite.
    - any other function on two l-infinity legs: max x / phi(1, 1).

    A zero row has lam = 0. The root of the power form is np.float_power,
    which rounds as Python's float pow does and so keeps its values
    bit-identical across releases: numpy's SIMD power differs from it in
    the last bit for about one value in twenty. min scores the whole block
    with one lattice.norm_rows per leg, whose row values do not depend on
    the block.
    """
    if f.normalization == 0.0:
        return None
    if f.family == "min":
        cols = np.arange(c.dim)
        norms = np.stack([lat.norm_rows(spec, rows, cols) for spec in (c.x0, c.x1)], axis=1)
        lam = np.max(norms, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        return "oracle:min-intersection", lam, rows / safe[:, :1], rows / safe[:, 1:]
    if f.family == "power":
        theta, coef = f.params
        e0 = (1.0 - theta) / c.x0.p if math.isfinite(c.x0.p) else 0.0
        e1 = theta / c.x1.p if math.isfinite(c.x1.p) else 0.0
        inv_r = e0 + e1
        ones = np.ones_like(rows)
        if inv_r == 0.0:
            pair = math.isinf(c.x0.p) and math.isinf(c.x1.p)
            wits = [ones if math.isinf(leg.p) else np.zeros_like(rows) for leg in (c.x0, c.x1)]
            kind = "oracle:linf-pair" if pair else "oracle:power"
            return kind, np.max(rows, axis=1) / coef, wits[0], wits[1]
        r = 1.0 / inv_r
        # an l-infinity leg has exponent e = 0, so its weights drop out
        mass = c.x0.w ** (r * e0) * c.x1.w ** (r * e1) * rows**r
        total = np.sum(mass, axis=1)
        lam = np.float_power(total, 1.0 / r) / coef
        wits = []
        for leg in (c.x0, c.x1):
            if math.isfinite(leg.p):
                share = mass / np.where(mass > 0, total[:, None] * leg.w, 1.0)
                wits.append(np.where(rows > 0, share ** (1.0 / leg.p), 0.0))
            else:
                wits.append(ones)
        return "oracle:power", lam, wits[0], wits[1]
    if f.family in ("plmax", "max"):
        support = np.flatnonzero(np.any(rows > 0, axis=0))
        if len(support) <= 12:
            alpha, beta = f.params if f.family == "plmax" else (1.0, 1.0)
            return ("oracle:plmax",) + _assignment_rows(c, alpha, beta, rows, support)
    if math.isinf(c.x0.p) and math.isinf(c.x1.p):
        ones = np.ones_like(rows)
        return "oracle:linf-pair", np.max(rows, axis=1) / f.normalization, ones, ones
    return None


def _assignment_rows(c: Couple, alpha: float, beta: float, rows: np.ndarray,
                     support: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam, u and v of plmax(alpha, beta) for each row (see _oracle_rows), the
    rows taken in blocks of at most 2^14 assignment rows per leg."""
    u = np.zeros_like(rows)
    v = np.zeros_like(rows)
    k = len(support)
    if k == 0:
        return np.zeros(rows.shape[0]), u, v
    masks = cube_corners(k)
    first = masks > 0.0
    x = rows[:, support]
    pick = np.empty(rows.shape[0], dtype=int)
    lam = np.empty(rows.shape[0])
    step = max(1, (1 << 14) >> k)
    for start in range(0, rows.shape[0], step):
        block = x[start:start + step]
        live = block[:, None, :] > 0.0
        legs = []
        for spec, coef, sends in ((c.x0, alpha, masks), (c.x1, beta, 1.0 - masks)):
            served = np.any(live & (sends > 0.0), axis=2)
            parts = (block[:, None, :] * sends).reshape(-1, k)
            with np.errstate(divide="ignore", invalid="ignore"):
                legs.append(np.where(served, lat.norm_rows(spec, parts, support)
                                     .reshape(block.shape[0], -1) / coef, 0.0))
        vals = np.maximum(*legs)
        j = np.argmin(vals, axis=1)
        pick[start:start + step] = j
        lam[start:start + step] = vals[np.arange(block.shape[0]), j]
    on_first = first[pick] & (x > 0.0)
    on_second = ~first[pick] & (x > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u[:, support] = np.where(on_first, x / (alpha * lam[:, None]), 0.0)
        v[:, support] = np.where(on_second, x / (beta * lam[:, None]), 0.0)
    return lam, u, v


def _invert_second_arg(f: InterpolationFunction, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest t with phi(u, t) >= c, coordinatewise; inf where unattainable.

    0 where c <= 0, inf where u <= 0 or c is not finite; elsewhere the exact
    inverse of quasiconcave.invert_phi.
    """
    u, c = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(c, dtype=float))
    out = np.full(u.shape, math.inf)
    out[c <= 0.0] = 0.0
    live = (c > 0.0) & (u > 0.0) & np.isfinite(c)
    if np.any(live):
        out[live] = invert_phi(f, u[live], c[live])
    return out


def _batched_inner_bracket(c: Couple, f: InterpolationFunction, a_sup: np.ndarray,
                           support: np.ndarray, us: np.ndarray, lam_cap: float,
                           steps: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Certified bracket on inf over feasible v of max_j a_j/phi(u_j, v_j).

    For fixed u the smallest admissible second witness at level lam is the
    coordinatewise inversion of phi; its norm is monotone in lam.  Each row
    reports the cell (lo, hi) of the grid lam_cap j 2^-steps (at most 52
    halvings, _optim.grid_bracket) where that norm falls to at most one:
    lo keeps it strictly above one and so certifies the value from below,
    hi is feasible and certifies it from above.  Rows still infeasible at
    lam_cap report (lam_cap, inf).  The log of the norm guides the probes.
    """
    def probe(rows: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = _invert_second_arg(f, us[rows], a_sup[None, :] / lam[:, None])
        norms = lat.norm_rows(c.x1, v, support)
        # nan is infeasible
        return ~(norms <= 1.0 + 1e-12), np.log(norms / (1.0 + 1e-12))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return grid_bracket(probe, us.shape[0], lam_cap, steps)


_MU_SCALES = np.array([0.0, 0.25, 1.0, 4.0])  # every box bound's multipliers, in seed units
# cells per box axis of the cell terms: 8 took three times the boxes on
# harmonic, 32 slowed affinepower
_PRUNE_CELLS = 16


def _multipliers(c: Couple, f: InterpolationFunction, w0: np.ndarray, w1: np.ndarray,
                 a: np.ndarray, lam) -> np.ndarray:
    """The multipliers mu of a box's Lagrangian at the level lam, on a
    trailing axis: _MU_SCALES times q/p, or for a power piece times the
    stationarity seed, the mu at which the unconstrained per-axis minima
    spend exactly the unit mass (mu = 0 stays 0 at an infinite seed). The
    box's axes are the last axis of a / lam."""
    p = c.x0.p
    q = c.x1.p
    piece = power_piece(f)
    if piece is None:
        return _MU_SCALES * (q / p)
    th, coef = piece[:2]
    alpha = q * ((1.0 - th) / th)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cj = w1 * (a / (lam * coef)) ** (q / th)
        tail = np.sum(w0 ** (alpha / (alpha + p)) * (alpha * cj / p) ** (p / (alpha + p)),
                      axis=-1)
        seed = tail ** ((alpha + p) / p)
        return np.where(_MU_SCALES > 0.0, seed[..., None] * _MU_SCALES, 0.0)


def _lagrangian_terms(c: Couple, f: InterpolationFunction, w0: np.ndarray, w1: np.ndarray,
                      a: np.ndarray, lam, lo: np.ndarray, hi: np.ndarray,
                      mus: np.ndarray) -> np.ndarray:
    """Lower bounds on min { w1 v(u)^q + mu w0 u^p : lo <= u <= hi } per axis
    interval, one per mu of mus ((k,), or (m, k) for m boxes) on a trailing
    axis; v(u) = invert_phi(f, u, a/lam) is the minimal second witness.

    Weak Lagrangian duality, which needs no convexity, bounds a box's inner
    problem at lam, min { sum_j w1_j v_j^q : u in box, sum_j w0_j u_j^p <= 1 },
    by L(mu) = sum_j term_j(mu) - mu for each mu >= 0 (_lagrangian_margin).
    A power piece v = max(A c, (c/coef)^(1/theta) u^(-beta)) on u >= L c,
    c = a/lam, gives exact terms: with alpha = q beta the minimum sits at the
    stationary point clipped below u0, where the power part meets D = w1 (A
    c)^q, or at the left end above it; an empty interval gives inf. Else v
    is nonincreasing in u, and the least of w1 v(g_k+1)^q + mu w0 g_k^p over
    _PRUNE_CELLS log-spaced cells [g_k, g_k+1] (ends exact) bounds the term.
    """
    p = c.x0.p
    q = c.x1.p
    mus = mus[..., None, :]  # broadcast over the axes
    piece = power_piece(f)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cs = a / lam
        if piece is None:
            t = np.arange(_PRUNE_CELLS + 1) / _PRUNE_CELLS
            grid = lo[..., None] * (hi / lo)[..., None] ** t
            grid[..., 0] = lo
            grid[..., -1] = hi
            cost = w1[..., None] * _invert_second_arg(f, grid[..., 1:], cs[..., None]) ** q
            mass = w0[..., None] * grid[..., :-1] ** p
            return np.min(cost[..., None, :] + mus[..., None] * mass[..., None, :], axis=-1)
        th, coef, a_floor, low = piece
        beta = (1.0 - th) / th
        alpha = q * beta
        # u0 / c_j, where (c/coef)^(1/theta) u^(-beta) = A c; inf without a floor
        split = (a_floor * coef ** (1.0 / th)) ** (-1.0 / beta) if a_floor > 0.0 else math.inf
        cj = w1 * (a / (lam * coef)) ** (q / th)
        # the 1e-12 keeps rounding in a/lam from emptying a feasible box
        bottom = np.maximum(lo, low * cs * (1.0 - 1e-12))
        top = np.minimum(hi, split * cs)  # the power branch
        const_at = np.maximum(bottom, split * cs)  # the constant branch
        power_live = bottom <= top
        const_live = const_at <= hi
        const_term = w1 * (a_floor * cs) ** q
        const_mass = const_at ** p
        terms = []
        for i in range(mus.shape[-1]):
            mu = mus[..., i]
            # mu = 0 leaves the power branch decreasing, with its minimum at the top
            ustar = (np.clip((alpha * cj / (mu * p * w0)) ** (1.0 / (alpha + p)), bottom, top)
                     if mu.any() else top)
            terms.append(np.minimum(
                np.where(power_live, cj * ustar ** (-alpha) + mu * w0 * ustar ** p, math.inf),
                np.where(const_live, const_term + mu * w0 * const_mass, math.inf)))
        return np.stack(terms, axis=-1)


def _lagrangian_margin(terms: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """max over mu of L(mu) - (1 + 1e-12) for boxes given their (..., s, k)
    axis terms from _lagrangian_terms: positive where the level is proved
    infeasible on the box. A nan L(mu) certifies nothing."""
    # over these few axes and multipliers, loops beat numpy's reductions
    lag = terms[..., 0, :]
    for j in range(1, terms.shape[-2]):
        lag = lag + terms[..., j, :]
    with np.errstate(invalid="ignore"):
        lag = lag - mus
    worst = np.full(lag.shape[:-1], -math.inf)
    for i in range(lag.shape[-1]):
        worst = np.fmax(worst, lag[..., i])
    return worst - (1.0 + 1e-12)


def _graded_lower(c: Couple, f: InterpolationFunction, a_sup: np.ndarray,
                  support: np.ndarray, los: np.ndarray, his: np.ndarray,
                  lam_cap: float) -> np.ndarray:
    """Each box's Lagrangian bound graded by level: the low end of the
    _optim.grid_bracket cell of the grid lam_cap j 2^-24 where the margin
    stops being positive. The closed-form terms of a power piece are cheap
    enough to take at every probe."""
    w0 = c.x0.w[support]
    w1 = c.x1.w[support]

    def probe(rows: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lam = lam[:, None]
        mus = _multipliers(c, f, w0, w1, a_sup, lam)
        margin = _lagrangian_margin(
            _lagrangian_terms(c, f, w0, w1, a_sup, lam, los[rows], his[rows], mus), mus)
        return margin > 0.0, margin

    return grid_bracket(probe, los.shape[0], lam_cap, 24)[0]


def _reduce_box_tops(spec: lat.LatticeSpec, los: np.ndarray, his: np.ndarray,
                     support: np.ndarray) -> np.ndarray:
    """Clip each box axis to the largest value feasible alongside the box's
    lower corner on the remaining axes; any feasible point in the box obeys
    the clip, so bounds taken at the reduced corner stay valid.  spec has a
    finite exponent: an l-infinity leg never reaches the box search."""
    w = spec.w[support]
    terms = w[None, :] * los ** spec.p
    slack = 1.0 - (np.sum(terms, axis=1, keepdims=True) - terms)
    with np.errstate(invalid="ignore"):
        cap = (np.maximum(slack, 0.0) / w[None, :]) ** (1.0 / spec.p)
    return np.minimum(his, np.maximum(cap, los))


_BOX_BUDGET = 262_144  # boxes _grid_lower may evaluate before it stops unconverged


def _grid_lower(c: Couple, f: InterpolationFunction, a: np.ndarray,
                upper: float) -> tuple[float, dict]:
    """Certified lower bound by branch-and-bound over the first witness.

    The inner value for fixed u is nonincreasing in u, so a box's upper
    corner bounds every witness inside it from below, and no grid inflation
    factor enters.  Each corner's value is the cell of the level grid
    lam_cap j 2^-24 from _batched_inner_bracket, lam_cap = upper (1 + 1e-9):
    its low end is the corner's bound, its high end a feasible level.
    Witnesses with any coordinate below the a-priori floor (derived from the
    prune threshold tau and the largest admissible partner coordinate)
    already exceed tau, so the search domain is [floor, cap];
    boxes whose lower corner escapes the unit ball hold no witness at all.
    The returned value min(active bounds, settled bounds, tau) is therefore
    a true lower bound for every feasible witness.  Both legs have finite
    exponents: cl_norm bounds an l-infinity first leg at u = 1 from its own
    bracket and solves an l-infinity second leg on the mirror side, so an
    l-infinity leg never reaches the box search.  A box the corner
    bound leaves below tau also gets a Lagrangian bound (_lagrangian_terms):
    graded by level where phi's inverse is a power piece (_graded_lower),
    else probed once at tau, where a positive _lagrangian_margin prunes the
    box.  A child recomputes those cell terms only on the axes where its
    interval differs from its parent's.  Each pass splits the 2048 boxes
    with the weakest bounds, and the search stops unconverged after
    _BOX_BUDGET boxes.  x is nonzero and upper finite and positive, as
    cl_norm guarantees.
    """
    support = np.flatnonzero(a)
    a_sup = a[support]
    # the largest admissible coordinate of each leg, 1/||e_j||
    caps = 1.0 / np.stack([spec.w[support] ** (1.0 / spec.p) for spec in (c.x0, c.x1)])
    tau = upper * (1.0 - 4e-4)
    lam_cap = upper * (1.0 + 1e-9)
    # u_j below the floor cannot reach a_j/tau even with the largest
    # admissible partner coordinate, so such witnesses already exceed tau
    floor = _invert_second_arg(mirror(f), caps[1], a_sup / tau)
    if np.any(floor >= caps[0]):
        return tau, {"boxes": 0, "converged": True}
    floor = np.maximum(floor, caps[0] * 1e-15)

    def bracket(us_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _batched_inner_bracket(c, f, a_sup, support, us_rows, lam_cap)

    graded = power_piece(f) is not None
    w0 = c.x0.w[support]
    w1 = c.x1.w[support]

    def box_bounds(lo_rows: np.ndarray, hi_rows: np.ndarray, corner_vals: np.ndarray,
                   terms: np.ndarray, stale: np.ndarray) -> np.ndarray:
        # the Lagrangian only matters for boxes the corner bound leaves open
        weak = corner_vals < tau
        if not np.any(weak):
            return corner_vals
        out = corner_vals.copy()
        if graded:
            out[weak] = np.maximum(corner_vals[weak], _graded_lower(
                c, f, a_sup, support, lo_rows[weak], hi_rows[weak], lam_cap))
        else:
            # a box shares the terms of its parent's axes that did not change
            rows, axes = np.nonzero(stale & weak[:, None])
            mus = _multipliers(c, f, w0, w1, a_sup, tau)
            terms[rows, axes] = _lagrangian_terms(c, f, w0[axes], w1[axes], a_sup[axes], tau,
                                                  lo_rows[rows, axes], hi_rows[rows, axes], mus)
            out[np.flatnonzero(weak)[_lagrangian_margin(terms[weak], mus) > 0.0]] = tau
        return out

    los = floor[None, :].copy()
    his = _reduce_box_tops(c.x0, los, caps[0][None, :].copy(), support)
    # each box's per-axis cell terms, filled where they are probed
    terms = np.zeros(los.shape + (0 if graded else len(_MU_SCALES),))
    bounds = box_bounds(los, his, bracket(his)[0], terms, np.ones(los.shape, dtype=bool))
    evaluated = 1
    settled = math.inf
    group = 2048
    best_corner: tuple[float, np.ndarray] | None = None
    while evaluated < _BOX_BUDGET and bounds.shape[0] and float(np.min(bounds)) < tau:
        # refine the boxes with the weakest bounds; they limit the result
        if bounds.shape[0] > group:
            pick = np.argpartition(bounds, group)[:group]
            mask = np.zeros(bounds.shape[0], dtype=bool)
            mask[pick] = True
        else:
            mask = np.ones(bounds.shape[0], dtype=bool)
        keep = los[~mask], his[~mask], bounds[~mask], terms[~mask]
        sel_lo, sel_hi = los[mask], his[mask]
        rows = np.arange(sel_lo.shape[0])
        axis = np.argmax(np.log(sel_hi / sel_lo), axis=1)
        mids = np.sqrt(sel_lo[rows, axis] * sel_hi[rows, axis])
        lo_a, hi_a = sel_lo.copy(), sel_hi.copy()
        hi_a[rows, axis] = mids
        lo_b, hi_b = sel_lo.copy(), sel_hi.copy()
        lo_b[rows, axis] = mids
        kid_lo = np.concatenate([lo_a, lo_b])
        kid_hi = np.concatenate([hi_a, hi_b])
        feas = lat.norm_rows(c.x0, kid_lo, support) <= 1.0 + 1e-9
        par_lo = np.concatenate([sel_lo, sel_lo])[feas]
        par_hi = np.concatenate([sel_hi, sel_hi])[feas]
        kid_terms = np.concatenate([terms[mask], terms[mask]])[feas]
        kid_lo, kid_hi = kid_lo[feas], kid_hi[feas]
        kid_hi = _reduce_box_tops(c.x0, kid_lo, kid_hi, support)
        if kid_lo.shape[0]:
            both = bracket(np.concatenate([kid_hi, kid_lo]))
            kid_bounds = box_bounds(kid_lo, kid_hi, both[0][: kid_hi.shape[0]], kid_terms,
                                    (kid_lo != par_lo) | (kid_hi != par_hi))
            kid_feas_vals = both[1][: kid_hi.shape[0]]
            kid_tops = both[1][kid_hi.shape[0]:]
            evaluated += kid_lo.shape[0]
            done = kid_bounds >= tau
            # a box whose top corner is itself feasible is resolved exactly
            # (the inner value is nonincreasing, so the corner attains the
            # box minimum); only surface-straddling boxes need refinement
            hi_norms = lat.norm_rows(c.x0, kid_hi, support)
            resolved = hi_norms <= 1.0 + 1e-9
            corner = (hi_norms <= 1.0) & np.isfinite(kid_feas_vals)
            if np.any(corner):
                i_best = int(np.argmin(np.where(corner, kid_feas_vals, math.inf)))
                if best_corner is None or kid_feas_vals[i_best] < best_corner[0]:
                    best_corner = (float(kid_feas_vals[i_best]), kid_hi[i_best].copy())
            # the inner value varies by at most tops/bounds over a box, so a
            # collapsed spread finishes the box even if geometrically wide
            flat = kid_tops <= kid_bounds * (1.0 + 1e-4)
            tiny = np.log(np.max(kid_hi / kid_lo, axis=1)) < 1e-7
            settle = (resolved | flat | tiny) & ~done
            if np.any(settle):
                settled = min(settled, float(np.min(kid_bounds[settle])))
            alive = ~(done | settle)
            kids = kid_lo[alive], kid_hi[alive], kid_bounds[alive], kid_terms[alive]
            los, his, bounds, terms = (np.concatenate(pair) for pair in zip(keep, kids))
        else:
            los, his, bounds, terms = keep
    converged = bounds.shape[0] == 0 or float(np.min(bounds)) >= tau
    active_min = float(np.min(bounds)) if bounds.shape[0] else math.inf
    lower = min(active_min, settled, tau)
    info = {"boxes": evaluated, "converged": converged}
    if best_corner is not None and best_corner[0] < upper:
        lam2 = best_corner[0]
        v_row = _invert_second_arg(f, best_corner[1][None, :], a_sup[None, :] / lam2)[0]
        if np.all(np.isfinite(v_row)):
            info["witness"] = {"u": best_corner[1], "v": v_row, "lam": lam2}
    return min(lower, upper), info


def _witness_fault(c: Couple, f: InterpolationFunction, a: np.ndarray, u: np.ndarray,
                   v: np.ndarray, lam: float) -> str | None:
    """Why the witness (u, v, lam) fails its arithmetic re-check, or None:
    lam phi(u, v) must dominate a, and u and v must lie in the unit balls,
    each to a relative 1e-12."""
    if not np.all(a <= lam * eval_phi(f, u, v) * (1.0 + 1e-12) + 1e-300):
        return "witness fails to dominate x"
    if not (lat.norm(c.x0, u) <= 1.0 + 1e-12 and lat.norm(c.x1, v) <= 1.0 + 1e-12):
        return "witness escaped the unit balls"
    return None


def cl_norm(c: Couple, f: InterpolationFunction, x, *, method: str = "auto",
            seed: int = 0, starts: int = 32, iters: int = 200,
            tol: float = 1e-9, certify_lower: bool = True) -> NormEstimate:
    """The interpolation quasi-norm of x for the function phi.

    method "oracle" demands a closed form (power family on lp-type legs, min,
    max and piecewise-linear max on at most 12 nonzero coordinates, or an
    l-infinity pair), "optimize" forces the search below without looking one
    up, and "auto" prefers the oracle when one applies. The closed form is
    _oracle_rows on the single row |x|, the same one that
    phi_space_equivalence scores whole blocks of split rows with.

    The search runs over the first witness u alone: for fixed u the least
    lam is a monotone problem whose second witness v is the exact
    coordinatewise inverse of phi, and _batched_inner_bracket brackets it
    for many rows of u at once. _optim.batched_search runs over log u from
    the one seed u = x/||x||_X0, with 16 * starts log-uniform rows per round
    around the incumbent, a half-width of 3 halving down to tol and at most
    iters rounds of each stage; every row is normalized into the unit ball
    and bracketed at the least value scored so far. An l-infinity first leg
    takes u = 1, the largest element of its ball, and no search rounds. An
    l-infinity second leg beside a finite first leg is solved on the mirror
    side, ||x||_{phi; X0, X1} = ||x||_{mirror phi; X1, X0}, where it is the
    first leg and takes u = 1 the same way; the witness is swapped back,
    (u, v) := (v', u'), and the estimate carries the flag "mirror-side"
    after its other flags. The final lam is bracketed in a cell of the grid
    cap (1 + 1e-9) j 2^-steps, steps = max(24, ceil(-log2 tol)) halvings up
    to 52, so to relative width about tol but never below 2^-52; the witness
    sits at the cell's feasible high end and is re-verified arithmetically
    on the caller's couple and phi. seed fixes the draws, so equal seeds
    give equal estimates; iterations counts the rows scored.

    With certify_lower, a couple with an l-infinity leg on either side takes
    the lower bound from the low end of that final bracket at u = 1, which
    attains the outer infimum, whatever the support size (flag
    "grid-certified", grid info one box). Other couples with at most four
    nonzero coordinates take it from the branch-and-bound certificate (flag
    "grid-certified"); otherwise the lower bound is 0 ("heuristic-lower").
    Each box also gets a Lagrangian bound (see _grid_lower). Where the
    inverse of phi in its second argument is one power piece (power,
    cappedpower and mirror(cappedpower), 0 < theta < 1) it is exact per
    coordinate and the certificate usually closes in one box. Every other
    family (harmonic, sum, affinepower, hull, ...) gets a weaker bound from
    the monotonicity of the inverse alone, which prunes whole boxes:
    harmonic on lp:1:4|lp:0.5:4 closes in about 3k boxes instead of 150k.
    Flag "budget-exhausted" means the box budget ran out, which leaves the
    bound sound but looser. A box corner that beats the witness replaces it
    after the same arithmetic re-check (_witness_fault).
    """
    a = _absx(c, x)
    if not np.any(a > 0):
        return NormEstimate(0.0, 0.0, {"u": [0.0] * c.dim, "v": [0.0] * c.dim, "lam": 0.0}, "zero")
    if f.normalization == 0.0:
        return NormEstimate(math.inf, math.inf,
                            {"reason": "phi vanishes identically; no witness can dominate x"},
                            "infeasible", flags=("infeasible",))

    # the closed form is only looked up where it can be returned
    closed = _oracle_rows(c, f, a[None, :]) if method in ("auto", "oracle") else None
    if method == "oracle" and closed is None:
        raise UnsupportedExpressionError(f"no closed form for {f.family} on {c.describe()}")
    if closed is not None:
        kind, lams, us, vs = closed
        lam = float(lams[0])
        if not math.isfinite(lam):
            return NormEstimate(math.inf, math.inf, {"reason": "degenerate piecewise-linear part"},
                                kind, flags=("infeasible",))
        return NormEstimate(lam, lam, {"u": us[0].tolist(), "v": vs[0].tolist(), "lam": lam}, kind)
    if method not in ("auto", "optimize"):
        raise DomainError(f"unknown method {method!r}")

    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    # ||x||_{phi; X0, X1} = ||x||_{mirror phi; X1, X0}: an l-infinity second
    # leg is an l-infinity first leg on the mirror side, solved there at u = 1
    caller = c, f
    mirrored = math.isinf(c.x1.p) and math.isfinite(c.x0.p)
    if mirrored:
        c, f = Couple(c.x1, c.x0), mirror(f)
    support = np.flatnonzero(a)
    s = len(support)
    a_sup = a[support]
    # u = x/||x||_X0, v = x/||x||_X1 is feasible at ||x||_cap/phi(1,1)
    cap = intersection_norm(c, a) / f.normalization

    def score(logs: np.ndarray) -> np.ndarray:
        """The inner value of each normalized row u = exp(log u), bracketed
        at the least value scored so far."""
        nonlocal cap
        us = np.exp(logs)
        us /= lat.norm_rows(c.x0, us, support)[:, None]
        his = _batched_inner_bracket(c, f, a_sup, support, us, cap)[1]
        cap = min(cap, float(np.min(his)))
        return his

    # an l-infinity first leg: the ball has a largest element, u = 1, so the
    # outer infimum sits there and the seed row is all the search scores
    linf = math.isinf(c.x0.p)
    seed_u = np.ones(s) if linf else a_sup / lat.norm(c.x0, a)
    # normalization only shifts log u along (1, ..., 1), so un-normalized
    # incumbents draw the same normalized rows
    log_u, _, scored = batched_search(
        score, np.log(seed_u), lo=-math.inf, hi=math.inf, rows=16 * max(1, starts), keep=1,
        half=3.0, iters=0 if linf else iters, tol=tol, rng=np.random.default_rng(seed))
    u_best = np.exp(log_u)
    u_best /= lat.norm_rows(c.x0, u_best[None, :], support)[0]
    # the incumbent is feasible at cap; the margin keeps it so through rounding
    steps = max(24, math.ceil(-math.log2(tol)))
    lo_end, hi_end = _batched_inner_bracket(c, f, a_sup, support, u_best[None, :],
                                            cap * (1.0 + 1e-9), steps)
    upper = float(hi_end[0])
    scored += 1
    if not math.isfinite(upper):
        raise SolverError("no feasible witness found", (cap, None))
    u = np.zeros(c.dim)
    v = np.zeros(c.dim)
    u[support] = u_best
    v[support] = _invert_second_arg(f, u_best, a_sup / upper)
    if mirrored:
        u, v = v, u

    fault = _witness_fault(*caller, a, u, v, upper)
    if fault is not None:
        raise SolverError(fault, (upper, None))

    if certify_lower and linf:
        # u = 1 attains the outer infimum, so the low end of its bracket is
        # a certified lower bound whatever the support size
        grid = float(lo_end[0]), {"boxes": 1, "converged": True}
    else:
        grid = _grid_lower(c, f, a, upper) if certify_lower and s <= 4 else None
    if grid is not None:
        lower, grid_info = grid
        cand = grid_info.pop("witness", None)
        if cand is not None and cand["lam"] < upper:
            # a feasible box corner discovered during certification may beat
            # the optimizer; adopt it only after the same arithmetic checks
            u2 = np.zeros(c.dim)
            v2 = np.zeros(c.dim)
            u2[support] = cand["u"]
            v2[support] = cand["v"]
            lam2 = float(cand["lam"])
            if _witness_fault(c, f, a, u2, v2, lam2) is None:
                upper, u, v = lam2, u2, v2
        lower = min(lower, upper)
        # the bound stays sound when the box budget runs out, only looser
        flags = ("grid-certified",) + (() if grid_info["converged"] else ("budget-exhausted",))
    else:
        lower, grid_info = 0.0, None
        flags = ("heuristic-lower",)
    if mirrored:
        flags += ("mirror-side",)
    est = NormEstimate(lower, upper,
                       {"u": u.tolist(), "v": v.tolist(), "lam": upper,
                        **({"grid": grid_info} if grid_info else {})},
                       "optimize", iterations=scored, flags=flags)
    return est


# ---------------------------------------------------------------------------
# phi-space vs piecewise-linear + vanishing split


def phi_space_equivalence(c: Couple, f: InterpolationFunction, samples, *,
                          seed: int = 0, starts: int = 16, iters: int = 150,
                          tol: float = 5e-2) -> dict:
    """Compare ||.||_phi with the sum norm of the (pl-part, eta-part) spaces.

    For each sample the ratio of the phi-norm to inf{||x'||_pl + ||x''||_eta}
    over splits x = x' + x'' must lie within the two-sided factor 2, up to
    the ratio tolerance tol. The split infimum is searched over the split
    fractions s in [0, 1]^k on the support, x' = |x| s, by
    _optim.batched_search from the seed rows of sum_norm, following the best
    `starts` as incumbents with 4 * starts rows per round down to a fixed
    resolution of 1e-6. Each block of rows costs one _oracle_rows call per
    part where the part has a closed form, and one uncertified cl_norm call
    per row and part where it has none; a zero part costs 0. The phi-norm
    itself is one uncertified cl_norm call per sample. Each sample draws
    from its own generator, seeded by (seed, sample index).
    """
    samples = list(samples)
    if not samples:
        raise DomainError("the equivalence needs at least one sample")
    pair = split_convex_part(f)
    pl, eta = pair.pl_part, pair.eta_part
    records = []
    worst_hi = 0.0
    worst_lo = math.inf
    for idx, x in enumerate(samples):
        a = _absx(c, x)
        if not np.any(a > 0):
            records.append({"phi": 0.0, "split": 0.0, "ratio": 1.0})
            continue
        phi_val = cl_norm(c, f, a, seed=seed, starts=starts, iters=iters,
                          certify_lower=False).upper

        support = np.flatnonzero(a)

        def score(fracs: np.ndarray) -> np.ndarray:
            """||a s||_pl + ||a (1 - s)||_eta for each row s of split fractions."""
            parts = np.zeros((fracs.shape[0], c.dim))
            parts[:, support] = a[support] * fracs
            total = np.zeros(fracs.shape[0])
            for g, rows in ((pl, parts), (eta, a - parts)):
                closed = _oracle_rows(c, g, rows)
                if closed is not None:
                    total += closed[1]
                else:
                    total += [cl_norm(c, g, row, seed=seed, starts=starts, iters=iters,
                                      certify_lower=False).upper if np.any(row > 0) else 0.0
                              for row in rows]
            return total

        if pl.family == "zero":
            split_val = float(score(np.zeros((1, len(support))))[0])
        elif eta.family == "zero":
            split_val = float(score(np.ones((1, len(support))))[0])
        else:
            split_val = batched_search(
                score, _split_seeds(len(support)), lo=0.0, hi=1.0, rows=4 * max(1, starts),
                keep=starts, half=1.0, iters=iters, tol=1e-6,
                rng=np.random.default_rng((seed, idx)))[1]
        ratio = phi_val / split_val if split_val > 0 else math.inf
        worst_hi = max(worst_hi, ratio)
        worst_lo = min(worst_lo, ratio)
        records.append({"phi": phi_val, "split": split_val, "ratio": ratio})
    ok = worst_hi <= 2.0 * (1.0 + tol) and worst_lo >= 0.5 / (1.0 + tol)
    return {
        "samples": records,
        "worst_ratio_high": worst_hi,
        "worst_ratio_low": worst_lo,
        "bound": 2.0,
        "tolerance": tol,
        "pl_family": pl.family,
        "eta_family": eta.family,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# approximation trace


@dataclass
class ApproximationTrace:
    m: int
    a_m: float
    x_m: list  # truncated vectors, one per input vector
    psi: dict  # interval index k -> tuple of coordinates
    xi: tuple  # coordinates left uncovered (the tail set)
    w1: tuple  # tail coordinates on the small-ratio side, half-slack inflated
    w2: tuple  # tail coordinates on the large-ratio side
    intervals: dict  # k -> (lo, hi) in ratio space
    audits: dict
    checks: dict


def approximation_sequence(c: Couple, f: InterpolationFunction, xs, u0, u1,
                           d: BKDecomposition, m: int) -> ApproximationTrace:
    """Truncate vectors dominated by phi(u0, u1) onto the band |k| <= m.

    Coordinates are assigned to the closed ratio intervals U_k (first match in
    ascending k); what falls outside every banded interval is the tail set,
    and the truncated vectors drop exactly that tail. The tail amplitude a_m
    is the boundary value phi1(t_{-2m} + eps_{-m}/2) plus the boundary slope
    at t_{2m+2} - eps_{m+1}/2, each term vanishing once its side's marker is
    inside the band.
    """
    if f.family != d.original.family or f.params != d.original.params:
        raise PreconditionError("decomposition was built for a different function")
    if not has_vanishing_limits(f):
        raise PreconditionError("the truncation route needs both boundary limits to vanish")
    if is_doubly_bounded(f)["doubly_bounded"]:
        raise PreconditionError("doubly bounded functions do not need the truncation route")
    if m < 0:
        raise DomainError("band index m must be nonnegative")
    g = d.function
    q = d.q

    u0a = _absx(c, u0)
    u1a = _absx(c, u1)
    if lat.norm(c.x0, u0a) > 1.0 + 1e-9 or lat.norm(c.x1, u1a) > 1.0 + 1e-9:
        raise PreconditionError("generating pair must lie in the unit balls")
    top = np.maximum(u0a, u1a)
    omega = np.flatnonzero(top > 0)
    xs_arr = [np.asarray(x.entries if isinstance(x, lat.LatticeVector) else x, dtype=float)
              for x in xs]
    total = np.sum([np.abs(x) for x in xs_arr], axis=0) if xs_arr else np.zeros(c.dim)
    dom = eval_phi(f, u0a, u1a)
    bad = total > dom * (1.0 + 1e-12)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise InfeasibleDecompositionError(
            f"sum of |x_i| exceeds phi(u0, u1) at coordinate {j}", coordinate=j)

    # band coverage: with vanishing limits the sides are endpoint or truncated
    if m > d.k_max and d.top_kind == "truncated":
        raise PreconditionError(f"band m={m} needs more depth (top side truncated at {d.k_max})")
    if -m < d.k_min and d.bottom_kind == "truncated":
        raise PreconditionError(f"band m={m} needs more depth (bottom side truncated at {d.k_min})")

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(u0a > 0, u1a / np.where(u0a > 0, u0a, 1.0), math.inf)

    assigned = np.full(c.dim, False)
    psi: dict[int, tuple] = {}
    intervals: dict[int, tuple] = {}
    for k in range(-m, m + 1):
        if k < d.k_min or k > d.k_max:
            continue
        lo = d.node(2 * k) - d.slack(k)
        hi_node = d.node(2 * k + 2)
        hi = hi_node + d.slack(k) if math.isfinite(hi_node) else math.inf
        intervals[k] = (lo, hi)
        members = [int(j) for j in omega
                   if not assigned[j] and lo <= ratio[j] <= hi]
        for j in members:
            assigned[j] = True
        psi[k] = tuple(members)
    xi = tuple(int(j) for j in omega if not assigned[j])

    # tail amplitude: each side contributes only while its marker is outside
    def _bottom_term() -> float:
        if -m < d.k_min:  # endpoint side fully inside the band
            return 0.0
        t_lo = d.node(-2 * m)
        if t_lo == 0.0:
            return 0.0
        return float(phi1(g, t_lo + 0.5 * d.slack(-m)))

    def _top_term() -> float:
        if m > d.k_max:
            return 0.0
        t_hi = d.node(2 * m + 2)
        if not math.isfinite(t_hi):
            return 0.0
        point = t_hi - 0.5 * d.slack(m + 1)
        return float(phi1(g, point)) / point

    a_m = _bottom_term() + _top_term()

    w1 = tuple(int(j) for j in omega
               if -m >= d.k_min and d.node(-2 * m) > 0.0
               and ratio[j] < d.node(-2 * m) + 0.5 * d.slack(-m))
    w2 = tuple(int(j) for j in omega
               if m <= d.k_max and math.isfinite(d.node(2 * m + 2))
               and ratio[j] > d.node(2 * m + 2) - 0.5 * d.slack(m + 1))

    keep = np.where(assigned, 1.0, 0.0)
    x_m = [x * keep for x in xs_arr]

    # checks (i) and (ii)
    i_ok = all(bool(np.all(np.abs(xm) <= np.abs(x))) for x, xm in zip(xs_arr, x_m))
    tail_sup = np.max(np.stack([np.abs(x - xm) for x, xm in zip(xs_arr, x_m)]), axis=0) \
        if xs_arr else np.zeros(c.dim)
    ii_ok = bool(np.all(tail_sup <= top * a_m * (1.0 + 1e-12) + 1e-300))
    partition_ok = True
    for j in omega:
        count = sum(1 for k in psi if j in psi[k]) + (1 if j in xi else 0)
        partition_ok &= count == 1

    # mass audits over the banded sets
    h0 = np.where(top > 0, u0a / np.where(top > 0, top, 1.0), 0.0)
    h1 = np.where(top > 0, u1a / np.where(top > 0, top, 1.0), 0.0)
    f0 = np.zeros(c.dim)
    f1 = np.zeros(c.dim)
    for k, members in psi.items():
        if not members:
            continue
        ck = d.center(k)
        phick = float(phi1(g, ck))
        idx = list(members)
        f0[idx] = total[idx] / (top[idx] * phick)
        f1[idx] = total[idx] * ck / (top[idx] * phick)
    f0_ratio = float(np.max(np.where(h0 > 0, f0 / np.where(h0 > 0, h0, 1.0), 0.0))) if len(omega) else 0.0
    f1_ratio = float(np.max(np.where(h1 > 0, f1 / np.where(h1 > 0, h1, 1.0), 0.0))) if len(omega) else 0.0
    g0 = top * f0
    g1 = top * f1
    audits = {
        "q": q,
        "F0_over_h0_max": f0_ratio,
        "F0_pass": bool(np.all(f0 <= q * h0 * (1.0 + 1e-9))),
        "F1_over_h1_max": f1_ratio,
        "F1_pass": bool(np.all(f1 <= q * h1 * (1.0 + 1e-9))),
        "G0_norm": lat.norm(c.x0, g0),
        "G1_norm": lat.norm(c.x1, g1),
        "G0_bound": q * lat.norm(c.x0, u0a),
        "G1_bound": q * lat.norm(c.x1, u1a),
    }
    checks = {
        "i_pass": bool(i_ok),
        "ii_pass": ii_ok,
        "partition_pass": bool(partition_ok),
        "tail_sup_max": float(np.max(tail_sup)) if len(tail_sup) else 0.0,
        "tail_bound_max": float(np.max(top * a_m)) if len(omega) else 0.0,
    }
    return ApproximationTrace(m=m, a_m=a_m, x_m=[x.tolist() for x in x_m],
                              psi=psi, xi=xi, w1=w1, w2=w2, intervals=intervals,
                              audits=audits, checks=checks)


# ---------------------------------------------------------------------------
# factorization


def factorize(c: Couple, f: InterpolationFunction, x, *, seed: int = 0,
              starts: int = 32, iters: int = 200) -> tuple:
    """Write x = phi(f_vec, g_vec) constructively from an interpolation witness.

    Requires phi1(0+) = 0 and a function that is not doubly bounded, and
    cl_norm(x) < 1. When phi1 is bounded the construction runs its bounded
    branch; when instead the slope is bounded, the mirrored function is
    factorized over the swapped couple and the parts are swapped back.
    """
    a = _absx(c, x)
    arr = x.entries if isinstance(x, lat.LatticeVector) else np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise DomainError("factorization input must be nonnegative")
    rec = is_doubly_bounded(f)
    if rec["doubly_bounded"]:
        raise UnsupportedExpressionError(
            "doubly bounded functions collapse to the intersection space; no factorization route")
    if f.phi1_at_zero > 0.0:
        raise PreconditionError("construction needs phi1 to vanish at 0")
    return _factorize_core(c, f, a, seed, starts, iters)


def _dyadic(ok, start: float, factor: float, failure: str) -> float:
    """The first of start, start * factor, start * factor^2, ... (400 steps)
    where ok holds; SolverError(failure) when none does."""
    value = start
    for _ in range(400):
        if ok(value):
            return value
        value *= factor
    raise SolverError(failure)


def _factorize_core(c: Couple, f: InterpolationFunction, a: np.ndarray,
                    seed: int, starts: int, iters: int) -> tuple:
    if not math.isfinite(f.slope_sup) and not math.isfinite(f.phi1_sup):
        branch = "two-sided"
    elif math.isfinite(f.phi1_sup):
        branch = "bounded-value"
    else:
        # bounded slope: swap arguments and couple legs, then swap back; the
        # mirrored function has bounded values, so the recursion terminates
        fv, gv, report = _factorize_core(Couple(c.x1, c.x0), mirror(f), a,
                                         seed, starts, iters)
        report["branch"] = "mirrored:" + report["branch"]
        return gv, fv, report

    est = cl_norm(c, f, a, seed=seed, starts=starts, iters=iters,
                  certify_lower=False)
    if not est.upper < 1.0:
        raise PreconditionError(
            f"interpolation norm must be below 1 (got upper bound {est.upper})")
    lam = est.upper
    u = np.asarray(est.witness["u"]) * lam
    v = np.asarray(est.witness["v"]) * lam

    delta = _dyadic(lambda d: lat.norm(c.x1, np.maximum(v, d * a)) < c.x1.modulus_constant,
                    1.0, 0.5, "no dyadic delta keeps v against the modulus bound")
    n_big = _dyadic(lambda b: float(eval_phi(f, b, delta)) >= 1.0,
                    1.0, 2.0, "phi(N, delta) never reached 1; slope side too flat")

    u1 = np.minimum(u, n_big * a)
    v1 = np.maximum(v, delta * a)

    if branch == "two-sided":
        eps = _dyadic(lambda e: lat.norm(c.x0, np.maximum(u1, e * a)) < c.x0.modulus_constant,
                      min(1.0, n_big / 4.0), 0.5,
                      "no dyadic epsilon keeps u against the modulus bound")
        m_big = _dyadic(lambda b: float(eval_phi(f, eps, b)) >= 1.0,
                        1.0, 2.0, "phi(eps, M) never reached 1; value side too flat")
        u2 = np.maximum(u1, eps * a)
        v2 = np.minimum(v1, m_big * a)
        extras = {"epsilon": eps, "M": m_big}
    else:
        c_phi = f.phi1_sup
        c_one = f.normalization
        u2 = (c_phi / c_one) * u1
        v2 = np.minimum(a / c_one, v1)
        extras = {"C_phi": c_phi}

    y = eval_phi(f, u2, v2)
    support = a > 0
    if np.any(y[support] < a[support] * (1.0 - 1e-9)):
        raise SolverError("construction lost the domination phi(u'', v'') >= x")
    scale = np.where(support, a / np.where(support, y, 1.0), 0.0)
    f_vec = u2 * scale
    g_vec = v2 * scale
    recomposed = eval_phi(f, f_vec, g_vec)
    err = float(np.max(np.abs(recomposed - a)))

    report = {
        "branch": branch,
        "cl_upper": lam,
        "delta": delta,
        "N": n_big,
        **extras,
        "f_norm_X0": lat.norm(c.x0, f_vec),
        "g_norm_X1": lat.norm(c.x1, g_vec),
        "identity_error": err,
    }
    return (lat.vector(c.x0, f_vec), lat.vector(c.x1, g_vec), report)
