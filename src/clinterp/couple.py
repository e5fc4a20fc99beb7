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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from . import lattice as lat
from ._optim import batched_search, cube_corners
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


def _sum_with_linf(c: Couple, a: np.ndarray, inf_leg: int) -> tuple[float, np.ndarray]:
    """Exact sum norm when one leg is l-infinity.

    Any split with ||x1||_inf = t is dominated by the capped split
    x1 = |x| ^ t, so the problem is the one-dimensional minimization of
    h(t) = ||(|x|-t)+||_other + t over t in [0, max|x|].
    """
    other = c.x0 if inf_leg == 1 else c.x1

    def h(t: float) -> float:
        return lat.norm(other, np.maximum(a - t, 0.0)) + t

    vmax = float(np.max(a))
    pts = sorted(set([0.0, vmax] + [float(v) for v in a if 0.0 < v < vmax]))
    best_t, best = 0.0, h(0.0)
    for lo, hi in zip(pts, pts[1:]):
        # presample: h need not be unimodal on a segment when the other leg
        # is only a quasi-norm
        for t_cand in np.linspace(lo, hi, 33):
            val = h(float(t_cand))
            if val < best:
                best_t, best = float(t_cand), val
        res = minimize_scalar(h, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-13 * max(1.0, vmax)})
        for t_cand in (float(res.x), hi):
            val = h(t_cand)
            if val < best:
                best_t, best = t_cand, val
    x1 = np.minimum(a, best_t)
    return best, a - x1


def _coordinate_descent(c: Couple, a: np.ndarray, x0: np.ndarray,
                        sweeps: int = 60) -> tuple[float, np.ndarray]:
    """Cyclic exact 1-D minimization of ||x0||_X0 + ||a-x0||_X1 over the box.

    Sweeps run until one stops improving: an ill-conditioned valley is
    crossed slowly, so a small gain per sweep does not mean the optimum is
    near.
    """
    x0 = x0.copy()
    current = lat.norm(c.x0, x0) + lat.norm(c.x1, a - x0)
    for _ in range(sweeps):
        previous = current
        for j in range(len(a)):
            if a[j] == 0.0:
                continue

            def h(s: float, j=j) -> float:
                old = x0[j]
                x0[j] = s
                val = lat.norm(c.x0, x0) + lat.norm(c.x1, a - x0)
                x0[j] = old
                return val

            res = minimize_scalar(h, bounds=(0.0, float(a[j])), method="bounded",
                                  options={"xatol": 1e-13 * max(1.0, float(a[j]))})
            cand = min((h(0.0), 0.0), (h(float(a[j])), float(a[j])), (float(res.fun), float(res.x)))
            if cand[0] < current:
                x0[j] = cand[1]
                current = cand[0]
        if not current < previous:
            break
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
    With both legs convex the lower bound is the polished value; below
    p = 1 it is the lower bound of the same problem over the convex
    minorant legs (flag "nonconvex").
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

    if c.x1.family == "linf":
        val, x0 = _sum_with_linf(c, a, inf_leg=1)
        lower = val if convex else min(_relaxation_lower(c, a), val)
        return NormEstimate(lower, val, {"x0": x0.tolist()}, "linf-cap")
    if c.x0.family == "linf":
        swapped = Couple(c.x1, c.x0)
        val, x1 = _sum_with_linf(swapped, a, inf_leg=1)
        lower = val if convex else min(_relaxation_lower(c, a), val)
        return NormEstimate(lower, val, {"x0": (a - x1).tolist()}, "linf-cap")

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
        lower, flags = val, ()
    else:
        lower, flags = min(_relaxation_lower(c, a), val), ("nonconvex",)
    return NormEstimate(lower, val, {"x0": x0.tolist()}, "batched-search",
                        iterations=scored, flags=flags)


def _split_seeds(k: int) -> np.ndarray:
    """s = 1/2 and the corners of [0, 1]^k (all 2^k while k <= 12, else s = 0
    and s = 1), the seed rows of every search over split fractions."""
    corners = cube_corners(k) if k <= 12 else np.stack([np.zeros(k), np.ones(k)])
    return np.vstack([np.full(k, 0.5), corners])


def _relaxation_lower(c: Couple, a: np.ndarray) -> float:
    # only the lower bound of the minorizing problem bounds the original
    return sum_norm(Couple(_relaxed_leg(c.x0), _relaxed_leg(c.x1)), a).lower


# ---------------------------------------------------------------------------
# interpolation norm


def _power_oracle(c: Couple, f: InterpolationFunction, a: np.ndarray) -> NormEstimate:
    """Exact value for the power family on (weighted) lp legs.

    With 1/r = (1-theta)/p0 + theta/p1 and the matching weight product, the
    value is the weighted r-norm over coef; Holder in one direction and an
    explicit witness in the other make it exact for every exponent range.
    """
    theta, coef = f.params
    p0, w0 = c.x0.p, c.x0.w
    p1, w1 = c.x1.p, c.x1.w
    e0 = (1.0 - theta) / p0 if math.isfinite(p0) else 0.0
    e1 = theta / p1 if math.isfinite(p1) else 0.0
    inv_r = e0 + e1
    support = a > 0
    if inv_r == 0.0:
        lam = float(np.max(a)) / coef
        ones = np.ones(c.dim)
        return NormEstimate(lam, lam, {"u": ones.tolist(), "v": ones.tolist(), "lam": lam},
                            "oracle:linf-pair")
    r = 1.0 / inv_r
    # an l-infinity leg has exponent e = 0, so its weights drop out
    m = w0 ** (r * e0) * w1 ** (r * e1) * a**r
    total = float(np.sum(m))
    lam = total ** (1.0 / r) / coef
    u = np.ones(c.dim)
    v = np.ones(c.dim)
    if math.isfinite(p0):
        u = np.where(support, (m / np.where(m > 0, total * w0, 1.0)) ** (1.0 / p0), 0.0)
    if math.isfinite(p1):
        v = np.where(support, (m / np.where(m > 0, total * w1, 1.0)) ** (1.0 / p1), 0.0)
    return NormEstimate(lam, lam, {"u": u.tolist(), "v": v.tolist(), "lam": lam},
                        "oracle:power")


def _plmax_oracle(c: Couple, f: InterpolationFunction, a: np.ndarray) -> NormEstimate | None:
    """Exact value for max(alpha s, beta t): each coordinate is served by one
    leg, so minimize over the 2^s support assignments (cube corners, bit i
    sending support coordinate i to the first leg)."""
    alpha, beta = f.params
    support = np.flatnonzero(a)
    if len(support) > 12:
        return None
    masks = cube_corners(len(support))
    a_sup = a[support]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a leg with a zero coefficient cannot serve any coordinate
        lam0 = np.where(masks.any(axis=1),
                        lat.norm_rows(c.x0, a_sup * masks, support) / alpha, 0.0)
        lam1 = np.where((1.0 - masks).any(axis=1),
                        lat.norm_rows(c.x1, a_sup * (1.0 - masks), support) / beta, 0.0)
    vals = np.maximum(lam0, lam1)
    i = int(np.argmin(vals))
    best = float(vals[i])
    if not math.isfinite(best):
        return NormEstimate(math.inf, math.inf, {"reason": "degenerate piecewise-linear part"},
                            "oracle:plmax", flags=("infeasible",))
    first = masks[i] > 0.0
    u = np.zeros(c.dim)
    v = np.zeros(c.dim)
    u[support[first]] = a_sup[first] / (alpha * best)
    v[support[~first]] = a_sup[~first] / (beta * best)
    return NormEstimate(best, best, {"u": u.tolist(), "v": v.tolist(), "lam": best},
                        "oracle:plmax")


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


def _bisect_levels(infeasible_at, n: int, lam_cap: float,
                   steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Bisect [0, lam_cap] for n rows at once on a monotone test that marks
    the levels lam certified infeasible. After steps halvings every row's
    (lo, hi) is lam_cap 2^-steps wide with lo marked and hi unmarked; rows
    marked at lam_cap itself report (lam_cap, inf)."""
    lo = np.zeros(n)
    hi = np.full(n, lam_cap)
    stuck = infeasible_at(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        bad = infeasible_at(mid)
        lo = np.where(bad, mid, lo)
        hi = np.where(bad, hi, mid)
    return np.where(stuck, lam_cap, lo), np.where(stuck, math.inf, hi)


def _batched_inner_bracket(c: Couple, f: InterpolationFunction, a_sup: np.ndarray,
                           support: np.ndarray, us: np.ndarray, lam_cap: float,
                           steps: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Certified bracket on inf over feasible v of max_j a_j/phi(u_j, v_j).

    For fixed u the smallest admissible second witness at level lam is the
    coordinatewise inversion of phi; its norm is monotone in lam, so a
    bisection (_bisect_levels) whose low end keeps the norm strictly above
    one certifies the value from below and whose high end stays feasible
    certifies it from above.  Rows still infeasible at lam_cap report
    (lam_cap, inf).
    """
    def infeasible_at(lam: np.ndarray) -> np.ndarray:
        v = _invert_second_arg(f, us, a_sup[None, :] / np.where(lam > 0, lam, 1.0)[:, None])
        return ~(lat.norm_rows(c.x1, v, support) <= 1.0 + 1e-12)  # nan is infeasible

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _bisect_levels(infeasible_at, us.shape[0], lam_cap, steps)


def _dual_bound_ready(c: Couple, f: InterpolationFunction) -> bool:
    """Whether _batched_dual_lower applies: the inverse of phi in its second
    argument is one power piece (quasiconcave.power_piece: power, cappedpower
    and mirror(cappedpower), for 0 < theta < 1) and both legs have a finite
    exponent."""
    return (power_piece(f) is not None
            and math.isfinite(c.x0.p) and math.isfinite(c.x1.p))


def _batched_dual_lower(c: Couple, f: InterpolationFunction, a_sup: np.ndarray,
                        support: np.ndarray, los: np.ndarray, his: np.ndarray,
                        lam_cap: float) -> np.ndarray:
    """Certified box bound via the Lagrangian dual of the inner knapsack.

    The minimal second witness is the power piece of quasiconcave.power_piece,
    v_j = max(A c_j, (c_j/coef)^(1/theta) u_j^(-beta)) on u_j >= L c_j with
    c_j = a_j/lam, so on legs of finite exponent p and q feasibility of a
    level lam reads
    min { sum_j w1_j v_j^q : u in box, u_j >= L c_j, sum_j w0_j u_j^p <= 1 } <= 1.
    Weak duality bounds that minimum from below for every multiplier mu >= 0
    by separable one-dimensional minimizations, so L(mu) > 1 certifies lam
    infeasible, convex legs or not.  Each term max(D_j, C_j u^(-alpha))
    + mu w0_j u^p, alpha = q beta, on [max(lo, L c_j), hi] takes its exact
    minimum on one of two branches split at u0_j, where the power part meets
    the constant D_j = w1_j (A c_j)^q: the closed-form stationary point
    clipped to the interval below u0_j, or the left end above it.  Any split
    point keeps the bound sound and the exact one keeps it tight; an empty
    interval makes the term infinite.  mu = 0 recovers the plain corner
    bound, and the stationarity seed makes the bound tight near the optimum
    without resolving the feasibility surface geometrically.
    """
    th, coef, a_floor, low = power_piece(f)
    p = c.x0.p
    q = c.x1.p
    w0 = c.x0.w[support]
    w1 = c.x1.w[support]
    beta = (1.0 - th) / th
    alpha = q * beta
    # u0 / c_j, where (c/coef)^(1/theta) u^(-beta) = A c; inf without a floor
    split = (a_floor * coef ** (1.0 / th)) ** (-1.0 / beta) if a_floor > 0.0 else math.inf

    def infeasible_at(lam: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cs = a_sup[None, :] / lam[:, None]
            cj = w1[None, :] * (a_sup[None, :] / (lam[:, None] * coef)) ** (q / th)
            tail = np.sum(w0[None, :] ** (alpha / (alpha + p))
                          * (alpha * cj / p) ** (p / (alpha + p)), axis=1)
            mu_seed = tail ** ((alpha + p) / p)
            # the 1e-12 keeps rounding in a/lam from emptying a feasible box
            bottom = np.maximum(los, low * cs * (1.0 - 1e-12))
            top = np.minimum(his, split * cs)  # the power branch
            const_at = np.maximum(bottom, split * cs)  # the constant branch
            power_live = bottom <= top
            const_live = const_at <= his
            const_term = w1[None, :] * (a_floor * cs) ** q
            out = np.zeros(lam.shape[0], dtype=bool)
            for scale in (0.0, 0.25, 1.0, 4.0):
                if scale == 0.0:
                    ustar = top
                    mu = np.zeros(lam.shape[0])
                else:
                    mu = mu_seed * scale
                    ustar = np.clip((alpha * cj / (mu[:, None] * p * w0[None, :]))
                                    ** (1.0 / (alpha + p)), bottom, top)
                hvals = np.minimum(
                    np.where(power_live,
                             cj * ustar ** (-alpha) + mu[:, None] * w0[None, :] * ustar ** p,
                             math.inf),
                    np.where(const_live,
                             const_term + mu[:, None] * w0[None, :] * const_at ** p,
                             math.inf))
                lag = np.sum(hvals, axis=1) - mu
                out |= lag > 1.0 + 1e-12
            return out

    return _bisect_levels(infeasible_at, los.shape[0], lam_cap, 24)[0]


def _reduce_box_tops(spec: lat.LatticeSpec, los: np.ndarray, his: np.ndarray,
                     support: np.ndarray) -> np.ndarray:
    """Clip each box axis to the largest value feasible alongside the box's
    lower corner on the remaining axes; any feasible point in the box obeys
    the clip, so bounds taken at the reduced corner stay valid.  spec has a
    finite exponent: an l-infinity first leg never reaches the box search."""
    w = spec.w[support]
    terms = w[None, :] * los ** spec.p
    slack = 1.0 - (np.sum(terms, axis=1, keepdims=True) - terms)
    with np.errstate(invalid="ignore"):
        cap = (np.maximum(slack, 0.0) / w[None, :]) ** (1.0 / spec.p)
    return np.minimum(his, np.maximum(cap, los))


_BOX_BUDGET = 262_144  # boxes _grid_lower may evaluate before it stops unconverged


def _grid_lower(c: Couple, f: InterpolationFunction, a: np.ndarray,
                upper: float) -> tuple[float, dict] | None:
    """Certified lower bound by branch-and-bound over the first witness.

    The inner value for fixed u is nonincreasing in u, so a box's upper
    corner bounds every witness inside it from below, and no grid inflation
    factor enters.  Witnesses with any coordinate below the a-priori floor
    (derived from the prune threshold tau and the largest admissible partner
    coordinate) already exceed tau, so the search domain is [floor, cap];
    boxes whose lower corner escapes the unit ball hold no witness at all.
    The returned value min(active bounds, settled bounds, tau) is therefore
    a true lower bound for every feasible witness.  The first leg has a
    finite exponent: cl_norm bounds an l-infinity first leg at u = 1 from
    its own bracket.  Where _dual_bound_ready holds, each box bound is also
    raised to _batched_dual_lower.  The search stops unconverged after
    _BOX_BUDGET boxes.
    """
    support = np.flatnonzero(a)
    if support.size == 0:
        return 0.0, {"boxes": 0, "converged": True}
    if not math.isfinite(upper) or upper <= 0.0:
        return None
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

    use_dual = _dual_bound_ready(c, f)

    def box_bounds(lo_rows: np.ndarray, hi_rows: np.ndarray,
                   corner_vals: np.ndarray) -> np.ndarray:
        # the dual only matters for boxes the corner bound leaves open
        weak = corner_vals < tau
        if not use_dual or not np.any(weak):
            return corner_vals
        out = corner_vals.copy()
        out[weak] = np.maximum(corner_vals[weak], _batched_dual_lower(
            c, f, a_sup, support, lo_rows[weak], hi_rows[weak], lam_cap))
        return out

    los = floor[None, :].copy()
    his = _reduce_box_tops(c.x0, los, caps[0][None, :].copy(), support)
    bounds = box_bounds(los, his, bracket(his)[0])
    evaluated = 1
    settled = math.inf
    converged = False
    group = 512
    best_corner: tuple[float, np.ndarray] | None = None
    while evaluated < _BOX_BUDGET:
        if bounds.shape[0] == 0 or float(np.min(bounds)) >= tau:
            converged = True
            break
        # refine the boxes with the weakest bounds; they limit the result
        if bounds.shape[0] > group:
            pick = np.argpartition(bounds, group)[:group]
            mask = np.zeros(bounds.shape[0], dtype=bool)
            mask[pick] = True
        else:
            mask = np.ones(bounds.shape[0], dtype=bool)
        keep_los, keep_his, keep_bounds = los[~mask], his[~mask], bounds[~mask]
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
        kid_lo, kid_hi = kid_lo[feas], kid_hi[feas]
        kid_hi = _reduce_box_tops(c.x0, kid_lo, kid_hi, support)
        if kid_lo.shape[0]:
            both = bracket(np.concatenate([kid_hi, kid_lo]))
            kid_bounds = box_bounds(kid_lo, kid_hi, both[0][: kid_hi.shape[0]])
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
            kid_lo, kid_hi, kid_bounds = kid_lo[alive], kid_hi[alive], kid_bounds[alive]
            los = np.concatenate([keep_los, kid_lo])
            his = np.concatenate([keep_his, kid_hi])
            bounds = np.concatenate([keep_bounds, kid_bounds])
        else:
            los, his, bounds = keep_los, keep_his, keep_bounds
    else:
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


def cl_norm(c: Couple, f: InterpolationFunction, x, *, method: str = "auto",
            seed: int = 0, starts: int = 32, iters: int = 200,
            tol: float = 1e-9, certify_lower: bool = True) -> NormEstimate:
    """The interpolation quasi-norm of x for the function phi.

    method "oracle" demands a closed form (power family on lp-type legs, min,
    piecewise-linear max, or an l-infinity pair), "optimize" forces the
    search below, and "auto" prefers the oracle when one applies.

    The search runs over the first witness u alone: for fixed u the least
    lam is a monotone problem whose second witness v is the exact
    coordinatewise inverse of phi, and _batched_inner_bracket brackets it
    for many rows of u at once. _optim.batched_search runs over log u from
    the one seed u = x/||x||_X0, with 16 * starts log-uniform rows per round
    around the incumbent, a half-width of 3 halving down to tol and at most
    iters rounds of each stage; every row is normalized into the unit ball
    and bracketed at the least value scored so far. An l-infinity first leg
    takes u = 1, the largest element of its ball. The final lam is bracketed to
    relative width tol and the witness is re-verified arithmetically. seed
    fixes the draws, so equal seeds give equal estimates; iterations counts
    the rows scored. With certify_lower, an l-infinity first leg takes the
    lower bound from the low end of that final bracket at u = 1, which
    attains the outer infimum, whatever the support size (flag
    "grid-certified", grid info one box). Other couples with at most four
    nonzero coordinates take it from the branch-and-bound certificate (flag
    "grid-certified"); otherwise the lower bound is 0 ("heuristic-lower").
    Where the inverse of phi in its second argument is one power piece
    (power, cappedpower and mirror(cappedpower), 0 < theta < 1) on legs of
    finite exponent, each box is also bounded through the Lagrangian dual of
    its inner problem, and the certificate usually closes in one box. Other
    families (harmonic, sum, affinepower, hull, ...) rely on box corners
    alone and may add "budget-exhausted": the box budget ran out, which
    leaves the bound sound but looser.
    """
    a = _absx(c, x)
    if not np.any(a > 0):
        return NormEstimate(0.0, 0.0, {"u": [0.0] * c.dim, "v": [0.0] * c.dim, "lam": 0.0}, "zero")
    if f.normalization == 0.0:
        return NormEstimate(math.inf, math.inf,
                            {"reason": "phi vanishes identically; no witness can dominate x"},
                            "infeasible", flags=("infeasible",))

    oracle = None
    if f.family == "min":
        lam = intersection_norm(c, a)
        u = a / lat.norm(c.x0, a)
        v = a / lat.norm(c.x1, a)
        oracle = NormEstimate(lam, lam, {"u": u.tolist(), "v": v.tolist(), "lam": lam},
                              "oracle:min-intersection")
    elif f.family == "power":
        oracle = _power_oracle(c, f, a)
    elif f.family == "plmax":
        oracle = _plmax_oracle(c, f, a)
    elif c.x0.family == "linf" and c.x1.family == "linf":
        lam = float(np.max(a)) / f.normalization
        ones = np.ones(c.dim)
        oracle = NormEstimate(lam, lam, {"u": ones.tolist(), "v": ones.tolist(), "lam": lam},
                              "oracle:linf-pair")

    if method == "oracle":
        if oracle is None:
            raise UnsupportedExpressionError(
                f"no closed form for {f.family} on {c.describe()}")
        return oracle
    if method == "auto" and oracle is not None:
        return oracle
    if method not in ("auto", "optimize"):
        raise DomainError(f"unknown method {method!r}")

    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
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
    linf = c.x0.family == "linf"
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

    # arithmetic re-verification of the returned witness
    vals = eval_phi(f, u, v)
    if not np.all(a <= upper * vals * (1.0 + 1e-12) + 1e-300):
        raise SolverError("witness fails to dominate x", (upper, None))
    if lat.norm(c.x0, u) > 1.0 + 1e-12 or lat.norm(c.x1, v) > 1.0 + 1e-12:
        raise SolverError("witness escaped the unit balls", (upper, None))

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
            ok = np.all(a <= lam2 * eval_phi(f, u2, v2) * (1.0 + 1e-12) + 1e-300)
            if (ok and lat.norm(c.x0, u2) <= 1.0 + 1e-12
                    and lat.norm(c.x1, v2) <= 1.0 + 1e-12):
                upper, u, v = lam2, u2, v2
        lower = min(lower, upper)
        # the bound stays sound when the box budget runs out, only looser
        flags = ("grid-certified",) + (() if grid_info["converged"] else ("budget-exhausted",))
    else:
        lower, grid_info = 0.0, None
        flags = ("heuristic-lower",)
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
    resolution of 1e-6; every row costs two uncertified cl_norm calls. Each
    sample draws from its own generator, seeded by (seed, sample index).
    """
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

        def split_value(frac: np.ndarray) -> float:
            apart = np.zeros(c.dim)
            apart[support] = a[support] * frac
            return sum(cl_norm(c, g, part, seed=seed, starts=starts, iters=iters,
                               certify_lower=False).upper
                       for g, part in ((pl, apart), (eta, a - apart)) if np.any(part > 0))

        if pl.family == "zero":
            split_val = split_value(np.zeros(len(support)))
        elif eta.family == "zero":
            split_val = split_value(np.ones(len(support)))
        else:
            split_val = batched_search(
                lambda rows: np.array([split_value(row) for row in rows]),
                _split_seeds(len(support)), lo=0.0, hi=1.0, rows=4 * max(1, starts),
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

    modulus1 = c.x1.modulus_constant
    delta = 1.0
    for _ in range(400):
        if lat.norm(c.x1, np.maximum(v, delta * a)) < modulus1:
            break
        delta *= 0.5
    else:
        raise SolverError("no dyadic delta keeps v against the modulus bound")
    n_big = 1.0
    for _ in range(400):
        if float(eval_phi(f, n_big, delta)) >= 1.0:
            break
        n_big *= 2.0
    else:
        raise SolverError("phi(N, delta) never reached 1; slope side too flat")

    u1 = np.minimum(u, n_big * a)
    v1 = np.maximum(v, delta * a)

    if branch == "two-sided":
        modulus0 = c.x0.modulus_constant
        eps = min(1.0, n_big / 4.0)
        for _ in range(400):
            if lat.norm(c.x0, np.maximum(u1, eps * a)) < modulus0:
                break
            eps *= 0.5
        else:
            raise SolverError("no dyadic epsilon keeps u against the modulus bound")
        m_big = 1.0
        for _ in range(400):
            if float(eval_phi(f, eps, m_big)) >= 1.0:
                break
            m_big *= 2.0
        else:
            raise SolverError("phi(eps, M) never reached 1; value side too flat")
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
