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
from scipy.special import expit

from . import lattice as lat
from ._optim import multistart_minimize, spawn_rngs
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
    rows are s = 1/2 and the corners of the box (all 2^k while k <= 12,
    else s = 0 and s = 1): with both exponents below 1 the objective is
    concave and its minimum sits at a corner, and a mixed couple can have
    its optimum on a face. The best `starts` seed rows become incumbents.
    Each round draws 16 * starts rows, shared evenly among the incumbents,
    uniformly within a half-width of each, clipped to the box so that faces
    and corners stay reachable; every incumbent adopts its best row if that
    improves it. The half-width starts at 1 and halves every round, for at
    most iters rounds or until it falls below tol. From the best incumbent,
    rounds of single-coordinate steps (sizes 2^-j down to tol, both signs)
    follow until a round stops improving, again at most iters of them, and
    exact coordinate descent polishes the result. seed fixes the draws, so
    equal seeds give equal estimates; iterations counts the rows scored.
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
    scored = 0

    def score(rows: np.ndarray) -> np.ndarray:
        """||a s||_X0 + ||a (1 - s)||_X1 for each row s of split fractions."""
        nonlocal scored
        scored += rows.shape[0]
        return (lat.norm_rows(c.x0, a_sup * rows, support)
                + lat.norm_rows(c.x1, a_sup * (1.0 - rows), support))

    if k <= 12:
        corners = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(float)
    else:
        corners = np.stack([np.zeros(k), np.ones(k)])
    seeds = np.vstack([np.full(k, 0.5), corners])
    vals = score(seeds)
    keep = np.argsort(vals, kind="stable")[:max(1, starts)]
    inc, inc_vals = seeds[keep], vals[keep]
    m = len(keep)
    per = math.ceil(16 * max(1, starts) / m)
    rng = np.random.default_rng(seed)
    half = 1.0
    for _ in range(iters):
        if half < tol:
            break
        rows = np.clip(inc[:, None, :] + rng.uniform(-half, half, (m, per, k)), 0.0, 1.0)
        vals = score(rows.reshape(-1, k)).reshape(m, per)
        j = np.argmin(vals, axis=1)
        won = np.flatnonzero(vals[np.arange(m), j] < inc_vals)
        inc[won] = rows[won, j[won]]
        inc_vals[won] = vals[won, j[won]]
        half /= 2.0

    i = int(np.argmin(inc_vals))
    s_best, best = inc[i], float(inc_vals[i])
    ladder = 0.5 ** np.arange(max(1, math.ceil(math.log2(1.0 / tol))))
    moves = (np.eye(k)[:, None, :]
             * np.concatenate([ladder, -ladder])[None, :, None]).reshape(-1, k)
    for _ in range(iters):
        rows = np.clip(s_best + moves, 0.0, 1.0)
        vals = score(rows)
        j = int(np.argmin(vals))
        if not vals[j] < best:
            break
        s_best, best = rows[j], float(vals[j])
    x0 = np.zeros(c.dim)
    x0[support] = a_sup * s_best
    val, x0 = _coordinate_descent(c, a, x0)
    if convex:
        lower, flags = val, ()
    else:
        lower, flags = min(_relaxation_lower(c, a), val), ("nonconvex",)
    return NormEstimate(lower, val, {"x0": x0.tolist()}, "batched-search",
                        iterations=scored, flags=flags)


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
    leg, so minimize over the 2^s support assignments."""
    alpha, beta = f.params
    support = np.flatnonzero(a)
    if len(support) > 12:
        return None
    best = math.inf
    best_mask = 0
    for mask in range(1 << len(support)):
        x0 = np.zeros(c.dim)
        x1 = np.zeros(c.dim)
        for i, j in enumerate(support):
            if mask >> i & 1:
                x0[j] = a[j]
            else:
                x1[j] = a[j]
        if alpha == 0.0 and np.any(x0 > 0):
            continue
        if beta == 0.0 and np.any(x1 > 0):
            continue
        lam0 = lat.norm(c.x0, x0) / alpha if np.any(x0 > 0) else 0.0
        lam1 = lat.norm(c.x1, x1) / beta if np.any(x1 > 0) else 0.0
        val = max(lam0, lam1)
        if val < best:
            best, best_mask = val, mask
    if not math.isfinite(best):
        return NormEstimate(math.inf, math.inf, {"reason": "degenerate piecewise-linear part"},
                            "oracle:plmax", flags=("infeasible",))
    u = np.zeros(c.dim)
    v = np.zeros(c.dim)
    for i, j in enumerate(support):
        if best_mask >> i & 1:
            u[j] = a[j] / (alpha * best)
        else:
            v[j] = a[j] / (beta * best)
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


def _batched_inner_bracket(c: Couple, f: InterpolationFunction, a_sup: np.ndarray,
                           support: np.ndarray, us: np.ndarray, lam_cap: float,
                           steps: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Certified bracket on inf over feasible v of max_j a_j/phi(u_j, v_j).

    For fixed u the smallest admissible second witness at level lam is the
    coordinatewise inversion of phi; its norm is monotone in lam, so a
    bisection whose low end keeps the norm strictly above one certifies the
    value from below and whose high end stays feasible certifies it from
    above.  After the given number of halvings of [0, lam_cap] the bracket
    is lam_cap 2^-steps wide.  Rows still infeasible at lam_cap report
    (lam_cap, inf).
    """
    n = us.shape[0]
    lo = np.zeros(n)
    hi = np.full(n, lam_cap)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = _invert_second_arg(f, us, a_sup[None, :] / lam_cap)
        m = lat.norm_rows(c.x1, v, support)
        stuck = ~(m <= 1.0 + 1e-12)  # catches nan as infeasible
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            v = _invert_second_arg(f, us, a_sup[None, :] / np.where(mid > 0, mid, 1.0)[:, None])
            m = lat.norm_rows(c.x1, v, support)
            infeasible = ~(m <= 1.0 + 1e-12)
            lo = np.where(infeasible, mid, lo)
            hi = np.where(infeasible, hi, mid)
    return np.where(stuck, lam_cap, lo), np.where(stuck, math.inf, hi)


def _dual_bound_ready(c: Couple, f: InterpolationFunction) -> bool:
    return (f.family == "power" and 0.0 < f.params[0] < 1.0
            and math.isfinite(c.x0.p) and math.isfinite(c.x1.p))


def _batched_dual_lower(c: Couple, f: InterpolationFunction, a_sup: np.ndarray,
                        support: np.ndarray, los: np.ndarray, his: np.ndarray,
                        lam_cap: float) -> np.ndarray:
    """Certified box bound via the Lagrangian dual of the inner knapsack.

    For the power function on legs of finite exponent the minimal second
    witness is eliminated in closed form and feasibility of a level lam reads
    min { sum_j c_j u_j^(-alpha) : u in box, sum_j w_j u_j^p <= 1 } <= 1.
    Weak duality bounds that minimum from below for every multiplier mu >= 0
    by separable one-dimensional minimizations with closed-form stationary
    points, so L(mu) > 1 certifies lam infeasible; mu = 0 recovers the plain
    corner bound, and the stationarity seed makes the bound tight near the
    optimum without resolving the feasibility surface geometrically.
    """
    th, coef = f.params
    p = c.x0.p
    q = c.x1.p
    w0 = c.x0.w[support]
    w1 = c.x1.w[support]
    alpha = q * (1.0 - th) / th
    n = los.shape[0]

    def infeasible_at(lam: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cj = w1[None, :] * (a_sup[None, :] / (lam[:, None] * coef)) ** (q / th)
            tail = np.sum(w0[None, :] ** (alpha / (alpha + p))
                          * (alpha * cj / p) ** (p / (alpha + p)), axis=1)
            mu_seed = tail ** ((alpha + p) / p)
            out = np.zeros(lam.shape[0], dtype=bool)
            for scale in (0.0, 0.25, 1.0, 4.0):
                if scale == 0.0:
                    ustar = his
                    mu = np.zeros(lam.shape[0])
                else:
                    mu = mu_seed * scale
                    ustar = np.clip((alpha * cj / (mu[:, None] * p * w0[None, :]))
                                    ** (1.0 / (alpha + p)), los, his)
                hvals = cj * ustar ** (-alpha) + mu[:, None] * w0[None, :] * ustar ** p
                lag = np.sum(hvals, axis=1) - mu
                out |= lag > 1.0 + 1e-12
            return out

    lo = np.zeros(n)
    hi = np.full(n, lam_cap)
    stuck = infeasible_at(np.full(n, lam_cap))
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        bad = infeasible_at(mid)
        lo = np.where(bad, mid, lo)
        hi = np.where(bad, hi, mid)
    return np.where(stuck, lam_cap, lo)


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


def _grid_lower(c: Couple, f: InterpolationFunction, a: np.ndarray, upper: float,
                budget: int = 16384) -> tuple[float, dict] | None:
    """Certified lower bound by branch-and-bound over the first witness.

    The inner value for fixed u is nonincreasing in u, so a box's upper
    corner bounds every witness inside it from below, and no grid inflation
    factor enters.  Witnesses with any coordinate below the a-priori floor
    (derived from the prune threshold tau and the largest admissible partner
    coordinate) already exceed tau, so the search domain is [floor, cap];
    boxes whose lower corner escapes the unit ball hold no witness at all.
    The returned value min(active bounds, settled bounds, tau) is therefore
    a true lower bound for every feasible witness.
    """
    support = np.flatnonzero(a)
    s = len(support)
    if s == 0:
        return 0.0, {"boxes": 0, "converged": True}
    if not math.isfinite(upper) or upper <= 0.0:
        return None
    a_sup = a[support]
    caps = np.empty((2, s))
    for row, spec in enumerate((c.x0, c.x1)):
        for i, j in enumerate(support):
            ej = np.zeros(c.dim)
            ej[j] = 1.0
            caps[row, i] = 1.0 / lat.norm(spec, ej)
    tau = upper * (1.0 - 4e-4)
    lam_cap = upper * (1.0 + 1e-9)
    if c.x0.family == "linf":
        # the ball has a largest element, so the outer infimum sits there
        ones = np.ones((1, s))
        lo_end, hi_end = _batched_inner_bracket(c, f, a_sup, support, ones, lam_cap)
        info: dict = {"boxes": 1, "converged": True}
        if math.isfinite(hi_end[0]):
            v_row = _invert_second_arg(f, ones, a_sup[None, :] / hi_end[0])[0]
            info["witness"] = {"u": ones[0], "v": v_row, "lam": float(hi_end[0])}
        return min(float(lo_end[0]), upper), info
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
        if not use_dual:
            return corner_vals
        dual = _batched_dual_lower(c, f, a_sup, support, lo_rows, hi_rows, lam_cap)
        return np.maximum(corner_vals, dual)

    los = floor[None, :].copy()
    his = _reduce_box_tops(c.x0, los, caps[0][None, :].copy(), support)
    bounds = box_bounds(los, his, bracket(his)[0])
    evaluated = 1
    settled = math.inf
    converged = False
    group = 512
    best_corner: tuple[float, np.ndarray] | None = None
    while evaluated < budget * 16:
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
    for many rows of u at once. Starting from u = x/||x||_X0, each round
    draws 16 * starts rows log-uniformly around the incumbent, with a
    half-width of 3 that halves every round, for at most iters rounds or
    until the half-width falls below tol. Rounds of single-coordinate log
    steps (sizes 3 2^-k down to tol, both signs) follow until a round stops
    improving, again at most iters of them. An l-infinity first leg takes
    u = 1, the largest element of its ball. The final lam is bracketed to
    relative width tol and the witness is re-verified arithmetically. seed
    fixes the draws, so equal seeds give equal estimates; iterations counts
    the rows scored. With certify_lower and at most four nonzero
    coordinates, the branch-and-bound certificate supplies the lower bound
    (flag "grid-certified", plus "budget-exhausted" when its box budget ran
    out, which leaves the bound sound but looser); otherwise the lower bound
    is 0 ("heuristic-lower").
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
    u_best = a_sup / lat.norm(c.x0, a)
    scored = 0

    def improve(logs: np.ndarray) -> bool:
        """Score the normalized rows by their inner value, capped at the
        incumbent's, and adopt the best row if it beats the incumbent."""
        nonlocal cap, u_best, scored
        us = np.exp(logs)
        us /= lat.norm_rows(c.x0, us, support)[:, None]
        his = _batched_inner_bracket(c, f, a_sup, support, us, cap)[1]
        scored += us.shape[0]
        i = int(np.argmin(his))
        if not his[i] < cap:
            return False
        cap, u_best = float(his[i]), us[i]
        return True

    if c.x0.family == "linf":
        # the ball has a largest element, so the outer infimum sits there
        u_best = np.ones(s)
        improve(np.zeros((1, s)))
    else:
        rng = np.random.default_rng(seed)
        half = 3.0
        for _ in range(iters):
            if half < tol:
                break
            improve(np.log(u_best) + rng.uniform(-half, half, (16 * max(1, starts), s)))
            half /= 2.0
        ladder = 3.0 * 0.5 ** np.arange(max(1, math.ceil(math.log2(3.0 / tol))))
        moves = (np.eye(s)[:, None, :]
                 * np.concatenate([ladder, -ladder])[None, :, None]).reshape(-1, s)
        for _ in range(iters):
            if not improve(np.log(u_best) + moves):
                break
    # the incumbent is feasible at cap; the margin keeps it so through rounding
    steps = max(24, math.ceil(-math.log2(tol)))
    upper = float(_batched_inner_bracket(c, f, a_sup, support, u_best[None, :],
                                         cap * (1.0 + 1e-9), steps)[1][0])
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
    optimizer tolerance.
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

        def split_value(apart: np.ndarray) -> float:
            rest = a - apart
            val0 = cl_norm(c, pl, apart, seed=seed, starts=starts, iters=iters,
                           certify_lower=False).upper if np.any(apart > 0) else 0.0
            val1 = cl_norm(c, eta, rest, seed=seed, starts=starts, iters=iters,
                           certify_lower=False).upper if np.any(rest > 0) else 0.0
            return val0 + val1

        if pl.family == "zero":
            split_val = split_value(np.zeros(c.dim))
        elif eta.family == "zero":
            split_val = split_value(a)
        else:
            best = math.inf
            for endpoint in (np.zeros(c.dim), a):
                best = min(best, split_value(endpoint))
            rngs = spawn_rngs(seed + 17 * idx, starts)
            starts_y = [np.zeros(c.dim)] + [r.uniform(-6.0, 6.0, c.dim) for r in rngs[:-1]]
            res = multistart_minimize(lambda y: split_value(a * expit(y)),
                                      starts_y, maxiter=iters)
            best = min(best, res.value)
            split_val = best
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
