"""Matrix operators between lattices: norm and regularity estimation.

Everything here is a falsifier, not a prover. Lower bounds come from
searches over concrete vectors or tuples, upper bounds only from certified
closed forms, and the verify_* harnesses replay proof-derived inequalities
on sampled data and report the worst observed margins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from . import pathology as pat
from ._optim import batched_search, cube_corners, spawn_rngs
from .couple import Couple, NormEstimate, cl_norm, sum_norm
from .errors import (
    DescriptorError,
    DomainError,
    PreconditionError,
    UnsupportedExpressionError,
)
from .quasiconcave import InterpolationFunction

# best value of q(q+1)/(q-1) over q > 1, attained at q = 1 + sqrt(2)
TUPLE_BOUND_GAMMA = 3.0 + 2.0 * math.sqrt(2.0)


@dataclass(eq=False)
class OperatorSpec:
    """A real matrix acting between declared spaces. It holds no estimates:
    op_norm and rho_pq compute theirs on every call."""

    matrix: np.ndarray
    domain: object = None
    codomain: object = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise DomainError("an operator needs a nonempty 2-D matrix")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        self.matrix = m
        for space, axis, name in ((self.domain, 1, "domain"), (self.codomain, 0, "codomain")):
            if space is not None and space.dim != m.shape[axis]:
                raise DomainError(
                    f"{name} dimension {space.dim} does not match matrix shape {m.shape}"
                )

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    @property
    def is_positive(self) -> bool:
        return bool(np.all(self.matrix >= 0.0))

    @property
    def is_diagonal(self) -> bool:
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            return False
        return bool(np.count_nonzero(m - np.diag(np.diag(m))) == 0)


def parse_matrix(text: str) -> np.ndarray:
    """Parse a matrix from "1,2;3,4" or from CSV/whitespace rows."""
    rows_raw = [r for r in text.replace(";", "\n").splitlines() if r.strip()]
    if not rows_raw:
        raise DescriptorError("empty matrix text")
    rows = []
    for raw in rows_raw:
        parts = [p for p in raw.replace(",", " ").split() if p]
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise DescriptorError(f"bad matrix entry in row {raw!r}") from exc
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise DescriptorError("matrix rows must be nonempty and of equal length")
    return np.asarray(rows, dtype=float)


def _shape_check(t: OperatorSpec, domain, codomain) -> None:
    rows, cols = t.matrix.shape
    if domain.dim != cols:
        raise DomainError(f"domain dimension {domain.dim} does not match {cols} columns")
    if codomain.dim != rows:
        raise DomainError(f"codomain dimension {codomain.dim} does not match {rows} rows")


def _check_count(name: str, count: int) -> None:
    """A sampler runs exactly the count it reports, so it needs at least one."""
    if count < 1:
        raise DomainError(f"{name} must be at least 1, got {count!r}")


def _is_convex(spec: lat.LatticeSpec) -> bool:
    return spec.p >= 1.0


def _sign_vertices(k: int) -> np.ndarray:
    """The 2^(k-1) sign vectors in {-1, 1}^k with first sign +1 (a and -a
    have equal norms), bit i of the row index flipping sign i + 1."""
    return np.hstack([np.ones((1 << (k - 1), 1)), 1.0 - 2.0 * cube_corners(k - 1)])


def _op_norm_oracle(t: OperatorSpec, x: lat.LatticeSpec, y: lat.LatticeSpec) -> NormEstimate | None:
    m = t.matrix
    n = x.dim
    if not np.any(m):
        e0 = np.zeros(n)
        e0[0] = 1.0
        return NormEstimate(0.0, 0.0, {"x": e0.tolist()}, "zero")
    atom_vals = np.array([lat.norm(y, m[:, j]) / lat.norm(x, np.eye(n)[j]) for j in range(n)])
    if n == 1 or x.p <= min(1.0, y.p):
        # with r = min(1, y.p), ||.||_y^r is subadditive, and x.p <= r gives
        # (sum_j (|x_j| ||e_j||_x)^r)^(1/r) <= ||x||_x for every weighted lp
        # family; so ||T x||_y^r <= sum_j (|x_j| ||e_j||_x)^r atom_j^r, and
        # the largest normalized atom attains the norm (n = 1 is the case
        # where every vector is a multiple of the atom)
        j = int(np.argmax(atom_vals))
        wit = np.eye(n)[j] / lat.norm(x, np.eye(n)[j])
        return NormEstimate(atom_vals[j], atom_vals[j], {"x": wit.tolist()}, "vertex:atoms")
    if x.p == 2.0 and y.p == 2.0:
        # euclidean legs reduce to the largest singular value; weights fold
        # into diagonal rescalings on both sides
        wx, wy = x.w, y.w
        scaled = np.sqrt(wy)[:, None] * m / np.sqrt(wx)[None, :]
        svals, vh = np.linalg.svd(scaled, compute_uv=True)[1:]
        val = float(svals[0])
        wit = vh[0] / np.sqrt(wx)
        wit = wit / max(lat.norm(x, wit), 1e-300)
        return NormEstimate(val, val, {"x": wit.tolist()}, "spectral")
    if math.isinf(x.p):
        if t.is_positive:
            # |T s| <= T 1 coordinatewise on the sup ball, any monotone codomain
            ones = np.ones(n)
            val = lat.norm(y, m @ ones)
            return NormEstimate(val, val, {"x": ones.tolist()}, "positive:ones")
        if _is_convex(y) and n <= 16:
            signs = _sign_vertices(n)
            vals = lat.norm_rows(y, signs @ m.T, np.arange(y.dim))
            j = int(np.argmax(vals))
            best = float(vals[j])
            return NormEstimate(best, best, {"x": signs[j].tolist()}, "vertex:signs")
    if t.is_diagonal and x.weights is None and y.weights is None and y.p >= x.p:
        # unweighted nesting: the q-norm shrinks as q grows, so the largest
        # diagonal entry is both an upper bound and attained on its axis
        d = np.abs(np.diag(m))
        j = int(np.argmax(d))
        return NormEstimate(d[j], d[j], {"x": np.eye(n)[j].tolist()}, "diagonal")
    return None


def _op_norm_search(
    t: OperatorSpec, x: lat.LatticeSpec, y: lat.LatticeSpec, *, seed: int, starts: int, iters: int
) -> NormEstimate:
    m = t.matrix
    n = x.dim
    sup_x, sup_y = np.arange(n), np.arange(y.dim)

    def neg_ratio(rows: np.ndarray) -> np.ndarray:
        nx = lat.norm_rows(x, rows, sup_x)
        ny = lat.norm_rows(y, rows @ m.T, sup_y)
        return -np.divide(ny, nx, out=np.zeros_like(ny), where=nx > 1e-300)

    rngs = spawn_rngs(seed, max(1, starts))
    pts = [np.ones(n)] + [np.eye(n)[j] for j in range(min(n, 8))]
    while len(pts) < max(1, starts):
        pts.append(rngs[len(pts) % len(rngs)].normal(size=n))
    seeds = np.array([v / np.max(np.abs(v)) for v in pts[: max(1, starts)]])
    point, value, scored = batched_search(
        neg_ratio, seeds, lo=-1.0, hi=1.0, rows=16 * max(1, starts), keep=starts,
        half=1.0, iters=iters, tol=1e-9, rng=np.random.default_rng(seed))
    wit = point / max(lat.norm(x, point), 1e-300)
    return NormEstimate(
        -value,
        math.inf,
        {"x": wit.tolist()},
        "search",
        iterations=scored,
        flags=("no-upper-certificate",),
    )


def op_norm(
    t: OperatorSpec,
    x: lat.LatticeSpec,
    y: lat.LatticeSpec,
    *,
    method: str = "auto",
    seed: int = 0,
    starts: int = 32,
    iters: int = 200,
) -> NormEstimate:
    """Operator quasi-norm of t as a map from x to y.

    Closed forms cover domains whose quasi-norm ball has usable vertex
    structure (atomic for x.p <= min(1, y.p), sign vertices for the sup
    norm, positive matrices out of the sup norm), euclidean legs
    (the largest singular value) and diagonal matrices between nested
    unweighted spaces. Everything else gets a search lower bound with an
    infinite upper side: _optim.batched_search maximizes ||t v||_y/||v||_x
    over the box [-1, 1]^n from the starts 1, the first eight e_j and seeded
    normal draws (each scaled to max-abs 1), following all `starts` of them
    as incumbents with 16 * starts rows per round and at most iters rounds
    of each stage; iterations counts the rows scored.
    """
    _shape_check(t, x, y)
    est = None
    if method in ("auto", "oracle"):
        est = _op_norm_oracle(t, x, y)
        if est is None and method == "oracle":
            raise UnsupportedExpressionError(
                "no certified closed form for this operator between these spaces"
            )
    if est is None:
        if method not in ("auto", "search"):
            raise DomainError(f"unknown method {method!r}")
        est = _op_norm_search(t, x, y, seed=seed, starts=starts, iters=iters)
    return est


def _power_sum(vals: np.ndarray, r: float) -> np.ndarray:
    """(sum_i |v_i|^r)^(1/r) over the tuple axis -2; r = inf means the sup."""
    a = np.abs(vals)
    if math.isinf(r):
        return np.max(a, axis=-2)
    if r == 1.0:
        return np.sum(a, axis=-2)
    return np.sum(a**r, axis=-2) ** (1.0 / r)


def tuple_ratio(
    t: OperatorSpec, x: lat.LatticeSpec, y: lat.LatticeSpec, xs, p: float, q: float
) -> float | np.ndarray:
    """The (p,q) tuple quotient of a tuple (k, n), or of each tuple in a
    stack (..., k, n); a single tuple (or a single vector) gives a float."""
    arr = np.asarray(xs, dtype=float)
    tuples = np.atleast_2d(arr)
    if tuples.shape[-1] != x.dim:
        raise DomainError(f"expected {x.dim} entries per vector, got {tuples.shape[-1]}")
    stack = tuples.reshape(-1, *tuples.shape[-2:])
    den = lat.norm_rows(x, _power_sum(stack, q), np.arange(x.dim))
    num = lat.norm_rows(y, _power_sum(stack @ t.matrix.T, p), np.arange(y.dim))
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return float(ratio[0]) if arr.ndim <= 2 else ratio.reshape(arr.shape[:-2])


def _check_rho_exponents(p: float, q: float) -> tuple[float, float]:
    try:
        p = float(p)
        q = float(q)
    except (TypeError, ValueError) as exc:
        raise DomainError("exponents must be numbers or inf") from exc
    if p < 1.0 or q < 1.0 or math.isnan(p) or math.isnan(q):
        raise DomainError("tuple regularity exponents live in [1, inf]")
    if math.isinf(p) and math.isinf(q):
        raise DomainError("the sup-to-sup pattern is not among the supported forms")
    return p, q


def _tuple_design(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    kind = int(rng.integers(0, 3))
    xs = rng.normal(size=(k, n))
    if kind == 1:
        xs = np.abs(xs)
    elif kind == 2:
        xs = xs * (rng.random((k, n)) < 0.6)
    xs = xs * 10.0 ** rng.uniform(-1.0, 1.0)
    if not np.any(xs):
        xs[0, 0] = 1.0
    return xs


def rho_pq(
    t: OperatorSpec,
    x: lat.LatticeSpec,
    y: lat.LatticeSpec,
    p: float,
    q: float,
    *,
    seed: int = 0,
    tuples: int = 64,
    size: int = 3,
    iters: int = 150,
) -> NormEstimate:
    """Best constant in the (p,q) tuple inequality for t between x and y.

    The aggregate on the image side raises to the p-th power (sup for
    p = inf), the source side to the q-th power; the three supported
    patterns are finite/finite, finite/sup and sup/finite. The lower bound
    is the best quotient over the operator-norm witnesses and `tuples`
    seeded random tuples, polished by _optim.batched_search: the best tuple,
    scaled to max-abs 1 and flattened, is its one seed in the box
    [-1, 1]^(k n), with `tuples` rows per round and at most iters rounds of
    each stage (iters = 0 skips the polish); iterations counts the tuples
    scored, and tuples or size below 1 raise DomainError.

    The upper side is certified in the sup/sum pattern only. A diagonal
    matrix on one space is exact (method oracle:diagonal). Every other
    matrix takes the Riesz-Kantorovich modulus |T| (entrywise absolute
    values): |T x_i| <= |T| |x_i| coordinatewise, so sup_i |T x_i| <=
    |T| sum_i |x_i| and rho <= || |T| ||_{x->y} in every monotone
    quasi-norm. Where |T| has a closed-form operator norm, that is the upper
    side (method bracket:modulus) and its witness is a candidate singleton,
    exact when |T| = T or T is diagonal. Elsewhere the upper side is
    infinite (method search).
    """
    _shape_check(t, x, y)
    p, q = _check_rho_exponents(p, q)
    _check_count("tuples", tuples)
    _check_count("size", size)

    upper = math.inf
    method = "search"
    cands = []
    if math.isinf(p) and q == 1.0:
        if t.is_diagonal and x.describe() == y.describe():
            # same space: sup_i |D x_i| = |d| sup_i |x_i| <= max|d| sum_i |x_i|,
            # and the largest diagonal axis attains it with a singleton
            d = np.abs(np.diag(t.matrix))
            j = int(np.argmax(d))
            return NormEstimate(
                d[j],
                d[j],
                {"xs": [np.eye(x.dim)[j].tolist()], "ratio": float(d[j])},
                "oracle:diagonal",
            )
        # |T x_i| <= |T| |x_i| coordinatewise, so sup_i |T x_i| <= |T| sum_i |x_i|
        modulus = _op_norm_oracle(OperatorSpec(np.abs(t.matrix)), x, y)
        if modulus is not None:
            upper = modulus.upper
            method = "bracket:modulus"
            cands.append(np.atleast_2d(np.asarray(modulus.witness["x"], dtype=float)))

    rngs = spawn_rngs(seed, tuples)
    best = 0.0
    best_xs = None
    evals = 0
    single = op_norm(t, x, y, seed=seed)
    if single.witness is not None and "x" in single.witness:
        cands.append(np.atleast_2d(np.asarray(single.witness["x"], dtype=float)))
    for i, rng in enumerate(rngs):
        k = 1 + (i % size)
        cands.append(_tuple_design(rng, k, x.dim))
    for xs in cands:
        val = tuple_ratio(t, x, y, xs, p, q)
        evals += 1
        if val > best:
            best, best_xs = val, xs
    if best_xs is not None and iters > 0:
        shape = best_xs.shape
        point, value, scored = batched_search(
            lambda rows: -tuple_ratio(t, x, y, rows.reshape(-1, *shape), p, q),
            (best_xs / np.max(np.abs(best_xs))).ravel(), lo=-1.0, hi=1.0,
            rows=tuples, keep=1, half=1.0, iters=iters, tol=1e-9,
            rng=np.random.default_rng(seed))
        evals += scored
        if -value > best:
            best, best_xs = -value, point.reshape(shape)

    flags = ("search-lower",)
    if not math.isfinite(upper):
        flags = flags + ("no-upper-certificate",)
    # search noise must not cross a certified ceiling
    lower = min(best, upper)
    witness = {
        "xs": best_xs.tolist() if best_xs is not None else None,
        "ratio": best,
    }
    return NormEstimate(lower, upper, witness, method, iterations=evals, flags=flags)


def _signed_max(
    x: lat.LatticeSpec, xs: np.ndarray, *, exact: bool, rng: np.random.Generator, samples: int = 256
) -> tuple[float, np.ndarray, str]:
    """Largest norm of a signed combination over the coefficient box.

    Convex norms peak at sign vertices, so enumerating them is exact for
    small tuples; otherwise sampled vertices and interior points only bound
    the inner maximum from below. One norm_rows call scores every candidate,
    and the first best one wins.
    """
    k = xs.shape[0]
    if exact and k <= 12:
        cands = _sign_vertices(k)
        tag = "vertex-enumeration"
    else:
        # singleton rows evaluate member norms exactly
        cands = np.vstack([np.eye(k), rng.integers(0, 2, size=(samples, k)) * 2.0 - 1.0,
                           rng.uniform(-1.0, 1.0, size=(samples // 2, k))])
        tag = "sampled"
    vals = lat.norm_rows(x, cands @ xs, np.arange(x.dim))
    i = int(np.argmax(vals))
    return float(vals[i]), cands[i], tag


def k_tuple_ratio(x: lat.LatticeSpec, xs, *, seed: int = 0) -> dict:
    """Evaluate the max-to-signed-sum quotient for one concrete tuple."""
    arr = np.atleast_2d(np.asarray(xs, dtype=float))
    num = lat.norm(x, np.max(np.abs(arr), axis=0))
    den, a, tag = _signed_max(
        x, arr, exact=_is_convex(x) and arr.shape[0] <= 12, rng=np.random.default_rng(seed)
    )
    ratio = num / den if den > 0.0 else 0.0
    return {
        "numerator": num,
        "denominator": den,
        "ratio": ratio,
        "signs": a.tolist(),
        "inner": tag,
    }


def _k_tuple_samples(rng: np.random.Generator, k: int, n: int, kind: int) -> np.ndarray:
    if kind == 1 and k <= n:
        # disjoint blocks: the lattice maximum sees the union, members only a slice
        xs = np.zeros((k, n))
        perm = rng.permutation(n)
        vals = rng.uniform(0.5, 1.5, size=n)
        for j, col in enumerate(perm):
            xs[j % k, col] = vals[j]
        return xs
    if kind == 2:
        profile = np.abs(rng.normal(size=n)) + 0.1
        signs = rng.integers(0, 2, size=(k, n)) * 2.0 - 1.0
        return profile * signs  # shared modulus, random signs: pure cancellation probes
    return rng.normal(size=(k, n))


def k_constant(
    x: lat.LatticeSpec, *, size: int | None = None, samples: int = 200, seed: int = 0
) -> NormEstimate:
    """Best constant bounding a tuple's lattice maximum by its worst signed sum.

    The quotient compares the norm of max_i |x_i| against the largest norm
    of sum_i a_i x_i over coefficients |a_i| <= 1. Search lower bounds are
    folded in only when the inner maximization is exact (convex norms, sign
    vertex enumeration); below p = 1 the sampled inner maximum makes sampled
    quotients upper-biased, so they are reported but never claimed. For the
    submeasure family the underlying function space carries coordinate
    functions with maximum of norm one and all signed sums small, which
    injects a certified lower bound that grows like n^(1/p-1).
    """
    if size is None:
        size = max(2, x.dim)
    if size < 1:
        raise DomainError("tuple size must be positive")
    _check_count("samples", samples)
    e0 = np.zeros(x.dim)
    e0[0] = 1.0
    witness: dict = {"xs": [e0.tolist()], "ratio": 1.0, "inner": "singleton"}
    if math.isinf(x.p):
        # aligning signs with the maximizing coordinate caps the quotient at one
        return NormEstimate(1.0, 1.0, witness, "oracle:sup-aligned")
    convex = _is_convex(x)
    upper = float(size) if convex else float(size) ** (1.0 / x.p)
    lower = 1.0  # the singleton quotient is one in every lattice
    method = "search"
    flags: tuple = ()
    rngs = spawn_rngs(seed, samples)
    best_sampled = 0.0
    for i, rng in enumerate(rngs):
        k = 2 + (i % max(1, size - 1)) if size > 1 else 1
        xs = _k_tuple_samples(rng, k, x.dim, i % 3)
        den, a, tag = _signed_max(x, xs, exact=convex and k <= 12, rng=rng)
        if den <= 0.0:
            continue
        num = lat.norm(x, np.max(np.abs(xs), axis=0))
        ratio = num / den
        if tag == "vertex-enumeration":
            if ratio > lower:
                lower = ratio
                witness = {"xs": xs.tolist(), "ratio": ratio, "signs": a.tolist(), "inner": tag}
        elif ratio > best_sampled:
            best_sampled = ratio
            witness["sampled"] = {"xs": xs.tolist(), "ratio": ratio, "inner": tag}
    if not convex:
        flags = flags + ("inner-max-sampled",)
    if x.family == "sub" and x.dim >= 2 and size >= x.dim:
        cert = pat.kinfty1_certificate(x.dim, x.p)
        if cert["constant_lower"] > lower:
            lower = cert["constant_lower"]
            method = "pathology-certificate"
            witness = dict(witness)
            witness["certificate"] = cert
            flags = flags + ("function-space-certificate",)
    lower = min(lower, upper)
    return NormEstimate(lower, upper, witness, method, iterations=samples, flags=flags)


def _flat_interval_certificate(n: int, p: float, eps: float, *, seed: int = 0) -> dict:
    """Indicator family over moment-curve vectors with small members.

    Members are indicators of the nonorthogonality sets of m moment-curve
    vectors. A nonzero point is orthogonal to at most n-1 of them (a degree
    n-1 polynomial has at most n-1 roots), equivalently every n-subset has
    full rank, so the member average is at least (1 - (n-1)/m) of the unit
    indicator while each member's quasi-norm stays at (1/n)^(1/p).
    """
    member_norm = (1.0 / n) ** (1.0 / p)
    m = max(n, math.ceil((n - 1) / eps))
    report: dict = {
        "members": m,
        "member_norm": member_norm,
        "mean_defect": (n - 1) / m,
        "sup_norm": 1.0,
        "moment_parameters": list(range(1, m + 1)),
        "witness": "indicators of the nonorthogonality sets of m moment-curve vectors",
    }
    if member_norm >= eps:
        report["valid"] = False
        report["reason"] = (
            f"member quasi-norm {member_norm:.6g} is not below eps={eps:g}; "
            "the construction needs n > eps**(-p)"
        )
        return report
    sp = pat.PathologySpace(n, p)
    got_sup = pat.lp_norm_simple(sp, (1.0, pat.full_sphere(n)))
    vectors = [[t**j for j in range(n)] for t in range(1, m + 1)]
    got_member = pat.lp_norm_simple(sp, (1.0, pat.b_union(n, [vectors[0]])))
    total = math.comb(m, n)
    if total <= 20000:
        subsets = itertools.combinations(range(m), n)
        mode = "exhaustive"
        checked = total
    else:
        rng = np.random.default_rng(seed)
        subsets = [tuple(sorted(rng.choice(m, size=n, replace=False))) for _ in range(2000)]
        mode = "sampled"
        checked = 2000
    full_rank = all(
        pat.submeasure(n, pat.b_union(n, [vectors[i] for i in idx])) == 1 for idx in subsets
    )
    report.update(
        {
            "valid": bool(full_rank)
            and abs(got_sup - 1.0) < 1e-12
            and abs(got_member - member_norm) < 1e-12,
            "rank_checks": checked,
            "rank_check_mode": mode,
            "verified_sup_norm": got_sup,
            "verified_member_norm": got_member,
        }
    )
    if not full_rank:
        report["reason"] = "a moment-curve subset failed the full-rank check"
    return report


def l_convexity_probe(
    x: lat.LatticeSpec, eps: float, *, trials: int = 1000, seed: int = 0, max_members: int = 8
) -> dict:
    """Randomized search for flat order intervals at a given eps.

    A hit is a tuple 0 <= x_i <= u with a unit u, coordinatewise average at
    least (1-eps)u, yet every member of quasi-norm below eps. Absence of
    hits is evidence, not proof. For the submeasure family the report also
    carries an exactly verified certificate at the function-space level.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie strictly between 0 and 1")
    _check_count("trials", trials)
    n = x.dim
    rngs = spawn_rngs(seed, trials)
    violations = []
    floor = 1.0 - eps
    for t, rng in enumerate(rngs):
        m = int(rng.integers(2, max_members + 1))
        u = rng.uniform(0.1, 1.0, size=n)
        u = u / lat.norm(x, u)
        if t % 3 == 2:
            # block indicators: coverage exactly at the allowed floor
            need = math.ceil(m * floor)
            s = np.zeros((m, n))
            for j in range(n):
                rows = rng.permutation(m)[:need]
                s[rows, j] = 1.0
        else:
            b = rng.uniform(0.0, 1.0, size=(m, n))
            col = b.mean(axis=0)
            target = eps * rng.uniform(0.5, 1.0, size=n)
            b = np.minimum(b * (target / np.maximum(col, 1e-300)), 1.0)
            s = 1.0 - b
        if np.min(s.mean(axis=0)) < floor - 1e-12:
            continue  # the clip only lowers b, but guard the invariant anyway
        norms = [lat.norm(x, u * row) for row in s]
        worst = max(norms)
        if worst < eps:
            violations.append(
                {
                    "trial": t,
                    "members": m,
                    "max_member_norm": worst,
                    "mean_floor": float(np.min(s.mean(axis=0))),
                }
            )
    certificate = None
    if x.family == "sub" and n >= 2:
        certificate = _flat_interval_certificate(n, x.p, eps, seed=seed)
    found = bool(violations) or bool(certificate is not None and certificate.get("valid"))
    return {
        "space": x.describe(),
        "epsilon": eps,
        "trials": trials,
        "violation_count": len(violations),
        "violations": violations[:10],
        "certificate": certificate,
        "found": found,
        "note": "randomized falsifier; none-found is evidence, not proof",
    }


def _leg_constants(
    t: OperatorSpec, c_dom: Couple, c_cod: Couple, seed: int
) -> tuple[NormEstimate, NormEstimate, float]:
    r0 = rho_pq(t, c_dom.x0, c_cod.x0, math.inf, 1.0, seed=seed)
    r1 = rho_pq(t, c_dom.x1, c_cod.x1, math.inf, 1.0, seed=seed + 1)
    r = max(r0.upper, r1.upper)
    if not math.isfinite(r):
        raise PreconditionError(
            "leg sup/sum constants lack finite certified uppers; "
            "the couple-level assertion would be vacuous"
        )
    return r0, r1, r


def verify_sum_regular(
    t: OperatorSpec,
    c_dom: Couple,
    c_cod: Couple,
    *,
    samples: int = 200,
    size: int = 3,
    seed: int = 0,
    tol: float = 5e-2,
) -> dict:
    """Replay the sum-space tuple bound on sampled data.

    For each sampled tuple the direct route compares the sum norm of the
    image maximum against the sum norm of the source sum; the constructive
    route splits the source witness proportionally and pushes each piece
    through its own leg. Both quotients are asserted against twice the
    worse certified leg constant.
    """
    _shape_check(t, c_dom, c_cod)
    _check_count("samples", samples)
    r0, r1, r = _leg_constants(t, c_dom, c_cod, seed)
    bound = 2.0 * r
    rngs = spawn_rngs(seed + 2, samples)
    worst = 0.0
    worst_con = 0.0
    worst_wit = None
    split_one_ok = True
    split_two_ok = True
    weak_denominators = 0
    violations = 0
    n = c_dom.dim
    for i, rng in enumerate(rngs):
        k = 1 + (i % max(1, size))
        zs = _tuple_design(rng, k, n)
        total = np.sum(np.abs(zs), axis=0)
        den = sum_norm(c_dom, total, seed=seed)
        if den.upper <= 0.0:
            continue
        den_ref = den.lower
        if den_ref <= 0.0:
            den_ref = den.upper
            weak_denominators += 1
        sup_im = np.max(np.abs(zs @ t.matrix.T), axis=0)
        num = sum_norm(c_cod, sup_im, seed=seed)
        ratio = num.upper / den_ref

        part0 = np.clip(np.abs(np.asarray(den.witness["x0"], dtype=float)), 0.0, total)
        part1 = total - part0
        pieces = lat.riesz_decompose(
            [lat.vector(c_dom.x0, z) for z in zs],
            lat.vector(c_dom.x0, part0),
            lat.vector(c_dom.x0, part1),
        )
        us = np.array([pc[0].entries for pc in pieces])
        vs = np.array([pc[1].entries for pc in pieces])
        if np.any(np.sum(np.abs(us), axis=0) > part0 * (1.0 + 1e-12) + 1e-300):
            split_one_ok = False
        if np.any(np.sum(np.abs(us), axis=0) > 2.0 * part0 * (1.0 + 1e-12) + 1e-300):
            split_two_ok = False
        sup0 = np.max(np.abs(us @ t.matrix.T), axis=0)
        sup1 = np.max(np.abs(vs @ t.matrix.T), axis=0)
        con = (lat.norm(c_cod.x0, sup0) + lat.norm(c_cod.x1, sup1)) / den_ref

        if ratio > worst:
            worst = ratio
            worst_wit = {"tuple": zs.tolist(), "ratio": ratio, "constructive": con}
        worst_con = max(worst_con, con)
        if ratio > bound * (1.0 + tol) or con > bound * (1.0 + tol):
            violations += 1
    return {
        "legs": {
            "rho0": [r0.lower, r0.upper],
            "rho1": [r1.lower, r1.upper],
        },
        "bound": bound,
        "tolerance": tol,
        "samples": samples,
        "worst_ratio": worst,
        "worst_constructive": worst_con,
        "split_factor_one": split_one_ok,
        "split_factor_two": split_two_ok,
        "weak_denominators": weak_denominators,
        "violations": violations,
        "worst_witness": worst_wit,
        "pass": violations == 0,
        "note": "sampled falsifier; a pass is evidence, not proof",
    }


def _interpolation_pass(
    t: OperatorSpec,
    c_dom: Couple,
    c_cod: Couple,
    f: InterpolationFunction,
    bound: float,
    *,
    samples: int,
    size: int,
    seed: int,
    tol: float,
) -> dict:
    rngs = spawn_rngs(seed, samples)
    worst = 0.0
    worst_wit = None
    skipped = 0
    violations = 0
    n = c_dom.dim
    for i, rng in enumerate(rngs):
        k = 1 + (i % max(1, size))
        xs = _tuple_design(rng, k, n)
        total = np.sum(np.abs(xs), axis=0)
        dom_est = cl_norm(c_dom, f, total, seed=seed, certify_lower=False)
        if (
            not math.isfinite(dom_est.upper)
            or dom_est.upper <= 0.0
            or "infeasible" in dom_est.flags
        ):
            skipped += 1
            continue
        xs = xs / dom_est.upper
        sup_im = np.max(np.abs(xs @ t.matrix.T), axis=0)
        cod_est = cl_norm(c_cod, f, sup_im, seed=seed, certify_lower=False)
        if not math.isfinite(cod_est.upper) or "infeasible" in cod_est.flags:
            skipped += 1
            continue
        ratio = cod_est.upper  # the domain side is rescaled to norm at most one
        if ratio > worst:
            worst = ratio
            worst_wit = {"tuple": xs.tolist(), "ratio": ratio}
        if ratio > bound * (1.0 + tol):
            violations += 1
    return {
        "samples": samples,
        "skipped": skipped,
        "worst_ratio": worst,
        "violations": violations,
        "worst_witness": worst_wit,
        "pass": violations == 0,
    }


def verify_interpolation(
    t: OperatorSpec,
    c_dom: Couple,
    c_cod: Couple,
    f: InterpolationFunction,
    *,
    samples: int = 200,
    size: int = 3,
    seed: int = 0,
    tol: float = 5e-2,
) -> dict:
    """Replay the interpolated sup/sum bound with the proof constants.

    Tuples are rescaled so the source sum has parameter-space norm at most
    one; the parameter-space norm of the image maximum is then asserted
    against 2(2+gamma)R, where gamma = 3+2*sqrt(2) and R is the worse
    certified leg constant. A second pass redraws tuples inside the
    intersection; in finite dimension the two statements coincide, so the
    computation is identical and only the anchor differs.
    """
    _shape_check(t, c_dom, c_cod)
    _check_count("samples", samples)
    r0, r1, r = _leg_constants(t, c_dom, c_cod, seed)
    bound = 2.0 * (2.0 + TUPLE_BOUND_GAMMA) * r
    main = _interpolation_pass(
        t, c_dom, c_cod, f, bound, samples=samples, size=size, seed=seed + 10, tol=tol
    )
    variant = _interpolation_pass(
        t, c_dom, c_cod, f, bound, samples=samples, size=size, seed=seed + 11, tol=tol
    )
    variant["anchor"] = "closure-variant"
    return {
        "gamma": TUPLE_BOUND_GAMMA,
        "legs": {
            "rho0": [r0.lower, r0.upper],
            "rho1": [r1.lower, r1.upper],
        },
        "R": r,
        "bound": bound,
        "tolerance": tol,
        "samples": main["samples"],
        "skipped": main["skipped"],
        "worst_ratio": main["worst_ratio"],
        "violations": main["violations"],
        "worst_witness": main["worst_witness"],
        "variant": variant,
        "pass": main["pass"] and variant["pass"],
        "note": "sampled falsifier; a pass is evidence, not proof",
    }
