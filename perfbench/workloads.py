"""Seeded inputs, operations and independent checks for each workload.

A workload is a fixed list of operations whose make-up (couples, functions,
dimensions, sample counts) is the same for every seed; the seed draws the
vectors, matrices, weights and the seeds handed to the program. Every check
recomputes what it needs (lattice quasi-norms, phi, closed forms) with the
code in this file, never with clinterp's own helpers, and runs after the
timed section.

Operations call clinterp through module attributes (``cp.cl_norm``, not a
name imported from the module), so the traced run sees them once the layer
wrappers are installed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from clinterp import couple as cp
from clinterp import lattice as lat
from clinterp import operators as ops
from clinterp import pathology as pa
from clinterp import quasiconcave as qc

REL = 1e-12  # relative slack for roundoff in the witness and bracket checks
GAMMA = 3.0 + 2.0 * math.sqrt(2.0)  # tuple-bound constant 2(2 + gamma)R
VERIFY_TOL = 5e-2  # tolerance of the sampled replays (their default)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run`` calls clinterp; ``check`` inspects its
    output afterwards, given also the outputs of the whole round (None for
    an operation that raised), and returns None when it is right, else a
    reason."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, list], str | None]


@dataclass(frozen=True)
class Workload:
    ops: list
    warmup: Callable[[], Any]


# ---------------------------------------------------------------------------
# reference lattices and functions, written apart from the program


@dataclass(frozen=True)
class Leg:
    """A lattice as the benchmark sees it: descriptor plus its own norm."""

    desc: str
    family: str  # "lp" | "wlp" | "linf" | "sub"
    p: float
    dim: int
    weights: tuple = ()

    def spec(self) -> lat.LatticeSpec:
        return lat.parse_lattice(self.desc)

    def norm(self, x) -> float:
        a = np.abs(np.asarray(x, dtype=float))
        if self.family == "linf":
            return float(np.max(a))
        if self.family == "wlp":
            return float(np.sum(np.asarray(self.weights) * a**self.p) ** (1.0 / self.p))
        if self.family == "sub":
            # the L_p(phi_n) norm of a vector is its normalized lp norm
            return float(np.mean(a**self.p) ** (1.0 / self.p))
        return float(np.sum(a**self.p) ** (1.0 / self.p))


def lp_leg(p: float, dim: int) -> Leg:
    if math.isinf(p):
        return Leg(f"linf:{dim}", "linf", math.inf, dim)
    return Leg(f"lp:{p:g}:{dim}", "lp", p, dim)


def wlp_leg(p: float, weights) -> Leg:
    w = tuple(float(v) for v in weights)
    return Leg(f"wlp:{p:g}:{len(w)}:" + ",".join(repr(v) for v in w), "wlp", p, len(w), w)


def sub_leg(p: float, n: int) -> Leg:
    return Leg(f"sub:{p:g}:{n}", "sub", p, n)


def couple_of(x0: Leg, x1: Leg) -> cp.Couple:
    return cp.Couple(x0.spec(), x1.spec())


Phi = Callable[[np.ndarray, np.ndarray], np.ndarray]


def phi_power(theta: float) -> Phi:
    return lambda s, t: s ** (1.0 - theta) * t**theta


def phi_min(s, t):
    return np.minimum(s, t)


def phi_harmonic(s, t):
    total = s + t
    return np.where(total > 0.0, s * t / np.where(total > 0.0, total, 1.0), 0.0)


def phi_capped(theta: float) -> Phi:
    return lambda s, t: np.minimum(s, s ** (1.0 - theta) * t**theta)


def swapped(phi: Phi) -> Phi:
    return lambda s, t: phi(t, s)


def replay_witness(est, x, x0: Leg, x1: Leg, phi: Phi) -> str | None:
    """The witness (u, v, lam) must lie in the unit balls and dominate |x|."""
    w = est.witness or {}
    if not {"u", "v", "lam"} <= set(w):
        return "estimate carries no (u, v, lam) witness"
    u = np.asarray(w["u"], dtype=float)
    v = np.asarray(w["v"], dtype=float)
    lam = float(w["lam"])
    a = np.abs(np.asarray(x, dtype=float))
    if lam != est.upper:
        return f"witness lam {lam!r} differs from the upper bound {est.upper!r}"
    if np.any(u < 0.0) or np.any(v < 0.0):
        return "witness has negative entries"
    if x0.norm(u) > 1.0 + REL or x1.norm(v) > 1.0 + REL:
        return f"witness leaves the unit balls: {x0.norm(u)!r}, {x1.norm(v)!r}"
    if not np.all(a <= lam * phi(u, v) * (1.0 + REL) + 1e-300):
        return "lam * phi(u, v) fails to dominate |x|"
    return None


def bracket_contains(est, value: float) -> str | None:
    if not est.lower <= est.upper:
        return f"lower {est.lower!r} above upper {est.upper!r}"
    if not est.lower * (1.0 - REL) <= value <= est.upper * (1.0 + REL):
        return f"[{est.lower!r}, {est.upper!r}] misses the closed form {value!r}"
    return None


def first_failure(*reasons) -> str | None:
    return next((r for r in reasons if r is not None), None)


def search_warmup():
    """One small certified bracket: scipy's minimizer, the inner inversion
    and the certificate all run once before the timed section."""
    c = couple_of(lp_leg(1.0, 1), lp_leg(2.0, 1))
    return cp.cl_norm(c, qc.power(0.5), [1.0], method="optimize", starts=1, iters=5)


# ---------------------------------------------------------------------------
# bracket: certified brackets with closed forms, as in acceptance criterion 03

BRACKET_LEGS = {"l1": 1.0, "l2": 2.0, "linf": math.inf, "lhalf": 0.5}
BRACKET_PHIS = ((0.25,), (0.5,), (0.75,), ())  # power(theta) ..., then min
BRACKET_COUNT = 8


def _bracket(rng: np.random.Generator) -> Workload:
    pairs = list(itertools.combinations(BRACKET_LEGS, 2))
    ops_: list[Op] = []
    for i in range(BRACKET_COUNT):
        n0, n1 = pairs[i % len(pairs)]
        d = (2, 3, 4)[i % 3]
        params = BRACKET_PHIS[i % len(BRACKET_PHIS)]
        x0, x1 = lp_leg(BRACKET_LEGS[n0], d), lp_leg(BRACKET_LEGS[n1], d)
        x = rng.uniform(0.1, 2.0, size=d)
        search_seed = int(rng.integers(2**31))
        if params:
            (theta,) = params
            inv_r = (1.0 - theta) / x0.p + theta / x1.p
            exact = lp_leg(1.0 / inv_r, d).norm(x)
            phi, f, name = phi_power(theta), qc.power(theta), f"power:{theta:g}"
        else:
            exact = max(x0.norm(x), x1.norm(x))
            phi, f, name = phi_min, qc.min_function(), "min"

        def run(x0=x0, x1=x1, f=f, x=x, s=search_seed):
            return cp.cl_norm(couple_of(x0, x1), f, x, method="optimize", seed=s)

        def check(est, rnd, x0=x0, x1=x1, phi=phi, x=x, exact=exact):
            gap = (est.upper - est.lower) / est.upper
            return first_failure(
                bracket_contains(est, exact),
                None if gap <= 1e-3 else f"relative gap {gap:.3e} above 1e-3",
                replay_witness(est, x, x0, x1, phi),
            )

        ops_.append(Op(f"cl_norm {name} {x0.desc}|{x1.desc}", run, check))

    return Workload(ops_, search_warmup)


# ---------------------------------------------------------------------------
# certify: families without an oracle, each bracketed on both sides of the
# mirror identity ||x||_{phi; X0, X1} = ||x||_{mirror phi; X1, X0}

CERTIFY_CASES = (
    # (x0, x1, family, theta). Most pairs certify in one box, so the median
    # operation is a search-bound bracket; the last two pairs put the time
    # into branch-and-bound, one converging after 1e5 boxes and one spending
    # the whole box budget. Box counts depend on the case, little on the seed.
    ((1.0, 4), (2.0, 4), "cappedpower", 0.25),
    ((1.0, 3), (2.0, 3), "cappedpower", 0.5),
    ((1.0, 3), (0.5, 3), "mirrorcapped", 0.5),
    ((1.0, 4), (0.5, 4), "mirrorcapped", 0.5),
    ((1.0, 4), (0.5, 4), "harmonic", None),
    ((2.0, 4), (1.0, 4), "cappedpower", 0.5),
)


def _certify_function(family: str, theta):
    """(program function, own phi, phi(1,1)) for one certify family."""
    if family == "harmonic":
        return qc.harmonic(), phi_harmonic, 0.5
    capped = qc.capped_power(theta)
    if family == "cappedpower":
        return capped, phi_capped(theta), 1.0
    return qc.mirror(capped), swapped(phi_capped(theta)), 1.0


def _certify(rng: np.random.Generator) -> Workload:
    ops_: list[Op] = []
    for (p0, d), (p1, _), family, theta in CERTIFY_CASES:
        x0, x1 = lp_leg(p0, d), lp_leg(p1, d)
        f, phi, phi_11 = _certify_function(family, theta)
        name = family if theta is None else f"{family}:{theta:g}"
        # harmonic is symmetric; its mirror wrapper would leave the closed
        # inverse for brentq, so the swapped side keeps harmonic itself
        f_swap = f if family == "harmonic" else qc.mirror(f)
        x = rng.uniform(0.1, 2.0, size=d)
        ceiling = max(x0.norm(x), x1.norm(x)) / phi_11  # ||x||_phi <= ||x||_cap / phi(1,1)
        sides = (((x0, x1), f, phi, f"{x0.desc}|{x1.desc}"),
                 ((x1, x0), f_swap, swapped(phi), f"{x1.desc}|{x0.desc} mirrored"))
        for side, (legs, fn, ph, where) in enumerate(sides):
            partner = len(ops_) + 1 - 2 * side  # index of the other side's op

            def run(legs=legs, fn=fn, x=x, s=int(rng.integers(2**31))):
                return cp.cl_norm(couple_of(*legs), fn, x, method="optimize", seed=s)

            def check(est, rnd, legs=legs, ph=ph, x=x, ceiling=ceiling, partner=partner):
                other = rnd[partner]
                overlap = None
                if other is None:
                    overlap = "the mirrored bracket is missing"
                elif max(est.lower, other.lower) > min(est.upper, other.upper) * (1.0 + REL):
                    overlap = (f"mirrored brackets [{est.lower!r}, {est.upper!r}] and "
                               f"[{other.lower!r}, {other.upper!r}] do not overlap")
                return first_failure(
                    None if est.lower <= est.upper else "lower above upper",
                    None if est.lower <= ceiling * (1.0 + REL) else
                    f"lower {est.lower!r} above ||x||_cap/phi(1,1) = {ceiling!r}",
                    overlap,
                    replay_witness(est, x, *legs, ph),
                )

            ops_.append(Op(f"cl_norm {name} {where}", run, check))

    return Workload(ops_, search_warmup)


# ---------------------------------------------------------------------------
# replay: the paper's sampled replays and constructions, no certificate


def _check_interpolation(rep, rnd) -> str | None:
    r = max(rep["legs"]["rho0"][1], rep["legs"]["rho1"][1])
    bound = 2.0 * (2.0 + GAMMA) * r
    if abs(rep["bound"] - bound) > REL * bound:
        return f"bound {rep['bound']!r} is not 2(2+gamma)R = {bound!r}"
    for name, part in (("main", rep), ("variant", rep["variant"])):
        if part["violations"] != 0 or part["worst_ratio"] > bound * (1.0 + VERIFY_TOL):
            return f"{name} pass: {part['violations']} violations, worst {part['worst_ratio']!r}"
    return None


def _check_sum_regular(rep, rnd) -> str | None:
    bound = 2.0 * max(rep["legs"]["rho0"][1], rep["legs"]["rho1"][1])
    if abs(rep["bound"] - bound) > REL * bound:
        return f"bound {rep['bound']!r} is not twice the worse leg, {bound!r}"
    worst = max(rep["worst_ratio"], rep["worst_constructive"])
    if rep["violations"] != 0 or worst > bound * (1.0 + VERIFY_TOL):
        return f"{rep['violations']} violations, worst {worst!r} against {bound!r}"
    if not (rep["split_factor_one"] and rep["split_factor_two"]):
        return "proportional split broke its mass bounds"
    return None


def _check_factorization(out, x, x0: Leg, x1: Leg, phi: Phi) -> str | None:
    fv, gv, _ = out
    f_vec, g_vec = np.asarray(fv.entries), np.asarray(gv.entries)
    err = float(np.max(np.abs(phi(f_vec, g_vec) - x)))
    if not err <= 1e-12:
        return f"recomposition error {err!r} above 1e-12"
    if not (math.isfinite(x0.norm(f_vec)) and math.isfinite(x1.norm(g_vec))):
        return "factor norms are not finite"
    return None


def _check_equivalence(rep, rnd) -> str | None:
    lo, hi = 0.5 / (1.0 + VERIFY_TOL), 2.0 * (1.0 + VERIFY_TOL)
    for rec in rep["samples"]:
        ratio = rec["phi"] / rec["split"]
        if not lo <= ratio <= hi:
            return f"ratio {ratio!r} outside [{lo!r}, {hi!r}]"
    return None


# the factorizations are the cheapest operations and outnumber the rest, so
# the median operation is a factorization round trip for every seed
FACTORIZATIONS = 6


def _replay(rng: np.random.Generator) -> Workload:
    ops_: list[Op] = []
    c4 = (lp_leg(1.0, 4), lp_leg(math.inf, 4))
    for name, f in (("harmonic", qc.harmonic()), ("cappedpower:0.5", qc.capped_power(0.5))):
        matrix = rng.uniform(0.05, 2.0, size=(4, 4))
        s = int(rng.integers(2**31))

        def run(matrix=matrix, f=f, s=s):
            c = couple_of(*c4)
            return ops.verify_interpolation(ops.OperatorSpec(matrix), c, c, f, samples=1, seed=s)

        ops_.append(Op(f"verify_interpolation {name}", run, _check_interpolation))

    weights = rng.uniform(0.5, 2.0, size=3)
    cw = (wlp_leg(1.0, weights), lp_leg(2.0, 3))
    matrix = rng.uniform(0.05, 2.0, size=(3, 3))
    s = int(rng.integers(2**31))

    def run_sum(matrix=matrix, s=s):
        c = couple_of(*cw)
        return ops.verify_sum_regular(ops.OperatorSpec(matrix), c, c, samples=4, seed=s)

    ops_.append(Op("verify_sum_regular", run_sum, _check_sum_regular))

    capped = qc.capped_power(0.5)
    families = (("cappedpower:0.5", capped, phi_capped(0.5)),
                ("mirror(cappedpower:0.5)", qc.mirror(capped), swapped(phi_capped(0.5))))
    for i in range(FACTORIZATIONS):
        name, f, phi = families[i % 2]
        x = np.concatenate([rng.uniform(0.05, 1.0, 3), [0.0]])
        # ||x||_phi <= ||x||_cap / phi(1,1) = ||x||_cap, so this x is inside the ball
        x = 0.5 * x / max(c4[0].norm(x), c4[1].norm(x))

        def run_fact(f=f, x=x, s=int(rng.integers(2**31))):
            return cp.factorize(couple_of(*c4), f, x, seed=s)

        ops_.append(Op(f"factorize {name}", run_fact,
                       lambda out, rnd, x=x, phi=phi: _check_factorization(out, x, *c4, phi)))

    c2 = (lp_leg(1.0, 2), lp_leg(math.inf, 2))
    x = rng.uniform(0.1, 2.0, size=2)
    s = int(rng.integers(2**31))

    def run_equiv(x=x, s=s):
        return cp.phi_space_equivalence(couple_of(*c2), qc.affine_power(1.0, 1.0, 0.5), [x],
                                        seed=s, tol=VERIFY_TOL)

    ops_.append(Op("phi_space_equivalence affinepower:1,1,0.5", run_equiv, _check_equivalence))

    return Workload(ops_, search_warmup)


# ---------------------------------------------------------------------------
# submeasure: the exact-rational L_p(phi_n) lattice

# batches of sub-norm evaluations outnumber the other operations, so the
# median operation is one batch through the layer-cake path for every seed
NORM_BATCHES = 5
NORM_BATCH = 100


def _submeasure(rng: np.random.Generator) -> Workload:
    ops_: list[Op] = []
    s4 = sub_leg(0.5, 4)
    for _ in range(NORM_BATCHES):
        vecs = rng.uniform(0.0, 2.0, size=(NORM_BATCH, 4))
        vecs[rng.random(size=vecs.shape) < 0.25] = 0.0  # fewer layers, ties at zero

        def run_norms(vecs=vecs):
            spec = s4.spec()
            return [lat.norm(spec, v) for v in vecs]

        def check_norms(vals, rnd, vecs=vecs):
            for v, got in zip(vecs, vals):
                ref = s4.norm(v)
                if abs(got - ref) > REL * ref:
                    return f"sub norm {got!r} differs from (mean |a|^p)^(1/p) = {ref!r}"
            return None

        ops_.append(Op(f"lattice.norm x{NORM_BATCH} {s4.desc}", run_norms, check_norms))

    for leg in (s4, sub_leg(0.75, 3)):
        s = int(rng.integers(2**31))
        floor = leg.dim ** (1.0 / leg.p - 1.0)

        def check_k(est, rnd, floor=floor):
            if not floor * (1.0 - REL) <= est.lower <= est.upper:
                return f"k_constant [{est.lower!r}, {est.upper!r}] below n^(1/p-1) = {floor!r}"
            return None

        ops_.append(Op(f"k_constant {leg.desc}",
                       lambda leg=leg, s=s: ops.k_constant(leg.spec(), samples=10, seed=s),
                       check_k))

    eps = 0.25
    probe_seed = int(rng.integers(2**31))

    def check_probe(rep, rnd):
        cert = rep["certificate"] or {}
        member = (1.0 / s4.dim) ** (1.0 / s4.p)
        if not (cert.get("valid") and rep["found"]):
            return "flat-interval certificate is not valid"
        if not member < eps:
            return f"member norm {member!r} is not below eps"
        if abs(cert["verified_member_norm"] - member) > REL * member:
            return f"member norm {cert['verified_member_norm']!r}, expected {member!r}"
        if abs(cert["verified_sup_norm"] - 1.0) > REL:
            return f"sup norm {cert['verified_sup_norm']!r}, expected 1"
        return None

    ops_.append(Op(f"l_convexity_probe {s4.desc}",
                   lambda: ops.l_convexity_probe(s4.spec(), eps, trials=100, seed=probe_seed),
                   check_probe))

    legs = (s4, lp_leg(2.0, 4))
    x = rng.uniform(0.1, 2.0, size=4)
    sum_seed = int(rng.integers(2**31))

    def check_sum(est, rnd):
        smaller = min(legs[0].norm(x), legs[1].norm(x))
        x0 = np.asarray(est.witness["x0"], dtype=float)
        split = legs[0].norm(x0) + legs[1].norm(np.abs(x) - x0)
        if not est.lower <= est.upper <= smaller * (1.0 + REL):
            return f"sum bracket [{est.lower!r}, {est.upper!r}] above the smaller leg {smaller!r}"
        if np.any(x0 < 0.0) or np.any(x0 > np.abs(x)) or abs(split - est.upper) > 1e-9 * est.upper:
            return f"split witness gives {split!r}, not the upper bound {est.upper!r}"
        return None

    ops_.append(Op(f"sum_norm {legs[0].desc}|{legs[1].desc}",
                   lambda: cp.sum_norm(couple_of(*legs), x, seed=sum_seed, starts=8), check_sum))

    def check_cert(rep, rnd, n=4, p=0.5):
        ref = n ** (1.0 / p - 1.0)
        if rep["sup_norm"] != 1.0 or abs(rep["constant_lower"] - ref) > REL * ref:
            return f"certificate {rep['sup_norm']!r}, {rep['constant_lower']!r}; expected 1, {ref!r}"
        return None

    ops_.append(Op("kinfty1_certificate n=4 p=0.5",
                   lambda: pa.kinfty1_certificate(4, 0.5), check_cert))

    def warmup():
        return lat.norm(sub_leg(0.5, 2).spec(), [1.0, 0.5])

    return Workload(ops_, warmup)


BUILDERS = {
    "bracket": _bracket,
    "certify": _certify,
    "replay": _replay,
    "submeasure": _submeasure,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](np.random.default_rng(seed))
