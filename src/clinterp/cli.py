"""Command-line front end: parse descriptors, run checks, emit JSON reports.

Reports are deterministic for a fixed seed: the wall-clock field is the only
part allowed to differ between identical runs. Exit code 0 means every check
passed, 2 means at least one check failed, 1 means the invocation itself was
bad (usage, descriptors, preconditions).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import couple as cp
from . import lattice as lat
from . import operators as ops
from . import pathology as pat
from . import quasiconcave as qc
from .errors import ClinterpError, DescriptorError, DomainError


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the report contract reserves 2
    # for failed checks, so route usage problems through the error channel
    def error(self, message):
        raise DescriptorError(message)


def _sample_count(args) -> int:
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")
    return args.samples


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, cp.NormEstimate):
        return _sanitize(
            {
                "lower": obj.lower,
                "upper": obj.upper,
                "method": obj.method,
                "iterations": obj.iterations,
                "flags": list(obj.flags),
                "witness": obj.witness,
            }
        )
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def _check(name, anchor, passed, *, values=None, bound=None, margin=None, witness=None):
    return {
        "name": name,
        "anchor": anchor,
        "values": _sanitize(values) if values is not None else None,
        "bound": _sanitize(bound),
        "margin": _sanitize(margin),
        "pass": bool(passed),
        "witness": _sanitize(witness) if witness is not None else None,
    }


def _run_checks(thunks, workers: int):
    if workers > 1 and len(thunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda fn: fn(), thunks))
    return [fn() for fn in thunks]


def _parse_vector(text: str) -> np.ndarray:
    try:
        x = np.asarray([float(p) for p in text.replace(",", " ").split()], dtype=float)
    except ValueError as exc:
        raise DescriptorError(f"bad vector {text!r}") from exc
    if not np.all(np.isfinite(x)):
        raise DescriptorError(f"vector entries must be finite: {text!r}")
    return x


def _load_matrix(text: str) -> np.ndarray:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    return ops.parse_matrix(text)


# ---------------------------------------------------------------------------
# decompose


def _bk_grid(d) -> np.ndarray:
    finite = [t for t in d.nodes if 0.0 < t < math.inf]
    lo = d.covered_lo if d.covered_lo > 0.0 else min(finite) * 1e-2
    hi = d.covered_hi if math.isfinite(d.covered_hi) else max(finite) * 1e2
    if hi <= lo:
        hi = lo * 10.0
    return np.geomspace(lo, hi, 65)


def _recurrence_check(d, tol: float = 1e-9):
    g = d.function
    qp = d.q_prime
    worst = 0.0
    count = 0
    lo_j, hi_j = 2 * d.k_min, 2 * d.k_max + 2

    def val(t):
        return float(qc.phi1(g, t))

    def slo(t):
        return float(qc.phi1(g, t)) / t

    for j in range(lo_j, hi_j + 1):
        t = d.node(j)
        if not (0.0 < t < math.inf) or j == 1:
            continue
        if j >= 2:
            t_prev = d.node(j - 1)
            if not (0.0 < t_prev < math.inf):
                continue
            if j % 2 == 0:
                ref = qp * val(t_prev)
                got = val(t)
            else:
                ref = slo(t_prev) / qp
                got = slo(t)
        else:
            t_next = d.node(j + 1)
            if not (0.0 < t_next < math.inf):
                continue
            if j % 2 == 0:
                ref = qp * slo(t_next)
                got = slo(t)
            else:
                ref = val(t_next) / qp
                got = val(t)
        if ref <= 0.0 or not math.isfinite(ref):
            continue
        worst = max(worst, abs(got - ref) / ref)
        count += 1
    return worst, count


def _cmd_decompose(args):
    f = qc.parse_phi(args.phi)
    d = qc.bk_decompose(f, args.q, depth=args.depth)
    grid = _bk_grid(d)
    rep = qc.verify_bk(d, f, grid)
    tol = args.tol if args.tol is not None else 1e-9

    def recurrence():
        worst, count = _recurrence_check(d, tol)
        return _check(
            "marching-recurrence",
            "node-recurrence",
            worst <= tol,
            values={"worst_rel_err": worst, "relations_checked": count, "q_prime": d.q_prime},
            bound=tol,
            margin=tol - worst,
        )

    def sum_bound():
        rec = rep["sum_bound"]
        return _check(
            "two-sided-sum-bound",
            "node-sum-bound",
            rec["pass"],
            values={"max_ratio": rec["max_ratio"], "argmax_t": rec["argmax_t"]},
            bound=rec["bound"],
            margin=rec["bound"] - rec["max_ratio"],
        )

    def local_bound():
        rec = rep["local_bound"]
        worst = max(rec["max_value_ratio"], rec["max_slope_ratio"])
        return _check(
            "per-interval-bound",
            "node-local-bound",
            rec["pass"],
            values=rec,
            bound=1.0,
            margin=1.0 - worst,
        )

    def slacks():
        return _check(
            "slack-signs",
            "slack-positivity",
            rep["slack_positivity"]["pass"],
            values={"intervals": d.k_max - d.k_min + 1},
        )

    checks = _run_checks([recurrence, sum_bound, local_bound, slacks], args.workers)
    config = {
        "phi": args.phi,
        "q": d.q,
        "q_prime": d.q_prime,
        "alpha": d.alpha,
        "depth": args.depth,
        "bottom_kind": d.bottom_kind,
        "top_kind": d.top_kind,
        "M": d.M,
        "N": d.N,
        "coverage": [rep["coverage"]["covered_lo"], rep["coverage"]["covered_hi"]],
        "majorant_gap": d.majorant_gap,
    }
    if args.csv:
        rows = [(t, float(qc.phi1(f, t)), float(qc.phi1(d.function, t)), 0) for t in grid]
        rows += [
            (t, float(qc.phi1(f, t)), float(qc.phi1(d.function, t)), 1)
            for t in d.nodes
            if 0.0 < t < math.inf
        ]
        rows.sort()
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "phi1", "envelope", "node"])
            writer.writerows(rows)
    return config, checks


# ---------------------------------------------------------------------------
# norm


def _cmd_norm(args):
    x = _parse_vector(args.x)
    tol = args.tol if args.tol is not None else 1e-9
    config = {"kind": args.kind, "x": x.tolist()}
    checks = []
    if args.kind == "lattice":
        if not args.space:
            raise DescriptorError("norm lattice needs --space")
        sp = lat.parse_lattice(args.space)
        config["space"] = sp.describe()
        val = lat.norm(sp, x)
        doubled = lat.norm(sp, 2.0 * x)
        checks.append(
            _check(
                "evaluation",
                "lattice-quasinorm",
                math.isfinite(val) and val >= 0.0,
                values={"value": val},
            )
        )
        err = abs(doubled - 2.0 * val) / max(2.0 * val, 1e-300)
        checks.append(
            _check(
                "homogeneity",
                "lattice-quasinorm",
                err <= tol,
                values={"value": val, "doubled": doubled},
                bound=tol,
                margin=tol - err,
            )
        )
        config["value"] = val
        return config, checks

    if not args.couple:
        raise DescriptorError(f"norm {args.kind} needs --couple")
    c = cp.parse_couple(args.couple)
    config["couple"] = c.describe()
    if args.kind == "sum":
        est = cp.sum_norm(c, x, seed=args.seed, starts=args.starts, iters=args.iters)
        x0 = np.asarray(est.witness["x0"], dtype=float)
        x1 = np.abs(x) - x0
        recomposed = lat.norm(c.x0, x0) + lat.norm(c.x1, x1)
        err = abs(recomposed - est.upper) / max(est.upper, 1e-300)
        checks.append(
            _check(
                "bracket-order",
                "sum-split-optimality",
                est.lower <= est.upper * (1.0 + 1e-12),
                values=est,
            )
        )
        checks.append(
            _check(
                "witness-recompose",
                "split-recompose",
                err <= tol,
                values={"recomposed": recomposed, "upper": est.upper},
                bound=tol,
                margin=tol - err,
            )
        )
        config["value"] = est.upper
    elif args.kind == "inter":
        val = cp.intersection_norm(c, x)
        legs = max(lat.norm(c.x0, np.abs(x)), lat.norm(c.x1, np.abs(x)))
        checks.append(
            _check(
                "max-of-legs",
                "intersection-norm",
                val == legs,
                values={"value": val, "legs_max": legs},
            )
        )
        config["value"] = val
    elif args.kind == "cl":
        if not args.phi:
            raise DescriptorError("norm cl needs --phi")
        f = qc.parse_phi(args.phi)
        config["phi"] = args.phi
        est = cp.cl_norm(c, f, x, seed=args.seed, starts=args.starts, iters=args.iters)
        checks.append(
            _check(
                "bracket-order",
                "cl-bracket",
                est.lower <= est.upper * (1.0 + 1e-9),
                values=est,
                margin=est.upper - est.lower,
            )
        )
        wit = est.witness or {}
        if {"u", "v", "lam"} <= set(wit) and math.isfinite(est.upper) and est.upper > 0.0:
            u = np.asarray(wit["u"], dtype=float)
            v = np.asarray(wit["v"], dtype=float)
            lam = float(wit["lam"])
            dominated = bool(
                np.all(np.abs(x) <= lam * np.asarray(qc.eval_phi(f, u, v)) * (1.0 + 1e-6) + 1e-300)
            )
            feasible = (
                lat.norm(c.x0, u) <= 1.0 + 1e-6 and lat.norm(c.x1, v) <= 1.0 + 1e-6
            )
            checks.append(
                _check(
                    "witness-replay",
                    "cl-bracket",
                    dominated and feasible,
                    values={
                        "lam": lam,
                        "u_norm": lat.norm(c.x0, u),
                        "v_norm": lat.norm(c.x1, v),
                    },
                )
            )
        config["value"] = [est.lower, est.upper]
    else:
        raise DescriptorError(f"unknown norm kind {args.kind!r}")
    return config, checks


# ---------------------------------------------------------------------------
# split


def _cmd_split(args):
    f = qc.parse_phi(args.phi)
    pair = qc.split_convex_part(f)
    grid = np.geomspace(1e-6, 1e6, 241)
    worst = 0.0
    for t in grid:
        whole = float(qc.phi1(f, t))
        parts = float(qc.phi1(pair.pl_part, t)) + float(qc.phi1(pair.eta_part, t))
        worst = max(worst, abs(parts - whole) / max(whole, 1e-300))
    checks = [
        _check(
            "recompose-on-grid",
            "split-recompose",
            worst <= 1e-12,
            values={
                "worst_rel_err": worst,
                "pl_family": pair.pl_part.family,
                "eta_family": pair.eta_part.family,
            },
            bound=1e-12,
            margin=1e-12 - worst,
        )
    ]
    config = {
        "phi": args.phi,
        "pl_family": pair.pl_part.family,
        "eta_family": pair.eta_part.family,
    }
    if args.couple:
        c = cp.parse_couple(args.couple)
        config["couple"] = c.describe()
        rng = np.random.default_rng(args.seed)
        samples = [rng.uniform(0.1, 2.0, c.dim) for _ in range(args.samples)]
        tol = args.tol if args.tol is not None else 5e-2
        rep = cp.phi_space_equivalence(
            c, f, samples, seed=args.seed, starts=args.starts, iters=args.iters, tol=tol
        )
        checks.append(
            _check(
                "two-sided-factor",
                "phi-sum-equivalence",
                rep["pass"],
                values={
                    "worst_ratio_high": rep["worst_ratio_high"],
                    "worst_ratio_low": rep["worst_ratio_low"],
                    "samples": len(samples),
                },
                bound=rep["bound"],
                margin=rep["bound"] - rep["worst_ratio_high"],
            )
        )
    return config, checks


# ---------------------------------------------------------------------------
# rho / kconst / lconvex


def _cmd_rho(args):
    t = ops.OperatorSpec(_load_matrix(args.matrix))
    x = lat.parse_lattice(args.domain)
    y = lat.parse_lattice(args.codomain)
    p = math.inf if args.p.lower() in ("inf", "infinity") else float(args.p)
    q = math.inf if args.q.lower() in ("inf", "infinity") else float(args.q)
    est = ops.rho_pq(t, x, y, p, q, seed=args.seed, tuples=args.samples, iters=args.iters)
    single = ops.op_norm(t, x, y, seed=args.seed)
    checks = [
        _check(
            "bracket-order",
            "rho-bracket",
            est.lower <= est.upper * (1.0 + 1e-12),
            values=est,
        ),
        _check(
            "singleton-consistency",
            "opnorm-below-rho",
            single.lower <= est.upper * (1.0 + 1e-9),
            values={"op_norm_lower": single.lower, "rho_upper": est.upper},
        ),
    ]
    if est.witness and est.witness.get("xs") is not None:
        replay = ops.tuple_ratio(t, x, y, np.asarray(est.witness["xs"]), p, q)
        err = abs(replay - est.witness["ratio"]) / max(est.witness["ratio"], 1e-300)
        checks.append(
            _check(
                "witness-replay",
                "rho-bracket",
                err <= 1e-9,
                values={"replayed": replay, "reported": est.witness["ratio"]},
                bound=1e-9,
                margin=1e-9 - err,
            )
        )
    config = {
        "matrix": t.matrix.tolist(),
        "domain": x.describe(),
        "codomain": y.describe(),
        "p": p,
        "q": q,
        "estimate": est,
    }
    return config, checks


def _cmd_kconst(args):
    sp = lat.parse_lattice(args.space)
    est = ops.k_constant(sp, size=args.size, samples=args.samples, seed=args.seed)
    checks = [
        _check(
            "bracket-order",
            "k-constant-bracket",
            1.0 - 1e-12 <= est.lower <= est.upper * (1.0 + 1e-12),
            values=est,
        )
    ]
    if sp.family == "sub":
        target = float(sp.dim) ** (1.0 / sp.p - 1.0)
        checks.append(
            _check(
                "certified-growth",
                "k-constant-growth",
                est.lower >= target * (1.0 - 1e-9),
                values={"lower": est.lower, "target": target},
                bound=target,
                margin=est.lower - target,
            )
        )
    config = {
        "space": sp.describe(),
        "size": args.size,
        "samples": args.samples,
        "estimate": est,
    }
    return config, checks


def _cmd_lconvex(args):
    sp = lat.parse_lattice(args.space)
    rep = ops.l_convexity_probe(sp, args.eps, trials=args.samples, seed=args.seed)
    consistent = all(v["max_member_norm"] < args.eps for v in rep["violations"])
    checks = [
        _check(
            "violation-witnesses",
            "l-convexity-probe",
            consistent,
            values={"violation_count": rep["violation_count"], "found": rep["found"]},
            bound=args.eps,
        )
    ]
    cert = rep.get("certificate")
    if cert is not None:
        if cert.get("valid"):
            ok = (
                abs(cert["verified_sup_norm"] - 1.0) <= 1e-12
                and abs(cert["verified_member_norm"] - cert["member_norm"]) <= 1e-12
                and cert["mean_defect"] <= args.eps + 1e-12
            )
            values = {
                "members": cert["members"],
                "member_norm": cert["member_norm"],
                "mean_defect": cert["mean_defect"],
            }
        else:
            ok = bool(cert.get("reason"))
            values = {"reason": cert.get("reason")}
        checks.append(_check("structured-family", "certificate-bounds", ok, values=values))
    config = {"space": sp.describe(), "eps": args.eps, "trials": args.samples, "report": rep}
    return config, checks


# ---------------------------------------------------------------------------
# verify


def _both_couples(args):
    if args.couple:
        return cp.parse_couple(args.couple), cp.parse_couple(args.couple)
    if not (args.dom and args.cod):
        raise DescriptorError("verify needs --couple or both --dom and --cod")
    return cp.parse_couple(args.dom), cp.parse_couple(args.cod)


def _cmd_verify(args):
    tol = args.tol if args.tol is not None else 5e-2
    if args.kind == "sumreg":
        t = ops.OperatorSpec(_load_matrix(args.matrix))
        c_dom, c_cod = _both_couples(args)
        rep = ops.verify_sum_regular(
            t, c_dom, c_cod, samples=args.samples, seed=args.seed, tol=tol
        )
        checks = [
            _check(
                "tuple-quotients",
                "sum-regular-factor-2",
                rep["violations"] == 0,
                values={
                    "worst_ratio": rep["worst_ratio"],
                    "worst_constructive": rep["worst_constructive"],
                    "samples": rep["samples"],
                },
                bound=rep["bound"],
                margin=rep["bound"] - max(rep["worst_ratio"], rep["worst_constructive"]),
                witness=rep["worst_witness"],
            ),
            _check(
                "split-mass-exact",
                "riesz-split-factor-1",
                rep["split_factor_one"],
                values={"legs": rep["legs"]},
            ),
            _check(
                "split-mass-doubled",
                "riesz-split-factor-2",
                rep["split_factor_two"],
                values=None,
            ),
        ]
        config = {
            "matrix": t.matrix.tolist(),
            "dom": c_dom.describe(),
            "cod": c_cod.describe(),
            "bound": rep["bound"],
            "samples": args.samples,
        }
        return config, checks
    if args.kind == "interp":
        if not args.phi:
            raise DescriptorError("verify interp needs --phi")
        t = ops.OperatorSpec(_load_matrix(args.matrix))
        c_dom, c_cod = _both_couples(args)
        f = qc.parse_phi(args.phi)
        rep = ops.verify_interpolation(
            t, c_dom, c_cod, f, samples=args.samples, seed=args.seed, tol=tol
        )
        gamma = ops.TUPLE_BOUND_GAMMA
        checks = [
            _check(
                "tuple-quotients",
                "interpolation-bound",
                rep["violations"] == 0,
                values={
                    "worst_ratio": rep["worst_ratio"],
                    "samples": rep["samples"],
                    "skipped": rep["skipped"],
                    "R": rep["R"],
                },
                bound=rep["bound"],
                margin=rep["bound"] - rep["worst_ratio"],
                witness=rep["worst_witness"],
            ),
            _check(
                "restricted-resample",
                "closure-variant",
                rep["variant"]["pass"],
                values={
                    "worst_ratio": rep["variant"]["worst_ratio"],
                    "samples": rep["variant"]["samples"],
                    "skipped": rep["variant"]["skipped"],
                },
                bound=rep["bound"],
                margin=rep["bound"] - rep["variant"]["worst_ratio"],
            ),
            _check(
                "proof-constant",
                "gamma-constant",
                abs(rep["bound"] - 2.0 * (2.0 + gamma) * rep["R"]) <= 1e-12 * rep["bound"],
                values={"gamma": gamma, "R": rep["R"], "bound": rep["bound"]},
            ),
        ]
        config = {
            "matrix": t.matrix.tolist(),
            "dom": c_dom.describe(),
            "cod": c_cod.describe(),
            "phi": args.phi,
            "samples": args.samples,
        }
        return config, checks
    if args.kind == "factorize":
        if not (args.couple and args.phi):
            raise DescriptorError("verify factorize needs --couple and --phi")
        c = cp.parse_couple(args.couple)
        f = qc.parse_phi(args.phi)
        config = {"couple": c.describe(), "phi": args.phi, "samples": args.samples}
        if qc.is_doubly_bounded(f)["doubly_bounded"]:
            try:
                cp.factorize(c, f, np.ones(c.dim), seed=args.seed)
                rejected = False
            except ClinterpError:
                rejected = True
            return config, [
                _check(
                    "bounded-both-sides-rejected",
                    "double-bound-collapse",
                    rejected,
                    values={"phi": args.phi},
                )
            ]
        rng = np.random.default_rng(args.seed)
        worst_err = 0.0
        norms_finite = True
        ran = 0
        for _ in range(_sample_count(args)):
            a = rng.uniform(0.1, 2.0, c.dim)
            est = cp.cl_norm(c, f, a, seed=args.seed, certify_lower=False)
            if not (math.isfinite(est.upper) and est.upper > 0.0):
                continue
            a = a / (2.0 * est.upper)
            fv, gv, rep = cp.factorize(c, f, a, seed=args.seed)
            worst_err = max(worst_err, rep["identity_error"] / max(np.max(a), 1e-300))
            norms_finite &= math.isfinite(rep["f_norm_X0"]) and math.isfinite(rep["g_norm_X1"])
            ran += 1
        checks = [
            _check(
                "identity-roundtrip",
                "factorization-identity",
                ran > 0 and worst_err <= 1e-12,
                values={"instances": ran, "worst_rel_err": worst_err},
                bound=1e-12,
                margin=1e-12 - worst_err,
            ),
            _check(
                "reported-norms-finite",
                "factorization-norms",
                norms_finite,
                values={"instances": ran},
            ),
        ]
        return config, checks
    if args.kind == "approx":
        if not (args.couple and args.phi):
            raise DescriptorError("verify approx needs --couple and --phi")
        c = cp.parse_couple(args.couple)
        f = qc.parse_phi(args.phi)
        d = qc.bk_decompose(f, args.q, depth=args.depth)
        rng = np.random.default_rng(args.seed)
        u0 = rng.uniform(0.2, 2.0, c.dim)
        u1 = rng.uniform(0.2, 2.0, c.dim)
        u0 = u0 / max(lat.norm(c.x0, u0), 1e-300)
        u1 = u1 / max(lat.norm(c.x1, u1), 1e-300)
        base = np.asarray(qc.eval_phi(f, u0, u1), dtype=float)
        n_vec = min(_sample_count(args), 8)
        xs = [base * rng.uniform(0.2, 1.0, c.dim) / n_vec for _ in range(n_vec)]
        max_m = args.depth
        if d.top_kind == "truncated":
            max_m = min(max_m, d.k_max)
        if d.bottom_kind == "truncated":
            max_m = min(max_m, -d.k_min)
        bands = list(range(0, max_m + 1))
        a_seq = []
        exact_ok = True
        h0_ok = True
        h1_ok = True
        for m in bands:
            tr = cp.approximation_sequence(c, f, xs, u0, u1, d, m)
            a_seq.append(tr.a_m)
            exact_ok &= (
                tr.checks["i_pass"] and tr.checks["ii_pass"] and tr.checks["partition_pass"]
            )
            h0_ok &= tr.audits["F0_pass"]
            h1_ok &= tr.audits["F1_pass"]
        mono = all(a_seq[i + 1] <= a_seq[i] * (1.0 + 1e-12) for i in range(len(a_seq) - 1))
        checks = [
            _check(
                "bandwise-exactness",
                "approximation-exactness",
                exact_ok,
                values={"bands": bands, "vectors": n_vec},
            ),
            _check(
                "tail-amplitude-monotone",
                "approximation-tail",
                mono,
                values={"a_m": a_seq},
            ),
            _check("mass-audit-low", "mass-audit-h0", h0_ok, values=None),
            _check("mass-audit-high", "mass-audit-h1", h1_ok, values=None),
        ]
        config = {
            "couple": c.describe(),
            "phi": args.phi,
            "q": args.q,
            "depth": args.depth,
            "a_m": a_seq,
        }
        return config, checks
    raise DescriptorError(f"unknown verify kind {args.kind!r}")


# ---------------------------------------------------------------------------
# pathology


def _cmd_pathology(args):
    if args.kind == "submeasure":
        if not args.set:
            raise DescriptorError("pathology submeasure needs --set")
        expr = pat.parse_set(args.set)
        val = pat.submeasure(expr.n, expr)
        checks = [
            _check(
                "normalized-range",
                "submeasure-normalization",
                Fraction(0) <= val <= Fraction(1) and (expr.kind != "full" or val == 1),
                values={"value": val},
            )
        ]
        if expr.n <= 4:
            brute = Fraction(pat.minimal_cover_brute(expr), expr.n)
            checks.append(
                _check(
                    "rank-vs-cover",
                    "submeasure-rank",
                    val == brute,
                    values={"rank_formula": val, "brute_cover": brute},
                )
            )
        config = {"set": args.set, "n": expr.n, "value": val}
        return config, checks
    if args.kind == "lpnorm":
        if not (args.n and args.p and args.layers):
            raise DescriptorError("pathology lpnorm needs --n, --p and --layers")
        sp = pat.PathologySpace(args.n, args.p)
        layers = []
        for chunk in args.layers.split("+"):
            coef_text, _, set_text = chunk.strip().partition("@")
            try:
                coef = float(coef_text)
            except ValueError as exc:
                raise DescriptorError(f"bad layer coefficient {coef_text!r}") from exc
            layers.append((coef, pat.parse_set(set_text.strip())))
        val = pat.lp_norm_simple(sp, layers)
        checks = [
            _check(
                "evaluation",
                "layer-cake-value",
                math.isfinite(val) and val >= 0.0,
                values={"value": val, "layers": len(layers)},
            )
        ]
        config = {"n": args.n, "p": args.p, "layers": args.layers, "value": val}
        return config, checks
    if args.kind == "certificate":
        if not (args.n and args.p):
            raise DescriptorError("pathology certificate needs --n and --p")
        cert = pat.kinfty1_certificate(args.n, args.p)
        dom = float(args.n) ** (1.0 - 1.0 / args.p)
        low = float(args.n) ** (1.0 / args.p - 1.0)
        ok = (
            cert["sup_norm"] == 1.0
            and abs(cert["domination_bound"] - dom) <= 1e-12 * max(dom, 1.0)
            and abs(cert["constant_lower"] - low) <= 1e-12 * max(low, 1.0)
        )
        checks = [
            _check(
                "closed-form-bounds",
                "certificate-bounds",
                ok,
                values=cert,
                bound=low,
            )
        ]
        config = {"n": args.n, "p": args.p, "constant_lower": cert["constant_lower"]}
        return config, checks
    raise DescriptorError(f"unknown pathology kind {args.kind!r}")


# ---------------------------------------------------------------------------
# driver


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--starts", type=int, default=32)
    sp.add_argument("--iters", type=int, default=200)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--depth", type=int, default=8)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--csv", type=str, default=None)
    sp.add_argument("--workers", type=int, default=1)


def _build_parser() -> _Parser:
    p = _Parser(prog="clinterp", description="interpolation lattice laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="two-sided node decomposition of a function")
    d.add_argument("phi")
    d.add_argument("--q", type=float, required=True)
    _add_common(d)

    n = sub.add_parser("norm", help="norm queries")
    n.add_argument("kind", choices=["lattice", "sum", "inter", "cl"])
    n.add_argument("--space", type=str, default=None)
    n.add_argument("--couple", type=str, default=None)
    n.add_argument("--phi", type=str, default=None)
    n.add_argument("--x", type=str, required=True)
    _add_common(n)

    s = sub.add_parser("split", help="piecewise-linear plus vanishing split")
    s.add_argument("--phi", type=str, required=True)
    s.add_argument("--couple", type=str, default=None)
    _add_common(s)

    r = sub.add_parser("rho", help="tuple regularity constant")
    r.add_argument("--matrix", type=str, required=True)
    r.add_argument("--domain", type=str, required=True)
    r.add_argument("--codomain", type=str, required=True)
    r.add_argument("--p", type=str, required=True)
    r.add_argument("--q", type=str, required=True)
    _add_common(r)

    k = sub.add_parser("kconst", help="max-vs-signed-sum constant")
    k.add_argument("--space", type=str, required=True)
    k.add_argument("--size", type=int, default=None)
    _add_common(k)

    lc = sub.add_parser("lconvex", help="flat order interval probe")
    lc.add_argument("--space", type=str, required=True)
    lc.add_argument("--eps", type=float, required=True)
    _add_common(lc)

    v = sub.add_parser("verify", help="sampled verification suites")
    v.add_argument("kind", choices=["sumreg", "interp", "factorize", "approx"])
    v.add_argument("--matrix", type=str, default=None)
    v.add_argument("--couple", type=str, default=None)
    v.add_argument("--dom", type=str, default=None)
    v.add_argument("--cod", type=str, default=None)
    v.add_argument("--phi", type=str, default=None)
    v.add_argument("--q", type=float, default=4.0)
    _add_common(v)

    pa = sub.add_parser("pathology", help="submeasure family computations")
    pa.add_argument("kind", choices=["submeasure", "lpnorm", "certificate"])
    pa.add_argument("--set", type=str, default=None)
    pa.add_argument("--n", type=int, default=None)
    pa.add_argument("--p", type=float, default=None)
    pa.add_argument("--layers", type=str, default=None)
    _add_common(pa)
    return p


_DISPATCH = {
    "decompose": _cmd_decompose,
    "norm": _cmd_norm,
    "split": _cmd_split,
    "rho": _cmd_rho,
    "kconst": _cmd_kconst,
    "lconvex": _cmd_lconvex,
    "verify": _cmd_verify,
    "pathology": _cmd_pathology,
}


def run(args) -> dict:
    t0 = time.monotonic()
    config, checks = _DISPATCH[args.command](args)
    passed = sum(1 for c in checks if c["pass"])
    return {
        "command": args.command,
        "config": _sanitize(
            {
                **config,
                "seed": args.seed,
                "starts": args.starts,
                "iters": args.iters,
                "samples": args.samples,
                "depth": args.depth,
            }
        ),
        "checks": checks,
        "totals": {"checks": len(checks), "passed": passed, "failed": len(checks) - passed},
        "wall_clock_s": round(time.monotonic() - t0, 6),
    }


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except DescriptorError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        report = run(args)
    except ClinterpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if report["totals"]["failed"] == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
