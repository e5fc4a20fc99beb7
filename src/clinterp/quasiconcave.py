"""Calculus of interpolation functions.

An interpolation function phi(s, t) is positively homogeneous and nondecreasing
in each argument on (0, inf)^2, hence determined by its restriction
phi1(t) = phi(1, t), which is nondecreasing while phi1(t)/t is nonincreasing.
This module provides the closed-form families, evaluation with the continuous
boundary extension to the axes, concave envelopes, the two-sided node/slack
decomposition that approximates phi by sums of min(s, t/t_k) pieces, the
doubly-bounded test, and the split of phi1 into its piecewise-linear part
(carrying the boundary limits) plus a part with vanishing limits.

Each function carries four boundary constants:

    phi1_at_zero       lim phi1(t)   as t -> 0+
    phi1_sup           sup phi1      (= limit at +inf)
    slope_sup          sup phi1(t)/t (= limit at 0+; equals sup of phi0)
    slope_at_infinity  inf phi1(t)/t (= limit at +inf; equals phi0(0+))

and the boundary extension is phi(s, 0) = s * phi1_at_zero,
phi(0, t) = t * slope_at_infinity, phi(0, 0) = 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DescriptorError,
    DomainError,
    InvalidFunctionError,
    SolverError,
    VerificationError,
)
from ._optim import bisect_largest

_INF = float("inf")
_REL = 1e-13  # relative guard when comparing marching targets to boundary limits


@dataclass(frozen=True)
class InterpolationFunction:
    """A quasiconcave interpolation function given through phi1."""

    family: str
    params: tuple
    phi1_at_zero: float
    phi1_sup: float
    slope_sup: float
    slope_at_infinity: float
    normalization: float
    concave: bool
    estimated_limits: bool = False

    def __repr__(self) -> str:  # params can hold nested functions or long tables
        inner = ",".join(repr(p) for p in self.params if not isinstance(p, tuple))
        return f"InterpolationFunction({self.family}{':' if inner else ''}{inner})"


# ---------------------------------------------------------------------------
# families


def _phi1_raw(f: InterpolationFunction, t: np.ndarray) -> np.ndarray:
    fam = f.family
    if fam == "power":
        theta, coef = f.params
        return coef * t**theta
    if fam == "min":
        return np.minimum(1.0, t)
    if fam == "harmonic":
        return t / (1.0 + t)
    if fam == "affinepower":
        a, b, theta = f.params
        return a + b * t**theta
    if fam == "cappedpower":
        (theta,) = f.params
        return np.minimum(1.0, t**theta)
    form = _pl_form(f)
    if form is not None:
        ts, ys, tail = form
        return np.interp(t, ts, ys) + tail * np.maximum(t - ts[-1], 0.0)
    if fam == "mirror":
        (g,) = f.params
        return t * phi1(g, 1.0 / t)
    raise InvalidFunctionError(f"unknown family {fam!r}")


def _pl_form(f: InterpolationFunction) -> tuple[np.ndarray, np.ndarray, float] | None:
    """phi1 of a piecewise-linear family as (knots, values, tail slope), or None.

    The knots start at 0 and the values are nondecreasing; phi1 interpolates
    them linearly and continues past the last knot with the tail slope. Both
    _phi1_raw and invert_phi read max, sum, plmax, plmin, hull, tabulated,
    zero and their mirrors from this one form. On a segment
    phi1(s) = alpha + beta s the mirror is t phi1(1/t) = alpha t + beta, so
    the mirror of a form is the form with knots 1/t_k, values y_k/t_k and
    tail slope y_0, led by the knot 0 with the old tail slope as its value.
    """
    fam, params = f.family, f.params
    if fam == "mirror":
        inner = _pl_form(params[0])
        if inner is None:
            return None
        ts, ys, tail = inner
        return (np.concatenate(([0.0], 1.0 / ts[:0:-1])),
                np.concatenate(([tail], ys[:0:-1] / ts[:0:-1])), float(ys[0]))
    if fam == "tabulated":
        # max_k y_k min(1, t/t_k) is y_k from t_k until the ray y_{k+1} t/t_{k+1}
        # crosses it; the repaired y_k/t_k are nonincreasing
        ts, ys = np.asarray(params[0]), np.asarray(params[1])
        cross = np.clip(ys[:-1] * ts[1:] / ys[1:], ts[:-1], ts[1:])
        knots = np.concatenate(([0.0, ts[0]], np.column_stack([cross, ts[1:]]).ravel()))
        values = np.concatenate(([0.0, ys[0]], np.column_stack([ys[:-1], ys[1:]]).ravel()))
        return knots, values, 0.0
    if fam == "plmax":
        a, b = params
        form = ((0.0, a / b), (a, a), b) if a > 0.0 and b > 0.0 else ((0.0,), (a,), b)
    elif fam == "plmin":
        a, b = params
        form = (0.0, a / b), (0.0, a), 0.0
    elif fam == "hull":
        form = params[0], params[1], 0.0
    else:
        form = {"max": ((0.0, 1.0), (1.0, 1.0), 1.0),
                "sum": ((0.0,), (1.0,), 1.0),
                "zero": ((0.0,), (0.0,), 0.0)}.get(fam)
        if form is None:
            return None
    return np.asarray(form[0], dtype=float), np.asarray(form[1], dtype=float), float(form[2])


def invert_phi(f: InterpolationFunction, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest t >= 0 with phi(u, t) >= c, for positive finite arrays u, c.

    Exact up to rounding, and inf where phi(u, .) saturates below c:

    - the piecewise-linear families (max, sum, plmax, plmin, hull, tabulated,
      zero and their mirrors): t = u phi1^-1(c/u), one linear solve on the
      segment that searchsorted finds in the values of _pl_form;
    - power, min and harmonic in closed form;
    - affinepower(a, b, theta), phi(u, t) = a u + b u^(1-theta) t^theta:
      t = u (max(c/u - a, 0)/b)^(1/theta), so t = 0 where c <= a u;
    - cappedpower(theta), phi(u, t) = min(u, u^(1-theta) t^theta):
      t = u (c/u)^(1/theta) for c <= u, inf above;
    - mirror(cappedpower(theta)), phi(u, t) = min(t, t^(1-theta) u^theta):
      t = max(c, (c u^-theta)^(1/(1-theta))), computed as
      c max(1, (c/u)^(theta/(1-theta))); theta = 1 is the plain min;
      power_piece describes these last two and power as one power piece;
    - mirror(affinepower(a, b, theta)), phi(u, t) = a t + b u^theta t^(1-theta):
      t = max(c - b u, 0)/a for theta = 1; otherwise Newton steps on
      z = log t for log(a e^z + b u^theta e^((1-theta) z)) = log c. That
      function is convex and increasing in z, so from an upper bound of the
      root every step decreases z and none passes the root.
    """
    form = _pl_form(f)
    if form is not None:
        ts, ys, tail = form
        r = c / u
        i = np.searchsorted(ys, r)  # the first knot whose value reaches r
        k = np.maximum(i, 1) - 1  # the segment ending there; past the last knot, the tail
        dt = np.append(np.diff(ts), 1.0)[k]
        dy = np.append(np.diff(ys), tail)[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(dy > 0.0, ts[k] + (r - ys[k]) * (dt / dy), _INF)
        return u * np.where(i == 0, 0.0, s)
    fam, params = f.family, f.params
    if fam == "mirror" and params[0].family == "affinepower":
        a, b, th = params[0].params
        if th == 1.0:
            return np.maximum(c - b * u, 0.0) / a
        bu = b * u**th
        target = np.log(c)
        with np.errstate(divide="ignore", over="ignore"):
            z = np.minimum(np.log(c / a), np.log(c / bu) / (1.0 - th))
        for _ in range(100):
            lin, pw = a * np.exp(z), bu * np.exp((1.0 - th) * z)
            step = (np.log(lin + pw) - target) * (lin + pw) / (lin + (1.0 - th) * pw)
            z_next = z - np.maximum(step, 0.0)  # a negative step is rounding at the root
            if np.array_equal(z_next, z):
                break
            z = z_next
        return np.exp(z)
    if fam == "mirror" and params[0].family == "cappedpower":
        (th,) = params[0].params
        if th == 1.0:
            fam = "min"
        else:
            with np.errstate(over="ignore"):
                return c * np.maximum(1.0, (c / u) ** (th / (1.0 - th)))
    if fam == "power":
        th, coef = params
        scaled = c / coef
        if th == 0.0:
            return np.where(u >= scaled, 0.0, _INF)
        if th == 1.0:
            return scaled
        with np.errstate(over="ignore"):
            return (scaled / u ** (1.0 - th)) ** (1.0 / th)
    if fam == "min":
        return np.where(u >= c, c, _INF)
    if fam == "harmonic":
        # u t / (u + t) >= c  <=>  t (u - c) >= c u
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(c < u, c * u / (u - c), _INF)
    if fam == "affinepower":
        a, b, th = params
        with np.errstate(over="ignore"):
            return u * (np.maximum(c / u - a, 0.0) / b) ** (1.0 / th)
    if fam == "cappedpower":
        (th,) = params
        return np.where(c <= u, u * np.minimum(c / u, 1.0) ** (1.0 / th), _INF)
    raise InvalidFunctionError(f"no second-argument inverse for family {fam!r}")


def power_piece(f: InterpolationFunction) -> tuple[float, float, float, float] | None:
    """(theta, coef, A, L) when invert_phi(f, u, c) is one power piece.

    That is, with 0 < theta < 1 and beta = (1-theta)/theta,

        t = max(A c, (c/coef)^(1/theta) u^(-beta))  for u >= L c,  inf below,

    which is what invert_phi computes for power(theta, coef) (A = L = 0),
    cappedpower(theta) (coef = 1, A = 0, L = 1: saturation at c = u) and
    mirror(cappedpower(theta)) (theta -> 1 - theta, coef = 1, A = 1, L = 0).
    None for every other function, and for the exponents 0 and 1.
    """
    fam, params = f.family, f.params
    if fam == "power":
        (th, coef), a, low = params, 0.0, 0.0
    elif fam == "cappedpower":
        (th,), coef, a, low = params, 1.0, 0.0, 1.0
    elif fam == "mirror" and params[0].family == "cappedpower":
        th, coef, a, low = 1.0 - params[0].params[0], 1.0, 1.0, 0.0
    else:
        return None
    return (th, coef, a, low) if 0.0 < th < 1.0 else None


def phi1(f: InterpolationFunction, t) -> np.ndarray | float:
    """phi(1, t) for t > 0 (vectorized)."""
    ta = np.asarray(t, dtype=float)
    out = _phi1_raw(f, np.atleast_1d(ta))
    return float(out[0]) if ta.ndim == 0 else out


def phi0(f: InterpolationFunction, t) -> np.ndarray | float:
    """phi(t, 1) = t * phi1(1/t) for t > 0."""
    ta = np.asarray(t, dtype=float)
    return ta * phi1(f, 1.0 / ta)


def slope(f: InterpolationFunction, t) -> np.ndarray | float:
    """phi1(t)/t, nonincreasing in t."""
    ta = np.asarray(t, dtype=float)
    return phi1(f, ta) / ta


def _make(family: str, params: tuple, a: float, b: float, c: float, d: float,
          concave: bool, estimated: bool = False) -> InterpolationFunction:
    probe = InterpolationFunction(family, params, a, b, c, d, 1.0, concave, estimated)
    return InterpolationFunction(family, params, a, b, c, d, float(phi1(probe, 1.0)),
                                 concave, estimated)


def power(theta: float, coef: float = 1.0) -> InterpolationFunction:
    if not 0.0 <= theta <= 1.0 or coef <= 0:
        raise DomainError(f"power family needs theta in [0,1], coef > 0, got {theta}, {coef}")
    a = coef if theta == 0.0 else 0.0
    b = coef if theta == 0.0 else _INF
    c = coef if theta == 1.0 else _INF
    d = coef if theta == 1.0 else 0.0
    return _make("power", (float(theta), float(coef)), a, b, c, d, True)


def min_function() -> InterpolationFunction:
    return _make("min", (), 0.0, 1.0, 1.0, 0.0, True)


def max_function() -> InterpolationFunction:
    return _make("max", (), 1.0, _INF, _INF, 1.0, False)


def sum_function() -> InterpolationFunction:
    return _make("sum", (), 1.0, _INF, _INF, 1.0, True)


def harmonic() -> InterpolationFunction:
    # phi(s,t) = st/(s+t); phi(1,1) = 1/2 is recorded, not rescaled away
    return _make("harmonic", (), 0.0, 1.0, 1.0, 0.0, True)


def affine_power(a: float, b: float, theta: float) -> InterpolationFunction:
    if a < 0 or b <= 0 or not 0.0 < theta <= 1.0:
        raise DomainError(f"affinepower needs a >= 0, b > 0, theta in (0,1], got {a},{b},{theta}")
    if a == 0:
        return power(theta, b)
    c = _INF  # a > 0 makes phi1(t)/t blow up at 0
    d = b if theta == 1.0 else 0.0
    return _make("affinepower", (float(a), float(b), float(theta)), a, _INF, c, d, True)


def pl_max(a: float, b: float) -> InterpolationFunction:
    """max(a, b*t): the piecewise-linear function carrying boundary limits a, b."""
    if a < 0 or b < 0:
        raise DomainError("pl_max needs nonnegative parameters")
    if a == 0 and b == 0:
        return zero_function()
    bb = _INF if b > 0 else a
    cc = _INF if a > 0 else b
    # a single linear piece is concave; a genuine max of two is not
    concave = (a == 0.0) or (b == 0.0)
    return _make("plmax", (float(a), float(b)), a, bb, cc, b, concave)


def pl_min(a: float, b: float) -> InterpolationFunction:
    """min(a, b*t): bounded with bounded slope, vanishing limits."""
    if a <= 0 or b <= 0:
        raise DomainError("pl_min needs positive parameters")
    return _make("plmin", (float(a), float(b)), 0.0, a, b, 0.0, True)


def capped_power(theta: float) -> InterpolationFunction:
    if not 0.0 < theta <= 1.0:
        raise DomainError("cappedpower needs theta in (0,1]")
    c = 1.0 if theta == 1.0 else _INF
    return _make("cappedpower", (float(theta),), 0.0, 1.0, c, 0.0, True)


def zero_function() -> InterpolationFunction:
    return InterpolationFunction("zero", (), 0.0, 0.0, 0.0, 0.0, 0.0, True)


def tabulated(ts: Iterable[float], ys: Iterable[float]) -> InterpolationFunction:
    """Sampled phi1 values, repaired to the least quasiconcave majorant.

    The repaired function is max_j y_j * min(1, t/t_j): linear through the
    origin below the grid and constant above it, so both boundary limits
    vanish and the sup constants are finite grid extrapolations, flagged as
    estimates.
    """
    ta = np.asarray(list(ts), dtype=float)
    ya = np.asarray(list(ys), dtype=float)
    if ta.ndim != 1 or ta.shape != ya.shape or len(ta) < 2:
        raise InvalidFunctionError("tabulated input needs two equal-length columns, >= 2 rows")
    if not (np.all(np.diff(ta) > 0) and np.all(ta > 0)):
        raise InvalidFunctionError("tabulated grid must be positive and strictly increasing")
    if np.any(ya < 0) or not np.any(ya > 0):
        raise InvalidFunctionError("tabulated values must be nonnegative and not all zero")
    repaired = np.max(ya[None, :] * np.minimum(1.0, ta[:, None] / ta[None, :]), axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(ya > 0, repaired / ya - 1.0, 0.0)
    repair = float(np.max(rel))
    b = float(repaired[-1])
    c = float(np.max(repaired / ta))
    return _make("tabulated", (tuple(ta), tuple(repaired), repair), 0.0, b, c, 0.0,
                 False, estimated=True)


def hull_function(knot_t: Iterable[float], knot_y: Iterable[float]) -> InterpolationFunction:
    """Concave piecewise-linear function: knots from t=0, constant tail."""
    ts = tuple(float(t) for t in knot_t)
    ys = tuple(float(y) for y in knot_y)
    if len(ts) < 2 or ts[0] != 0.0:
        raise InvalidFunctionError("hull knots must start at t = 0")
    slopes = np.diff(ys) / np.diff(ts)
    if np.any(np.diff(ts) <= 0) or np.any(slopes < -1e-15) or np.any(np.diff(slopes) > 1e-12 * max(abs(s) for s in slopes)):
        raise InvalidFunctionError("hull knots must be increasing with nonincreasing slopes")
    a = ys[0]
    b = ys[-1]  # constant tail
    c = _INF if a > 0 else float(slopes[0])
    return _make("hull", (ts, ys), a, b, c, 0.0, True)


def mirror(f: InterpolationFunction) -> InterpolationFunction:
    """The argument swap phi~(s,t) = phi(t,s), i.e. phi~1 = phi0."""
    if f.family == "mirror":
        return f.params[0]
    if f.family == "power":
        theta, coef = f.params
        return power(1.0 - theta, coef)
    if f.family == "plmax":
        a, b = f.params
        return pl_max(b, a)
    if f.family in ("min", "max", "sum", "zero", "harmonic"):
        return f  # symmetric
    return InterpolationFunction(
        "mirror", (f,),
        f.slope_at_infinity, f.slope_sup, f.phi1_sup, f.phi1_at_zero,
        f.normalization, f.concave, f.estimated_limits,
    )


def has_vanishing_limits(f: InterpolationFunction) -> bool:
    return f.phi1_at_zero == 0.0 and f.slope_at_infinity == 0.0


def parse_phi(text: str) -> InterpolationFunction:
    """Parse a function descriptor: power:theta, min, max, sum, harmonic,
    affinepower:a,b,theta, table:<csv path>."""
    head, _, rest = text.strip().partition(":")
    try:
        if head == "power":
            return power(float(rest))
        if head == "min":
            return min_function()
        if head == "max":
            return max_function()
        if head == "sum":
            return sum_function()
        if head == "harmonic":
            return harmonic()
        if head == "affinepower":
            a, b, theta = (float(x) for x in rest.split(","))
            return affine_power(a, b, theta)
        if head == "table":
            with open(rest, newline="") as fh:
                rows = [(float(r[0]), float(r[1])) for r in csv.reader(fh) if r]
            return tabulated([r[0] for r in rows], [r[1] for r in rows])
    except (ValueError, OSError) as exc:
        raise DescriptorError(f"bad function descriptor {text!r}: {exc}") from exc
    raise DescriptorError(f"unknown function family in descriptor {text!r}")


# ---------------------------------------------------------------------------
# evaluation with boundary extension


def eval_phi(f: InterpolationFunction, s, t):
    """phi(s, t) on [0, inf)^2 via the continuous boundary extension."""
    sa = np.asarray(s, dtype=float)
    ta = np.asarray(t, dtype=float)
    scalar = sa.ndim == 0 and ta.ndim == 0
    sa, ta = np.broadcast_arrays(np.atleast_1d(sa), np.atleast_1d(ta))
    if not (np.all(np.isfinite(sa)) and np.all(np.isfinite(ta))):
        raise DomainError("eval_phi needs finite arguments")
    if np.any(sa < 0) or np.any(ta < 0):
        raise DomainError("eval_phi needs nonnegative arguments")
    out = eval_phi_unchecked(f, sa, ta)
    return float(out[0]) if scalar else out


def eval_phi_unchecked(f: InterpolationFunction, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """eval_phi without argument checks, for internal hot loops.

    s and t must be 1-d float arrays of one shape whose entries are already
    known to be finite and nonnegative; the result equals eval_phi's.
    """
    both = (s > 0) & (t > 0)
    if both.all():
        return s * _phi1_raw(f, t / s)
    out = np.zeros(s.shape)
    if np.any(both):
        out[both] = s[both] * _phi1_raw(f, t[both] / s[both])
    edge_s = (s > 0) & (t == 0)
    out[edge_s] = s[edge_s] * f.phi1_at_zero
    edge_t = (s == 0) & (t > 0)
    out[edge_t] = t[edge_t] * f.slope_at_infinity
    return out


# ---------------------------------------------------------------------------
# concave envelopes


@dataclass(frozen=True)
class PiecewiseHull:
    """Upper concave hull of sampled (t, phi1(t)) points, valid on [t_min, t_max]."""

    knots_t: tuple
    knots_y: tuple

    def __call__(self, t):
        ta = np.asarray(t, dtype=float)
        if np.any(ta < self.knots_t[0]) or np.any(ta > self.knots_t[-1]):
            raise DomainError("envelope evaluated outside the grid's convex hull")
        out = np.interp(ta, self.knots_t, self.knots_y)
        return float(out) if ta.ndim == 0 else out


def _upper_hull(ts: np.ndarray, ys: np.ndarray) -> tuple[list, list]:
    ht: list[float] = []
    hy: list[float] = []
    for x, y in zip(ts, ys):
        while len(ht) >= 2:
            s_new = (y - hy[-1]) / (x - ht[-1])
            s_old = (hy[-1] - hy[-2]) / (ht[-1] - ht[-2])
            if s_new >= s_old:  # middle point is under the chord
                ht.pop()
                hy.pop()
            else:
                break
        ht.append(float(x))
        hy.append(float(y))
    return ht, hy


def concave_majorant(f: InterpolationFunction, grid) -> PiecewiseHull:
    """Least concave function on [min grid, max grid] dominating phi1 samples."""
    ts = np.unique(np.asarray(grid, dtype=float))
    if len(ts) < 2:
        raise DomainError("concave_majorant needs at least two grid points")
    if np.any(ts <= 0):
        raise DomainError("grid must lie in (0, inf)")
    ys = np.atleast_1d(phi1(f, ts))
    ht, hy = _upper_hull(ts, ys)
    return PiecewiseHull(tuple(ht), tuple(hy))


def _global_concave(f: InterpolationFunction) -> InterpolationFunction:
    """A concave member of the class dominating f, equal to f when f is concave.

    Used before node marching; the closed-form majorants are exact least
    concave majorants (1 + t over max(1, t), a + b t over max(a, b t)), the
    tabulated fallback is the hull of the repaired grid with a linear run to
    the origin and a constant tail.
    """
    if f.concave:
        return f
    if f.family == "max":
        return sum_function()
    if f.family == "plmax":
        a, b = f.params
        return affine_power(a, b, 1.0)
    if f.family == "mirror":
        return mirror(_global_concave(f.params[0]))
    if f.family == "tabulated":
        ts, ys, _ = f.params
        ht, hy = _upper_hull(np.concatenate(([0.0], ts)), np.concatenate(([0.0], ys)))
        return hull_function(ht, hy)
    raise InvalidFunctionError(f"no concave majorant rule for family {f.family!r}")


# ---------------------------------------------------------------------------
# node/slack decomposition


@dataclass(frozen=True)
class BKDecomposition:
    """Two-sided node sequence t_k with slacks, built around t_1 = 1.

    Interval k is [t_{2k} - eps_k, t_{2k+2} + eps_k] with center t_{2k+1};
    stored intervals run k_min..k_max. Each side ends in one of three kinds:
    "endpoint" (marker node 0 or +inf reached, the only case where M or N is
    a finite integer in the two-sided counting), "exhausted" (the next target
    crosses a positive boundary limit, so no further node exists), or
    "truncated" (the depth budget stopped an infinite sequence).
    """

    q: float
    q_prime: float
    alpha: float
    depth: int
    k_min: int
    k_max: int
    nodes: tuple  # t_j for j = 2*k_min .. 2*k_max+2
    slacks: tuple  # eps_k for k = k_min .. k_max
    bottom_kind: str
    top_kind: str
    M: int | None
    N: int | None
    function: InterpolationFunction  # what was actually decomposed (concave)
    original: InterpolationFunction
    majorant_gap: float

    def node(self, j: int) -> float:
        lo = 2 * self.k_min
        if not lo <= j <= 2 * self.k_max + 2:
            raise DomainError(f"node index {j} outside stored range [{lo}, {2*self.k_max+2}]")
        return self.nodes[j - lo]

    def center(self, k: int) -> float:
        return self.node(2 * k + 1)

    def slack(self, k: int) -> float:
        if self.k_min <= k <= self.k_max:
            return self.slacks[k - self.k_min]
        return 0.0

    def centers(self) -> np.ndarray:
        return np.asarray(self.nodes[1::2])

    @property
    def covered_lo(self) -> float:
        return self.node(2 * self.k_min) - self.slack(self.k_min)

    @property
    def covered_hi(self) -> float:
        top = self.node(2 * self.k_max + 2)
        return top + self.slack(self.k_max) if math.isfinite(top) else top


def _grow_invert(g, target: float, lo: float, value_side: bool) -> float | None:
    """Solve phi1(t) = target (value side) or phi1(t)/t = target upward from lo."""
    fn = (lambda t: float(phi1(g, t))) if value_side else (lambda t: float(phi1(g, t)) / t)
    hi = lo * 2.0
    ok = (lambda v: v >= target) if value_side else (lambda v: v <= target)
    for _ in range(600):
        if ok(fn(hi)):
            break
        hi *= 4.0
        if hi > 1e280:
            return None  # target effectively unreachable in floating point
    else:
        raise SolverError("bracket growth failed", (lo, hi))
    return _solve(fn, target, lo, hi)


def _solve(fn, target: float, lo: float, hi: float) -> float:
    """The t in [lo, hi] with fn(t) = target, for fn positive and monotone
    there with fn - target changing sign between the ends.

    Nodes span hundreds of decades, so the solve runs in log t and only a
    relative tolerance governs. Each step is regula falsi on the residual
    log fn(t) - log target against log t, exact in one step on a power
    piece, with the Illinois rule: an end kept twice in a row has its
    residual halved. Three steps that leave more than half the bracket
    are followed by a bisection of log t. The solve stops once the bracket
    is at most 8.9e-16 of its low end wide, brentq's relative tolerance,
    and returns the end closer to the target.
    """
    def resid(t: float) -> tuple[float, float]:
        # log1p of the relative gap keeps full precision next to the root
        v = fn(t)
        return v, (math.log1p((v - target) / target) if v > 0.0 else -math.inf)

    (v_lo, r_lo), (v_hi, r_hi) = resid(lo), resid(hi)
    if v_lo == target:
        return lo
    if v_hi == target:
        return hi
    rising = v_lo < target
    if rising != (target < v_hi):
        raise SolverError("root is not bracketed", (lo, hi))
    kept, tries, ref = 0, 0, math.log(hi) - math.log(lo)
    for _ in range(600):
        if hi - lo <= 8.9e-16 * lo:
            break
        t, d, tries = math.nan, r_lo - r_hi, tries + 1
        if tries <= 3 and d != 0.0 and 0.0 < r_lo / d < 1.0:
            # at least half the tolerance from either end, so that the far
            # end closes in once the near one sits at the root
            step = 4.4e-16 * lo
            t = math.exp(math.log(lo) + r_lo / d * (math.log(hi) - math.log(lo)))
            t = min(max(t, lo + step), hi - step)
        if not lo < t < hi:
            t, tries = math.sqrt(lo) * math.sqrt(hi), 4
            if not lo < t < hi:
                break
        v, r = resid(t)
        if v == target:
            return t
        if (v < target) == rising:
            lo, v_lo, r_lo = t, v, r
            r_hi = r_hi / 2.0 if kept == 1 else r_hi
            kept = 1
        else:
            hi, v_hi, r_hi = t, v, r
            r_lo = r_lo / 2.0 if kept == -1 else r_lo
            kept = -1
        width = math.log(hi) - math.log(lo)
        if tries == 4 or width <= 0.5 * ref:
            ref, tries = width, 0
    else:
        raise SolverError("root solve did not converge", (lo, hi))
    return lo if abs(v_lo - target) <= abs(v_hi - target) else hi


def _march_up(g: InterpolationFunction, qp: float, depth: int) -> tuple[list, str]:
    """Nodes t_1 = 1, t_2, t_3, ... marched upward, and how the march ended.

    From the center t_{2k+1} the node t_{2k+2} solves phi1(t) = q' phi1(t_{2k+1})
    and the next center solves phi1(t)/t = phi1(t_{2k+2})/(q' t_{2k+2}). The
    march ends "endpoint" when the value target reaches phi1_sup (the last
    node is +inf), "exhausted" when the slope target reaches
    slope_at_infinity or no center exists, and "truncated" after 2 depth - 1
    nodes past t_1.
    """
    nodes = [1.0]
    while True:
        vt = qp * float(phi1(g, nodes[-1]))
        t_up = (None if vt >= g.phi1_sup * (1.0 - _REL)
                else _grow_invert(g, vt, nodes[-1], value_side=True))
        if t_up is None:
            return nodes + [_INF], "endpoint"
        nodes.append(t_up)
        st = (float(phi1(g, t_up)) / t_up) / qp
        if st <= g.slope_at_infinity * (1.0 + _REL):
            return nodes, "exhausted"
        if len(nodes) >= 2 * depth:
            return nodes, "truncated"
        t_center = _grow_invert(g, st, t_up, value_side=False)
        if t_center is None:
            return nodes, "exhausted"
        nodes.append(t_center)


def _march(g: InterpolationFunction, qp: float, depth: int) -> tuple[list, int, str, str]:
    """March nodes outward from t_1 = 1 on both sides of it.

    The bottom side is the top side of the mirror. phi~1(t) = t phi1(1/t)
    turns the value recurrence into the slope recurrence and back, and swaps
    phi1_sup with slope_sup and phi1_at_zero with slope_at_infinity, so node
    j <= 0 of g is 1/(node 2 - j of mirror(g)) and the bottom side ends in
    the kind of the mirror's march. Returns the nodes t_{2 k_min} ..
    t_{2 k_max + 2}, k_min, and the bottom and top kinds.
    """
    top, top_kind = _march_up(g, qp, depth)
    low, bottom_kind = _march_up(mirror(g), qp, depth)
    return [1.0 / t for t in low[:0:-1]] + top, 1 - len(low) // 2, bottom_kind, top_kind


def _slacks(g: InterpolationFunction, q: float, nodes: list) -> list[float]:
    out = []
    for i in range(0, len(nodes) - 2, 2):  # interval k has its lower node at i
        t_lo, ck, t_hi = nodes[i], nodes[i + 1], nodes[i + 2]
        if t_lo == 0.0:
            out.append(0.0)  # marker interval keeps eps = 0
            continue
        gap_below = t_lo - nodes[i - 1] if i > 0 else t_lo
        if i + 3 < len(nodes):
            gap_above = nodes[i + 3] - t_hi
        else:
            gap_above = t_hi if math.isfinite(t_hi) else _INF
        cap = 0.5 * min(gap_below, gap_above, t_lo)
        sl_bound = q * float(phi1(g, ck)) / ck
        val_bound = q * float(phi1(g, ck))

        def feasible(eps: float) -> bool:
            lo = t_lo - eps
            if lo <= 0 or float(phi1(g, lo)) / lo > sl_bound:
                return False
            if math.isfinite(t_hi) and float(phi1(g, t_hi + eps)) > val_bound:
                return False
            return True

        # tolerance scales with the interval: node gaps span many decades
        out.append(bisect_largest(feasible, 0.0, cap * (1.0 - 1e-12), tol=cap * 1e-12))
    return out


def _sum_ratio(d: BKDecomposition, g: InterpolationFunction, t: np.ndarray) -> np.ndarray:
    """sum_k phi1(c_k) min(1, t/c_k) over phi1(t), with s = 1 by homogeneity."""
    cs = d.centers()
    vals = np.atleast_1d(phi1(g, cs))
    with np.errstate(over="ignore"):  # t/c_k past the float range still caps at 1
        s = np.minimum(1.0, t[:, None] / cs[None, :]) @ vals
    return s / np.atleast_1d(phi1(g, t))


def _probe_grid(nodes: list, q: float) -> np.ndarray:
    finite = np.asarray([v for v in nodes if 0.0 < v < _INF])  # ascending
    pts = [finite, np.sqrt(finite[:-1]) * np.sqrt(finite[1:]),  # no overflow or underflow
           np.geomspace(finite[0] / q**2, finite[-1] * q**2, 257)]
    return np.unique(np.concatenate(pts))


def bk_decompose(f: InterpolationFunction, q: float, depth: int = 8) -> BKDecomposition:
    """Build the node/slack decomposition achieving the (q+1)/(q-1) sum bound.

    The construction factor q' = q**alpha is chosen per function: for the pure
    power family alpha = max(theta, 1-theta) keeps the sum bound with margin
    (alpha = 1/2 only suffices at theta = 1/2), and for other families alpha
    climbs a fixed ladder until an internal dense check of the sum bound
    passes. Non-concave phi1 is replaced by its least concave majorant first;
    the result records both functions and their gap. One upward march serves
    both sides through the mirror: node j <= 0 is 1/(node 2 - j of the
    decomposition of mirror(f)), with the bottom and top kinds swapped.
    """
    if q <= 1.0:
        raise DomainError("q must exceed 1")
    if depth < 1:
        raise DomainError("depth must be positive")
    if f.family == "zero" or f.normalization == 0.0:
        raise InvalidFunctionError("the zero function has no node decomposition")
    g = _global_concave(f)

    if g.family == "power":
        # the sum bound needs q' = q**max(theta, 1-theta); clamp inside (0, 1)
        # since the degenerate exponents give a one-sided, forgiving march
        theta, _ = g.params
        alphas = [min(0.95, max(theta, 1.0 - theta, 0.5))]
    elif g.family == "min":
        alphas = [0.5]
    else:
        alphas = [0.5 + 0.05 * i for i in range(10)]

    bound = (q + 1.0) / (q - 1.0)
    last_err = None
    for alpha in alphas:
        qp = q**alpha
        if not 1.0 < qp < q:
            continue
        try:
            nodes, k_min, bottom_kind, top_kind = _march(g, qp, depth)
            slacks = _slacks(g, q, nodes)
        except SolverError as exc:
            last_err = exc
            continue
        if f is g:
            gap = 1.0
        else:
            tg = np.geomspace(1e-6, 1e6, 241)
            gap = float(np.max(np.atleast_1d(phi1(g, tg)) / np.atleast_1d(phi1(f, tg))))
        k_max = k_min + len(nodes) // 2 - 1
        d = BKDecomposition(
            q=float(q), q_prime=float(qp), alpha=float(alpha), depth=int(depth),
            k_min=k_min, k_max=k_max, nodes=tuple(nodes), slacks=tuple(slacks),
            bottom_kind=bottom_kind, top_kind=top_kind,
            M=(-k_min if bottom_kind == "endpoint" else None),
            N=(k_max + 1 if top_kind == "endpoint" else None),
            function=g, original=f, majorant_gap=gap,
        )
        ratios = _sum_ratio(d, g, _probe_grid(nodes, q))
        if float(np.max(ratios)) <= bound * (1.0 + 1e-10):
            return d
    raise VerificationError(
        f"no construction factor on the ladder met the sum bound for {f.family}"
        + (f" (last solver error: {last_err})" if last_err else "")
    )


def verify_bk(d: BKDecomposition, f: InterpolationFunction, t_grid) -> dict:
    """Check the sum bound and the per-interval endpoint conditions on a grid.

    Verification runs against the function the decomposition was built for
    (the concave majorant when f itself is not concave); the report carries
    the majorant gap so callers can translate bounds back to f.
    """
    if f.family != d.original.family or f.params != d.original.params:
        raise DomainError("decomposition was built from a different function")
    g = d.function
    grid = np.unique(np.asarray(t_grid, dtype=float))
    if np.any(grid <= 0):
        raise DomainError("verification grid must be positive")
    bound = (d.q + 1.0) / (d.q - 1.0)

    ratios = _sum_ratio(d, g, grid)
    i_max = int(np.argmax(ratios))
    sum_rec = {
        "bound": bound,
        "max_ratio": float(ratios[i_max]),
        "argmax_t": float(grid[i_max]),
        "pass": bool(ratios[i_max] <= bound * (1.0 + 1e-9)),
    }

    val_ratios, slo_ratios = [], []
    local_ok = True
    for k in range(d.k_min, d.k_max + 1):
        t_lo, ck, t_hi = d.node(2 * k), d.center(k), d.node(2 * k + 2)
        eps = d.slack(k)
        v_ref = d.q * float(phi1(g, ck))
        s_ref = d.q * float(phi1(g, ck)) / ck
        if t_lo == 0.0:
            s_at = g.slope_sup  # marker side: the sup itself must obey the bound
        else:
            s_at = float(phi1(g, t_lo - eps)) / (t_lo - eps)
        if math.isfinite(t_hi):
            v_at = float(phi1(g, t_hi + eps))
        else:
            v_at = g.phi1_sup
        val_ratios.append(v_at / v_ref)
        slo_ratios.append(s_at / s_ref)
        local_ok &= (v_at <= v_ref) and (s_at <= s_ref)

    slack_ok = True
    for k in range(d.k_min, d.k_max + 1):
        t_lo, t_hi, eps = d.node(2 * k), d.node(2 * k + 2), d.slack(k)
        has_below = k - 1 >= d.k_min
        has_above = k + 1 <= d.k_max
        if t_lo == 0.0 or not math.isfinite(t_hi):
            continue  # marker intervals keep eps = 0 by the notation rules
        if has_below and has_above:
            cap = min(t_lo - d.center(k - 1), d.center(k + 1) - t_hi)
            slack_ok &= 0.0 < eps < cap
        else:
            slack_ok &= eps >= 0.0

    cov_lo, cov_hi = d.covered_lo, d.covered_hi
    within = bool(grid[0] >= cov_lo and grid[-1] <= cov_hi)
    report = {
        "q": d.q,
        "q_prime": d.q_prime,
        "alpha": d.alpha,
        "sum_bound": sum_rec,
        "local_bound": {
            "intervals": d.k_max - d.k_min + 1,
            "max_value_ratio": float(max(val_ratios)),
            "max_slope_ratio": float(max(slo_ratios)),
            "pass": bool(local_ok),
        },
        "slack_positivity": {"pass": bool(slack_ok)},
        "coverage": {
            "covered_lo": cov_lo,
            "covered_hi": cov_hi,
            "grid_lo": float(grid[0]),
            "grid_hi": float(grid[-1]),
            "partial_warning": not within,
        },
        "majorant": {"used": d.function is not d.original, "gap": d.majorant_gap},
    }
    report["pass"] = bool(sum_rec["pass"] and local_ok and slack_ok)
    return report


# ---------------------------------------------------------------------------
# doubly bounded test and convex/concave split


def is_doubly_bounded(f: InterpolationFunction) -> dict:
    """Both phi0 and phi1 bounded; then phi(1,1) min <= phi <= C min."""
    both = math.isfinite(f.phi1_sup) and math.isfinite(f.slope_sup)
    return {
        "doubly_bounded": bool(both),
        "C": max(f.phi1_sup, f.slope_sup) if both else None,
        "lower": f.normalization,
        "indeterminate": bool(f.estimated_limits),
    }


@dataclass(frozen=True)
class SplitPair:
    """phi1 = pl_part + eta_part with pl piecewise linear from the boundary
    limits and eta vanishing at 0 and at infinity."""

    pl_part: InterpolationFunction
    eta_part: InterpolationFunction


def split_convex_part(f: InterpolationFunction) -> SplitPair:
    """Split phi1 into max(phi1(0+), t * slope_at_infinity) plus a vanishing part.

    Every shipped family splits in closed form, so recomposition is exact.
    """
    a, dd = f.phi1_at_zero, f.slope_at_infinity
    if not (math.isfinite(a) and math.isfinite(dd)):
        raise DomainError("split needs finite boundary limits")
    pl = zero_function() if (a == 0.0 and dd == 0.0) else pl_max(a, dd)

    fam = f.family
    if fam == "power":
        theta, coef = f.params
        eta = f if 0.0 < theta < 1.0 else zero_function()
    elif fam in ("min", "harmonic", "plmin", "cappedpower", "tabulated"):
        eta = f
    elif fam in ("max", "plmax", "zero"):
        eta = zero_function()
    elif fam == "sum":
        eta = min_function()
    elif fam == "affinepower":
        a0, b0, theta = f.params
        eta = power(theta, b0) if theta < 1.0 else pl_min(a0, b0)
    elif fam == "hull":
        ts, ys = f.params
        y0 = ys[0]
        eta = hull_function(ts, tuple(y - y0 for y in ys)) if y0 > 0.0 else f
        if y0 > 0.0 and all(y == ys[0] for y in ys):
            eta = zero_function()
    elif fam == "mirror":
        inner = split_convex_part(f.params[0])
        eta = mirror(inner.eta_part)
    else:
        raise InvalidFunctionError(f"no split rule for family {fam!r}")
    return SplitPair(pl, eta)
