"""Finite-dimensional quasi-Banach lattices on R^n with coordinatewise order.

Four quasi-norm families: lp (any 0 < p <= inf), weighted lp, l-infinity, and
the L_p(phi_n) pathology space whose vectors are simple functions over the
basic-set family. Every family is one exponent p and one weight vector w,
built once per spec, with the quasi-norm (sum_j w_j |a_j|^p)^(1/p), or
max_j |a_j| for p = inf: lp has unit weights and the pathology space has
weights 1/n. Coordinate j of the pathology space carries the basic set
B_{e_j} and phi_n of a union of k of them is k/n, so its layer-cake integral
telescopes to that closed form; the layer-cake in module pathology is the
reference the tests hold it to. Functional calculus of interpolation
functions is coordinatewise here, and the Riesz decomposition is the
deterministic proportional split, which achieves factor 1 where the
operation's contract promises factor 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pathology
from .errors import DescriptorError, DomainError, InfeasibleDecompositionError
from .quasiconcave import InterpolationFunction, eval_phi


@dataclass(frozen=True)
class LatticeSpec:
    """One lattice: family tag, dimension, exponent, optional weights/handle.

    weights is None exactly for the unit-weight families lp and linf; w is
    the weight vector the quasi-norm uses, for every family.
    """

    family: str  # "lp" | "wlp" | "linf" | "sub"
    dim: int
    p: float
    weights: tuple | None = None
    pathology_space: pathology.PathologySpace | None = None
    w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.ones(self.dim) if self.weights is None else np.array(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def modulus_constant(self) -> float:
        # quasi-triangle constant: 1 in the convex range, 2^{1/p-1} below it
        if self.p >= 1.0:
            return 1.0
        return 2.0 ** (1.0 / self.p - 1.0)

    def describe(self) -> str:
        if self.family == "lp":
            return f"lp:{self.p:g}:{self.dim}"
        if self.family == "wlp":
            return f"wlp:{self.p:g}:{self.dim}:" + ",".join(f"{w:g}" for w in self.weights)
        if self.family == "linf":
            return f"linf:{self.dim}"
        return f"sub:{self.p:g}:{self.dim}"


def lp(p: float, dim: int) -> LatticeSpec:
    if not 0.0 < p <= math.inf:
        raise DomainError("lp exponent must be positive")
    if math.isinf(p):
        return linf(dim)
    return LatticeSpec("lp", _check_dim(dim), float(p))


def weighted_lp(p: float, dim: int, weights) -> LatticeSpec:
    w = tuple(float(x) for x in weights)
    if not 0.0 < p < math.inf:
        raise DomainError("weighted lp needs a finite positive exponent")
    if len(w) != dim or any(x <= 0 for x in w):
        raise DomainError("weights must be positive, one per coordinate")
    return LatticeSpec("wlp", _check_dim(dim), float(p), weights=w)


def linf(dim: int) -> LatticeSpec:
    return LatticeSpec("linf", _check_dim(dim), math.inf)


def submeasure_lp(p: float, n: int) -> LatticeSpec:
    sp = pathology.PathologySpace(n, float(p))
    return LatticeSpec("sub", n, float(p), weights=(1.0 / n,) * n, pathology_space=sp)


def _check_dim(dim: int) -> int:
    if int(dim) != dim or dim < 1:
        raise DomainError("dimension must be a positive integer")
    return int(dim)


def parse_lattice(text: str) -> LatticeSpec:
    """Parse `lp:0.5:4`, `wlp:1:4:1,2,3,4`, `linf:4`, or `sub:0.5:3`."""
    parts = text.strip().split(":")
    try:
        if parts[0] == "lp" and len(parts) == 3:
            return lp(float(parts[1]), int(parts[2]))
        if parts[0] == "wlp" and len(parts) == 4:
            return weighted_lp(float(parts[1]), int(parts[2]),
                               [float(w) for w in parts[3].split(",")])
        if parts[0] == "linf" and len(parts) == 2:
            return linf(int(parts[1]))
        if parts[0] == "sub" and len(parts) == 3:
            return submeasure_lp(float(parts[1]), int(parts[2]))
    except (ValueError, DomainError) as exc:
        raise DescriptorError(f"bad lattice descriptor {text!r}: {exc}") from exc
    raise DescriptorError(f"unknown lattice family in descriptor {text!r}")


@dataclass(frozen=True)
class LatticeVector:
    entries: np.ndarray
    space: LatticeSpec


def vector(space: LatticeSpec, entries) -> LatticeVector:
    arr = np.asarray(entries, dtype=float).reshape(-1)
    if arr.shape != (space.dim,):
        raise DomainError(f"expected {space.dim} entries, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector entries must be finite")
    return LatticeVector(arr, space)


def _entries(x) -> np.ndarray:
    return x.entries if isinstance(x, LatticeVector) else np.asarray(x, dtype=float)


def norm(space: LatticeSpec, x) -> float:
    """The quasi-norm (sum_j w_j |x_j|^p)^(1/p), or max_j |x_j| for p = inf,
    from the one kernel that norm_rows also calls."""
    arr = _entries(x)
    if isinstance(x, LatticeVector) and x.space.dim != space.dim:
        raise DomainError("vector belongs to a lattice of different dimension")
    if arr.shape != (space.dim,):
        raise DomainError(f"expected {space.dim} entries, got {arr.shape}")
    return float(_quasinorm(space.p, np.abs(arr), space.w))


def norm_rows(space: LatticeSpec, rows: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The quasi-norm of each row of a 2-D array whose columns are the
    coordinates listed in support, every other coordinate being zero.

    Each row is summed exactly as norm sums one vector, so a row's value,
    to the last bit, does not depend on the other rows in the call; on a
    full support it equals norm of that row."""
    return _quasinorm(space.p, np.abs(rows), space.w[support])


def _quasinorm(p: float, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(sum_j w_j a_j^p)^(1/p) along the last axis of a >= 0, or its max for
    p = inf, each row summed and rooted exactly as one vector alone.

    np.vecdot makes one dot call per C-contiguous row, the call np.dot makes
    for one vector; a matrix-vector product blocks the rows, and a strided
    row takes another dot kernel, so either would let the last bit of a row
    depend on the rest of the array. Every root is the C library's pow:
    ** on the numpy scalar of one sum, np.float_power on an array of sums.
    numpy's SIMD power of an array differs from it in the last bit for
    about one value in twenty, and the ufunc costs a single sum as much as
    the rest of norm.
    """
    if math.isinf(p):
        return a.max(axis=-1)
    sums = np.vecdot(np.power(a, p, order="C"), w)
    return sums ** (1.0 / p) if sums.ndim == 0 else np.float_power(sums, 1.0 / p)


def dual_norm(space: LatticeSpec, y: np.ndarray) -> np.ndarray:
    """The dual norm sup{<x, y> : ||x|| <= 1} of a convex lattice (p >= 1)
    along the last axis of y: (sum_j w_j^(1-p') |y_j|^p')^(1/p') with
    1/p + 1/p' = 1, which is max_j |y_j|/w_j for p = 1 and sum_j |y_j| for
    p = inf."""
    if space.p < 1.0:
        raise DomainError("the dual norm formula needs a convex lattice, p >= 1")
    r = np.abs(y) / space.w
    top = r.max(axis=-1)
    if space.p == 1.0:
        return top
    q = 1.0 if math.isinf(space.p) else space.p / (space.p - 1.0)
    # sum_j w_j r_j^q scaled by the largest ratio, so large q cannot overflow
    scale = np.where(top > 0.0, top, 1.0)[..., None]
    return top * _quasinorm(q, r / scale, space.w)


def abs_vector(x: LatticeVector) -> LatticeVector:
    return LatticeVector(np.abs(x.entries), x.space)


def join(x: LatticeVector, y: LatticeVector) -> LatticeVector:
    _same_space(x, y)
    return LatticeVector(np.maximum(x.entries, y.entries), x.space)


def meet(x: LatticeVector, y: LatticeVector) -> LatticeVector:
    _same_space(x, y)
    return LatticeVector(np.minimum(x.entries, y.entries), x.space)


def _same_space(x: LatticeVector, y: LatticeVector) -> None:
    if x.space.dim != y.space.dim:
        raise DomainError("lattice operations need equal dimensions")


def krivine_apply(f: InterpolationFunction, x0: LatticeVector, x1: LatticeVector) -> LatticeVector:
    """Functional calculus: coordinatewise phi on a nonnegative pair."""
    _same_space(x0, x1)
    if np.any(x0.entries < 0) or np.any(x1.entries < 0):
        raise DomainError("functional calculus needs nonnegative inputs")
    return LatticeVector(eval_phi(f, x0.entries, x1.entries), x0.space)


def riesz_decompose(zs, u: LatticeVector, v: LatticeVector):
    """Split each z_i = u_i + v_i compatibly with sum |z_i| <= u + v.

    The proportional rule u_i = z_i * u/(u+v) is deterministic and gives the
    coordinatewise factor-1 bounds sum |u_i| <= u and sum |v_i| <= v, strictly
    stronger than the factor-2 contract this operation promises.
    """
    _same_space(u, v)
    if np.any(u.entries < 0) or np.any(v.entries < 0):
        raise DomainError("the dominating pair must be nonnegative")
    zs = list(zs)
    if not zs:
        return []
    total = np.zeros_like(u.entries)
    for z in zs:
        _same_space(z, u)
        total = total + np.abs(z.entries)
    denom = u.entries + v.entries
    bad = total > denom * (1.0 + 1e-12)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise InfeasibleDecompositionError(
            f"sum of |z_i| exceeds u+v at coordinate {j}: {total[j]} > {denom[j]}",
            coordinate=j,
        )
    with np.errstate(invalid="ignore"):
        ratio = np.where(denom > 0.0, u.entries / np.where(denom > 0.0, denom, 1.0), 0.0)
    out = []
    for z in zs:
        ui = z.entries * ratio
        out.append((LatticeVector(ui, u.space), LatticeVector(z.entries - ui, u.space)))
    return out
