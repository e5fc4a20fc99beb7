import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clinterp import lattice as lat
from clinterp import operators as ops
from clinterp import quasiconcave as qc
from clinterp.couple import Couple, parse_couple
from clinterp.errors import DescriptorError, DomainError, PreconditionError, UnsupportedExpressionError

T12_34 = ops.OperatorSpec(np.array([[1.0, 2.0], [3.0, 4.0]]))


def _entries(data, count, bound):
    """count floats in [-bound, bound], each zero or at least 1e-3 in
    magnitude. lattice.norm loses its precision where every p-th power of a
    vector underflows (entries near 1e-158 at p = 2), a float-range limit
    that the properties drawing from here do not test."""
    entry = st.floats(-bound, bound).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
    return np.array(data.draw(st.lists(entry, min_size=count, max_size=count)))


def _drawn_space(data, n):
    """A lattice of dimension n from every family: lp below and above 1,
    weighted lp, the submeasure space and l-infinity."""
    family = data.draw(st.sampled_from(["lp<1", "lp>=1", "wlp", "sub", "linf"]))
    if family == "linf":
        return lat.linf(n)
    if family == "sub":
        return lat.submeasure_lp(data.draw(st.floats(0.3, 0.9)), n)
    p = data.draw(st.floats(0.3, 1.0) if family != "lp>=1" else
                  st.sampled_from([1.0, 2.0]) | st.floats(1.0, 4.0))
    if family == "wlp":
        # below 1, or the same draw mapped onto [1, 3.1]
        p = data.draw(st.sampled_from([p, 1.0 + 3.0 * (p - 0.3)]))
        return lat.weighted_lp(p, n, data.draw(st.lists(st.floats(0.25, 4.0),
                                                        min_size=n, max_size=n)))
    return lat.lp(p, n)


class TestOperatorSpec:
    def test_shape_and_flags(self):
        assert T12_34.shape == (2, 2)
        assert T12_34.is_positive
        assert not T12_34.is_diagonal
        assert ops.OperatorSpec(np.diag([2.0, -1.0])).is_diagonal

    def test_rejects_bad_matrices(self):
        with pytest.raises(DomainError):
            ops.OperatorSpec(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            ops.OperatorSpec(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_declared_space_dims_checked(self):
        with pytest.raises(DomainError):
            ops.OperatorSpec(np.eye(2), domain=lat.lp(1.0, 3))
        spec = ops.OperatorSpec(np.eye(2), domain=lat.lp(1.0, 2), codomain=lat.linf(2))
        assert spec.domain.dim == 2

    def test_parse_matrix(self):
        m = ops.parse_matrix("1,2;3,4")
        assert np.array_equal(m, T12_34.matrix)
        m2 = ops.parse_matrix("1 2\n3 4")
        assert np.array_equal(m2, m)
        with pytest.raises(DescriptorError):
            ops.parse_matrix("1,2;3")
        with pytest.raises(DescriptorError):
            ops.parse_matrix("a,b")


class TestOpNorm:
    def test_identity_is_one_everywhere(self):
        ident = ops.OperatorSpec(np.eye(3))
        for sp in (lat.lp(1.0, 3), lat.lp(2.0, 3), lat.linf(3), lat.lp(0.5, 3)):
            est = ops.op_norm(ident, sp, sp)
            assert est.lower == pytest.approx(1.0, rel=1e-12)
            assert est.upper == pytest.approx(1.0, rel=1e-12)

    def test_scaled_identity(self):
        est = ops.op_norm(ops.OperatorSpec(2.0 * np.eye(2)), lat.lp(2.0, 2), lat.lp(2.0, 2))
        assert est.upper == pytest.approx(2.0, rel=1e-12)

    def test_l1_to_l1_max_column(self):
        est = ops.op_norm(T12_34, lat.lp(1.0, 2), lat.lp(1.0, 2))
        assert est.lower == est.upper == pytest.approx(6.0)
        assert est.method == "vertex:atoms"

    def test_l1_to_linf_max_entry(self):
        est = ops.op_norm(T12_34, lat.lp(1.0, 2), lat.linf(2))
        assert est.upper == pytest.approx(4.0)

    def test_positive_from_linf(self):
        est = ops.op_norm(T12_34, lat.linf(2), lat.lp(1.0, 2))
        assert est.upper == pytest.approx(10.0)  # ||T(1,1)||_1
        assert est.method == "positive:ones"

    def test_sign_vertices_from_linf(self):
        t = ops.OperatorSpec(np.array([[1.0, -2.0], [3.0, 4.0]]))
        est = ops.op_norm(t, lat.linf(2), lat.lp(1.0, 2))
        assert est.upper == pytest.approx(8.0)  # s = (1, 1): |1-2| + |3+4|
        assert est.method == "vertex:signs"

    def test_halfspace_atom_oracle_beats_search(self):
        # p = 1/2 domain with convex codomain: atoms are exact; the free
        # search run must stay within its certified bracket
        t = ops.OperatorSpec(np.array([[1.0, -2.0], [0.5, 4.0]]))
        x, y = lat.lp(0.5, 2), lat.lp(2.0, 2)
        exact = ops.op_norm(t, x, y)
        assert exact.method == "vertex:atoms"
        searched = ops.op_norm(t, x, y, method="search", seed=1, starts=16, iters=150)
        assert searched.lower <= exact.upper * (1 + 1e-9)
        assert searched.lower >= exact.lower * 0.99

    def test_weighted_atom_oracle(self):
        x = lat.weighted_lp(1.0, 2, [1.0, 4.0])
        est = ops.op_norm(T12_34, x, lat.lp(1.0, 2))
        # columns cost their weight: max(4/1, 6/4)
        assert est.upper == pytest.approx(4.0)

    def test_diagonal_between_nested_spaces(self):
        t = ops.OperatorSpec(np.diag([1.0, -3.0, 2.0]))
        est = ops.op_norm(t, lat.lp(1.0, 3), lat.lp(2.0, 3))
        assert est.upper == pytest.approx(3.0)
        assert est.method in ("vertex:atoms", "diagonal")
        est2 = ops.op_norm(t, lat.lp(2.0, 3), lat.linf(3))
        assert est2.upper == pytest.approx(3.0)
        assert est2.method == "diagonal"

    def test_search_has_no_upper_certificate(self):
        t = ops.OperatorSpec(np.array([[1.0, -2.0], [3.0, 4.0]]))
        est = ops.op_norm(t, lat.lp(1.5, 2), lat.lp(0.75, 2))
        assert est.method == "search"
        assert math.isinf(est.upper)
        assert "no-upper-certificate" in est.flags

    def test_oracle_method_raises_without_form(self):
        t = ops.OperatorSpec(np.array([[1.0, -2.0], [3.0, 4.0]]))
        with pytest.raises(UnsupportedExpressionError):
            ops.op_norm(t, lat.lp(1.5, 2), lat.lp(0.75, 2), method="oracle")

    def test_cache_hits_same_object(self):
        # nothing is memoized: a repeated call recomputes an equal estimate
        t = ops.OperatorSpec(np.eye(2))
        a = ops.op_norm(t, lat.lp(1.0, 2), lat.lp(1.0, 2))
        b = ops.op_norm(t, lat.lp(1.0, 2), lat.lp(1.0, 2))
        assert (a.lower, a.upper, a.iterations) == (b.lower, b.upper, b.iterations)

    def test_cache_key_holds_search_settings(self):
        # another seed, start count or iteration budget gives another search,
        # equal settings an equal one; iters=0 scores the start rows only
        m = np.array([[1.0, -2.0, 0.5], [3.0, 4.0, -1.0], [0.5, 1.0, 2.0]])
        x, y = lat.parse_lattice("lp:1.5:3"), lat.parse_lattice("lp:0.75:3")
        t = ops.OperatorSpec(m)
        first = ops.op_norm(t, x, y, seed=1, starts=2, iters=0)
        second = ops.op_norm(t, x, y, seed=2, starts=8, iters=200)
        fresh = ops.op_norm(ops.OperatorSpec(m), x, y, seed=2, starts=8, iters=200)
        assert first.method == second.method == "search"
        assert (second.lower, second.upper, second.iterations) == (
            fresh.lower, fresh.upper, fresh.iterations)
        assert second.lower > first.lower

    def test_submeasure_domain_takes_atoms(self):
        # the submeasure norm is the weighted lp norm with weights 1/n, so
        # below p = 1 its ball sits in the hull of its normalized atoms
        t = ops.OperatorSpec(np.array([[1.0, -2.0, 0.5], [3.0, 4.0, -1.0], [0.5, 1.0, 2.0]]))
        y = lat.lp(2.0, 3)
        est = ops.op_norm(t, lat.submeasure_lp(0.5, 3), y)
        same = ops.op_norm(ops.OperatorSpec(t.matrix), lat.weighted_lp(0.5, 3, [1.0 / 3] * 3), y)
        assert est.method == same.method == "vertex:atoms"
        assert est.lower == est.upper == pytest.approx(same.upper, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_search_meets_atom_oracle(self, data):
        # p <= 1 into a convex codomain: every e_j is a start row, so the
        # search cannot fall below the atoms, which are the exact value
        n = data.draw(st.integers(2, 5))
        p = data.draw(st.sampled_from([0.5, 1.0]) | st.floats(0.3, 1.0))
        if data.draw(st.booleans()):
            x = lat.lp(p, n)
        else:
            x = lat.weighted_lp(p, n, data.draw(st.lists(st.floats(0.25, 4.0),
                                                         min_size=n, max_size=n)))
        q = data.draw(st.sampled_from([1.0, 2.0, math.inf]) | st.floats(1.0, 4.0))
        y = lat.lp(q, n)
        m = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n)))
        t = ops.OperatorSpec(m.reshape(n, n))
        if not np.any(t.matrix):
            return
        exact = ops.op_norm(t, x, y, method="oracle")
        assert exact.method == "vertex:atoms"
        starts = data.draw(st.integers(n + 1, 12))
        found = ops.op_norm(t, x, y, method="search", seed=data.draw(st.integers(0, 2**16)),
                            starts=starts, iters=30)
        assert found.lower == pytest.approx(exact.upper, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("space", ["lp:0.5:3", "sub:0.5:3", "wlp:0.7:3:1,2,0.5"])
    def test_atoms_exact_into_a_quasinorm(self, space):
        # x.p <= min(1, y.p): the r-normed codomain, r = y.p, still peaks at
        # an atom; the condition x.p <= 1 with a convex codomain had no form
        t = ops.OperatorSpec(np.array([[1.0, -2.0, 0.5], [3.0, 4.0, -1.0], [0.5, 1.0, 2.0]]))
        x = lat.parse_lattice(space)
        est = ops.op_norm(t, x, x, method="oracle")
        assert est.method == "vertex:atoms"
        cols = [lat.norm(x, t.matrix[:, j]) / lat.norm(x, np.eye(3)[j]) for j in range(3)]
        assert est.lower == est.upper == max(cols)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_search_meets_extended_atom_oracle(self, data):
        # every closed form is the exact norm, so the search, which starts
        # at every e_j, never gets above it; where x.p <= min(1, y.p) the
        # closed form is the atoms, whatever the codomain, and the search
        # reaches them
        n = data.draw(st.integers(2, 4))
        x, y = _drawn_space(data, n), _drawn_space(data, n)
        t = ops.OperatorSpec(_entries(data, n * n, 3.0).reshape(n, n))
        assume(np.any(t.matrix))
        try:
            exact = ops.op_norm(t, x, y, method="oracle")
        except UnsupportedExpressionError:
            assert not x.p <= min(1.0, y.p)
            return
        found = ops.op_norm(t, x, y, method="search", seed=data.draw(st.integers(0, 2**16)),
                            starts=n + 1, iters=30)
        assert found.lower <= exact.upper * (1 + 1e-12)
        if x.p <= min(1.0, y.p):
            assert exact.method == "vertex:atoms"
            assert found.lower == pytest.approx(exact.upper, rel=1e-12, abs=0.0)

    def test_one_dimensional_domain_exact_any_family(self):
        t = ops.OperatorSpec(np.array([[2.0], [1.0]]))
        est = ops.op_norm(t, lat.lp(0.5, 1), lat.lp(0.5, 2))
        assert est.lower == est.upper
        assert est.upper == pytest.approx(lat.norm(lat.lp(0.5, 2), [2.0, 1.0]))


class TestRhoPq:
    def test_identity_sup_sum_is_one(self):
        ident = ops.OperatorSpec(np.eye(2))
        est = ops.rho_pq(ident, lat.lp(2.0, 2), lat.lp(2.0, 2), math.inf, 1.0)
        assert est.lower == est.upper == pytest.approx(1.0)
        assert est.method == "oracle:diagonal"

    def test_diagonal_same_space_exact(self):
        t = ops.OperatorSpec(np.diag([2.0, -5.0, 1.0]))
        est = ops.rho_pq(t, lat.lp(0.5, 3), lat.lp(0.5, 3), math.inf, 1.0)
        assert est.lower == est.upper == pytest.approx(5.0)

    def test_positive_bracket_matches_op_norm(self):
        est = ops.rho_pq(T12_34, lat.lp(1.0, 2), lat.lp(1.0, 2), math.inf, 1.0)
        base = ops.op_norm(T12_34, lat.lp(1.0, 2), lat.lp(1.0, 2))
        assert est.method == "bracket:modulus"
        assert est.upper == pytest.approx(base.upper)
        assert est.lower >= base.lower * (1 - 1e-12)
        assert est.lower <= est.upper * (1 + 1e-12)

    def test_cache_key_holds_iters(self):
        # another iteration budget gives another search, an equal one an
        # equal estimate
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        t = ops.OperatorSpec(m)
        x = lat.lp(1.0, 2)
        short = ops.rho_pq(t, x, x, math.inf, 1.0, iters=0)
        long = ops.rho_pq(t, x, x, math.inf, 1.0, iters=150)
        fresh = ops.rho_pq(ops.OperatorSpec(m), x, x, math.inf, 1.0, iters=150)
        assert (long.lower, long.upper) == (fresh.lower, fresh.upper)
        assert long.iterations == fresh.iterations > short.iterations

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_modulus_bounds_every_tuple(self, data):
        # sup_i |T x_i| <= |T| sum_i |x_i| coordinatewise: wherever |T| has a
        # closed-form norm the sup/sum constant is certified for any signs,
        # and no tuple, drawn or searched, gets above it
        n, rows = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        x, y = _drawn_space(data, n), _drawn_space(data, rows)
        m = _entries(data, rows * n, 3.0).reshape(rows, n)
        t = ops.OperatorSpec(m)
        try:
            modulus = ops.op_norm(ops.OperatorSpec(np.abs(m)), x, y, method="oracle")
        except UnsupportedExpressionError:
            modulus = None
        est = ops.rho_pq(t, x, y, math.inf, 1.0, seed=data.draw(st.integers(0, 2**16)),
                         tuples=8, iters=20)
        if modulus is not None:
            assert math.isfinite(est.upper)
            if est.method == "bracket:modulus":
                assert est.upper == modulus.upper
        if not math.isfinite(est.upper):
            return
        assert est.witness["ratio"] <= est.upper * (1 + 1e-12)
        k = data.draw(st.integers(1, 4))
        xs = _entries(data, k * n, 4.0).reshape(k, n)
        signs = _sign_tuples(n)
        for tup in (xs, signs, np.eye(n)):
            assert ops.tuple_ratio(t, x, y, tup, math.inf, 1.0) <= est.upper * (1 + 1e-12)

    def test_signed_operator_certified(self):
        # a signed matrix that is not diagonal gets the modulus certificate
        t = ops.OperatorSpec(np.array([[1.0, -2.0], [3.0, 4.0]]))
        x, y = lat.linf(2), lat.lp(0.5, 2)
        est = ops.rho_pq(t, x, y, math.inf, 1.0, seed=1)
        assert est.method == "bracket:modulus"
        # |T| is positive out of l-infinity: its norm is || |T| 1 ||_y
        assert est.upper == lat.norm(y, np.abs(t.matrix) @ np.ones(2))
        assert est.lower <= est.upper

    def test_op_norm_below_rho_on_cached_pair(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            t = ops.OperatorSpec(rng.uniform(0.0, 2.0, size=(3, 3)))
            x = lat.lp(1.0, 3)
            single = ops.op_norm(t, x, x)
            tup = ops.rho_pq(t, x, x, math.inf, 1.0, seed=4)
            assert single.lower <= tup.upper * (1 + 1e-9)

    def test_sup_pattern_monotone_in_exponents(self):
        # rho shrinks when p grows or q shrinks; compare search lowers loosely
        rng = np.random.default_rng(3)
        t = ops.OperatorSpec(rng.normal(size=(3, 3)))
        x = lat.lp(2.0, 3)
        r_inf1 = ops.rho_pq(t, x, x, math.inf, 1.0, seed=5, tuples=48)
        r_22 = ops.rho_pq(t, x, x, 2.0, 2.0, seed=5, tuples=48)
        assert r_22.lower >= r_inf1.lower * (1 - 5e-2)

    def test_finite_sup_and_sup_finite_patterns_run(self):
        t = ops.OperatorSpec(np.eye(2))
        x = lat.lp(2.0, 2)
        a = ops.rho_pq(t, x, x, 2.0, math.inf, seed=1, tuples=16, iters=40)
        b = ops.rho_pq(t, x, x, math.inf, 2.0, seed=1, tuples=16, iters=40)
        assert a.lower >= 1.0 - 1e-9  # singleton tuples give at least one
        assert b.lower >= 1.0 - 1e-9

    def test_rejected_exponent_patterns(self):
        t = ops.OperatorSpec(np.eye(2))
        x = lat.lp(1.0, 2)
        with pytest.raises(DomainError):
            ops.rho_pq(t, x, x, math.inf, math.inf)
        with pytest.raises(DomainError):
            ops.rho_pq(t, x, x, 0.5, 1.0)
        with pytest.raises(DomainError):
            ops.rho_pq(t, x, x, 1.0, 0.9)

    @pytest.mark.parametrize("counts", [{"tuples": 0}, {"tuples": -3}, {"size": 0}])
    def test_rho_needs_a_tuple(self, counts):
        # a count below one used to score one tuple while reporting the count
        t = ops.OperatorSpec(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(DomainError, match="at least 1"):
            ops.rho_pq(t, lat.lp(1.0, 2), lat.lp(2.0, 2), math.inf, 1.0, iters=0, **counts)

    def test_tuple_ratio_takes_a_stack(self):
        rng = np.random.default_rng(4)
        t = ops.OperatorSpec(rng.normal(size=(3, 3)))
        x, y = lat.lp(1.0, 3), lat.lp(0.5, 3)
        stack = rng.normal(size=(2, 5, 2, 3))
        stack[1, 2] = 0.0  # a zero tuple has quotient 0
        got = ops.tuple_ratio(t, x, y, stack, math.inf, 1.0)
        assert got.shape == (2, 5)
        for i, j in np.ndindex(2, 5):
            one = ops.tuple_ratio(t, x, y, stack[i, j], math.inf, 1.0)
            assert isinstance(one, float)
            assert got[i, j] == pytest.approx(one, rel=1e-13, abs=0.0)
        assert got[1, 2] == 0.0

    def test_witness_reproduces_ratio(self):
        rng = np.random.default_rng(9)
        t = ops.OperatorSpec(rng.normal(size=(3, 3)))
        x = lat.lp(1.0, 3)
        est = ops.rho_pq(t, x, x, math.inf, 1.0, seed=2, tuples=32)
        replay = ops.tuple_ratio(t, x, x, np.asarray(est.witness["xs"]), math.inf, 1.0)
        assert replay == pytest.approx(est.witness["ratio"], rel=1e-12)


def _sign_tuples(n):
    """All 2^n sign vectors of length n, one tuple."""
    return 1.0 - 2.0 * np.array(list(np.ndindex(*(2,) * n)), dtype=float)


SIGNED_COUPLES = ["lp:1:4|linf:4", "lp:2:4|linf:4", "lp:0.5:4|linf:4", "lp:0.5:4|lp:1:4",
                  "sub:0.5:4|linf:4"]


class TestSignedReplays:
    """The tuple bounds replayed with signed operators, where the legs are
    certified by the modulus |T|; criteria 06 and 07 keep positive ones."""

    @pytest.mark.parametrize("couple", SIGNED_COUPLES)
    def test_interpolation(self, couple):
        c = parse_couple(couple)
        rng = np.random.default_rng(21)
        for s in range(2):
            t = ops.OperatorSpec(rng.uniform(-2.0, 2.0, size=(4, 4)))
            rep = ops.verify_interpolation(t, c, c, qc.power(0.5), samples=100, seed=s)
            assert math.isfinite(rep["R"])
            for lo, hi in rep["legs"].values():
                assert lo <= hi
            assert rep["violations"] == 0 and rep["variant"]["violations"] == 0
            assert rep["pass"]

    @pytest.mark.parametrize("couple", SIGNED_COUPLES)
    def test_sum_regular(self, couple):
        c = parse_couple(couple)
        rng = np.random.default_rng(22)
        for s in range(2):
            t = ops.OperatorSpec(rng.uniform(-2.0, 2.0, size=(4, 4)))
            rep = ops.verify_sum_regular(t, c, c, samples=200, seed=s)
            assert math.isfinite(rep["bound"])
            for lo, hi in rep["legs"].values():
                assert lo <= hi
            assert rep["violations"] == 0 and rep["pass"]

    def test_two_quasinorm_legs(self):
        # both legs below p = 1: the old "no closed form" couple now replays
        c = Couple(lat.lp(0.5, 2), lat.lp(0.5, 2))
        t = ops.OperatorSpec(np.array([[1.0, -1.0], [2.0, 1.0]]))
        rep = ops.verify_sum_regular(t, c, c, samples=100)
        # the atoms of |T| = [[1, 1], [2, 1]]: the first column is the larger
        assert rep["legs"]["rho0"][1] == lat.norm(c.x0, [1.0, 2.0])
        assert rep["violations"] == 0


class TestKConstant:
    def test_sup_space_is_one(self):
        est = ops.k_constant(lat.linf(4))
        assert est.lower == est.upper == 1.0
        assert est.method == "oracle:sup-aligned"

    def test_basis_pair_in_l1(self):
        rec = ops.k_tuple_ratio(lat.lp(1.0, 2), [[1.0, 0.0], [0.0, 1.0]])
        assert rec["ratio"] == pytest.approx(1.0)
        assert rec["inner"] == "vertex-enumeration"

    def test_enumerated_sup_tuples_stay_at_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            xs = rng.normal(size=(3, 4))
            rec = ops.k_tuple_ratio(lat.linf(4), xs)
            assert rec["ratio"] <= 1.0 + 1e-6

    def test_convex_upper_is_tuple_size(self):
        est = ops.k_constant(lat.lp(1.0, 3), size=5, samples=50)
        assert est.upper == 5.0
        assert 1.0 <= est.lower <= est.upper

    def test_pathology_certificate_growth(self):
        two = ops.k_constant(lat.submeasure_lp(0.5, 2), size=2, samples=30)
        four = ops.k_constant(lat.submeasure_lp(0.5, 4), size=4, samples=30)
        assert two.lower >= 2.0 * (1 - 1e-9)
        assert four.lower >= 4.0 * (1 - 1e-9)
        assert four.method == "pathology-certificate"
        assert "function-space-certificate" in four.flags

    def test_quasinorm_sampling_is_flagged_not_claimed(self):
        est = ops.k_constant(lat.lp(0.5, 3), size=3, samples=60)
        assert "inner-max-sampled" in est.flags
        # sampled quotients are upper-biased, so the certified lower must not
        # exceed what a singleton guarantees for a plain p-space
        assert est.lower == pytest.approx(1.0)
        assert est.upper == pytest.approx(3.0 ** 2.0)


class TestLConvexityProbe:
    def test_banach_legs_find_nothing(self):
        for eps in (0.3, 0.5):
            rep = ops.l_convexity_probe(lat.lp(1.0, 4), eps, trials=200, seed=1)
            assert rep["violation_count"] == 0
            assert not rep["found"]

    def test_plain_quasinorm_below_threshold_finds_nothing(self):
        # a violation in an unweighted p-space needs (1-eps)^(1/p) < eps,
        # which fails at p = 1/2, eps = 0.3
        rep = ops.l_convexity_probe(lat.lp(0.5, 4), 0.3, trials=200, seed=1)
        assert rep["violation_count"] == 0

    def test_plain_quasinorm_above_threshold_finds_hits(self):
        # p = 1/2, eps = 0.75: (1-eps)^2 = 0.0625 < 0.75 leaves room
        rep = ops.l_convexity_probe(lat.lp(0.5, 8), 0.75, trials=300, seed=2)
        assert rep["violation_count"] > 0
        assert rep["found"]

    def test_submeasure_certificate_valid(self):
        rep = ops.l_convexity_probe(lat.submeasure_lp(0.5, 4), 0.3, trials=30, seed=0)
        cert = rep["certificate"]
        assert cert["valid"]
        assert rep["found"]
        assert cert["member_norm"] == pytest.approx(1.0 / 16.0)
        assert cert["mean_defect"] <= 0.3
        assert cert["rank_check_mode"] == "exhaustive"

    def test_submeasure_certificate_needs_enough_dimensions(self):
        rep = ops.l_convexity_probe(lat.submeasure_lp(0.5, 2), 0.2, trials=10, seed=0)
        cert = rep["certificate"]
        assert not cert["valid"]
        assert "eps" in cert["reason"]

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            ops.l_convexity_probe(lat.lp(1.0, 2), 0.0)
        with pytest.raises(DomainError):
            ops.l_convexity_probe(lat.lp(1.0, 2), 1.0)


class TestVerifySumRegular:
    def test_positive_diagonal_stays_below_single_leg(self):
        c = Couple(lat.lp(1.0, 3), lat.linf(3))
        t = ops.OperatorSpec(np.diag([2.0, 1.0, 0.5]))
        rep = ops.verify_sum_regular(t, c, c, samples=100, seed=0)
        assert rep["pass"]
        # diagonal images never mix coordinates: even the raw quotient stays
        # below the worse leg constant, no factor two needed
        worst_leg = max(rep["legs"]["rho0"][1], rep["legs"]["rho1"][1])
        assert rep["worst_ratio"] <= worst_leg * (1 + 5e-2)

    def test_degenerate_couple_reduces_to_single_space(self):
        c = Couple(lat.lp(2.0, 3), lat.lp(2.0, 3))
        rng = np.random.default_rng(1)
        t = ops.OperatorSpec(rng.uniform(0.0, 1.0, size=(3, 3)))
        rep = ops.verify_sum_regular(t, c, c, samples=100, seed=0)
        assert rep["pass"]
        worst_leg = max(rep["legs"]["rho0"][1], rep["legs"]["rho1"][1])
        assert rep["worst_ratio"] <= worst_leg * (1 + 5e-2)

    def test_random_positive_on_l1_linf(self):
        c = Couple(lat.lp(1.0, 4), lat.linf(4))
        rng = np.random.default_rng(2)
        for _ in range(3):
            t = ops.OperatorSpec(rng.uniform(0.1, 2.0, size=(4, 4)))
            rep = ops.verify_sum_regular(t, c, c, samples=150, seed=3)
            assert rep["violations"] == 0
            assert rep["split_factor_one"] and rep["split_factor_two"]
            assert rep["worst_ratio"] <= rep["bound"] * (1 + 5e-2)

    def test_needs_finite_leg_certificates(self):
        # neither leg's modulus |T| has a closed-form operator norm
        c = Couple(lat.lp(1.5, 2), lat.lp(3.0, 2))
        t = ops.OperatorSpec(np.array([[1.0, -1.0], [2.0, 1.0]]))
        with pytest.raises(PreconditionError):
            ops.verify_sum_regular(t, c, c, samples=10)

    def test_witness_replays(self):
        c = Couple(lat.lp(1.0, 3), lat.linf(3))
        rng = np.random.default_rng(8)
        t = ops.OperatorSpec(rng.uniform(0.1, 1.0, size=(3, 3)))
        rep = ops.verify_sum_regular(t, c, c, samples=60, seed=5)
        wit = rep["worst_witness"]
        assert wit is not None
        zs = np.asarray(wit["tuple"])
        from clinterp.couple import sum_norm

        den = sum_norm(c, np.sum(np.abs(zs), axis=0))
        num = sum_norm(c, np.max(np.abs(zs @ t.matrix.T), axis=0))
        assert num.upper / den.lower == pytest.approx(wit["ratio"], rel=1e-9)


class TestVerifyInterpolation:
    def test_identity_ratio_near_one(self):
        c = Couple(lat.lp(1.0, 3), lat.linf(3))
        rep = ops.verify_interpolation(
            ops.OperatorSpec(np.eye(3)), c, c, qc.power(0.5), samples=60, seed=0
        )
        assert rep["pass"]
        assert rep["worst_ratio"] <= 1.0 + 5e-2
        assert rep["gamma"] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0))

    def test_random_positive_operators_respect_bound(self):
        c = Couple(lat.lp(1.0, 4), lat.linf(4))
        rng = np.random.default_rng(11)
        for _ in range(2):
            t = ops.OperatorSpec(rng.uniform(0.1, 2.0, size=(4, 4)))
            rep = ops.verify_interpolation(t, c, c, qc.power(0.5), samples=80, seed=1)
            assert rep["violations"] == 0
            assert rep["pass"]
            assert rep["worst_ratio"] <= rep["bound"]

    def test_closure_variant_reported(self):
        c = Couple(lat.lp(1.0, 3), lat.linf(3))
        t = ops.OperatorSpec(np.diag([1.0, 2.0, 3.0]))
        rep = ops.verify_interpolation(t, c, c, qc.power(0.25), samples=40, seed=2)
        assert rep["variant"]["anchor"] == "closure-variant"
        assert rep["variant"]["pass"]
        assert rep["variant"]["samples"] == 40

    def test_bound_uses_proof_constants(self):
        c = Couple(lat.lp(1.0, 2), lat.linf(2))
        t = ops.OperatorSpec(np.eye(2))
        rep = ops.verify_interpolation(t, c, c, qc.power(0.5), samples=10, seed=0)
        gamma = 3.0 + 2.0 * math.sqrt(2.0)
        assert rep["bound"] == pytest.approx(2.0 * (2.0 + gamma) * rep["R"])


class TestSampleCounts:
    @pytest.mark.parametrize("count", [0, -5])
    def test_counts_below_one_raise(self, count):
        # a sampler runs the count it reports, so it needs at least one
        t = ops.OperatorSpec(np.eye(2))
        c = Couple(lat.lp(1.0, 2), lat.linf(2))
        with pytest.raises(DomainError):
            ops.l_convexity_probe(lat.lp(0.5, 8), 0.75, trials=count)
        with pytest.raises(DomainError):
            ops.k_constant(lat.lp(1.0, 3), samples=count)
        with pytest.raises(DomainError):
            ops.verify_sum_regular(t, c, c, samples=count)
        with pytest.raises(DomainError):
            ops.verify_interpolation(t, c, c, qc.power(0.5), samples=count)


class TestDeterminism:
    def test_equal_seeds_equal_reports(self):
        c = Couple(lat.lp(1.0, 3), lat.linf(3))
        rng = np.random.default_rng(6)
        t1 = ops.OperatorSpec(rng.uniform(0.1, 1.0, size=(3, 3)))
        t2 = ops.OperatorSpec(t1.matrix.copy())
        a = ops.verify_sum_regular(t1, c, c, samples=50, seed=7)
        b = ops.verify_sum_regular(t2, c, c, samples=50, seed=7)
        assert a == b
        ra = ops.rho_pq(t1, c.x0, c.x0, math.inf, 1.0, seed=3)
        rb = ops.rho_pq(t2, c.x0, c.x0, math.inf, 1.0, seed=3)
        assert ra.lower == rb.lower and ra.witness == rb.witness
        pa = ops.l_convexity_probe(lat.lp(0.5, 6), 0.8, trials=100, seed=9)
        pb = ops.l_convexity_probe(lat.lp(0.5, 6), 0.8, trials=100, seed=9)
        assert pa == pb
