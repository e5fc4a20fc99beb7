import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinterp import pathology
from clinterp.errors import (
    DescriptorError,
    DomainError,
    InfeasibleDecompositionError,
)
from clinterp.lattice import (
    LatticeVector,
    abs_vector,
    join,
    krivine_apply,
    linf,
    lp,
    meet,
    norm,
    norm_rows,
    parse_lattice,
    riesz_decompose,
    submeasure_lp,
    vector,
    weighted_lp,
)
from clinterp.quasiconcave import harmonic, min_function, power

SPACES = [
    lp(1.0, 4),
    lp(2.0, 4),
    lp(0.5, 4),
    linf(4),
    weighted_lp(1.0, 4, [1.0, 2.0, 3.0, 4.0]),
    weighted_lp(0.5, 4, [0.5, 1.0, 1.5, 2.0]),
    submeasure_lp(0.5, 4),
]


def _layer_cake_norm(p: float, n: int, x) -> float:
    """L_p(phi_n) quasi-norm of the simple function with values |x_j| on the
    basic sets B_{e_j}: its level sets are nested unions of those sets."""
    a = np.abs(np.asarray(x, dtype=float))
    layers = []
    prev = 0.0
    for v in sorted(set(float(t) for t in a if t > 0.0)):
        basis = [[int(i == j) for j in range(n)] for i in np.flatnonzero(a >= v)]
        layers.append((v - prev, pathology.b_union(n, basis)))
        prev = v
    return pathology.lp_norm_simple(pathology.PathologySpace(n, p), layers)


def _drawn_space(data):
    d = data.draw(st.integers(1, 24))
    family = data.draw(st.sampled_from(["lp", "wlp", "sub", "linf"]))
    if family == "linf":
        return linf(d)
    if family == "sub":
        return submeasure_lp(data.draw(st.floats(0.2, 0.95)), d)
    p = data.draw(st.floats(0.25, 8.0))
    if family == "lp":
        return lp(p, d)
    return weighted_lp(p, d, data.draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d)))


class TestNorms:
    def test_l1(self):
        assert norm(lp(1.0, 2), [3.0, -4.0]) == pytest.approx(7.0)

    def test_lhalf(self):
        assert norm(lp(0.5, 2), [1.0, 1.0]) == pytest.approx(4.0)

    def test_linf(self):
        assert norm(linf(2), [3.0, -4.0]) == pytest.approx(4.0)

    def test_weighted(self):
        assert norm(weighted_lp(1.0, 2, [2.0, 5.0]), [1.0, -1.0]) == pytest.approx(7.0)

    def test_submeasure_closed_form(self):
        # the closed form against the exact layer-cake integral of pathology
        rng = np.random.default_rng(5)
        for p in (0.25, 0.5, 0.75):
            for n in (2, 3, 4, 5):
                space = submeasure_lp(p, n)
                for _ in range(10):
                    x = rng.uniform(-2.0, 2.0, size=n)
                    x[rng.integers(0, n)] = 0.0
                    x[rng.integers(0, n)] = -x[rng.integers(0, n)]  # a tie in |x|
                    expect = _layer_cake_norm(p, n, x)
                    assert norm(space, x) == pytest.approx(expect, rel=1e-12)
                assert norm(space, np.zeros(n)) == 0.0

    def test_modulus_constants(self):
        assert lp(1.0, 3).modulus_constant == 1.0
        assert lp(2.0, 3).modulus_constant == 1.0
        assert linf(3).modulus_constant == 1.0
        assert lp(0.5, 3).modulus_constant == 2.0
        assert submeasure_lp(0.5, 3).modulus_constant == 2.0

    def test_quasi_triangle(self):
        rng = np.random.default_rng(19)
        for space in SPACES:
            c = space.modulus_constant
            for _ in range(200):
                x = rng.normal(size=space.dim)
                y = rng.normal(size=space.dim)
                lhs = norm(space, x + y)
                rhs = c * (norm(space, x) + norm(space, y))
                assert lhs <= rhs * (1 + 1e-12), space.describe()

    def test_monotone(self):
        rng = np.random.default_rng(23)
        for space in SPACES:
            for _ in range(200):
                y = rng.uniform(0.0, 3.0, size=space.dim)
                x = y * rng.uniform(0.0, 1.0, size=space.dim)
                assert norm(space, x) <= norm(space, y) * (1 + 1e-12), space.describe()

    def test_homogeneous(self):
        rng = np.random.default_rng(29)
        for space in SPACES:
            x = rng.normal(size=space.dim)
            for lam in (0.25, 3.0):
                assert norm(space, lam * x) == pytest.approx(
                    lam * norm(space, x), rel=1e-12
                )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_norm_rows_matches_norm(self, data):
        space = data.draw(st.sampled_from(SPACES))
        support = np.flatnonzero(data.draw(
            st.lists(st.booleans(), min_size=space.dim, max_size=space.dim)
            .filter(any)))
        # magnitudes from 1e-6 keep a^p and (lam a)^p clear of underflow
        entries = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
        rows = np.array(data.draw(st.lists(
            st.lists(entries, min_size=len(support), max_size=len(support)),
            min_size=1, max_size=6)))
        lam = data.draw(st.floats(1e-3, 1e3))
        for row, value in zip(rows, norm_rows(space, rows, support)):
            full = np.zeros(space.dim)
            full[support] = row
            # the zeros off a partial support may change the dot's blocking
            if len(support) == space.dim:
                assert value == norm(space, full)
            else:
                assert value == pytest.approx(norm(space, full), rel=1e-12, abs=1e-300)
            assert norm(space, lam * full) == pytest.approx(
                lam * value, rel=1e-12, abs=1e-300)

    def test_norm_is_norm_rows_of_one_row(self):
        # one kernel: equal bits at exponents whose roots a SIMD power of an
        # array and the scalar power may round apart
        rng = np.random.default_rng(31)
        for p in (0.3, 0.7, 1.3, 2.3, 3.7):
            spaces = [lp(p, 5), weighted_lp(p, 5, rng.uniform(0.25, 4.0, 5))]
            if p < 1.0:
                spaces.append(submeasure_lp(p, 5))
            for space in spaces:
                rows = rng.uniform(0.0, 3.0, (200, 5))
                want = [norm(space, row) for row in rows]
                assert norm_rows(space, rows, np.arange(5)).tolist() == want
                assert [norm_rows(space, row[None, :], np.arange(5))[0]
                        for row in rows] == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_norm_rows_do_not_depend_on_the_batch(self, data):
        # a row's value, to the last bit, is the same alone, in any
        # sub-batch, in any order and in either memory layout
        space = _drawn_space(data)
        support = np.flatnonzero(data.draw(
            st.lists(st.booleans(), min_size=space.dim, max_size=space.dim)
            .filter(any)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        rows = rng.uniform(0.0, 3.0, (data.draw(st.integers(1, 64)), len(support)))
        batch = norm_rows(space, rows, support)
        order = np.array(data.draw(st.permutations(range(len(rows)))))
        pick = order[: data.draw(st.integers(1, len(rows)))]
        np.testing.assert_array_equal(norm_rows(space, rows[pick], support), batch[pick])
        np.testing.assert_array_equal(norm_rows(space, np.asfortranarray(rows), support), batch)
        alone = [norm_rows(space, row[None, :], support)[0] for row in rows]
        assert alone == batch.tolist()

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            norm(lp(1.0, 3), [1.0, 2.0])
        with pytest.raises(DomainError):
            vector(lp(1.0, 3), [1.0, 2.0])


class TestParse:
    def test_round_trips(self):
        assert parse_lattice("lp:0.5:4").describe() == "lp:0.5:4"
        assert parse_lattice("wlp:1:4:1,2,3,4").weights == (1.0, 2.0, 3.0, 4.0)
        assert parse_lattice("linf:4").family == "linf"
        s = parse_lattice("sub:0.5:3")
        assert s.family == "sub" and s.pathology_space.n == 3

    def test_errors(self):
        for bad in ("lp:0:4", "lp:1", "wlp:1:2:1", "wlp:1:2:1,-1", "lq:1:2", "sub:1:3"):
            with pytest.raises(DescriptorError):
                parse_lattice(bad)


class TestLatticeOps:
    def test_abs_join_meet(self):
        space = lp(1.0, 2)
        x = vector(space, [-1.0, 2.0])
        y = vector(space, [0.0, 1.0])
        assert np.array_equal(abs_vector(x).entries, [1.0, 2.0])
        assert np.array_equal(join(x, y).entries, [0.0, 2.0])
        assert np.array_equal(meet(x, y).entries, [-1.0, 1.0])

    def test_standard_examples(self):
        space = lp(1.0, 2)
        a = vector(space, [1.0, 0.0])
        b = vector(space, [0.0, 1.0])
        assert np.array_equal(join(a, b).entries, [1.0, 1.0])
        assert np.array_equal(meet(a, b).entries, [0.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            join(vector(lp(1.0, 2), [1, 2]), vector(lp(1.0, 3), [1, 2, 3]))


class TestKrivine:
    def test_power_half(self):
        space = lp(1.0, 2)
        out = krivine_apply(power(0.5), vector(space, [4.0, 1.0]), vector(space, [1.0, 4.0]))
        np.testing.assert_allclose(out.entries, [2.0, 2.0], rtol=1e-15)

    def test_min(self):
        space = lp(1.0, 2)
        out = krivine_apply(min_function(), vector(space, [1.0, 3.0]), vector(space, [2.0, 2.0]))
        np.testing.assert_allclose(out.entries, [1.0, 2.0], rtol=1e-15)

    def test_diagonal_homogeneity(self):
        space = lp(2.0, 3)
        x = vector(space, [1.0, 2.0, 3.0])
        out = krivine_apply(harmonic(), x, x)
        np.testing.assert_allclose(out.entries, 0.5 * x.entries, rtol=1e-15)

    def test_scaling(self):
        space = lp(2.0, 3)
        rng = np.random.default_rng(31)
        x0 = vector(space, rng.uniform(0.1, 2.0, 3))
        x1 = vector(space, rng.uniform(0.1, 2.0, 3))
        lam = 3.5
        a = krivine_apply(power(0.3), vector(space, lam * x0.entries), vector(space, lam * x1.entries))
        b = krivine_apply(power(0.3), x0, x1)
        np.testing.assert_allclose(a.entries, lam * b.entries, rtol=1e-14)

    def test_rejects_negative(self):
        space = lp(1.0, 2)
        with pytest.raises(DomainError):
            krivine_apply(power(0.5), vector(space, [-1.0, 1.0]), vector(space, [1.0, 1.0]))


class TestRiesz:
    def test_tiny_example(self):
        space = lp(1.0, 2)
        z = vector(space, [1.0, -1.0])
        u = vector(space, [1.0, 0.0])
        v = vector(space, [0.0, 1.0])
        [(u1, v1)] = riesz_decompose([z], u, v)
        np.testing.assert_allclose(u1.entries, [1.0, 0.0])
        np.testing.assert_allclose(v1.entries, [0.0, -1.0])

    def test_mass_on_one_side(self):
        space = lp(1.0, 2)
        z = vector(space, [1.0, 0.0])
        u = vector(space, [2.0, 0.0])
        v = vector(space, [0.0, 0.0])
        pairs = riesz_decompose([z, z], u, v)
        for ui, vi in pairs:
            np.testing.assert_allclose(ui.entries, [1.0, 0.0])
            np.testing.assert_allclose(vi.entries, [0.0, 0.0])

    def test_factor_bounds_random(self):
        rng = np.random.default_rng(41)
        space = lp(1.0, 4)
        for _ in range(300):
            u = vector(space, rng.uniform(0.0, 2.0, 4))
            v = vector(space, rng.uniform(0.0, 2.0, 4))
            k = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(k)) * 0.98
            signs = rng.choice([-1.0, 1.0], size=(k, 4))
            zs = [vector(space, w[i] * (u.entries + v.entries) * signs[i]) for i in range(k)]
            pairs = riesz_decompose(zs, u, v)
            su = np.sum([np.abs(ui.entries) for ui, _ in pairs], axis=0)
            sv = np.sum([np.abs(vi.entries) for _, vi in pairs], axis=0)
            # factor-1 strengthening, coordinatewise
            assert np.all(su <= u.entries)
            assert np.all(sv <= v.entries)
            # the promised factor-2 contract, a fortiori
            assert np.all(su <= 2.0 * u.entries)
            assert np.all(sv <= 2.0 * v.entries)
            # recomposition to rounding (v_i is defined as z_i - u_i)
            for z, (ui, vi) in zip(zs, pairs):
                np.testing.assert_allclose(
                    ui.entries + vi.entries, z.entries, rtol=1e-15, atol=1e-15
                )

    def test_infeasible_names_coordinate(self):
        space = lp(1.0, 3)
        z = vector(space, [1.0, 5.0, 0.0])
        u = vector(space, [1.0, 1.0, 1.0])
        v = vector(space, [1.0, 1.0, 1.0])
        with pytest.raises(InfeasibleDecompositionError) as err:
            riesz_decompose([z], u, v)
        assert err.value.coordinate == 1

    def test_rejects_negative_dominators(self):
        space = lp(1.0, 2)
        with pytest.raises(DomainError):
            riesz_decompose(
                [vector(space, [0.0, 0.0])],
                vector(space, [-1.0, 1.0]),
                vector(space, [1.0, 1.0]),
            )

    def test_empty_input(self):
        space = lp(1.0, 2)
        assert riesz_decompose([], vector(space, [1.0, 1.0]), vector(space, [1.0, 1.0])) == []
