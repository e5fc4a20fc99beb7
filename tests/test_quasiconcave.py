import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinterp.errors import (
    DescriptorError,
    DomainError,
    InvalidFunctionError,
)
from clinterp.quasiconcave import (
    affine_power,
    bk_decompose,
    capped_power,
    concave_majorant,
    eval_phi,
    harmonic,
    has_vanishing_limits,
    hull_function,
    is_doubly_bounded,
    max_function,
    min_function,
    mirror,
    parse_phi,
    phi0,
    phi1,
    pl_max,
    pl_min,
    power,
    slope,
    split_convex_part,
    sum_function,
    tabulated,
    verify_bk,
    zero_function,
)

ALL_FAMILIES = [
    power(0.25),
    power(0.5),
    power(0.75),
    power(0.0),
    power(1.0),
    power(0.5, coef=2.0),
    min_function(),
    max_function(),
    sum_function(),
    harmonic(),
    affine_power(1.0, 1.0, 0.5),
    affine_power(2.0, 3.0, 1.0),
    pl_max(1.0, 2.0),
    pl_min(2.0, 3.0),
    capped_power(0.5),
    tabulated([0.5, 1.0, 2.0, 4.0], [0.7, 1.0, 1.2, 1.3]),
    mirror(sum_function()),
    mirror(harmonic()),
]


class TestEvaluation:
    def test_power_closed_form(self):
        f = power(0.5)
        ts = np.array([0.25, 1.0, 4.0, 9.0])
        np.testing.assert_allclose(phi1(f, ts), np.sqrt(ts), rtol=1e-15)
        np.testing.assert_allclose(eval_phi(f, 4.0, 9.0), 6.0, rtol=1e-15)

    def test_harmonic_value(self):
        f = harmonic()
        assert eval_phi(f, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(
            eval_phi(f, 2.0, 3.0), 6.0 / 5.0, rtol=1e-15
        )

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for f in ALL_FAMILIES:
            s = rng.uniform(0.1, 10.0, size=50)
            t = rng.uniform(0.1, 10.0, size=50)
            lam = rng.uniform(0.5, 4.0, size=50)
            np.testing.assert_allclose(
                eval_phi(f, lam * s, lam * t),
                lam * eval_phi(f, s, t),
                rtol=1e-12,
            )

    def test_quasiconcave_monotonicity(self):
        ts = np.geomspace(1e-5, 1e5, 400)
        for f in ALL_FAMILIES:
            ys = phi1(f, ts)
            assert np.all(np.diff(ys) >= -1e-12 * ys[:-1]), f.family
            sl = ys / ts
            assert np.all(np.diff(sl) <= 1e-12 * sl[:-1]), f.family

    def test_boundary_extension(self):
        f = sum_function()
        assert eval_phi(f, 0.0, 0.0) == 0.0
        assert eval_phi(f, 3.0, 0.0) == 3.0 * f.phi1_at_zero
        assert eval_phi(f, 0.0, 5.0) == 5.0 * f.slope_at_infinity
        g = power(0.5)
        assert eval_phi(g, 3.0, 0.0) == 0.0
        assert eval_phi(g, 0.0, 5.0) == 0.0

    def test_boundary_limits_match_tails(self):
        # the stored constants must agree with actual limits along the axes
        for f in ALL_FAMILIES:
            lo, hi = phi1(f, 1e-9), phi1(f, 1e9)
            if math.isfinite(f.phi1_sup):
                assert hi == pytest.approx(f.phi1_sup, rel=1e-6, abs=1e-9)
            else:
                assert phi1(f, 1e18) > 10.0 * hi  # still growing
            if f.phi1_at_zero > 0.0:
                assert phi1(f, 1e-18) == pytest.approx(f.phi1_at_zero, rel=1e-6)
            else:
                assert phi1(f, 1e-18) < 0.5 * lo  # still shrinking to 0
            s_lo, s_hi = slope(f, 1e-9), slope(f, 1e9)
            if math.isfinite(f.slope_sup):
                assert s_lo == pytest.approx(f.slope_sup, rel=1e-6, abs=1e-9)
            else:
                assert slope(f, 1e-18) > 10.0 * s_lo
            if f.slope_at_infinity > 0.0:
                assert slope(f, 1e18) == pytest.approx(f.slope_at_infinity, rel=1e-6)
            else:
                assert slope(f, 1e18) < 0.5 * s_hi

    def test_mirror_swaps_arguments(self):
        rng = np.random.default_rng(11)
        for f in ALL_FAMILIES:
            g = mirror(f)
            s = rng.uniform(0.1, 10.0, size=20)
            t = rng.uniform(0.1, 10.0, size=20)
            np.testing.assert_allclose(
                eval_phi(g, s, t), eval_phi(f, t, s), rtol=1e-12
            )

    def test_mirror_involution_and_constants(self):
        f = affine_power(1.0, 1.0, 0.5)
        g = mirror(f)
        assert mirror(g) is f
        assert g.phi1_sup == f.slope_sup
        assert g.phi1_at_zero == f.slope_at_infinity
        assert mirror(power(0.3)).params[0] == pytest.approx(0.7)

    def test_mirror_of_harmonic_is_harmonic(self):
        # harmonic is symmetric, so mirror keeps the family and its closed forms
        g = mirror(harmonic())
        assert g.family == "harmonic"
        s, t = np.meshgrid(np.geomspace(0.01, 100.0, 15), np.geomspace(0.01, 100.0, 15))
        np.testing.assert_array_equal(eval_phi(g, s, t), eval_phi(harmonic(), s, t))

    def test_phi0_is_mirror_phi1(self):
        f = power(0.25)
        ts = np.geomspace(0.01, 100.0, 30)
        np.testing.assert_allclose(phi0(f, ts), phi1(mirror(f), ts), rtol=1e-13)

    def test_domain_errors(self):
        f = power(0.5)
        with pytest.raises(DomainError):
            eval_phi(f, -1.0, 2.0)
        with pytest.raises(DomainError):
            eval_phi(f, 1.0, float("nan"))
        with pytest.raises(DomainError):
            power(1.5)
        with pytest.raises(DomainError):
            affine_power(-1.0, 1.0, 0.5)


class TestTabulated:
    def test_repair_to_quasiconcave(self):
        f = tabulated([1.0, 2.0, 4.0], [1.0, 0.5, 2.0])
        # the dip at t=2 is filled by the envelope of the other rows
        assert phi1(f, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert phi1(f, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert phi1(f, 4.0) == pytest.approx(2.0, rel=1e-14)
        assert f.params[2] == pytest.approx(1.0)  # 0.5 doubled
        assert f.estimated_limits

    def test_linear_below_flat_above(self):
        f = tabulated([1.0, 2.0], [1.0, 1.5])
        assert phi1(f, 0.25) == pytest.approx(0.25, rel=1e-14)
        assert phi1(f, 100.0) == pytest.approx(1.5, rel=1e-14)
        assert f.phi1_at_zero == 0.0
        assert f.slope_at_infinity == 0.0

    def test_bad_input(self):
        with pytest.raises(InvalidFunctionError):
            tabulated([1.0], [1.0])
        with pytest.raises(InvalidFunctionError):
            tabulated([2.0, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidFunctionError):
            tabulated([1.0, 2.0], [0.0, 0.0])


class TestParse:
    def test_round_trips(self):
        assert parse_phi("power:0.5").params == (0.5, 1.0)
        assert parse_phi("min").family == "min"
        assert parse_phi("max").family == "max"
        assert parse_phi("sum").family == "sum"
        assert parse_phi("harmonic").family == "harmonic"
        f = parse_phi("affinepower:1,1,0.5")
        assert f.params == (1.0, 1.0, 0.5)

    def test_table_file(self, tmp_path):
        p = tmp_path / "phi.csv"
        p.write_text("1.0,1.0\n2.0,1.5\n")
        f = parse_phi(f"table:{p}")
        assert f.family == "tabulated"
        assert phi1(f, 2.0) == pytest.approx(1.5)

    def test_errors(self):
        with pytest.raises(DescriptorError):
            parse_phi("power:two")
        with pytest.raises(DescriptorError):
            parse_phi("gaussian")
        with pytest.raises(DescriptorError):
            parse_phi("table:/nonexistent/file.csv")


class TestConcaveMajorant:
    def test_chord_over_max(self):
        env = concave_majorant(max_function(), [0.25, 4.0])
        assert env(1.0) == pytest.approx(1.6, rel=1e-14)
        assert env(0.25) == pytest.approx(1.0, rel=1e-14)
        assert env(4.0) == pytest.approx(4.0, rel=1e-14)

    def test_outside_grid_rejected(self):
        env = concave_majorant(max_function(), [0.25, 4.0])
        with pytest.raises(DomainError):
            env(0.1)
        with pytest.raises(DomainError):
            env(5.0)

    def test_dominates_and_is_concave(self):
        grid = np.geomspace(0.01, 100.0, 101)
        for f in ALL_FAMILIES:
            env = concave_majorant(f, grid)
            vals = env(grid)
            assert np.all(vals >= phi1(f, grid) * (1 - 1e-12)), f.family
            sl = np.diff(env.knots_y) / np.diff(env.knots_t)
            assert np.all(np.diff(sl) <= 1e-10 * np.abs(sl[:-1]) + 1e-15), f.family

    def test_concave_function_unchanged(self):
        grid = np.geomspace(0.1, 10.0, 50)
        env = concave_majorant(power(0.5), grid)
        np.testing.assert_allclose(env(grid), np.sqrt(grid), rtol=1e-12)


class TestDoublyBounded:
    @pytest.mark.parametrize(
        "f,expected_flag,expected_c",
        [
            (min_function(), True, 1.0),
            (harmonic(), True, 1.0),
            (pl_min(2.0, 3.0), True, 3.0),
            (power(0.5), False, None),
            (sum_function(), False, None),
            (max_function(), False, None),
            (capped_power(0.5), False, None),
            (affine_power(1.0, 1.0, 0.5), False, None),
        ],
    )
    def test_table(self, f, expected_flag, expected_c):
        rec = is_doubly_bounded(f)
        assert rec["doubly_bounded"] is expected_flag
        if expected_flag:
            assert rec["C"] == pytest.approx(expected_c)
            assert rec["lower"] == pytest.approx(f.normalization)
            # sandwich phi(1,1) min <= phi <= C min on a grid
            ts = np.geomspace(1e-4, 1e4, 200)
            vals = phi1(f, ts)
            mins = np.minimum(1.0, ts)
            assert np.all(vals >= rec["lower"] * mins * (1 - 1e-12))
            assert np.all(vals <= rec["C"] * mins * (1 + 1e-12))

    def test_tabulated_indeterminate(self):
        f = tabulated([1.0, 2.0], [1.0, 1.0])
        rec = is_doubly_bounded(f)
        assert rec["doubly_bounded"] and rec["indeterminate"]


class TestSplit:
    def test_recomposition_exact(self):
        ts = np.geomspace(1e-6, 1e6, 300)
        for f in ALL_FAMILIES:
            pair = split_convex_part(f)
            total = phi1(pair.pl_part, ts) + phi1(pair.eta_part, ts)
            np.testing.assert_allclose(total, phi1(f, ts), rtol=1e-12, err_msg=f.family)

    def test_eta_vanishes(self):
        for f in ALL_FAMILIES:
            eta = split_convex_part(f).eta_part
            assert has_vanishing_limits(eta), f.family

    def test_pl_carries_limits(self):
        f = sum_function()
        pl = split_convex_part(f).pl_part
        assert pl.phi1_at_zero == f.phi1_at_zero
        assert pl.slope_at_infinity == f.slope_at_infinity

    def test_known_splits(self):
        assert split_convex_part(sum_function()).eta_part.family == "min"
        assert split_convex_part(max_function()).eta_part.family == "zero"
        assert split_convex_part(power(0.5)).pl_part.family == "zero"
        pair = split_convex_part(affine_power(2.0, 3.0, 1.0))
        assert pair.pl_part.params == (2.0, 3.0)
        assert pair.eta_part.family == "plmin"


class TestDecomposition:
    def test_power_half_q16_nodes(self):
        d = bk_decompose(power(0.5), 16.0, depth=8)
        assert d.q_prime == pytest.approx(4.0, rel=1e-15)
        assert d.center(0) == 1.0
        assert d.node(2) == pytest.approx(16.0, rel=1e-12)
        assert d.center(1) == pytest.approx(256.0, rel=1e-12)
        assert d.node(0) == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert d.center(-1) == pytest.approx(1.0 / 256.0, rel=1e-12)
        assert d.top_kind == "truncated" and d.bottom_kind == "truncated"
        assert d.M is None and d.N is None

    def test_power_half_q16_ratio(self):
        d = bk_decompose(power(0.5), 16.0, depth=8)
        rep = verify_bk(d, power(0.5), np.geomspace(1e-4, 1e4, 65))
        assert rep["pass"]
        assert rep["sum_bound"]["max_ratio"] == pytest.approx(17.0 / 15.0, abs=1e-8)

    def test_min_single_interval(self):
        d = bk_decompose(min_function(), 4.0)
        assert (d.M, d.N) == (0, 1)
        assert d.k_min == d.k_max == 0
        assert d.nodes == (0.0, 1.0, float("inf"))
        assert d.slacks == (0.0,)
        assert d.bottom_kind == "endpoint" and d.top_kind == "endpoint"

    def test_harmonic_q2_bookkeeping(self):
        d = bk_decompose(harmonic(), 2.0)
        assert (d.M, d.N) == (1, 2)
        assert d.node(2 * d.k_min) == 0.0
        assert math.isinf(d.node(2 * d.k_max + 2))

    def test_asymmetric_power_uses_bigger_factor(self):
        d = bk_decompose(power(0.25), 16.0, depth=8)
        assert d.alpha == pytest.approx(0.75)
        rep = verify_bk(d, power(0.25), np.geomspace(1e-4, 1e4, 65))
        assert rep["pass"]

    def test_affine_power_bottom_exhausted(self):
        d = bk_decompose(affine_power(1.0, 1.0, 0.5), 4.0, depth=6)
        assert d.bottom_kind == "exhausted"
        assert d.M is None
        assert d.node(2 * d.k_min) > 0.0

    def test_slacks_positive_and_capped(self):
        d = bk_decompose(power(0.5), 4.0, depth=5)
        for k in range(d.k_min, d.k_max + 1):
            t_lo, t_hi = d.node(2 * k), d.node(2 * k + 2)
            eps = d.slack(k)
            assert eps > 0.0
            if k > d.k_min:
                assert eps < t_lo - d.center(k - 1)
            if k < d.k_max:
                assert eps < d.center(k + 1) - t_hi

    def test_node_recurrences_hold(self):
        # marching identities: value up, slope down, both through q'
        d = bk_decompose(power(0.3), 9.0, depth=6)
        f = d.function
        qp = d.q_prime
        for k in range(d.k_min, d.k_max + 1):
            ck = d.center(k)
            t_hi = d.node(2 * k + 2)
            if math.isfinite(t_hi):
                assert phi1(f, t_hi) == pytest.approx(qp * phi1(f, ck), rel=1e-10)
            t_lo = d.node(2 * k)
            if t_lo > 0.0:
                assert slope(f, t_lo) == pytest.approx(qp * slope(f, ck), rel=1e-10)

    @pytest.mark.parametrize("q", [2.0, 4.0, 16.0])
    def test_all_families_verify(self, q):
        grid = np.geomspace(1e-3, 1e3, 41)
        for f in ALL_FAMILIES:
            d = bk_decompose(f, q, depth=8)
            rep = verify_bk(d, f, grid)
            assert rep["pass"], (f.family, q, rep)

    def test_majorant_path_for_max(self):
        d = bk_decompose(max_function(), 4.0)
        assert d.function.family == "sum"
        rep = verify_bk(d, max_function(), np.geomspace(0.01, 100.0, 33))
        assert rep["majorant"]["used"]
        # 1 + t is within factor 2 of max(1, t)
        assert rep["majorant"]["gap"] == pytest.approx(2.0, rel=1e-6)

    def test_tabulated_decomposes_via_hull(self):
        f = tabulated([0.5, 1.0, 2.0, 4.0], [0.7, 1.0, 1.2, 1.3])
        d = bk_decompose(f, 4.0)
        assert d.function.family == "hull"
        assert d.bottom_kind == "endpoint" and d.top_kind == "endpoint"
        rep = verify_bk(d, f, np.geomspace(0.01, 100.0, 33))
        assert rep["pass"]

    def test_verify_rejects_mismatched_function(self):
        d = bk_decompose(power(0.5), 4.0)
        with pytest.raises(DomainError):
            verify_bk(d, power(0.6), [0.5, 1.0, 2.0])

    def test_zero_function_rejected(self):
        with pytest.raises(InvalidFunctionError):
            bk_decompose(zero_function(), 4.0)

    def test_coverage_warning(self):
        d = bk_decompose(affine_power(1.0, 1.0, 0.5), 4.0, depth=3)
        rep = verify_bk(d, affine_power(1.0, 1.0, 0.5), np.geomspace(1e-8, 1e8, 33))
        assert rep["coverage"]["partial_warning"]

    def test_sum_bound_tightness_scaling(self):
        # the certified constant degrades toward 1 as q grows
        r16 = verify_bk(
            bk_decompose(power(0.5), 16.0), power(0.5), np.geomspace(0.01, 100, 41)
        )["sum_bound"]["max_ratio"]
        r4 = verify_bk(
            bk_decompose(power(0.5), 4.0), power(0.5), np.geomspace(0.01, 100, 41)
        )["sum_bound"]["max_ratio"]
        assert r16 < r4 <= 5.0 / 3.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mirror_decomposition_is_reflected(self, data):
        # node j of the mirror's decomposition is 1/node(2 - j) of the
        # function's, with the kinds swapped
        pos = st.floats(0.1, 10.0)
        kind = data.draw(st.sampled_from(
            ["power", "min", "max", "sum", "harmonic", "affinepower", "cappedpower",
             "plmax", "plmin", "tabulated", "hull"]))
        if kind == "power":
            f = power(data.draw(st.floats(0.01, 0.99)), data.draw(pos))
        elif kind == "affinepower":
            f = affine_power(data.draw(pos), data.draw(pos), data.draw(st.floats(0.05, 1.0)))
        elif kind == "cappedpower":
            f = capped_power(data.draw(st.floats(0.05, 1.0)))
        elif kind in ("plmax", "plmin"):
            f = (pl_max if kind == "plmax" else pl_min)(data.draw(pos), data.draw(pos))
        elif kind == "tabulated":
            ts = np.cumsum(data.draw(st.lists(pos, min_size=2, max_size=6)))
            f = tabulated(ts, data.draw(st.lists(pos, min_size=len(ts), max_size=len(ts))))
        elif kind == "hull":
            steps = data.draw(st.lists(pos, min_size=1, max_size=5))
            slopes = sorted(data.draw(st.lists(pos, min_size=len(steps), max_size=len(steps))),
                            reverse=True)
            ts = np.concatenate(([0.0], np.cumsum(steps)))
            y0 = data.draw(st.just(0.0) | pos)
            f = hull_function(ts, np.concatenate(([y0], y0 + np.cumsum(np.multiply(steps, slopes)))))
        else:
            f = {"min": min_function, "max": max_function, "sum": sum_function,
                 "harmonic": harmonic}[kind]()
        q = data.draw(st.sampled_from([2.0, 3.0, 4.0, 9.0, 16.0]))
        depth = data.draw(st.integers(1, 10))
        d = bk_decompose(f, q, depth)
        m = bk_decompose(mirror(f), q, depth)
        assert m.alpha == d.alpha
        assert (m.k_min, m.k_max) == (-d.k_max, -d.k_min)
        assert (m.bottom_kind, m.top_kind) == (d.top_kind, d.bottom_kind)
        for j in range(2 * m.k_min, 2 * m.k_max + 3):
            t, mirrored = m.node(j), d.node(2 - j)
            ref = math.inf if mirrored == 0.0 else 1.0 / mirrored
            assert t == ref or abs(t - ref) <= 1e-12 * ref, (j, t, ref)
        # and both sides of d follow the defining recurrences and the depth
        g, qp = d.function, d.q_prime
        for k in range(d.k_min, d.k_max + 1):
            ck, t_lo, t_hi = d.center(k), d.node(2 * k), d.node(2 * k + 2)
            if math.isfinite(t_hi):
                assert phi1(g, t_hi) == pytest.approx(qp * phi1(g, ck), rel=1e-10)
            if t_lo > 0.0:
                assert slope(g, t_lo) == pytest.approx(qp * slope(g, ck), rel=1e-10)
        assert d.top_kind != "truncated" or d.k_max == depth - 1
        assert d.bottom_kind != "truncated" or d.k_min == 1 - depth


_TAB_T, _TAB_Y = [0.1, 0.5, 1.0, 3.0, 10.0], [0.05, 0.4, 0.6, 1.5, 2.0]
_HULL_T, _HULL_Y = [0.0, 0.5, 2.0, 8.0], [0.5, 1.0, 1.6, 1.8]
# a log grid plus every knot below, where rounding in the form is most exposed
T_GRID = np.unique(np.concatenate((np.geomspace(1e-8, 1e8, 2001), _TAB_T, _HULL_T[1:],
                                   [6.0, 12.0])))
PIECEWISE_LINEAR = [
    (max_function(), lambda t: np.maximum(1.0, t)),
    (sum_function(), lambda t: 1.0 + t),
    (pl_max(1.5, 0.25), lambda t: np.maximum(1.5, 0.25 * t)),
    (pl_max(0.0, 3.0), lambda t: 3.0 * t),
    (pl_max(2.0, 0.0), lambda t: np.full_like(t, 2.0)),
    (pl_min(3.0, 0.25), lambda t: np.minimum(3.0, 0.25 * t)),
    (tabulated(_TAB_T, _TAB_Y),
     lambda t: np.max(np.multiply(_TAB_Y, np.minimum(1.0, t[:, None] / _TAB_T)), axis=1)),
    (hull_function(_HULL_T, _HULL_Y), lambda t: np.interp(t, _HULL_T, _HULL_Y)),
    (zero_function(), np.zeros_like),
]


class TestPiecewiseLinearForm:
    @pytest.mark.parametrize("f, formula", PIECEWISE_LINEAR,
                             ids=[f.family for f, _ in PIECEWISE_LINEAR])
    def test_phi1_matches_defining_formula(self, f, formula):
        ref = formula(T_GRID)
        assert np.all(np.abs(phi1(f, T_GRID) - ref) <= 1e-15 * ref)

    @pytest.mark.parametrize("f", [f for f, _ in PIECEWISE_LINEAR],
                             ids=[f.family for f, _ in PIECEWISE_LINEAR])
    def test_mirror_is_the_reflected_form(self, f):
        ref = T_GRID * phi1(f, 1.0 / T_GRID)
        assert np.all(np.abs(phi1(mirror(f), T_GRID) - ref) <= 1e-15 * ref)
