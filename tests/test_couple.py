import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize, minimize_scalar

from clinterp import couple as cp
from clinterp import lattice as lat
from clinterp import quasiconcave as qc
from clinterp.errors import (
    DescriptorError,
    DomainError,
    InfeasibleDecompositionError,
    PreconditionError,
    UnsupportedExpressionError,
)

L1_LINF_2 = cp.Couple(lat.lp(1.0, 2), lat.linf(2))
POWER_HALF = qc.power(0.5)


class TestCoupleBasics:
    def test_parse_round_trip(self):
        c = cp.parse_couple("lp:1:2|linf:2")
        assert c.x0.family == "lp" and c.x1.family == "linf"
        assert cp.parse_couple(c.describe()).describe() == c.describe()

    def test_parse_rejects(self):
        with pytest.raises(DescriptorError):
            cp.parse_couple("lp:1:2")
        with pytest.raises(DescriptorError):
            cp.parse_couple("lp:1:2|linf:2|lp:2:2")

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            cp.Couple(lat.lp(1.0, 2), lat.linf(3))

    def test_intersection(self):
        assert cp.intersection_norm(L1_LINF_2, [1.0, 2.0]) == pytest.approx(3.0)


def _drawn_leg(data, d, kinds=("lp", "wlp", "sub"), p_range=(0.5, 3.0)):
    kind = data.draw(st.sampled_from(kinds))
    if kind == "sub":
        return lat.submeasure_lp(data.draw(st.floats(0.5, 0.99)), d)
    fixed = [p for p in (0.5, 1.0, 2.0) if p_range[0] <= p <= p_range[1]]
    p = data.draw(st.sampled_from(fixed) | st.floats(*p_range))
    if kind == "lp":
        return lat.lp(p, d)
    w = data.draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d))
    return lat.weighted_lp(p, d, w)


def _drawn_x(data, d):
    return np.array(data.draw(st.lists(st.just(0.0) | st.floats(0.05, 5.0),
                                       min_size=d, max_size=d)))


def _scalar_polish(c, a, x0, sweeps=60):
    """The reference polish: cyclic coordinate descent with scipy's bounded
    minimize_scalar on each coordinate, ends included."""
    x0 = x0.copy()
    current = lat.norm(c.x0, x0) + lat.norm(c.x1, a - x0)
    for _ in range(sweeps):
        previous = current
        for j in np.flatnonzero(a):
            def h(s, j=j):
                old, x0[j] = x0[j], s
                val = lat.norm(c.x0, x0) + lat.norm(c.x1, a - x0)
                x0[j] = old
                return val

            res = minimize_scalar(h, bounds=(0.0, a[j]), method="bounded",
                                  options={"xatol": 1e-13 * max(1.0, a[j])})
            val, s = min((h(0.0), 0.0), (h(a[j]), a[j]), (res.fun, res.x))
            if val < current:
                x0[j], current = s, val
        if not current < previous:
            break
    return current


class TestSumNorm:
    def test_l1_linf_cap_example(self):
        # h(t) = (3-t) + (1-t)+ + t is flat at 3 on [1, 3]; the nested
        # shortcut must land on the same value the cap scan finds
        est = cp.sum_norm(L1_LINF_2, [3.0, 1.0])
        assert est.upper == pytest.approx(3.0, rel=1e-9)
        assert est.lower == pytest.approx(est.upper)
        assert est.method == "nested-legs"
        weighted = cp.Couple(lat.weighted_lp(1.0, 2, [1.0, 1.0]), lat.linf(2))
        scan = cp.sum_norm(weighted, [3.0, 1.0])
        assert scan.method == "linf-cap"
        assert scan.upper == pytest.approx(est.upper, rel=1e-9)
        x0 = np.asarray(est.witness["x0"])
        x1 = np.array([3.0, 1.0]) - x0
        assert lat.norm(L1_LINF_2.x0, x0) + lat.norm(L1_LINF_2.x1, x1) \
            == pytest.approx(est.upper, rel=1e-9)

    def test_swapped_linf_leg(self):
        c = cp.Couple(lat.linf(2), lat.lp(1.0, 2))
        est = cp.sum_norm(c, [3.0, 1.0])
        assert est.upper == pytest.approx(3.0, rel=1e-9)

    def test_identical_convex_legs(self):
        c = cp.Couple(lat.lp(2.0, 2), lat.lp(2.0, 2))
        est = cp.sum_norm(c, [3.0, 4.0])
        assert est.upper == pytest.approx(5.0)
        assert est.lower == est.upper

    def test_both_linf(self):
        c = cp.Couple(lat.linf(2), lat.linf(2))
        assert cp.sum_norm(c, [2.0, 1.0]).upper == pytest.approx(2.0, rel=1e-9)

    def test_weighted_l1_pair_separable(self):
        # coordinatewise: each unit of |x_j| goes to the cheaper weight
        c = cp.Couple(lat.weighted_lp(1.0, 2, [1.0, 3.0]),
                      lat.weighted_lp(1.0, 2, [2.0, 1.0]))
        est = cp.sum_norm(c, [1.0, 1.0], starts=8, iters=120)
        assert est.method == "separable-l1"
        assert est.upper == est.lower == 2.0
        assert est.witness["x0"] == [1.0, 0.0]

    def test_quasinorm_identical_legs_split(self):
        # for p = 1/2 the coordinate split beats every proportional one and
        # the l1 relaxation certifies the value
        c = cp.Couple(lat.lp(0.5, 2), lat.lp(0.5, 2))
        est = cp.sum_norm(c, [1.0, 1.0], starts=8, iters=120)
        assert est.upper == pytest.approx(2.0, rel=1e-6)
        assert est.lower == pytest.approx(2.0, rel=1e-9)

    def test_zero_vector(self):
        est = cp.sum_norm(L1_LINF_2, [0.0, 0.0])
        assert est.upper == 0.0 and est.lower == 0.0

    def test_dominated_by_each_leg(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(0.0, 3.0, 2)
            est = cp.sum_norm(L1_LINF_2, x)
            assert est.upper <= lat.norm(L1_LINF_2.x0, x) * (1 + 1e-9)
            assert est.upper <= lat.norm(L1_LINF_2.x1, x) * (1 + 1e-9)
            assert est.lower <= est.upper * (1 + 1e-15)

    def test_homogeneous(self):
        rng = np.random.default_rng(6)
        c = cp.Couple(lat.lp(2.0, 3), lat.lp(1.0, 3))
        for _ in range(5):
            x = rng.uniform(0.1, 2.0, 3)
            a = cp.sum_norm(c, x, starts=8, iters=120).upper
            b = cp.sum_norm(c, 3.0 * x, starts=8, iters=120).upper
            assert b == pytest.approx(3.0 * a, rel=1e-6)

    @pytest.mark.parametrize("couple, x, seed", [
        ("sub:0.75:5|sub:0.75:5",
         [0.0, 1.6514551806720272, 1.0809362808666907, 0.7143664034583346, 1.6119549617651103],
         755),
        ("sub:0.75:5|sub:0.5:5",
         [0.792641630192761, 0.5300309085701715, 1.5787350265483793, 1.4324784020850503,
          1.3828751400775232],
         351),
    ])
    def test_vertex_optimum(self, couple, x, seed):
        # with both exponents below 1 the split objective is concave, so its
        # minimum is a coordinate split; a search without the corner rows
        # stops above it on the second couple
        c = cp.parse_couple(couple)
        a = np.asarray(x)
        vertex = min(lat.norm(c.x0, a * s) + lat.norm(c.x1, a * (1.0 - s))
                     for s in map(np.array, itertools.product([0.0, 1.0], repeat=len(a))))
        est = cp.sum_norm(c, a, seed=seed)
        assert est.upper <= vertex * (1.0 + 1e-12)

    def test_face_optimum(self):
        # a convex leg against a p < 1 leg: the optimum has s_3 = 1 and s_1,
        # s_2 inside (0, 1), reached by descent from the corner (0, 0, 1);
        # a search that follows only the best seed row stops 2 % above it
        c = cp.parse_couple("lp:3:3|sub:0.5:3")
        a = np.array([1.1498466048245908, 1.7765494034201768, 0.46279728495962114])
        face = minimize(lambda t: lat.norm(c.x0, a * [t[0], t[1], 1.0])
                        + lat.norm(c.x1, a * [1.0 - t[0], 1.0 - t[1], 0.0]),
                        [0.25, 0.25], method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-15})
        est = cp.sum_norm(c, a, seed=473)
        assert est.upper <= face.fun * (1.0 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_search_properties(self, data):
        # random lp/wlp/sub couples with zeros in x: the bracket sits below
        # both legs, the witness is a split of |x| that recomposes to the
        # upper bound, and the estimate is homogeneous and seed-determined
        d = data.draw(st.integers(1, 5))
        legs = []
        for _ in range(2):
            kind = data.draw(st.sampled_from(["lp", "wlp", "sub"]))
            if kind == "sub":
                legs.append(lat.submeasure_lp(data.draw(st.floats(0.5, 0.99)), d))
                continue
            p = data.draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.5, 3.0))
            if kind == "lp":
                legs.append(lat.lp(p, d))
            else:
                w = data.draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d))
                legs.append(lat.weighted_lp(p, d, w))
        c = cp.Couple(*legs)
        a = np.array(data.draw(st.lists(st.just(0.0) | st.floats(0.05, 5.0),
                                        min_size=d, max_size=d)))
        seed = data.draw(st.integers(0, 2**16))
        est = cp.sum_norm(c, a, seed=seed)
        assert est.lower <= est.upper
        assert est.upper <= min(lat.norm(c.x0, a), lat.norm(c.x1, a)) * (1.0 + 1e-12)
        x0 = np.asarray(est.witness["x0"])
        assert np.all(0.0 <= x0) and np.all(x0 <= a)
        split = lat.norm(c.x0, x0) + lat.norm(c.x1, a - x0)
        assert split == pytest.approx(est.upper, rel=1e-12, abs=0.0)
        scaled = cp.sum_norm(c, 3.0 * a, seed=seed)
        assert scaled.upper == pytest.approx(3.0 * est.upper, rel=1e-9, abs=0.0)
        assert cp.sum_norm(c, a, seed=seed) == est


    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_polish_matches_scalar_reference(self, data):
        # from the batched search's best row, the interval-grid polish ends
        # no higher than scipy's minimize_scalar coordinate descent
        d = data.draw(st.integers(1, 5))
        c = cp.Couple(_drawn_leg(data, d), _drawn_leg(data, d))
        a = _drawn_x(data, d)
        starts = []
        polish = cp._coordinate_descent

        def spy(c, a, x0, *args):
            starts.append(x0.copy())
            return polish(c, a, x0, *args)

        with mock.patch.object(cp, "_coordinate_descent", spy):
            est = cp.sum_norm(c, a, seed=data.draw(st.integers(0, 2**16)))
        if starts:
            assert est.upper <= _scalar_polish(c, a, starts[0]) * (1.0 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_dual_lower_bound_is_sound(self, data):
        # on convex legs the lower bound is a duality bound: no split scipy
        # finds, from s = 1/2 or from the returned witness, lies below it,
        # and it closes on the value up to the polish's accuracy
        d = data.draw(st.integers(1, 5))
        legs = [lat.linf(d) if data.draw(st.integers(0, 5)) == 0
                else _drawn_leg(data, d, kinds=("lp", "wlp"), p_range=(1.0, 4.0))
                for _ in range(2)]
        c = cp.Couple(*legs)
        a = _drawn_x(data, d)
        est = cp.sum_norm(c, a, seed=data.draw(st.integers(0, 2**16)))

        def split(s):
            return lat.norm(c.x0, a * s) + lat.norm(c.x1, a * (1.0 - s))

        witness = np.divide(est.witness["x0"], a, out=np.zeros(d), where=a > 0)
        ref = min(minimize(split, s, bounds=[(0.0, 1.0)] * d, method="L-BFGS-B").fun
                  for s in (np.full(d, 0.5), witness))
        assert est.lower <= ref * (1.0 + 1e-15)
        if est.method in ("batched-search", "linf-cap"):
            assert est.lower >= est.upper * (1.0 - 1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_linf_cap_matches_dense_scan(self, seed):
        # h(t) = ||(|x| - t)+||_other + t on 20001 points and every |x_j|,
        # computed here from the weighted lp formula
        rng = np.random.default_rng(seed)
        d = 5
        for other in (lat.lp(1.5, d), lat.weighted_lp(1.0, d, rng.uniform(0.1, 0.5, d)),
                      lat.weighted_lp(0.7, d, rng.uniform(0.25, 4.0, d)),
                      lat.submeasure_lp(0.6, d)):
            a = rng.uniform(0.1, 2.0, d)
            val, capped = cp._sum_with_linf(other, a)
            ts = np.concatenate([np.linspace(0.0, a.max(), 20001), a])
            rest = np.maximum(a[None, :] - ts[:, None], 0.0)
            dense = float(np.min((rest**other.p @ other.w) ** (1.0 / other.p) + ts))
            assert dense * (1.0 - 1e-6) <= val <= dense * (1.0 + 1e-12)
            assert lat.norm(other, a - capped) + np.max(capped) == pytest.approx(val, rel=1e-12)


class TestClNormOracles:
    def test_l1_linf_power_half(self):
        est = cp.cl_norm(L1_LINF_2, POWER_HALF, [1.0, 1.0])
        assert est.upper == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert est.lower == est.upper
        assert est.method == "oracle:power"
        u = np.asarray(est.witness["u"])
        v = np.asarray(est.witness["v"])
        lam = est.witness["lam"]
        assert lat.norm(L1_LINF_2.x0, u) <= 1 + 1e-12
        assert lat.norm(L1_LINF_2.x1, v) <= 1 + 1e-12
        assert np.allclose(lam * qc.eval_phi(POWER_HALF, u, v), [1.0, 1.0], rtol=1e-12)

    def test_weighted_power(self):
        c = cp.Couple(lat.weighted_lp(1.0, 2, [1.0, 2.0]), lat.linf(2))
        est = cp.cl_norm(c, POWER_HALF, [1.0, 1.0])
        assert est.upper == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_l2_l1_power(self):
        c = cp.Couple(lat.lp(2.0, 2), lat.lp(1.0, 2))
        est = cp.cl_norm(c, POWER_HALF, [1.0, 2.0])
        # 1/r = (1/2)/2 + (1/2)/1, so r = 4/3 and the value is the r-norm
        assert est.upper == pytest.approx((1.0 + 2.0 ** (4.0 / 3.0)) ** 0.75, rel=1e-12)
        u = np.asarray(est.witness["u"])
        v = np.asarray(est.witness["v"])
        vals = est.witness["lam"] * qc.eval_phi(POWER_HALF, u, v)
        assert np.allclose(vals, [1.0, 2.0], rtol=1e-12)

    def test_quasinorm_legs_power(self):
        c = cp.Couple(lat.lp(0.5, 2), lat.lp(1.0, 2))
        est = cp.cl_norm(c, POWER_HALF, [1.0, 1.0])
        # 1/r = (1/2)/(1/2) + (1/2)/1 = 3/2
        assert est.upper == pytest.approx(2.0 ** 1.5, rel=1e-12)

    def test_min_is_intersection(self):
        est = cp.cl_norm(L1_LINF_2, qc.min_function(), [1.0, 2.0])
        assert est.upper == pytest.approx(3.0, rel=1e-12)
        assert est.method == "oracle:min-intersection"

    def test_theta_endpoints(self):
        c = cp.Couple(lat.lp(2.0, 2), lat.lp(1.0, 2))
        x = [0.6, 0.8]
        assert cp.cl_norm(c, qc.power(0.0), x).upper == pytest.approx(1.0, rel=1e-12)
        assert cp.cl_norm(c, qc.power(1.0), x).upper == pytest.approx(1.4, rel=1e-12)

    def test_plmax_assignment(self):
        c = cp.Couple(lat.lp(1.0, 2), lat.linf(2))
        est = cp.cl_norm(c, qc.pl_max(2.0, 3.0), [4.0, 4.0])
        # all mass on the second leg: max(4, 4)/3 beats every other assignment
        assert est.upper == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert est.method == "oracle:plmax"

    def test_plmax_split_assignment(self):
        c = cp.Couple(lat.lp(1.0, 2), lat.lp(1.0, 2))
        est = cp.cl_norm(c, qc.pl_max(1.0, 1.0), [1.0, 1.0])
        assert est.upper == pytest.approx(1.0, rel=1e-12)

    def test_linf_pair_any_function(self):
        c = cp.Couple(lat.linf(2), lat.linf(2))
        est = cp.cl_norm(c, qc.harmonic(), [2.0, 1.0])
        assert est.upper == pytest.approx(4.0, rel=1e-12)  # phi(1,1) = 1/2

    def test_zero_vector_and_zero_function(self):
        assert cp.cl_norm(L1_LINF_2, POWER_HALF, [0.0, 0.0]).upper == 0.0
        est = cp.cl_norm(L1_LINF_2, qc.zero_function(), [1.0, 0.0])
        assert est.upper == math.inf and "infeasible" in est.flags

    def test_max_goes_to_its_oracle(self):
        # max is pl_max(1, 1), so its exact value comes from the same
        # assignment oracle, inside the search's certified bracket
        c = cp.parse_couple("lp:1:3|lp:2:3")
        x = np.random.default_rng(0).uniform(0.1, 2.0, 3)
        est = cp.cl_norm(c, qc.max_function(), x, method="oracle")
        assert est.method == "oracle:plmax"
        assert est.lower == est.upper == cp.cl_norm(c, qc.pl_max(1.0, 1.0), x).upper
        assert est.upper == pytest.approx(1.3102272059, rel=1e-10)
        searched = cp.cl_norm(c, qc.max_function(), x, method="optimize")
        assert searched.lower <= est.upper <= searched.upper

    def test_oracle_method_rejects_harmonic(self):
        with pytest.raises(UnsupportedExpressionError):
            cp.cl_norm(L1_LINF_2, qc.harmonic(), [1.0, 1.0], method="oracle")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_batched_closed_form_matches_scalar_oracle(self, data):
        # one block of rows with zeros, scored at once, against cl_norm's
        # closed form on each row alone: min, power, plmax (beta = 0
        # included), max and the l-infinity pair on random couples
        d = data.draw(st.integers(1, 5))
        kind = data.draw(st.sampled_from(["min", "power", "plmax", "max", "linf-pair"]))
        if kind == "linf-pair":
            c = cp.Couple(lat.linf(d), lat.linf(d))
            f = data.draw(st.sampled_from([qc.harmonic(), qc.sum_function(),
                                           qc.affine_power(1.0, 1.0, 0.5)]))
        else:
            kinds = ("lp", "wlp", "sub", "linf")
            c = cp.Couple(_drawn_leg(data, d, kinds), _drawn_leg(data, d, kinds))
            f = {"min": qc.min_function(), "max": qc.max_function()}.get(kind)
            if kind == "power":
                f = qc.power(data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                             data.draw(st.floats(0.5, 2.0)))
            elif kind == "plmax":
                f = qc.pl_max(data.draw(st.floats(0.25, 3.0)),
                              data.draw(st.just(0.0) | st.floats(0.25, 3.0)))
        rows = np.stack([_drawn_x(data, d) for _ in range(data.draw(st.integers(1, 6)))])
        method, lams, us, vs = cp._oracle_rows(c, f, rows)
        for row, lam, u, v in zip(rows, lams, us, vs):
            est = cp.cl_norm(c, f, row, method="oracle")
            assert lam == pytest.approx(est.upper, rel=1e-15, abs=0.0)
            if est.method == "zero" or not math.isfinite(est.upper):
                continue
            # every witness lies in the unit balls and dominates its row
            assert cp._witness_fault(c, f, row, u, v, lam) is None
            assert method == est.method
            assert u == pytest.approx(np.asarray(est.witness["u"]), rel=1e-15, abs=0.0)
            assert v == pytest.approx(np.asarray(est.witness["v"]), rel=1e-15, abs=0.0)
        # a single row scores exactly as cl_norm does
        one = cp._oracle_rows(c, f, rows[:1])[1][0]
        assert one == cp.cl_norm(c, f, rows[0], method="oracle").upper

    @pytest.mark.parametrize("couple, theta", [("lp:1:2|linf:2", 1.0), ("linf:2|lp:2:2", 0.0),
                                               ("wlp:0.5:2:1,3|linf:2", 1.0)])
    def test_power_on_an_linf_leg_alone(self, couple, theta):
        # theta puts the whole exponent on the l-infinity leg: the value is
        # max x / coef, the finite leg's witness 0 and the other's 1
        c = cp.parse_couple(couple)
        x = np.array([1.0, 2.0])
        est = cp.cl_norm(c, qc.power(theta, 2.0), x, method="oracle")
        assert est.method == "oracle:power" and est.upper == 1.0
        u, v = np.asarray(est.witness["u"]), np.asarray(est.witness["v"])
        assert cp._witness_fault(c, qc.power(theta, 2.0), x, u, v, est.upper) is None
        assert (u.tolist(), v.tolist()) == (([0.0] * 2, [1.0] * 2) if theta else
                                            ([1.0] * 2, [0.0] * 2))

    def test_no_closed_form_rows(self):
        # no closed form for harmonic on a mixed couple, nor for an
        # assignment over more than 12 support coordinates
        rows = np.ones((2, 13))
        assert cp._oracle_rows(cp.parse_couple("lp:1:13|lp:2:13"), qc.harmonic(), rows) is None
        assert cp._oracle_rows(cp.parse_couple("lp:1:13|lp:2:13"), qc.max_function(),
                               rows) is None
        # the l-infinity pair still answers for max there
        method, lam, _, _ = cp._oracle_rows(cp.parse_couple("linf:13|linf:13"),
                                            qc.max_function(), rows)
        assert method == "oracle:linf-pair" and lam.tolist() == [1.0, 1.0]

    def test_optimize_skips_the_closed_form(self):
        with mock.patch.object(cp, "_oracle_rows", side_effect=AssertionError):
            est = cp.cl_norm(L1_LINF_2, POWER_HALF, [1.0, 2.0], method="optimize",
                             certify_lower=False)
        assert est.method == "optimize"


class TestClNormOptimizer:
    def test_matches_power_oracle(self):
        c = cp.Couple(lat.lp(2.0, 2), lat.lp(1.0, 2))
        x = [1.0, 2.0]
        exact = cp.cl_norm(c, POWER_HALF, x, method="oracle").upper
        est = cp.cl_norm(c, POWER_HALF, x, method="optimize", starts=16, iters=150)
        assert est.upper >= exact * (1 - 1e-9)
        assert est.upper <= exact * (1 + 1e-3)
        assert est.lower <= est.upper

    def test_matches_oracle_asymmetric_power(self):
        c = cp.Couple(lat.lp(1.0, 3), lat.lp(2.0, 3))
        f = qc.power(0.3)
        x = [0.5, 1.0, 2.0]
        exact = cp.cl_norm(c, f, x, method="oracle").upper
        est = cp.cl_norm(c, f, x, method="optimize", starts=16, iters=150)
        assert est.upper == pytest.approx(exact, rel=1e-3)

    def test_matches_oracle_quasinorm_leg(self):
        c = cp.Couple(lat.lp(0.5, 2), lat.lp(1.0, 2))
        x = [1.0, 3.0]
        exact = cp.cl_norm(c, POWER_HALF, x, method="oracle").upper
        est = cp.cl_norm(c, POWER_HALF, x, method="optimize", starts=16, iters=150)
        assert est.upper == pytest.approx(exact, rel=1e-3)

    def test_harmonic_exact_value(self):
        # max_j x_j (1/u_j + 1/v_j) with v = ones and the l1 budget equalized
        est = cp.cl_norm(L1_LINF_2, qc.harmonic(), [1.0, 1.0], starts=16, iters=150)
        assert est.upper == pytest.approx(3.0, rel=1e-6)
        assert "grid-certified" in est.flags
        assert 0.0 < est.lower <= est.upper
        assert est.lower >= 3.0 / 10.0  # coarse but honest

    def test_witness_is_checked(self):
        est = cp.cl_norm(L1_LINF_2, qc.harmonic(), [2.0, 1.0], starts=12, iters=120)
        u = np.asarray(est.witness["u"])
        v = np.asarray(est.witness["v"])
        vals = qc.eval_phi(qc.harmonic(), u, v)
        assert np.all([2.0, 1.0] <= est.upper * vals * (1 + 1e-9))

    def test_homogeneity(self):
        est1 = cp.cl_norm(L1_LINF_2, qc.harmonic(), [1.0, 0.5], starts=12, iters=120)
        est2 = cp.cl_norm(L1_LINF_2, qc.harmonic(), [2.0, 1.0], starts=12, iters=120)
        assert est2.upper == pytest.approx(2.0 * est1.upper, rel=1e-6)

    def test_monotonicity(self):
        small = cp.cl_norm(L1_LINF_2, qc.harmonic(), [1.0, 0.5], starts=12, iters=120)
        large = cp.cl_norm(L1_LINF_2, qc.harmonic(), [1.0, 1.0], starts=12, iters=120)
        assert small.upper <= large.upper * (1 + 1e-6)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            cp.cl_norm(L1_LINF_2, POWER_HALF, [1.0, 1.0], method="magic")
        with pytest.raises(DomainError):
            cp.cl_norm(L1_LINF_2, POWER_HALF, [1.0, 1.0], method="optimize", tol=0.0)

    def test_linf_first_leg_matches_oracle(self):
        # the l-infinity ball has a largest element, so u = 1 is optimal
        c = cp.parse_couple("linf:4|lp:0.5:4")
        x = [0.3, 1.2, 0.7, 1.9]
        est = cp.cl_norm(c, POWER_HALF, x, method="optimize", certify_lower=False)
        assert cp.cl_norm(c, POWER_HALF, x).upper == pytest.approx(4.1, rel=1e-12)
        assert est.upper == pytest.approx(4.1, rel=1e-9)
        assert est.upper >= 4.1 * (1.0 - 1e-12)
        assert est.witness["u"] == [1.0] * 4

    def test_linf_first_leg_certified_beyond_four_coordinates(self):
        # u = 1 attains the outer infimum, so the low end of its final bracket
        # is a certified lower bound for any support size
        c = cp.parse_couple("linf:6|lp:2:6")
        x = np.random.default_rng(3).uniform(0.1, 2.0, 6)
        oracle = cp.cl_norm(c, POWER_HALF, x, method="oracle").upper
        est = cp.cl_norm(c, POWER_HALF, x, method="optimize")
        assert est.flags == ("grid-certified",)
        assert est.witness["grid"] == {"boxes": 1, "converged": True}
        assert 0.0 < est.lower <= oracle <= est.upper
        assert est.upper - est.lower <= 1e-8 * est.upper

    def test_tiny_tol_stops_at_the_float_grid(self):
        # tol = 1e-20 asks for 67 halvings of the final bracket; the level
        # grid stops at 52, where its float indices are still exact
        c = cp.parse_couple("lp:1:3|lp:2:3")
        x = [0.3, 1.2, 2.0]
        exact = cp.cl_norm(c, POWER_HALF, x, method="oracle").upper
        est = cp.cl_norm(c, POWER_HALF, x, method="optimize", tol=1e-20)
        assert est.flags == ("grid-certified",)
        assert est.lower <= exact <= est.upper

    def test_inner_brackets_settle_in_few_probes(self):
        # criterion 03's mix: a blind 24-step bisection makes about 25
        # inverse calls per bracket, the guided search 3 to 6
        calls = {"inverse": 0, "bracket": 0}
        inverse, bracket = cp._invert_second_arg, cp._batched_inner_bracket

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        spaces = (lambda d: lat.lp(1.0, d), lambda d: lat.lp(2.0, d), lat.linf,
                  lambda d: lat.lp(0.5, d))
        pairs = list(itertools.combinations(spaces, 2))
        phis = [qc.power(0.25), qc.power(0.5), qc.power(0.75), qc.min_function()]
        rng = np.random.default_rng(2026)
        with mock.patch.object(cp, "_invert_second_arg", counted("inverse", inverse)), \
                mock.patch.object(cp, "_batched_inner_bracket", counted("bracket", bracket)):
            for i in range(50):
                d = (2, 3, 4)[i % 3]
                c = cp.Couple(*(leg(d) for leg in pairs[i % len(pairs)]))
                x = rng.uniform(0.1, 2.0, size=d)
                est = cp.cl_norm(c, phis[i % 4], x, method="optimize", seed=0)
                assert "grid-certified" in est.flags
        assert calls["bracket"] > 0
        assert calls["inverse"] <= 8 * calls["bracket"]

    def test_budget_exhausted_flag(self):
        # sum's inverse is piecewise linear, not one power piece, so its boxes
        # have only the monotone prune beside their corners; that prunes about
        # one weak box in thirteen here, and this certificate still spends the
        # whole box budget. Its lower bound stays sound, only looser
        c = cp.parse_couple("lp:1:3|lp:2:3")
        x = np.random.default_rng(0).uniform(0.1, 2.0, 3)
        est = cp.cl_norm(c, qc.sum_function(), x, method="optimize")
        assert est.witness["grid"]["converged"] is False
        assert est.flags == ("grid-certified", "budget-exhausted")
        assert 0.0 < est.lower <= est.upper <= est.lower * (1.0 + 1e-3)

    def test_witness_fault_names_the_failed_check(self):
        # one re-check serves the returned witness and an adopted box corner
        c = cp.parse_couple("lp:1:2|lp:2:2")
        f = qc.power(0.5)
        x = np.array([0.6, 0.3])
        est = cp.cl_norm(c, f, x, method="optimize")
        u, v = np.array(est.witness["u"]), np.array(est.witness["v"])
        assert cp._witness_fault(c, f, x, u, v, est.upper) is None
        assert cp._witness_fault(c, f, x, u, v, 0.5 * est.upper) == "witness fails to dominate x"
        # phi is homogeneous, so the doubled pair still dominates at half the level
        assert (cp._witness_fault(c, f, x, 2.0 * u, 2.0 * v, 0.5 * est.upper)
                == "witness escaped the unit balls")

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_power_search_properties(self, data):
        # random lp/wlp couples with at most four coordinates against the
        # closed form: bracketing, homogeneity and seed determinism
        d = data.draw(st.integers(2, 4))
        legs = []
        for _ in range(2):
            p = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
            if data.draw(st.booleans()):
                legs.append(lat.lp(p, d))
            else:
                w = data.draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d))
                legs.append(lat.weighted_lp(p, d, w))
        c = cp.Couple(*legs)
        f = qc.power(data.draw(st.sampled_from([0.25, 0.5, 0.75])))
        x = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=d, max_size=d)))
        k = data.draw(st.floats(0.1, 10.0))
        seed = data.draw(st.integers(0, 2**16))
        exact = cp.cl_norm(c, f, x, method="oracle").upper
        est = cp.cl_norm(c, f, x, method="optimize", seed=seed)
        assert est.lower <= exact * (1.0 + 1e-12)
        assert exact <= est.upper * (1.0 + 1e-12)
        assert est.upper <= exact * (1.0 + 1e-6)
        scaled = cp.cl_norm(c, f, k * x, method="optimize", seed=seed, certify_lower=False)
        assert scaled.upper == pytest.approx(k * est.upper, rel=1e-9)
        again = cp.cl_norm(c, f, x, method="optimize", seed=seed)
        assert again == est


def _brentq_inverse(f, u, c):
    """Smallest t with phi(u, t) >= c, where phi(u, .) is strictly increasing
    from phi(u, 0): 0 if phi(u, 0) already reaches c, else the root."""
    if qc.eval_phi(f, u, 0.0) >= c:
        return 0.0
    hi = max(u, c)
    while qc.eval_phi(f, u, hi) < c:
        hi *= 2.0
    return brentq(lambda t: qc.eval_phi(f, u, t) - c, 0.0, hi,
                  xtol=1e-300, rtol=8.9e-16, maxiter=600)


# every family and every mirror; the piecewise-linear families and their
# mirrors take no theta. (low, top) bound c/u: below the sup of a bounded
# phi1, where phi(u, .) is strictly increasing up to the root, and for sum
# away from c/u = phi1(0+) = 1, where the root is ill-conditioned
_HULL = qc.hull_function([0.0, 1.0, 3.0], [0.5, 1.0, 1.5])
_TABLE = qc.tabulated([0.5, 1.0, 2.0, 4.0], [0.7, 1.0, 1.2, 1.3])
_THETA_FAMILIES = {
    "capped": (qc.capped_power, (0.01, 0.999)),
    # the mirror with theta < 1 is unbounded, so it is also probed above c = u
    "mirror": (lambda th: qc.mirror(qc.capped_power(th)), (0.01, 0.999)),
    # the affine power starts at phi(u, 0) = u and is probed on both sides
    "affine": (lambda th: qc.affine_power(1.0, 2.0, th), (0.5, 6.0)),
    "mirror-affine": (lambda th: qc.mirror(qc.affine_power(1.0, 2.0, th)), (0.05, 6.0)),
}
_PL_FAMILIES = {
    "max": (qc.max_function(), (0.01, 6.0)),
    "sum": (qc.sum_function(), (0.5, 6.0)),
    "plmax": (qc.pl_max(1.0, 2.0), (0.01, 6.0)),
    "plmin": (qc.pl_min(1.0, 2.0), (0.01, 0.999)),
    "hull": (_HULL, (0.01, 1.499)),
    "tabulated": (_TABLE, (0.01, 1.299)),
}
_PL_FAMILIES.update({
    "mirror-max": (qc.mirror(qc.max_function()), (0.01, 6.0)),
    "mirror-sum": (qc.mirror(qc.sum_function()), (0.5, 6.0)),
    "mirror-plmax": (qc.mirror(qc.pl_max(1.0, 2.0)), (0.01, 6.0)),
    "mirror-plmin": (qc.mirror(qc.pl_min(1.0, 2.0)), (0.01, 1.999)),
    "mirror-hull": (qc.mirror(_HULL), (0.01, 6.0)),
    "mirror-tabulated": (qc.mirror(_TABLE), (0.01, 1.399)),
})
_INVERSE_CASES = [(family, theta) for theta in (0.25, 0.5, 1.0) for family in _THETA_FAMILIES]
_INVERSE_CASES += [pytest.param(family, None, id=family) for family in _PL_FAMILIES]


class TestClosedFormInverse:
    @pytest.mark.parametrize("family, theta", _INVERSE_CASES)
    def test_matches_brentq_root(self, family, theta):
        if theta is None:
            f, (low, top) = _PL_FAMILIES[family]
        else:
            make, (low, top) = _THETA_FAMILIES[family]
            f = make(theta)
            if family == "mirror" and theta < 1.0:
                top = 4.0
        rng = np.random.default_rng(7)
        u = rng.uniform(0.1, 3.0, 24)
        c = u * rng.uniform(low, top, 24)
        closed = qc.invert_phi(f, u, c)
        roots = np.array([_brentq_inverse(f, ui, ci) for ui, ci in zip(u, c)])
        np.testing.assert_allclose(closed, roots, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(cp._invert_second_arg(f, u, c), closed)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
    def test_cappedpower_saturation(self, theta):
        f = qc.capped_power(theta)
        u = np.array([0.5, 2.0, 3.0])
        at_cap = cp._invert_second_arg(f, u, u)
        np.testing.assert_array_equal(at_cap, u)
        assert np.all(qc.eval_phi(f, u, at_cap) >= u)
        assert np.all(qc.eval_phi(f, u, u * (1.0 - 1e-12)) < u)
        above = cp._invert_second_arg(f, u, u * 1.5)
        assert np.all(np.isinf(above))
        if theta == 1.0:
            # the mirror of min(1, t) is min(s, t) and saturates the same way
            g = qc.mirror(f)
            np.testing.assert_array_equal(cp._invert_second_arg(g, u, u), u)
            assert np.all(np.isinf(cp._invert_second_arg(g, u, u * 1.5)))

    def test_optimize_witness_passes_recheck(self):
        c = cp.parse_couple("lp:1:4|linf:4")
        f = qc.capped_power(0.5)
        x = np.array([0.3, 0.9, 0.6, 0.2])
        est = cp.cl_norm(c, f, x, method="optimize")
        assert est.method == "optimize"
        u = np.asarray(est.witness["u"])
        v = np.asarray(est.witness["v"])
        assert np.all(x <= est.upper * qc.eval_phi(f, u, v) * (1.0 + 1e-12) + 1e-300)
        assert lat.norm(c.x0, u) <= 1.0 + 1e-12
        assert lat.norm(c.x1, v) <= 1.0 + 1e-12
        assert 0.0 <= est.lower <= est.upper


_PIECE_FAMILIES = {
    "power": lambda th: qc.power(th, 2.5),
    "capped": qc.capped_power,
    "mirror": lambda th: qc.mirror(qc.capped_power(th)),
}


def _random_leg(rng, d):
    p = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])
    if rng.random() < 0.5:
        return lat.lp(p, d)
    return lat.weighted_lp(p, d, rng.uniform(0.25, 4.0, d))


class TestDualBound:
    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("family", sorted(_PIECE_FAMILIES))
    def test_piece_matches_inverse(self, family, theta):
        # the dual bound reads the inverse off power_piece; the two must agree
        f = _PIECE_FAMILIES[family](theta)
        th, coef, a_floor, low = qc.power_piece(f)
        rng = np.random.default_rng(3)
        u = rng.uniform(0.1, 3.0, 48)
        c = u * rng.uniform(0.05, 4.0, 48)
        piece = np.maximum(a_floor * c, (c / coef) ** (1.0 / th) * u ** (-(1.0 - th) / th))
        piece = np.where(u >= low * c, piece, math.inf)
        np.testing.assert_allclose(qc.invert_phi(f, u, c), piece, rtol=1e-13, atol=0.0)

    def test_piece_families(self):
        assert qc.power_piece(qc.capped_power(1.0)) is None
        assert qc.power_piece(qc.mirror(qc.capped_power(1.0))) is None
        assert qc.power_piece(qc.power(1.0)) is None
        assert qc.power_piece(qc.sum_function()) is None
        assert qc.power_piece(qc.harmonic()) is None
        assert qc.power_piece(qc.mirror(qc.capped_power(0.25))) == (0.75, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("family", sorted(_PIECE_FAMILIES))
    def test_box_bound_is_sound(self, family):
        # the bound is a level certified infeasible on the whole box, so no
        # sampled witness u in the box and the X0 unit ball may reach it:
        # the minimal v of invert_phi at that level has X1 norm above one
        rng = np.random.default_rng(sorted(_PIECE_FAMILIES).index(family))
        near = []
        for _ in range(20):
            s = int(rng.integers(1, 4))
            c = cp.Couple(_random_leg(rng, s), _random_leg(rng, s))
            f = _PIECE_FAMILIES[family](rng.uniform(0.2, 0.8))
            support = np.arange(s)
            a = rng.uniform(0.1, 2.0, s)
            caps = 1.0 / c.x0.w ** (1.0 / c.x0.p)
            los = caps * rng.uniform(0.02, 0.6, (6, s)) / s
            his = np.minimum(los * np.exp(rng.uniform(0.1, 3.0, (6, s))), caps)
            lam_cap = 100.0 * cp.intersection_norm(c, a) / f.normalization
            bounds = cp._graded_lower(c, f, a, support, los, his, lam_cap)
            assert np.all(bounds > 0.0)
            per_axis = {1: 2000, 2: 90, 3: 20}[s]
            for lo, hi, bound in zip(los, his, bounds):
                axes = [np.geomspace(lo[j], hi[j], per_axis) for j in range(s)]
                us = np.array(list(itertools.product(*axes)))
                us = us[lat.norm_rows(c.x0, us, support) <= 1.0]
                if not len(us):
                    continue
                at = lat.norm_rows(c.x1, cp._invert_second_arg(f, us, a / bound), support)
                assert np.min(at) > 1.0 - 1e-12
                above = cp._invert_second_arg(f, us, a / (1.01 * bound))
                near.append(np.min(lat.norm_rows(c.x1, above, support)) <= 1.0)
        # and it is not vacuous: most boxes hold a sample within 1% of it
        assert np.mean(near) >= 0.75

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_cappedpower_closes(self, mirrored):
        # both sides of the mirror identity spent the whole box budget
        # without a dual bound for cappedpower
        f = qc.capped_power(0.5)
        c = cp.parse_couple("lp:2:4|lp:1:4")
        if mirrored:
            f, c = qc.mirror(f), cp.Couple(c.x1, c.x0)
        x = np.random.default_rng(0).uniform(0.1, 2.0, 4)
        est = cp.cl_norm(c, f, x, method="optimize")
        assert est.witness["grid"]["converged"] is True
        assert est.flags == ("grid-certified",)
        assert 0.0 < est.lower <= est.upper <= est.lower * (1.0 + 1e-3)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_certified_mirror_identity(self, data):
        # ||x||_{phi; X0, X1} = ||x||_{mirror phi; X1, X0}, so each certified
        # lower bound lies below the other side's upper bound; cappedpower
        # takes the power-piece dual bound, harmonic (its own mirror) and
        # affinepower the monotone prune. Those two take at most three
        # coordinates: a side whose search misses the optimum by more than
        # the 4e-4 target spends the whole box budget, which takes seconds
        theta = data.draw(st.sampled_from([0.25, 0.5, 0.75]))
        f = data.draw(st.sampled_from([qc.capped_power(theta), qc.harmonic(),
                                       qc.affine_power(1.0, 1.0, theta)]))
        d = data.draw(st.integers(2, 4 if f.family == "cappedpower" else 3))
        legs = []
        for _ in range(2):
            p = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
            if data.draw(st.booleans()):
                legs.append(lat.lp(p, d))
            else:
                w = data.draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d))
                legs.append(lat.weighted_lp(p, d, w))
        if data.draw(st.booleans()):
            f = qc.mirror(f)
        x = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=d, max_size=d)))
        seed = data.draw(st.integers(0, 2**16))
        est = cp.cl_norm(cp.Couple(*legs), f, x, method="optimize", seed=seed)
        swapped = cp.cl_norm(cp.Couple(legs[1], legs[0]), qc.mirror(f), x,
                             method="optimize", seed=seed)
        for one, other in ((est, swapped), (swapped, est)):
            assert "grid-certified" in one.flags
            assert 0.0 < one.lower <= one.upper
            assert one.lower <= other.upper * (1.0 + 1e-12)


# families without a power piece, so their boxes take the monotone prune
_PRUNE_FAMILIES = {
    "harmonic": lambda th: qc.harmonic(),
    "sum": lambda th: qc.sum_function(),
    "max": lambda th: qc.max_function(),
    "plmax": lambda th: qc.pl_max(1.0, 2.0),
    "plmin": lambda th: qc.pl_min(1.0, 2.0),
    "hull": lambda th: _HULL,
    "tabulated": lambda th: _TABLE,
    "affine": lambda th: qc.affine_power(1.0, 2.0, th),
    "capped-one": lambda th: qc.capped_power(1.0),
}
_PRUNE_FAMILIES.update({f"mirror-{name}": (lambda th, make=make: qc.mirror(make(th)))
                        for name, make in list(_PRUNE_FAMILIES.items())})


class TestMonotonePrune:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pruned_box_holds_no_witness(self, data):
        # a pruned box is certified infeasible at tau: no sampled witness u in
        # the box and the X0 unit ball has a minimal v of X1 norm at most one.
        # That rests on each axis term bounding its Lagrangian term below
        s = data.draw(st.integers(1, 3))
        legs = []
        for _ in range(2):
            p = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
            if data.draw(st.booleans()):
                legs.append(lat.lp(p, s))
            else:
                w = data.draw(st.lists(st.floats(0.25, 4.0), min_size=s, max_size=s))
                legs.append(lat.weighted_lp(p, s, w))
        c = cp.Couple(*legs)
        name = data.draw(st.sampled_from(sorted(_PRUNE_FAMILIES)))
        f = _PRUNE_FAMILIES[name](data.draw(st.sampled_from([0.25, 0.5, 1.0])))
        assert qc.power_piece(f) is None
        a = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=s, max_size=s)))
        support = np.arange(s)
        caps = 1.0 / c.x0.w ** (1.0 / c.x0.p)
        lo = caps * np.array(data.draw(st.lists(st.floats(0.02, 0.6), min_size=s,
                                                max_size=s))) / s
        spread = np.array(data.draw(st.lists(st.floats(0.1, 6.0), min_size=s, max_size=s)))
        hi = np.minimum(lo * np.exp(spread), caps)
        axes = [np.geomspace(lo[j], hi[j], {1: 400, 2: 40, 3: 12}[s]) for j in range(s)]
        us = np.array(list(itertools.product(*axes)))
        us = us[lat.norm_rows(c.x0, us, support) <= 1.0]
        assume(len(us))
        lam_cap = 100.0 * cp.intersection_norm(c, a) / f.normalization
        inner = cp._batched_inner_bracket(c, f, a, support, us, lam_cap)[1]
        best = float(np.min(inner))
        assume(math.isfinite(best))
        # each axis term lies below its Lagrangian term at every u of the axis
        w0, w1 = c.x0.w, c.x1.w
        mus = cp._multipliers(c, f, w0, w1, a, best)
        terms = cp._lagrangian_terms(c, f, w0, w1, a, best, lo, hi, mus)
        for j in range(s):
            u = np.geomspace(lo[j], hi[j], 2000)
            v = cp._invert_second_arg(f, u, np.full(u.shape, a[j] / best))
            lag = c.x1.w[j] * v ** c.x1.p + mus[:, None] * c.x0.w[j] * u ** c.x0.p
            assert np.all(terms[j] <= np.min(lag, axis=1) * (1.0 + 1e-12))

        def pruned(tau):
            box_terms = cp._lagrangian_terms(c, f, w0, w1, a, tau, lo, hi, mus)
            return cp._lagrangian_margin(box_terms, mus) > 0.0

        # the prune is monotone in the level; bisect for the highest level it
        # proves infeasible, where an unsound bound would first show
        low, high = best * 1e-3, best * 2.0
        assume(pruned(low))
        for _ in range(40):
            mid = math.sqrt(low * high)
            low, high = (mid, high) if pruned(mid) else (low, mid)
        at = lat.norm_rows(c.x1, cp._invert_second_arg(f, us, a / low), support)
        assert np.min(at) > 1.0 - 1e-12

    def test_prune_cuts_the_box_counts(self):
        # box counts of the certificate with the prune; without it, harmonic
        # took 151,295 boxes and the two affinepower sides 7,259 and 6,329
        x = np.random.default_rng(0).uniform(0.1, 2.0, 4)
        cases = [
            ("lp:1:4|lp:0.5:4", qc.harmonic(), x, 10_000),
            ("lp:1:3|lp:2:3", qc.affine_power(1.0, 1.0, 0.5), x[:3], 7_259),
            ("lp:2:3|lp:1:3", qc.mirror(qc.affine_power(1.0, 1.0, 0.5)), x[:3], 6_329),
        ]
        for couple, f, xs, most in cases:
            est = cp.cl_norm(cp.parse_couple(couple), f, xs, method="optimize")
            assert est.flags == ("grid-certified",)
            assert est.witness["grid"]["converged"] is True
            assert est.witness["grid"]["boxes"] <= most
            assert 0.0 < est.lower <= est.upper <= est.lower * (1.0 + 1e-3)

    @pytest.mark.parametrize("couple, phi, policy", [
        # a phi without a power piece probes its cell terms once, at tau
        ("lp:1:3|lp:2:3", qc.harmonic(), "probed"),
        # the Lagrangian sums powers of both legs' entries, so an l-infinity
        # leg keeps its box corners alone
        ("lp:1:3|linf:3", qc.harmonic(), None),
        # a power piece grades its closed-form terms by level
        ("lp:1:3|lp:2:3", qc.capped_power(0.5), "graded"),
    ], ids=["harmonic", "linf-leg", "power-piece"])
    def test_where_the_prune_runs(self, couple, phi, policy):
        levels = []
        graded = []
        terms, grade = cp._lagrangian_terms, cp._graded_lower

        def counted_terms(*args, **kwargs):
            levels.append(args[5])
            return terms(*args, **kwargs)

        def counted_grade(*args, **kwargs):
            graded.append(1)
            return grade(*args, **kwargs)

        x = np.random.default_rng(0).uniform(0.1, 2.0, 3)
        with mock.patch.object(cp, "_lagrangian_terms", counted_terms), \
                mock.patch.object(cp, "_graded_lower", counted_grade):
            est = cp.cl_norm(cp.parse_couple(couple), phi, x, method="optimize")
        assert "grid-certified" in est.flags
        assert bool(graded) is (policy == "graded")
        assert bool(levels) is (policy is not None)
        # the probed policy takes every term at the one level tau
        probed = [lam for lam in levels if np.ndim(lam) == 0]
        assert len(probed) == (len(levels) if policy == "probed" else 0)
        assert len(set(probed)) <= 1

    def test_graded_bound_on_a_power_piece(self):
        # with tau above the true value no box is pruned, and the lower bound
        # is the boxes' Lagrangian bound graded by level. Probed only at tau,
        # as the cell terms are, the power piece stops at a gap of 1.7e-5
        c = cp.parse_couple("lp:2:2|lp:2:2")
        f = qc.power(0.75)
        x = np.random.default_rng(0).uniform(0.1, 2.0, 2)
        exact = cp.cl_norm(c, f, x)
        assert exact.method == "oracle:power"
        lower, info = cp._grid_lower(c, f, x, exact.upper * (1.0 + 2e-3))
        assert info["converged"] is True
        assert lower <= exact.upper
        assert (exact.upper - lower) / exact.upper <= 1e-6

    def test_a_box_corner_that_beats_the_search_is_adopted(self):
        # with no search rounds the seed's upper bound is loose, and a
        # feasible box corner of the certificate replaces its witness
        c = cp.parse_couple("lp:1:2|lp:2:2")
        f = qc.harmonic()
        x = np.random.default_rng(2).uniform(0.1, 2.0, 2)
        kw = dict(method="optimize", starts=1, iters=0)
        searched = cp.cl_norm(c, f, x, certify_lower=False, **kw)
        est = cp.cl_norm(c, f, x, **kw)
        assert "grid-certified" in est.flags
        assert est.lower <= est.upper < searched.upper
        assert est.witness["lam"] == est.upper
        u, v = np.asarray(est.witness["u"]), np.asarray(est.witness["v"])
        assert cp._witness_fault(c, f, x, u, v, est.upper) is None


class TestEquivalence:
    def test_affine_power(self):
        f = qc.affine_power(1.0, 1.0, 0.5)
        samples = [[1.0, 1.0], [2.0, 0.5], [0.1, 3.0]]
        report = cp.phi_space_equivalence(L1_LINF_2, f, samples,
                                          starts=8, iters=100)
        assert report["pass"]
        assert report["pl_family"] == "plmax"
        assert report["eta_family"] == "power"
        assert report["worst_ratio_high"] <= 2.0 * 1.05
        assert report["worst_ratio_low"] >= 0.5 / 1.05

    def test_pure_power_ratio_one(self):
        report = cp.phi_space_equivalence(L1_LINF_2, POWER_HALF,
                                          [[1.0, 1.0]], starts=8, iters=100)
        assert report["pass"]
        assert report["samples"][0]["ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_one_cl_norm_call_per_sample(self):
        # affinepower's parts are plmax(1, 0) and power(1/2), both closed
        # forms, so each block of split rows costs two _oracle_rows calls and
        # only the phi-norm of each sample goes through cl_norm
        calls = []
        original = cp.cl_norm

        def counted(*args, **kwargs):
            calls.append(args[1].family)
            return original(*args, **kwargs)

        samples = np.random.default_rng(5).uniform(0.1, 2.0, (3, 2))
        with mock.patch.object(cp, "cl_norm", counted):
            report = cp.phi_space_equivalence(L1_LINF_2, qc.affine_power(1.0, 1.0, 0.5),
                                              samples, seed=1)
        assert report["pass"]
        assert calls == ["affinepower"] * len(samples)

    def test_blocks_score_as_single_rows(self):
        # with the closed form withheld from blocks, every split row goes
        # through cl_norm, whose closed form then sees one row at a time
        f = qc.affine_power(1.0, 1.0, 0.5)
        samples = [[0.3, 1.7], [2.0, 0.0], [1.1, 0.4]]
        batched = cp.phi_space_equivalence(L1_LINF_2, f, samples, seed=4, starts=4, iters=40)
        closed_form = cp._oracle_rows
        with mock.patch.object(cp, "_oracle_rows", lambda c, g, rows:
                               closed_form(c, g, rows) if rows.shape[0] == 1 else None):
            per_row = cp.phi_space_equivalence(L1_LINF_2, f, samples, seed=4, starts=4,
                                               iters=40)
        for one, other in zip(batched["samples"], per_row["samples"]):
            assert one["phi"] == other["phi"]
            assert one["split"] == pytest.approx(other["split"], rel=1e-15, abs=0.0)

    def test_needs_a_sample(self):
        with pytest.raises(DomainError):
            cp.phi_space_equivalence(L1_LINF_2, POWER_HALF, [])


def _band_setup(depth: int = 8):
    c = cp.Couple(lat.lp(1.0, 3), lat.linf(3))
    d = qc.bk_decompose(POWER_HALF, 4.0, depth=depth)
    u0 = np.array([0.5, 0.25, 0.25])
    u1 = np.array([0.5, 1.0, 1.0 / 64.0])  # ratios 1, 4, 1/16
    dom = qc.eval_phi(POWER_HALF, u0, u1)
    xs = [0.5 * dom, 0.5 * dom]
    return c, d, u0, u1, xs


class TestApproximation:
    def test_band_zero(self):
        c, d, u0, u1, xs = _band_setup()
        tr = cp.approximation_sequence(c, POWER_HALF, xs, u0, u1, d, 0)
        # nodes are powers of four: U_0 = [1/4 - eps, 4 + eps]
        assert set(tr.psi[0]) == {0, 1}
        assert tr.xi == (2,)
        assert 2 in tr.w1
        assert 1.0 <= tr.a_m <= 1.2
        assert tr.checks["i_pass"] and tr.checks["ii_pass"] and tr.checks["partition_pass"]
        assert tr.audits["F0_pass"] and tr.audits["F1_pass"]
        assert tr.audits["G0_norm"] <= tr.audits["G0_bound"] * (1 + 1e-9)
        assert tr.audits["G1_norm"] <= tr.audits["G1_bound"] * (1 + 1e-9)
        xm = np.asarray(tr.x_m[0])
        assert xm[2] == 0.0 and np.allclose(xm[:2], xs[0][:2])

    def test_band_one_covers_all(self):
        c, d, u0, u1, xs = _band_setup()
        tr = cp.approximation_sequence(c, POWER_HALF, xs, u0, u1, d, 1)
        assert tr.xi == ()
        assert set(tr.psi[-1]) == {2}
        assert set(tr.psi[0]) == {0, 1}  # first match wins over U_1
        assert 0.24 <= tr.a_m <= 0.30

    def test_tail_amplitude_decreases(self):
        c, d, u0, u1, xs = _band_setup(depth=12)
        values = [cp.approximation_sequence(c, POWER_HALF, xs, u0, u1, d, m).a_m
                  for m in range(7)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[6] < 1e-3
        # nodes are 4^(j-1), so the tail amplitude falls like 4^-m
        assert values[1] / values[0] == pytest.approx(0.25, rel=0.1)

    def test_insufficient_depth(self):
        c, d, u0, u1, xs = _band_setup()
        with pytest.raises(PreconditionError):
            cp.approximation_sequence(c, POWER_HALF, xs, u0, u1, d, d.k_max + 1)

    def test_domination_failure_names_coordinate(self):
        c, d, u0, u1, _ = _band_setup()
        dom = qc.eval_phi(POWER_HALF, u0, u1)
        with pytest.raises(InfeasibleDecompositionError) as err:
            cp.approximation_sequence(c, POWER_HALF, [1.5 * dom], u0, u1, d, 1)
        assert err.value.coordinate is not None

    def test_wrong_function(self):
        c, d, u0, u1, xs = _band_setup()
        with pytest.raises(PreconditionError):
            cp.approximation_sequence(c, qc.power(0.75), xs, u0, u1, d, 0)

    def test_rejects_nonvanishing_and_doubly_bounded(self):
        c, _, u0, u1, _ = _band_setup()
        d_sum = qc.bk_decompose(qc.sum_function(), 4.0)
        with pytest.raises(PreconditionError):
            cp.approximation_sequence(c, qc.sum_function(), [], u0, u1, d_sum, 0)
        d_min = qc.bk_decompose(qc.min_function(), 4.0)
        with pytest.raises(PreconditionError):
            cp.approximation_sequence(c, qc.min_function(), [], u0, u1, d_min, 0)

    def test_generator_norm_precondition(self):
        c, d, u0, u1, xs = _band_setup()
        with pytest.raises(PreconditionError):
            cp.approximation_sequence(c, POWER_HALF, xs, 3.0 * u0, u1, d, 0)


class TestFactorize:
    def test_two_sided_round_trip(self):
        c = cp.Couple(lat.lp(1.0, 3), lat.linf(3))
        x = np.array([0.2, 0.1, 0.05])
        fv, gv, report = cp.factorize(c, POWER_HALF, x)
        assert report["branch"] == "two-sided"
        recomposed = qc.eval_phi(POWER_HALF, fv.entries, gv.entries)
        assert np.max(np.abs(recomposed - x)) <= 1e-12
        assert math.isfinite(report["f_norm_X0"]) and math.isfinite(report["g_norm_X1"])

    def test_bounded_value_branch(self):
        c = cp.Couple(lat.lp(1.0, 2), lat.linf(2))
        f = qc.capped_power(0.5)
        x = np.array([0.3, 0.2])
        fv, gv, report = cp.factorize(c, f, x, starts=12, iters=120)
        assert report["branch"] == "bounded-value"
        recomposed = qc.eval_phi(f, fv.entries, gv.entries)
        assert np.max(np.abs(recomposed - x)) <= 1e-12

    def test_mirrored_branch(self):
        c = cp.Couple(lat.lp(2.0, 2), lat.lp(1.0, 2))
        f = qc.power(1.0)  # phi(s, t) = t has bounded slope, so legs swap
        x = np.array([0.3, 0.4])
        fv, gv, report = cp.factorize(c, f, x)
        assert report["branch"].startswith("mirrored:")
        recomposed = qc.eval_phi(f, fv.entries, gv.entries)
        assert np.max(np.abs(recomposed - x)) <= 1e-12
        assert fv.space is c.x0 and gv.space is c.x1

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        couples = [cp.Couple(lat.lp(1.0, 3), lat.linf(3)),
                   cp.Couple(lat.lp(2.0, 3), lat.lp(1.0, 3))]
        for i in range(12):
            c = couples[i % 2]
            f = qc.power([0.3, 0.5, 0.7][i % 3])
            x = rng.uniform(0.0, 0.2, 3)
            x[rng.integers(0, 3)] = 0.0  # exercise empty coordinates
            if not np.any(x > 0):
                continue
            fv, gv, report = cp.factorize(c, f, x)
            recomposed = qc.eval_phi(f, fv.entries, gv.entries)
            assert np.max(np.abs(recomposed - x)) <= 1e-12
            assert report["cl_upper"] < 1.0

    def test_rejects_doubly_bounded(self):
        with pytest.raises(UnsupportedExpressionError):
            cp.factorize(L1_LINF_2, qc.min_function(), np.array([0.1, 0.1]))
        with pytest.raises(UnsupportedExpressionError):
            cp.factorize(L1_LINF_2, qc.harmonic(), np.array([0.1, 0.1]))

    def test_rejects_positive_value_at_zero(self):
        with pytest.raises(PreconditionError):
            cp.factorize(L1_LINF_2, qc.sum_function(), np.array([0.1, 0.1]))

    def test_rejects_large_vector(self):
        with pytest.raises(PreconditionError):
            cp.factorize(L1_LINF_2, POWER_HALF, np.array([3.0, 4.0]))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            cp.factorize(L1_LINF_2, POWER_HALF, np.array([-0.1, 0.1]))
