import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

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

    def test_oracle_method_rejects_harmonic(self):
        with pytest.raises(UnsupportedExpressionError):
            cp.cl_norm(L1_LINF_2, qc.harmonic(), [1.0, 1.0], method="oracle")


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

    def test_budget_exhausted_flag(self):
        # cappedpower has no dual bound, so this certificate spends the whole
        # box budget; its lower bound stays sound, only looser
        c = cp.parse_couple("lp:2:4|lp:1:4")
        x = np.random.default_rng(0).uniform(0.1, 2.0, 4)
        est = cp.cl_norm(c, qc.capped_power(0.5), x, method="optimize")
        assert est.witness["grid"]["converged"] is False
        assert est.flags == ("grid-certified", "budget-exhausted")
        assert 0.0 < est.lower <= est.upper <= est.lower * (1.0 + 1e-3)

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
