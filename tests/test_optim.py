import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinterp import couple as cp
from clinterp import lattice as lat
from clinterp import quasiconcave as qc
from clinterp._optim import batched_search, grid_bracket, interval_minimize


def _bumpy(rows):
    return np.sum((rows - 0.3) ** 2, axis=1) + 0.1 * np.sum(np.cos(7.0 * rows), axis=1)


def _run(score, seeds, seed=0, **overrides):
    settings = dict(lo=-1.0, hi=1.0, rows=24, keep=3, half=1.0, iters=40, tol=1e-9,
                    rng=np.random.default_rng(seed))
    settings.update(overrides)
    return batched_search(score, seeds, **settings)


SEEDS = np.array([[0.0, 0.0, 0.0], [0.9, -0.9, 0.5], [-0.5, 0.5, -0.5], [1.0, 1.0, 1.0]])


def test_equal_seeds_give_equal_results():
    a = _run(_bumpy, SEEDS, seed=7)
    b = _run(_bumpy, SEEDS, seed=7)
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1:] == b[1:]


def test_zero_iterations_return_the_best_seed_row():
    point, value, scored = _run(_bumpy, SEEDS, iters=0)
    vals = _bumpy(SEEDS)
    np.testing.assert_array_equal(point, SEEDS[int(np.argmin(vals))])
    assert value == float(np.min(vals))
    assert scored == len(SEEDS)


def test_ties_go_to_the_earlier_row():
    point, _, _ = _run(lambda rows: np.zeros(len(rows)), SEEDS[1:], iters=0)
    np.testing.assert_array_equal(point, SEEDS[1])


def test_scored_rows_stay_in_the_box_and_are_counted():
    seen = []

    def score(rows):
        seen.append(rows.copy())
        return _bumpy(rows)

    _, value, scored = _run(score, SEEDS, lo=-0.25, hi=0.75)
    rows = np.concatenate(seen)
    assert np.all(rows >= -0.25) and np.all(rows <= 0.75)
    assert scored == len(rows)
    assert value == float(np.min(_bumpy(rows)))


@pytest.mark.parametrize("seed", range(3))
def test_separable_minimum_on_a_corner_and_on_a_face(seed):
    # linear terms push s0 to the upper and s1 to the lower face; the
    # quadratic term holds s2 inside
    def score(rows):
        return -rows[:, 0] + 2.0 * rows[:, 1] + (rows[:, 2] - 0.3) ** 2

    start = np.full((1, 3), 0.5)
    point, value, _ = _run(score, start, seed=seed, lo=0.0, hi=1.0, keep=1)
    assert point[0] == 1.0 and point[1] == 0.0
    assert point[2] == pytest.approx(0.3, abs=1e-6)
    assert value == pytest.approx(-1.0, abs=1e-12)

    corner = _run(lambda rows: -rows[:, 0] + 2.0 * rows[:, 1] - rows[:, 2], start,
                  seed=seed, lo=0.0, hi=1.0, keep=1)[0]
    np.testing.assert_array_equal(corner, [1.0, 0.0, 1.0])


def test_interval_minimize_batches_every_interval():
    # one call per round scores all intervals; each finds its own minimum,
    # interior, at the left end or at the right end
    calls = []

    def score(t):
        calls.append(len(t))
        return (t - 0.3) ** 2

    lo, hi = np.array([0.0, 0.5, -2.0]), np.array([1.0, 2.0, 0.1])
    ts, vals = interval_minimize(score, lo, hi, xatol=1e-13)
    assert ts[0] == pytest.approx(0.3, abs=1e-13)
    assert ts[1] == 0.5 and ts[2] == 0.1
    np.testing.assert_array_equal(vals, (ts - 0.3) ** 2)
    assert all(n == 3 * 33 for n in calls)


def test_interval_minimize_presamples_a_bumpy_interval():
    # the first grid finds the deeper of two wells; golden-section search
    # from the whole interval would settle in either
    def score(t):
        return np.minimum((t - 0.1) ** 2 + 0.01, (t - 0.8) ** 2)

    ts, vals = interval_minimize(score, 0.0, 1.0, xatol=1e-12)
    assert ts[0] == pytest.approx(0.8, abs=1e-12) and vals[0] <= 1e-24


def test_interval_minimize_stops_on_a_point_interval():
    calls = []

    def score(t):
        calls.append(len(t))
        return t

    ts, vals = interval_minimize(score, 2.0, 2.0, xatol=1e-13)
    assert ts[0] == 2.0 and vals[0] == 2.0 and calls == [33]


def _index_bisection(marked_at, n, cap, steps):
    """Reference for grid_bracket: plain bisection of the indices 0..2^steps."""
    size = 2.0 ** steps
    rows = np.arange(n)
    stuck = marked_at(rows, np.full(n, cap))
    lo, hi = np.zeros(n), np.full(n, size)
    for _ in range(steps):
        mid = np.floor(0.5 * (lo + hi))
        bad = marked_at(rows, cap * (mid / size))
        lo, hi = np.where(bad, mid, lo), np.where(bad, hi, mid)
    return np.where(stuck, cap, cap * (lo / size)), np.where(stuck, math.inf, cap * (hi / size))


STEPS = st.sampled_from([1, 24, 30, 52])
# a row's threshold as a fraction of the cap: inside the range, exactly on
# a grid level, above the cap (marked everywhere) or 0 (marked nowhere)
_THRESHOLD = st.one_of(
    st.floats(1e-18, 1.0),
    st.tuples(st.integers(0, 2**52), st.just("grid")),
    st.floats(1.0, 1e3, exclude_min=True),
    st.just(0.0),
)
_RESIDUAL = st.sampled_from(["smooth", "flat", "rounded", "nan", "nan-below", "inf"])


@settings(max_examples=150, deadline=None)
@given(steps=STEPS, cap=st.floats(1e-3, 1e3),
       rows=st.lists(st.tuples(_THRESHOLD, st.floats(0.05, 20.0), _RESIDUAL),
                     min_size=1, max_size=12))
def test_grid_bracket_returns_the_bisection_cell(steps, cap, rows):
    # the cell depends on the marks alone; residuals that only roughly
    # follow them (flat stretches, wrong signs, nan, inf) change the probes,
    # not the answer
    thresholds = np.array([cap * (t[0] / 2.0**52) if isinstance(t, tuple) else cap * t
                           for t, _, _ in rows])
    slopes = np.array([k for _, k, _ in rows])
    kinds = np.array([r for _, _, r in rows])

    def marked_at(idx, lam):
        return lam < thresholds[idx]

    rounds, probed = [], [[] for _ in rows]

    def probe(idx, lam):
        rounds.append(idx)
        for i, level in zip(idx, lam):
            probed[i].append(level)
        with np.errstate(divide="ignore", invalid="ignore"):
            smooth = slopes[idx] * (np.log(thresholds[idx]) - np.log(lam))
        kind = kinds[idx]
        r = np.select([kind == "flat", kind == "rounded", kind == "nan", kind == "inf"],
                      [np.clip(smooth, -0.5, 0.5), np.round(smooth, 1), np.nan,
                       np.where(smooth > 0, math.inf, -math.inf)], smooth)
        r = np.where((kind == "nan-below") & marked_at(idx, lam), np.nan, r)
        return marked_at(idx, lam), r

    got = grid_bracket(probe, len(rows), cap, steps)
    want = _index_bisection(marked_at, len(rows), cap, steps)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    # the cap round probes every row; a row stuck there is done, and any
    # other row stops on the probe that closes its cell
    np.testing.assert_array_equal(rounds[0], np.arange(len(rows)))
    for levels, lo, hi in zip(probed, *want):
        assert levels[0] == cap
        assert levels[-1] in (lo, hi) if math.isfinite(hi) else levels == [cap]
    # every four probes at least halve a row's range
    assert len(rounds) <= 4 * steps + 1


def test_grid_bracket_caps_the_grid_at_52_halvings():
    # 67 halvings would overflow an integer index; the float grid stops at 52
    threshold = 0.3

    def probe(idx, lam):
        return lam < threshold, np.log(threshold / lam)

    lo, hi = grid_bracket(probe, 1, 1.0, 67)
    want = _index_bisection(lambda idx, lam: lam < threshold, 1, 1.0, 52)
    assert (lo[0], hi[0]) == (want[0][0], want[1][0])
    assert lo[0] < threshold <= hi[0] and hi[0] - lo[0] == 2.0**-52


def _reference_grid(probe, n, cap, steps):
    return _index_bisection(lambda idx, lam: probe(idx, lam)[0], n, cap, steps)


def _leg(data, d):
    p = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    if data.draw(st.booleans()):
        return lat.lp(p, d)
    return lat.weighted_lp(p, d, data.draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d)))


_INNER_FAMILIES = {
    "harmonic": qc.harmonic,
    "cappedpower": lambda: qc.capped_power(0.5),
    "mirror-affinepower": lambda: qc.mirror(qc.affine_power(1.0, 1.0, 0.5)),
}


@pytest.mark.parametrize("family", sorted(_INNER_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inner_bracket_matches_the_bisection(family, data):
    # the real test of _batched_inner_bracket, once guided and once driven by
    # the reference bisection: the same cells, stuck rows included
    d = data.draw(st.integers(1, 4))
    c = cp.Couple(_leg(data, d), _leg(data, d))
    f = _INNER_FAMILIES[family]()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    a = rng.uniform(0.1, 2.0, d)
    support = np.arange(d)
    us = rng.uniform(0.05, 1.0, (16, d))
    us /= lat.norm_rows(c.x0, us, support)[:, None] * rng.uniform(1.0, 3.0, (16, 1))
    cap = cp.intersection_norm(c, a) / f.normalization * data.draw(st.floats(0.3, 3.0))
    steps = data.draw(STEPS)
    got = cp._batched_inner_bracket(c, f, a, support, us, cap, steps)
    with mock.patch.object(cp, "grid_bracket", _reference_grid):
        want = cp._batched_inner_bracket(c, f, a, support, us, cap, steps)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_inner_bracket_cells_agree_where_a_batched_norm_flipped_a_verdict():
    # a blocked matrix-vector norm once judged row 2 infeasible at a level
    # that the row alone judged feasible, so the guided search returned lo
    # 8.355930685418537 and the bisection 8.355930685418539
    c = cp.parse_couple("lp:3:4|lp:0.5:4")
    f = qc.capped_power(0.5)
    rng = np.random.default_rng(4)
    a = rng.uniform(0.1, 2.0, 4)
    support = np.arange(4)
    us = rng.uniform(0.05, 1.0, (16, 4))
    us /= lat.norm_rows(c.x0, us, support)[:, None] * rng.uniform(1.0, 3.0, (16, 1))
    cap = cp.intersection_norm(c, a) / f.normalization * 0.4809333746381528
    got = cp._batched_inner_bracket(c, f, a, support, us, cap, 52)
    with mock.patch.object(cp, "grid_bracket", _reference_grid):
        want = cp._batched_inner_bracket(c, f, a, support, us, cap, 52)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("family", sorted(_INNER_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inner_bracket_cells_do_not_depend_on_the_batch(family, data):
    # each row gets the same cell alone as in its batch; at 52 halvings a
    # cell is an ulp wide, so a last-bit change of a norm moves it
    d = data.draw(st.integers(1, 4))
    c = cp.Couple(_leg(data, d), _leg(data, d))
    f = _INNER_FAMILIES[family]()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    a = rng.uniform(0.1, 2.0, d)
    support = np.arange(d)
    us = rng.uniform(0.05, 1.0, (32, d))
    us /= lat.norm_rows(c.x0, us, support)[:, None] * rng.uniform(1.0, 3.0, (32, 1))
    cap = cp.intersection_norm(c, a) / f.normalization * data.draw(st.floats(0.3, 3.0))
    lo, hi = cp._batched_inner_bracket(c, f, a, support, us, cap, 52)
    for i, row in enumerate(us):
        alone = cp._batched_inner_bracket(c, f, a, support, row[None, :], cap, 52)
        assert (alone[0][0], alone[1][0]) == (lo[i], hi[i])


@pytest.mark.parametrize("family", ["power", "capped", "mirror"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dual_lower_matches_the_bisection(family, data):
    d = data.draw(st.integers(1, 3))
    c = cp.Couple(_leg(data, d), _leg(data, d))
    th = data.draw(st.floats(0.2, 0.8))
    f = {"power": lambda: qc.power(th, 2.5), "capped": lambda: qc.capped_power(th),
         "mirror": lambda: qc.mirror(qc.capped_power(th))}[family]()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    a = rng.uniform(0.1, 2.0, d)
    support = np.arange(d)
    caps = 1.0 / c.x0.w ** (1.0 / c.x0.p)
    los = caps * rng.uniform(0.02, 0.6, (8, d)) / d
    his = np.minimum(los * np.exp(rng.uniform(0.1, 3.0, (8, d))), caps)
    cap = cp.intersection_norm(c, a) / f.normalization * data.draw(st.floats(0.3, 100.0))
    got = cp._graded_lower(c, f, a, support, los, his, cap)
    with mock.patch.object(cp, "grid_bracket", _reference_grid):
        want = cp._graded_lower(c, f, a, support, los, his, cap)
    np.testing.assert_array_equal(got, want)
