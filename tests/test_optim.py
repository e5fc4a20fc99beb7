import numpy as np
import pytest

from clinterp._optim import batched_search


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
