import numpy as np
from scipy.optimize import minimize

from clinterp._optim import multistart_minimize


def test_n_evals_counts_every_start():
    def fun(y):
        return float(np.sum((y - 1.0) ** 2) + 0.1 * np.sum(np.cos(3.0 * y)))

    starts = [np.array([0.0, 0.0]), np.array([4.0, -3.0])]
    options = {"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12}
    runs = [minimize(fun, s, method="Nelder-Mead", options=options) for s in starts]
    res = multistart_minimize(fun, starts, maxiter=200)
    assert res.n_evals == runs[0].nfev + runs[1].nfev
    best = min(range(2), key=lambda i: (runs[i].fun, i))
    assert res.start_index == best
    assert res.value == runs[best].fun
    np.testing.assert_array_equal(res.point, runs[best].x)
