"""The package runs on numpy alone: scipy is a test-only dependency.

A fresh interpreter blocks scipy (sys.modules["scipy"] = None makes every
import of it raise) and then drives each route that once called it: the
sum-norm polish, the l-infinity cap scan, the node march of bk_decompose
and factorize, plus a certified cl_norm and the CLI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import io, json, sys
from contextlib import redirect_stdout
sys.modules["scipy"] = None

import numpy as np
import clinterp
from clinterp import cli
from clinterp import couple as cp
from clinterp import quasiconcave as qc

x = np.random.default_rng(0).uniform(0.1, 2.0, 3)
out = {}
est = cp.cl_norm(cp.parse_couple("lp:2:3|lp:1:3"), qc.capped_power(0.5), x,
                 method="optimize")
out["cl_norm"] = [est.lower, est.upper, list(est.flags)]
for name, couple in [("convex", "lp:2:3|wlp:3:3:1,2,3"), ("sub", "sub:0.5:3|lp:2:3"),
                     ("linf", "wlp:2:3:1,2,3|linf:3")]:
    est = cp.sum_norm(cp.parse_couple(couple), x)
    out["sum_" + name] = [est.method, est.lower, est.upper]
d = qc.bk_decompose(qc.harmonic(), 4.0)
out["bk_nodes"] = len(d.nodes)
fv, gv, report = cp.factorize(cp.parse_couple("lp:1:3|linf:3"), qc.power(0.5), x / 10.0)
out["factorize"] = report["branch"]
buf = io.StringIO()
with redirect_stdout(buf):
    code = cli.main(["norm", "cl", "--couple", "lp:1:3|lp:2:3", "--phi", "harmonic",
                     "--x", ",".join(map(str, x))])
out["cli"] = [code, json.loads(buf.getvalue())["totals"]["failed"]]
out["scipy_loaded"] = any(m == "scipy" or m.startswith("scipy.")
                          for m, mod in sys.modules.items() if mod is not None)
print(json.dumps(out))
"""


def test_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    lower, upper, flags = out["cl_norm"]
    assert 0.0 < lower <= upper and "grid-certified" in flags
    assert out["sum_convex"][0] == "batched-search"
    assert out["sum_sub"][0] == "batched-search"
    assert out["sum_linf"][0] == "linf-cap"
    for key in ("sum_convex", "sum_sub", "sum_linf"):
        assert 0.0 < out[key][1] <= out[key][2], key
    assert out["bk_nodes"] > 2
    assert out["factorize"] == "two-sided"
    assert out["cli"] == [0, 0]
    assert not out["scipy_loaded"]
