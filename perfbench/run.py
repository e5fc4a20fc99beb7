"""clinterp benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload bracket --seed 1 --seconds 25 --trace 0

Run it from the repository root (any directory works; paths are resolved
from this file). Each workload runs in fresh single-threaded interpreters
(worker.py) built from ./src. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics setup_s, wall_s,
op_s_p50 and peak_rss_mb; with --trace 1 it carries the per-layer metrics
of one traced round instead, and the spans go to perfbench/traces/. See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bracket", "certify", "replay", "submeasure")
SETUP_ONLY_CHILDREN = 4  # set-up is sampled by these and by the measuring child
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{name: "1" for name in THREAD_VARS})
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_child(args, mode: str, deadline: float, extra=()) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("out of time before starting the next worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    try:
        # the worker measures its set-up from this instant
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], env=child_env(),
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise ChildError(f"{mode} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "clinterp" / "__init__.py").is_file():
        print(f"no clinterp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            spans = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
            res = run_child(args, "trace", deadline, ["--spans", str(spans)])
            metrics = res["metrics"]
            if res["absent"]:
                print("absent layers (reported as 0): " + ", ".join(res["absent"]))
            print(f"untraced round {res['untraced_wall_s']:.3f} s, "
                  f"traced round {res['traced_wall_s']:.3f} s, spans in {spans}")
        else:
            setups = [run_child(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_ONLY_CHILDREN)]
            res = run_child(args, "measure", deadline)
            setups.append(res["setup_s"])
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "wall_s": metric(res["wall_s"], "s"),
                "op_s_p50": metric(res["op_s_p50"], "s"),
                "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            }
            print(f"{res['rounds']} round(s) of {res['attempted'] // res['rounds']} "
                  f"operations: " + ", ".join(f"{w:.3f}" for w in res["round_s"]) + " s")
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
