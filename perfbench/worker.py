"""One workload in one fresh interpreter; started by run.py, not by hand.

Modes:
  setup    import clinterp, build the seeded inputs, make the warm-up call,
           and report the time since the parent started this process;
  measure  the same set-up, then whole rounds of the workload's operations
           until the next round would end after --seconds, then the checks;
  trace    one untraced round, then the layer wrappers and one traced round,
           then the checks, the per-layer summary and the span file.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_round(ops, tracer=None) -> tuple[list, list, float]:
    """Run every operation once; an operation that raises yields None."""
    outputs, times = [], []
    begin = time.perf_counter()
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.operation_span(index, op.label):
                    out = op.run()
        except Exception:  # an operation that raises is counted as failed
            traceback.print_exc(file=sys.stderr)
            out = None
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, times, time.perf_counter() - begin


def check_rounds(ops, rounds: list) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over the outputs of every round."""
    attempted = failed = 0
    correct = True
    for outputs in rounds:
        for op, out in zip(ops, outputs):
            attempted += 1
            if out is None:
                failed += 1
                continue
            try:
                reason = op.check(out, outputs)
            except Exception as exc:  # a malformed output is a wrong output
                reason = f"check raised {exc!r}"
            if reason is not None:
                print(f"check failed: {op.label}: {reason}", file=sys.stderr)
                failed += 1
                correct = False
    return attempted, failed, correct


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--spans", type=Path, help="span file of the trace mode")
    args = ap.parse_args()

    start = time.perf_counter()
    import clinterp
    import_s = time.perf_counter() - start
    expected = HERE.parent / "src" / "clinterp"
    if Path(clinterp.__file__).resolve().parent != expected:
        print(f"clinterp imported from {clinterp.__file__}, not {expected}", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.build(args.workload, args.seed)
    wl.warmup()
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s, "import_s": import_s}

    if args.mode == "measure":
        rounds, walls, op_times = [], [], []
        begin = time.perf_counter()
        while True:
            outputs, times, wall = run_round(wl.ops)
            rounds.append(outputs)
            walls.append(wall)
            op_times += times
            if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted, failed, correct = check_rounds(wl.ops, rounds)
        result.update(rounds=len(rounds), round_s=walls, op_s=op_times,
                      wall_s=statistics.median(walls), op_s_p50=statistics.median(op_times),
                      peak_rss_mb=peak_kb / 1024.0, attempted=attempted, failed=failed,
                      correct=correct)
    elif args.mode == "trace":
        import tracing

        plain, _, plain_wall = run_round(wl.ops)
        tracer = tracing.Tracer()
        tracer.install()
        traced, _, traced_wall = run_round(wl.ops, tracer)
        attempted, failed, correct = check_rounds(wl.ops, [plain, traced])
        if args.spans is not None:
            tracer.write_spans(args.spans, {"workload": args.workload, "seed": args.seed,
                                            "operations": [op.label for op in wl.ops]})
        result.update(metrics=tracer.metrics(import_s, traced_wall - plain_wall),
                      absent=tracer.absent, untraced_wall_s=plain_wall,
                      traced_wall_s=traced_wall, attempted=attempted, failed=failed,
                      correct=correct)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
