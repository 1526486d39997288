"""One in-process workload run: import quantband.cli, warm up, time passes.

Started by run.py as a fresh interpreter, so its import and warm-up are what
a user pays once per process. Every op calls ``quantband.cli.main(argv)``
with stdout and stderr captured, one op at a time. Results go to the JSON
file named by ``--result``.

    python3 perfbench/worker.py --workload noise-grid --seed 1 --t0 <monotonic> \
        --work .bench_out/work --result out.json [--setup-only] \
        [--seconds 20] [--trace-seconds 0]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
import traceback

import check
import workloads
from tracer import Tracer


def run_op(cli, argv: list[str]) -> tuple[float, dict]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code, err = None, io.StringIO(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return elapsed, check.outcome(argv, code, out.getvalue(), err.getvalue())


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-seconds", type=float, default=0.0)
    args = parser.parse_args()

    start = time.perf_counter()
    import quantband.cli as cli

    import_s = time.perf_counter() - start
    ops = workloads.ops(args.workload, args.seed, args.work)
    run_op(cli, ops[0])
    result = {"setup_s": time.monotonic() - args.t0, "import_s": import_s}

    if not args.setup_only:
        times, outcomes = workloads.closed_loop(
            ops, args.seconds, lambda op_id, argv: run_op(cli, argv))
        result.update(op_s=times, outcomes=outcomes)
        if args.trace_seconds > 0:
            tracer = Tracer()

            def traced_op(op_id, argv):
                tracer.op = op_id
                return run_op(cli, argv)

            tracer.install()
            t_times, t_outcomes = workloads.closed_loop(ops, args.trace_seconds, traced_op)
            tracer.uninstall()
            result.update(traced_op_s=t_times, traced_outcomes=t_outcomes,
                          spans=tracer.spans)

    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
