"""quantband benchmark: time the CLI's user-facing runs, check their outputs.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the benchmark works in the checkout that holds this
directory and imports quantband from its ``src/``. Each workload is one
closed loop: one client, one op at a time, the next op only after the last
one returns. Ops go through ``quantband.cli.main`` with the workload seed
passed as ``--seed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics. The last
line of stdout is one JSON object; the lines before it name every metric
with its unit and sample count. The full record, with the machine, the
environment and (traced) every span, goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".bench_out"
# Set-ups per run are the worker's own plus these fresh-interpreter probes.
SETUP_PROBES = 2
VERSION_PROBES = 3
TAIL_BEYOND = 10
# Per-layer metrics derived from call arguments rather than measured.
COMPUTED = ("msamples", "mbytes", "segments", "repeat_ratio")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """Environment of every child: BLAS/OpenMP capped at nproc, no QUANTBAND_THREADS."""
    env = dict(os.environ)
    env.pop("QUANTBAND_THREADS", None)
    env.pop("PERFBENCH_SPANS", None)
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({var: nproc for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.exists() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(env: dict[str, str]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "QUANTBAND_THREADS": env.get("QUANTBAND_THREADS"),
        "git_commit": git_commit(),
    }


def spawn(cmd: list[str], env: dict[str, str], work: Path):
    """Run a child to completion: exit code, wall seconds, peak RSS in MB, stdout, stderr."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss * 1024 / 1e6
    return proc.returncode, elapsed, rss_mb, out_path.read_text(), err_path.read_text()


def run_in_process(name: str, seed: int, seconds: float, trace: bool, env, work: Path) -> dict:
    result_path = work / "worker.json"

    def worker(*extra: str) -> tuple[dict, float]:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(seed), "--work", str(work.relative_to(ROOT)),
               "--result", str(result_path), "--t0", repr(time.monotonic()), *extra]
        code, _, rss_mb, _, err = spawn(cmd, env, work)
        if code != 0:
            raise BenchError(f"worker exited {code}:\n{err[-2000:]}")
        return json.loads(result_path.read_text()), rss_mb

    probes = [worker("--setup-only")[0] for _ in range(SETUP_PROBES)]
    untraced = seconds / 2 if trace else seconds
    res, rss_mb = worker("--seconds", str(untraced), "--trace-seconds", str(seconds - untraced))
    setups = probes + [res]
    return {
        "setup_s": [p["setup_s"] for p in setups],
        "import_s": [p["import_s"] for p in setups],
        "op_s": res["op_s"],
        "outcomes": res["outcomes"],
        "traced_op_s": res.get("traced_op_s", []),
        "traced_outcomes": res.get("traced_outcomes", []),
        "spans": res.get("spans", []),
        "peak_rss_mb": rss_mb,
    }


def run_process_per_op(name: str, seed: int, seconds: float, trace: bool, env, work: Path) -> dict:
    launcher = [sys.executable, str(HERE / "launch.py")]
    spans_path = work / "spans.json"
    ops = workloads.ops(name, seed, str(work.relative_to(ROOT)))
    setups = []
    for _ in range(VERSION_PROBES):
        code, elapsed, _, _, err = spawn([*launcher, "--version"], env, work)
        if code != 0:
            raise BenchError(f"quantband --version exited {code}:\n{err[-2000:]}")
        setups.append(elapsed)

    def passes(budget: float, traced: bool):
        spans, imports, peak = [], [], [0.0]

        def run_op(op_id, argv):
            op_env = env
            if traced:
                op_env = dict(env, PERFBENCH_SPANS=str(spans_path), PERFBENCH_OP=str(op_id))
            code, elapsed, rss_mb, out, err = spawn([*launcher, *argv], op_env, work)
            peak[0] = max(peak[0], rss_mb)
            if traced:
                record = json.loads(spans_path.read_text())
                spans.extend(record["spans"])
                imports.append(record["import_s"])
            return elapsed, check.outcome(argv, code, out, err)

        times, outcomes = workloads.closed_loop(ops, budget, run_op)
        return times, outcomes, spans, imports, peak[0]

    untraced = seconds / 2 if trace else seconds
    times, outcomes, _, _, peak = passes(untraced, False)
    run = {"setup_s": setups, "import_s": [], "op_s": times, "outcomes": outcomes,
           "traced_op_s": [], "traced_outcomes": [], "spans": [], "peak_rss_mb": peak}
    if trace:
        t_times, t_outcomes, spans, imports, _ = passes(seconds - untraced, True)
        run.update(traced_op_s=t_times, traced_outcomes=t_outcomes, spans=spans,
                   import_s=imports)
    return run


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile of pass time with ten passes beyond it: value, percentile, beyond.

    Below 21 passes no percentile above the median has ten passes beyond
    it, so the slowest pass is reported, as p100 with none beyond.
    """
    xs = sorted(times)
    k = len(xs) - 1 - TAIL_BEYOND if len(xs) > 2 * TAIL_BEYOND else len(xs) - 1
    pct = 100.0 * k / (len(xs) - 1) if len(xs) > 1 else 100.0
    return xs[k], pct, len(xs) - 1 - k


def kept_cells_ratio(outcomes: list[list[dict]]) -> float:
    """Kept (trial, bits) cutoffs over attempted cells, from the validation reports."""
    kept = attempted = 0
    for results in outcomes:
        for result in results:
            report = result.get("report", {}).get("report", {})
            for cell in report.get("per_bit_cutoffs", []):
                kept += cell["valid_trials"]
                attempted += report["config"]["trials"]
    return kept / attempted if attempted else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, record_reference: bool) -> dict:
    kind = workloads.WORKLOADS[name]
    env = child_env()
    out_dir = ROOT / OUT_DIR
    work = out_dir / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_in_process if kind == workloads.IN_PROCESS else run_process_per_op
        run = runner(name, seed, seconds, trace, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = run["outcomes"] + run["traced_outcomes"]
    ops_per_pass = len(outcomes[0])
    if record_reference:
        failed, _, problems = check.check_run(outcomes, None)
        if failed:
            raise BenchError("outcomes disagree between passes:\n" + "\n".join(problems[:20]))
        check.save_reference(seed, name, outcomes[0])
    reference = check.load_reference(seed)
    reference = reference.get(name) if reference else None
    failed, drift, problems = check.check_run(outcomes, reference)
    for problem in problems[:20]:
        print(f"check: {problem[:300]}", file=sys.stderr)
    attempted = len(outcomes) * ops_per_pass
    flat = [r for results in outcomes for r in results]
    errors = len(set(failed) | {i for i, r in enumerate(flat) if r["exit"] != 0})

    values: dict[str, tuple[float, str]] = {}
    pass_s = [sum(p) for p in run["op_s"]]
    if not trace:
        tail_s, pct, beyond = tail(pass_s)
        values["pass_s"] = statistics.median(pass_s), f"median of {len(pass_s)} passes"
        values["pass_s_tail"] = tail_s, f"p{pct:.1f} of {len(pass_s)} passes, {beyond} beyond"
        values["setup_s"] = (statistics.median(run["setup_s"]),
                             f"median of {len(run['setup_s'])} set-ups")
        values["peak_rss_mb"] = run["peak_rss_mb"], (
            "workload process" if kind == workloads.IN_PROCESS else "largest op process")
    else:
        traced_s = [sum(p) for p in run["traced_op_s"]]
        n_traced = len(traced_s)
        for key, value in tracer.layer_metrics(run["spans"], ops_per_pass).items():
            how = "computed" if key.endswith(COMPUTED) else "measured"
            values[key] = value, f"{how}, median of {n_traced} traced passes"
        values["experiments.kept_cells_ratio"] = kept_cells_ratio(outcomes), "read from the reports"
        values["cli.import_s"] = (statistics.median(run["import_s"]),
                                  f"median of {len(run['import_s'])} fresh imports")
        values["check.report_drift"] = drift, (
            "against the reference" if reference else "against the first pass")
        values["trace.overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median(pass_s),
            f"{n_traced} traced over {len(pass_s)} untraced passes")
    values["fail_ratio"] = (errors / attempted,
                            f"{errors} of {attempted} ops exited nonzero or failed the check")
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    gated = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(env),
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "detail": {k: {"value": v, "unit": units[k], "note": note}
                   for k, (v, note) in values.items()},
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()
                    if k in gated},
        "samples": {k: run[k] for k in ("op_s", "traced_op_s", "setup_s", "import_s")},
        "spans": run["spans"],
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's outcomes as the reference first")
    args = parser.parse_args()
    os.chdir(ROOT)
    if not (ROOT / "src" / "quantband" / "cli.py").is_file():
        print(f"error: no quantband source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace), args.record_reference)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        record = ROOT / OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(res))
        print(f"== {name} seed={args.seed} trace={args.trace}: "
              f"{res['attempted']} ops, {res['failed']} failed the check")
        print("   environment: " + json.dumps(res["environment"]))
        for key, d in res["detail"].items():
            print(f"   {key:<40} {d['value']:>14.6g} {d['unit']:<14} {d['note']}")
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
