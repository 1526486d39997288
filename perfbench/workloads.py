"""The benchmark's workloads: which quantband CLI commands one pass runs.

Every op is an argv list for ``quantband.cli.main``, the function behind the
``quantband`` console script. Paths are relative to the checkout root, which
is the working directory of every process the benchmark starts.
"""

from __future__ import annotations

import statistics
import time

VALIDATION_PRESETS = ("paper-alpha15", "paper-alpha20", "paper-alpha25")
NMIN_ALPHAS = ("1", "1.5", "2", "2.5", "3")

# cli-ingest signal: the README's example settings at ten times the length,
# so the CSV reader and writer handle a million rows.
INGEST_ALPHA = "2"
INGEST_N = "1000000"
INGEST_FS = "2000"
INGEST_BITS = "8"

IN_PROCESS = "in-process"
PROCESS_PER_OP = "process-per-op"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "validate-theoretical": IN_PROCESS,
    "validate-empirical": IN_PROCESS,
    "noise-grid": IN_PROCESS,
    "cli-ingest": PROCESS_PER_OP,
}


def ops(workload: str, seed: int, work: str) -> list[list[str]]:
    """The argv of every op in one pass of a workload, in order.

    ``work`` is a directory, relative to the checkout root, for the files
    the ops write.
    """
    s = str(seed)
    if workload in ("validate-theoretical", "validate-empirical"):
        floor = workload.split("-")[1]
        return [
            ["validate", "--preset", preset, "--floor", floor, "--seed", s,
             "--out", f"{work}/{preset}.json", "--quiet"]
            for preset in VALIDATION_PRESETS
        ]
    if workload == "noise-grid":
        table = [["noise-color", "--preset", "paper-table2", "--seed", s,
                  "--out", f"{work}/table2.json", "--quiet"]]
        return table + [
            ["nmin", "--alpha", a, "--bits", "4:12", "--seed", s] for a in NMIN_ALPHAS
        ]
    if workload == "cli-ingest":
        signal = ["--alpha", INGEST_ALPHA, "--n", INGEST_N, "--fs", INGEST_FS, "--seed", s]
        analyze = ["analyze", "--fs", INGEST_FS, "--bits", INGEST_BITS]
        return [
            ["synth", *signal, "--out", f"{work}/signal.csv", "--quiet"],
            [*analyze, "--in", f"{work}/signal.csv"],
            ["synth", *signal, "--out", f"{work}/signal.f64", "--quiet"],
            [*analyze, "--in", f"{work}/signal.f64", "--out", f"{work}/analysis.json"],
        ]
    raise KeyError(workload)


def closed_loop(ops: list[list[str]], seconds: float, run_op):
    """Run passes over ``ops``, one op at a time, as many as end nearest to ``seconds``.

    ``run_op(op_id, argv)`` runs one op and returns ``(seconds, outcome)``;
    op ids count from 0 across passes. Returns the op times and outcomes,
    one list per pass.
    """
    times, outcomes = [], []
    start = time.monotonic()
    while not times or time.monotonic() - start + statistics.median(map(sum, times)) / 2 <= seconds:
        op_times, results = [], []
        for argv in ops:
            elapsed, result = run_op(len(outcomes) * len(ops) + len(results), argv)
            op_times.append(elapsed)
            results.append(result)
        times.append(op_times)
        outcomes.append(results)
    return times, outcomes
