#!/usr/bin/env python3
"""Run the full experiment battery and write reports under results/.

Covers: scaling-law validation with theoretical and empirical noise
floors for alpha in {1.5, 2.0, 2.5}, the noise-color table for alpha=2,
N_min per alpha, alpha-sensitivity, spectral-peak robustness, and the
band-power preservation proxy at 160 Hz (a synthesized signal written to
eeg-proxy.f64, then quantized at 4, 6 and 8 bits).

Every experiment is a quantband CLI command, echoed and then run in this
process through ``quantband.cli.main``, so the console lines are the
CLI's own. A command that fails does not stop the battery; the script
exits with the largest exit code of any command: 2 if some command's
arguments were rejected, else 1 if some command failed at run time, and
0 if every command succeeded.

Usage: python scripts/run_all_experiments.py [--out results] [--seed 1234]
"""

import argparse
import pathlib
import shlex
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from quantband.cli import main as quantband
from quantband.experiments import DEFAULT_SEED, VALIDATION_PRESETS

FLOORS = ("theoretical", "empirical")
NMIN_ALPHAS = ("1", "1.5", "2", "2.5", "3")
PROXY_BITS = ("4", "6", "8")


def commands(out: str, seed: str) -> list[list[str]]:
    """The argv of every command in the battery, in order."""
    proxy = f"{out}/eeg-proxy.f64"
    return [
        *(
            ["validate", "--preset", preset, "--floor", floor, "--seed", seed,
             "--out", f"{out}/validation-{preset}-{floor}.json"]
            for preset in VALIDATION_PRESETS
            for floor in FLOORS
        ),
        ["noise-color", "--preset", "paper-table2", "--seed", seed,
         "--format", "csv", "--out", f"{out}/noise-color-alpha2.csv"],
        *(["nmin", "--alpha", alpha, "--seed", seed] for alpha in NMIN_ALPHAS),
        ["sensitivity", "--preset", "paper-alpha20", "--seed", seed,
         "--out", f"{out}/sensitivity-alpha2.json"],
        ["peaks", "--seed", seed, "--out", f"{out}/peak-robustness.json"],
        ["synth", "--alpha", "1.56", "--n", "8192", "--fs", "160", "--seed", seed, "--out", proxy],
        *(
            ["bands", "--in", proxy, "--fs", "160", "--bits", bits, "--range", "2",
             "--format", "csv", "--out", f"{out}/band-power-{bits}bit.csv"]
            for bits in PROXY_BITS
        ),
    ]


def run(argv: list[str]) -> int:
    print(f"$ quantband {shlex.join(argv)}", flush=True)
    try:
        return quantband(argv)
    except SystemExit as exc:  # argparse rejected the argv
        return exc.code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    battery = commands(args.out, str(args.seed))
    codes = [run(argv) for argv in battery]
    failed = sum(code != 0 for code in codes)
    print(f"\nreports written to {args.out}/; {failed} of {len(battery)} commands failed")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
