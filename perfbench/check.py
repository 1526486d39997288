"""Check op outcomes against committed references or, without one, against themselves.

An outcome is what a user of one op sees: the exit code, the printed lines,
stderr when the op failed, the JSON report with its timestamp removed, and
the SHA-256 of a written signal file.

With a reference for the seed, discrete fields must match exactly and
numbers may drift by at most ``REL_TOL`` relative. Without one, every pass
must give the same outcome as the first, and the closed-form invariants of
each report must hold.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
DISCRETE_KEYS = {"excluded_bits", "n_min", "is_white", "valid_trials"}
# The documented whiteness rule, |slope| < 0.1; restated here because the
# benchmark reads the program's outputs, never its internals.
WHITE_SLOPE_THRESHOLD = 0.1


def outcome(argv: list[str], code: int | None, stdout: str, stderr: str) -> dict:
    """Everything the op left for its user, read right after it ran."""
    out: dict = {"command": argv[0], "exit": code}
    if "--quiet" not in argv:
        out["stdout"] = [ln for ln in stdout.splitlines()
                         if not ln.startswith("report written to")]
    if code != 0:
        out["stderr"] = stderr.strip()
        return out
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if argv[0] == "synth":
        out["signal_sha256"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    elif path is not None:
        report = json.loads(Path(path).read_text())
        report["metadata"].pop("created_utc", None)
        out["report"] = report
    return out


def compare(got, want, where: str = "", key: str = "") -> tuple[float, list[str]]:
    """Largest relative deviation of numbers, and the mismatches found."""
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return 0.0, [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        drift, bad = 0.0, []
        for k in want:
            d, b = compare(got[k], want[k], f"{where}.{k}", k)
            drift, bad = max(drift, d), bad + b
        return drift, bad
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return 0.0, [f"{where}: length {len(got)} != {len(want)}"]
        drift, bad = 0.0, []
        for i, (g, w) in enumerate(zip(got, want)):
            d, b = compare(g, w, f"{where}[{i}]", key)
            drift, bad = max(drift, d), bad + b
        return drift, bad
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    if numbers and key not in DISCRETE_KEYS and isinstance(want, float):
        if got == want:
            return 0.0, []
        drift = abs(got - want) / max(abs(want), abs(got))
        return drift, [] if drift <= REL_TOL else [f"{where}: {got!r} != {want!r}"]
    return 0.0, [] if got == want else [f"{where}: {got!r} != {want!r}"]


def invariant_errors(result: dict) -> list[str]:
    """Closed-form facts every outcome must satisfy, whatever the seed.

    Only ``validate`` may exit 1, which is how it reports that no pair of
    bit depths had a measurable cutoff; every other op must exit 0.
    """
    allowed = (0, 1) if result["command"] == "validate" else (0,)
    errors = [] if result["exit"] in allowed else [f"exit code {result['exit']}"]
    report = result.get("report", {}).get("report")
    if report is None:
        return errors
    if "predicted_ratio" in report:
        alpha = report["config"]["alpha"]
        if report["predicted_ratio"] != 2.0 ** (2.0 / alpha):
            errors.append(f"predicted_ratio {report['predicted_ratio']} != 2**(2/{alpha})")
    if "cells" in report:
        for cell in report["cells"]:
            if cell["is_white"] != (abs(cell["noise_slope"]) < WHITE_SLOPE_THRESHOLD):
                errors.append(f"cell {cell} is_white disagrees with its slope")
    if "theoretical_floor" in report:
        step = report["full_scale"] / 2 ** report["bits"]
        floor = step**2 / (6.0 * report["sample_rate_hz"])
        if not math.isclose(report["theoretical_floor"], floor, rel_tol=1e-12):
            errors.append(f"theoretical_floor {report['theoretical_floor']} != {floor}")
    return errors


def load_reference(seed: int) -> dict | None:
    path = REFERENCE_DIR / f"seed{seed}.json"
    return json.loads(path.read_text()) if path.exists() else None


def save_reference(seed: int, workload: str, outcomes: list[dict]) -> None:
    reference = load_reference(seed) or {}
    reference[workload] = outcomes
    REFERENCE_DIR.mkdir(exist_ok=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    (REFERENCE_DIR / f"seed{seed}.json").write_text(text + "\n")


def check_run(outcomes: list[list[dict]], reference: list[dict] | None):
    """Check every op of every pass against the reference, or against pass 0.

    ``outcomes[p][j]`` is op j of pass p. Returns the flat indices
    ``p * ops_per_pass + j`` of the ops that failed, the largest relative
    drift of any number, and a description of each problem.
    """
    failed, drift, problems = [], 0.0, []
    for p, results in enumerate(outcomes):
        for j, result in enumerate(results):
            want = reference[j] if reference is not None else outcomes[0][j]
            d, bad = compare(result, want, f"pass {p} op {j}")
            bad += [f"pass {p} op {j}: {e}" for e in invariant_errors(result)]
            drift = max(drift, d)
            if bad:
                failed.append(p * len(results) + j)
                problems += bad
    return failed, drift, problems
