import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402


def reference_validation(workload="validate-theoretical"):
    reference = check.load_reference(1234)[workload]
    index = next(i for i, r in enumerate(reference) if r["exit"] == 0)
    return reference, index


def test_reference_passes_against_itself():
    reference, _ = reference_validation()
    failed, drift, problems = check.check_run([copy.deepcopy(reference)], reference)
    assert (failed, drift, problems) == ([], 0.0, [])


def test_perturbed_number_fails_and_reports_its_drift():
    reference, i = reference_validation()
    got = copy.deepcopy(reference)
    report = got[i]["report"]["report"]
    report["measured_ratio_mean"] *= 1 + 1e-6
    failed, drift, problems = check.check_run([got], reference)
    assert failed == [i]
    assert 0.9e-6 < drift < 1.1e-6
    assert "measured_ratio_mean" in problems[0]


def test_drift_below_tolerance_passes_but_is_reported():
    reference, i = reference_validation()
    got = copy.deepcopy(reference)
    got[i]["report"]["report"]["measured_ratio_mean"] *= 1 + 1e-12
    failed, drift, _ = check.check_run([got], reference)
    assert failed == []
    assert 0 < drift < check.REL_TOL


def test_discrete_fields_must_match_exactly():
    reference, i = reference_validation()
    got = copy.deepcopy(reference)
    got[i]["report"]["report"]["per_bit_cutoffs"][0]["valid_trials"] += 1
    assert check.check_run([got], reference)[0] == [i]
    got = copy.deepcopy(reference)
    got[i]["exit"] = 1
    assert check.check_run([got], reference)[0] == [i]


def test_without_reference_passes_must_agree_and_invariants_hold():
    reference, i = reference_validation()
    second = copy.deepcopy(reference)
    second[i]["report"]["report"]["excluded_bits"].append(99)
    assert check.check_run([reference, second], None)[0] == [len(reference) + i]

    broken = copy.deepcopy(reference)
    broken[i]["report"]["report"]["predicted_ratio"] += 1e-9
    assert check.check_run([broken, broken], None)[0] == [i, len(reference) + i]


def test_only_validate_may_exit_one():
    assert check.invariant_errors({"command": "validate", "exit": 1}) == []
    assert check.invariant_errors({"command": "nmin", "exit": 1}) != []
    assert check.invariant_errors({"command": "validate", "exit": None}) != []
