"""Golden-report gate: the paper's reports must not move.

Each report is regenerated and compared with its committed JSON (the
timestamp stripped) by the benchmark's own comparator: discrete fields
exactly, numbers within ``check.REL_TOL`` relative. The validation,
table-2 and N_min runs are the session fixtures the acceptance suite
uses; the gate adds the ``analyze``, ``sensitivity``, ``peaks`` and
``bands`` runs of the battery.

A change that moves a number on purpose declares it, deletes the golden
file, and reruns this test, which writes the file afresh and fails once
so the new file is reviewed before it is committed.
"""

import json
import sys
from pathlib import Path

import pytest

from quantband.experiments import (
    DEFAULT_PEAKS,
    DEFAULT_SEED,
    PEAKS_BASE,
    SENSITIVITY_DELTAS,
    VALIDATION_PRESETS,
    analyze_signal,
    run_band_power,
    run_peak_robustness,
    run_sensitivity,
)
from quantband.io import report_to_dict
from quantband.noise import SynthesisSpec, synthesize
from quantband.quantizer import QuantizerConfig

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(REPO / "perfbench"))

import check  # noqa: E402

# The signal of ``quantband synth --alpha 2 --n 65536 --fs 2000 --seed 3``,
# analyzed at the range ``analyze`` gives it by default (2 * max|x| = 2).
ANALYZED = SynthesisSpec(2.0, 65_536, 2000.0, seed=3)
ANALYZED_BITS = (4, 8, 12)
# The battery's band-power proxy, ``synth --alpha 1.56 --n 8192 --fs 160``,
# quantized by ``bands --range 2``.
PROXY = SynthesisSpec(1.56, 8192, 160.0, seed=DEFAULT_SEED)
PROXY_BITS = (4, 6, 8)


def payload(report) -> dict:
    """The report as ``write_report`` writes it, without the timestamp."""
    data = json.loads(json.dumps(report_to_dict(report)))
    data["metadata"].pop("created_utc")
    return data


def assert_matches_golden(name: str, got) -> None:
    path = GOLDEN / f"{name}.json"
    if not path.exists():
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.fail(f"{path.name} was missing and has been written; review and commit it")
    _, bad = check.compare(got, json.loads(path.read_text()), name)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("floor", ["theoretical", "empirical"])
@pytest.mark.parametrize("preset", sorted(VALIDATION_PRESETS))
def test_validation_reports(theoretical_reports, empirical_reports, preset, floor):
    reports = theoretical_reports if floor == "theoretical" else empirical_reports
    assert_matches_golden(f"validate-{preset}-{floor}", payload(reports[preset]))


def test_table2_sweep(table2_sweep):
    assert_matches_golden("noise-color-paper-table2", payload(table2_sweep))


def test_n_min_answers(n_min_answers):
    assert_matches_golden("nmin", {str(a): n for a, n in n_min_answers.items()})


@pytest.mark.parametrize("bits", ANALYZED_BITS)
def test_analyze_reports(bits):
    report = analyze_signal(synthesize(ANALYZED), QuantizerConfig(bits, 2.0))
    assert_matches_golden(f"analyze-{bits}bit", payload(report))


def test_sensitivity_report():
    report = run_sensitivity(VALIDATION_PRESETS["paper-alpha20"], list(SENSITIVITY_DELTAS))
    assert_matches_golden("sensitivity-paper-alpha20", payload(report))


def test_peak_robustness_report():
    report = run_peak_robustness(PEAKS_BASE, list(DEFAULT_PEAKS))
    assert_matches_golden("peaks", payload(report))


@pytest.mark.parametrize("bits", PROXY_BITS)
def test_band_power_reports(bits):
    report = run_band_power(synthesize(PROXY), QuantizerConfig(bits, 2.0))
    assert_matches_golden(f"bands-{bits}bit", payload(report))
