"""Acceptance suite.

Each criterion is exercised at its stated tolerance and prints one
PASS/FAIL line (run with ``pytest -s`` to see the lines for passing
criteria too). Known shortfalls are asserted faithfully rather than
loosened; failures carry the measured numbers.
"""

from dataclasses import replace

import numpy as np
import pytest

from quantband.experiments import (
    DEFAULT_SEED,
    VALIDATION_PRESETS,
    run_band_power,
    run_peak_robustness,
    run_sensitivity,
    run_validation,
)
from quantband.io import FORMAT_RAW, SignalFileSpec, read_signal, write_signal
from quantband.noise import PeakSpec, Signal, SynthesisSpec, synthesize
from quantband.quantizer import QuantizerConfig, quantize_values
from quantband.scaling import detect_cutoff, predicted_cutoff, scaling_ratio
from quantband.spectral import Psd, fit_slope, welch_psd


def line(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_scaling_factors():
    expected = {1.0: 4.00, 1.5: 2.52, 2.0: 2.00, 2.5: 1.74}
    got = {a: float(f"{scaling_ratio(a):.3g}") for a in expected}
    ok = got == expected
    line("1 (scaling factors)", ok, f"2^(2/alpha) = {got}")
    assert got == expected


C2_BANDS = {
    "paper-alpha15": (2.55, 0.10),
    "paper-alpha20": (1.99, 0.06),
    "paper-alpha25": (1.74, 0.06),
}


@pytest.mark.parametrize("preset", sorted(C2_BANDS))
def test_criterion_2_theoretical_floor_validation(theoretical_reports, preset):
    center, width = C2_BANDS[preset]
    result = theoretical_reports[preset]
    if isinstance(result, Exception):
        line(f"2 ({preset})", False, f"no measurable ratio: {result}")
        pytest.fail(
            f"{preset}: {result}. No trial had sub-Nyquist cutoffs at two "
            f"consecutive bit depths. Where the cutoffs sit against Nyquist is "
            f"set by the signal level against the range: with the level set per "
            f"signal, f_s cancels and the upper bit depth's cutoff lands beyond "
            f"Nyquist."
        )
    ok_band = abs(result.measured_ratio_mean - center) <= width
    ok_err = result.mean_error < 0.03
    line(
        f"2 ({preset})",
        ok_band and ok_err,
        f"ratio {result.measured_ratio_mean:.3f} +/- {result.measured_ratio_std:.3f} "
        f"(band {center} +/- {width}), mean error {result.mean_error * 100:.2f}%",
    )
    steps = [(r.bits_low, r.bits_high, round(r.mean_ratio, 4), r.n_trials) for r in result.ratios]
    cause = (
        f"per-step (low, high, ratio, trials) {steps}. A ratio below the band was "
        f"last caused by reading each cutoff at the first bin under the floor, "
        f"which comes early by more at the higher bit depth"
    )
    assert ok_band, (
        f"measured {result.measured_ratio_mean:.4f} outside {center} +/- {width}; {cause}"
    )
    assert ok_err, f"mean error {result.mean_error * 100:.2f}% >= 3%; {cause}"


def test_criterion_3_empirical_floor_validation(empirical_reports):
    errors = {
        name: rep.mean_error
        for name, rep in empirical_reports.items()
        if not isinstance(rep, Exception)
    }
    assert errors, "no empirical preset produced a measurable band"
    aggregate = float(np.mean(list(errors.values())))
    ok = 0.08 <= aggregate <= 0.20
    detail = (
        f"aggregate {aggregate * 100:.2f}% over {sorted(errors)} "
        f"(per-preset {({k: f'{v * 100:.1f}%' for k, v in errors.items()})})"
    )
    line("3 (empirical floor)", ok, detail)
    assert ok, (
        f"aggregate empirical-floor error {aggregate * 100:.2f}% outside [8%, 20%]. "
        f"The floor is read from the upper quarter of the quantized PSD. Below "
        f"N_min the quantized spectrum keeps falling there instead of flattening, "
        f"so the floor reads below delta^2/(6 f_s) and the low cutoffs come out "
        f"high. At the top bit depths signal power lies inside that band, so the "
        f"floor reads high and the cutoffs come out low. Both compress the ratio."
    )


TABLE2_SLOPES = {4: -1.16, 5: -0.95, 6: -0.32, 7: -0.02, 8: 0.00}


@pytest.mark.parametrize("bits", sorted(TABLE2_SLOPES))
def test_criterion_4_noise_slope_table(table2_sweep, bits):
    expected = TABLE2_SLOPES[bits]
    cell = next(c for c in table2_sweep.cells if c.bits == bits)
    ok = abs(cell.noise_slope - expected) <= 0.15
    line(
        f"4 (noise slope, N={bits})",
        ok,
        f"measured {cell.noise_slope:+.3f} vs {expected:+.2f} (tolerance 0.15)",
    )
    assert ok, (
        f"N={bits}: slope {cell.noise_slope:+.3f} not within 0.15 of {expected:+.2f}. "
        f"Cells N=4..7 all sit about half a bit short of white; the same sweep "
        f"over 50,000-sample records, whose peak is smaller against the "
        f"sample-to-sample increments, puts every cell within 0.15"
    )


N_MIN_EXPECTED = {1.0: 4, 1.5: 5, 2.0: 7, 2.5: 10, 3.0: None}


@pytest.mark.parametrize("alpha", sorted(N_MIN_EXPECTED))
def test_criterion_5_n_min(n_min_answers, alpha):
    expected = N_MIN_EXPECTED[alpha]
    got = n_min_answers[alpha]
    if expected is None:
        ok = got is None
        detail = f"alpha={alpha}: N_min={got} (expected absent)"
    else:
        ok = got is not None and abs(got - expected) <= 1
        detail = f"alpha={alpha}: N_min={got} (expected {expected} +/- 1)"
    line("5 (N_min)", ok, detail)
    assert ok, detail


def test_criterion_6_alpha_sensitivity():
    report = run_sensitivity(
        VALIDATION_PRESETS["paper-alpha20"], [-0.3, -0.1, 0.0, 0.1, 0.3]
    )
    err = {row.delta_alpha: row.rel_error for row in report.rows}
    ok_small = err[-0.1] < 0.05 and err[0.1] < 0.05
    ok_large = err[-0.3] <= 0.20 and err[-0.3] > err[0.3]
    line(
        "6 (alpha sensitivity)",
        ok_small and ok_large,
        f"errors: +/-0.1 -> {err[-0.1] * 100:.1f}%/{err[0.1] * 100:.1f}%, "
        f"-0.3 -> {err[-0.3] * 100:.1f}%, +0.3 -> {err[0.3] * 100:.1f}%",
    )
    assert ok_small, f"|delta|=0.1 errors {err[-0.1]:.3f}/{err[0.1]:.3f} not < 5%"
    assert ok_large, f"-0.3 error {err[-0.3]:.3f} must be <= 20% and above +0.3 ({err[0.3]:.3f})"


def test_criterion_7_peak_robustness():
    base = replace(
        VALIDATION_PRESETS["paper-alpha20"],
        sample_rate_hz=2000.0,
        bit_range=(5, 6),
    )
    report = run_peak_robustness(
        base,
        [PeakSpec(10.0, 2.0, 50.0), PeakSpec(100.0, 20.0, 0.25)],
    )
    low, high = report.rows
    ok_low = low.mean_rel_error < 0.04
    ok_high = 0.03 <= high.mean_rel_error <= 0.10
    line(
        "7 (peak robustness)",
        ok_low and ok_high,
        f"10 Hz x50: {low.mean_rel_error * 100:.2f}% (< 4%), "
        f"100 Hz: {high.mean_rel_error * 100:.2f}% (in [3%, 10%])",
    )
    assert ok_low, f"10 Hz peak error {low.mean_rel_error * 100:.2f}% not < 4%"
    assert ok_high, f"100 Hz peak error {high.mean_rel_error * 100:.2f}% not in [3%, 10%]"


def test_criterion_8_property_suite(tmp_path, theoretical_reports):
    rng = np.random.default_rng(DEFAULT_SEED)

    # Quantizer error bound and idempotence on 10^4 random samples.
    cfg = QuantizerConfig(bits=6, full_scale=2.0)
    x = rng.uniform(-1.0, 1.0, 10_000)
    q = quantize_values(x, cfg)
    assert np.all(np.abs(q - x) <= cfg.step / 2 + 1e-15)
    assert np.array_equal(quantize_values(q, cfg), q)

    # Parseval within 10% on a long white signal.
    w = rng.standard_normal(2**16)
    psd = welch_psd(Signal(w, 2000.0))
    assert np.sum(psd.power) * psd.df_hz == pytest.approx(w.var(), rel=0.1)

    # Exact log-log fit on a grid-exact power law.
    freqs = np.linspace(1.0, 1000.0, 1000)
    exact = Psd(freqs, 2.5 * freqs**-1.7, float(freqs[1] - freqs[0]))
    fit = fit_slope(exact, (1.0, 1000.0))
    assert fit.rms_residual < 1e-9
    assert fit.slope == pytest.approx(-1.7, abs=1e-9)

    # Consecutive-bit cutoff ratio at machine precision for 100 random tuples.
    for _ in range(100):
        alpha = rng.uniform(0.5, 4.0)
        s0 = 10.0 ** rng.uniform(-6, 2)
        fs = rng.uniform(100.0, 1e6)
        r = rng.uniform(0.5, 10.0)
        bits = int(rng.integers(1, 20))
        lo = predicted_cutoff(alpha, s0, fs, QuantizerConfig(bits, r)).f_c_hz
        hi = predicted_cutoff(alpha, s0, fs, QuantizerConfig(bits + 1, r)).f_c_hz
        assert hi / lo == pytest.approx(scaling_ratio(alpha), rel=1e-12)

    # Crossing detector matches the analytic crossing within one bin.
    for alpha, floor in [(1.0, 1e-2), (2.0, 1e-4), (2.5, 1e-6)]:
        grid = np.arange(0.5, 1000.25, 0.5)
        psd = Psd(grid, grid**-alpha, 0.5)
        got = detect_cutoff(psd, floor).f_c_hz
        assert abs(got - floor ** (-1.0 / alpha)) <= 0.5 + 1e-9

    # Raw file round-trip is bit-exact.
    values = np.concatenate([rng.standard_normal(64), [0.0, 1e-300, -1e300]])
    spec = SignalFileSpec(str(tmp_path / "sig.f64"), FORMAT_RAW, 100.0)
    write_signal(Signal(values, 100.0), spec)
    assert np.array_equal(read_signal(spec).samples, values)

    # Full-run determinism under a fixed seed.
    fresh = run_validation(VALIDATION_PRESETS["paper-alpha20"])
    assert fresh == theoretical_reports["paper-alpha20"]

    line("8 (property suite)", True, "bound, idempotence, Parseval, exact fit, "
         "ratio precision, crossing, round-trip, determinism")


def test_criterion_9_band_power_proxy():
    proxy = synthesize(SynthesisSpec(1.56, 8192, 160.0, seed=DEFAULT_SEED))

    rep4 = run_band_power(proxy, QuantizerConfig(bits=4, full_scale=2.0))
    dev = {row.band: abs(row.ratio - 1.0) for row in rep4.rows}
    gamma_dominates = all(dev["gamma"] > v for k, v in dev.items() if k != "gamma")

    rep6 = run_band_power(proxy, QuantizerConfig(bits=6, full_scale=2.0))
    ratios6 = {row.band: row.ratio for row in rep6.rows}
    all_preserved = all(0.8 <= v <= 1.2 for v in ratios6.values())

    line(
        "9 (band power proxy)",
        gamma_dominates and all_preserved,
        f"N=4 deviations {({k: f'{v:.2f}' for k, v in dev.items()})}; "
        f"N=6 ratios {({k: f'{v:.3f}' for k, v in ratios6.items()})}",
    )
    assert gamma_dominates, f"Gamma deviation {dev['gamma']:.3f} not dominant: {dev}"
    assert all_preserved, f"bands outside [0.8, 1.2] at 6 bits: {ratios6}"
