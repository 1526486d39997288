import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantband.errors import NoUsableBandError, ValidationError
from quantband.experiments import analyze_signal
from quantband.noise import Signal, SynthesisSpec, synthesize, trial_signals
from quantband.quantizer import (
    MAX_BITS,
    QuantizerConfig,
    error_signal,
    increment_bits,
    quantize,
    theoretical_noise_floor,
)
from quantband.scaling import (
    CROSSING_FIT_HALF_WIDTH,
    _first_white,
    detect_cutoff,
    find_n_min,
    is_white,
    measure_noise_slope,
    predicted_cutoff,
    scaling_ratio,
)
from quantband.spectral import Psd, fit_slope, record_psd


def power_law_psd(alpha, coeff=1.0, f_lo=0.5, f_hi=1000.0, df=0.5):
    freqs = np.arange(f_lo, f_hi + df / 2, df)
    return Psd(freqs, coeff * freqs ** (-alpha), df)


def decimated_by_4(sig: Signal) -> Signal:
    """``sig`` low-passed and decimated by 4 by truncating its spectrum."""
    n = sig.n_samples
    kept = np.fft.rfft(sig.samples)[: n // 8 + 1]
    return Signal(np.fft.irfft(kept, n // 4) / 4, sig.sample_rate_hz / 4)


def quantization_error(sig: Signal, bits: int) -> Signal:
    return error_signal(sig, quantize(sig, QuantizerConfig(bits, 2.0)))


def median_power(sig: Signal, f_low: float, f_high: float) -> float:
    psd = record_psd(sig)
    return float(np.median(psd.power[(psd.freqs_hz >= f_low) & (psd.freqs_hz <= f_high)]))


class TestScalingRatio:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(1.0, 4.00), (1.5, 2.52), (2.0, 2.00), (2.5, 1.74)],
    )
    def test_reference_values_to_three_significant_figures(self, alpha, expected):
        assert float(f"{scaling_ratio(alpha):.3g}") == expected

    def test_alpha_four(self):
        assert scaling_ratio(4.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_exact_at_two(self):
        assert scaling_ratio(2.0) == 2.0

    def test_strictly_decreasing(self):
        grid = np.linspace(0.2, 6.0, 50)
        values = [scaling_ratio(a) for a in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive(self, alpha):
        with pytest.raises(ValidationError):
            scaling_ratio(alpha)

    def test_rejects_an_alpha_whose_ratio_overflows(self):
        # 2^(2/alpha) is past the float range from alpha = 2/1024 down.
        assert scaling_ratio(np.nextafter(2.0 / 1024, 1.0)) < math.inf
        with pytest.raises(ValidationError) as exc:
            scaling_ratio(2.0 / 1024)
        assert str(exc.value) == "alpha must be finite and > 2/1024, got 0.001953125"


class TestPredictedCutoff:
    def test_hand_example_alpha_two(self):
        cfg = QuantizerConfig(bits=8, full_scale=2.0)
        est = predicted_cutoff(2.0, 1.0, 2000.0, cfg)
        # (6 * 1 * 2000 / 4)^(1/2) * 2^8
        assert est.f_c_hz == pytest.approx(math.sqrt(3000.0) * 256, rel=1e-12)
        assert est.exceeded_nyquist

    def test_hand_example_alpha_one(self):
        cfg = QuantizerConfig(bits=4, full_scale=2.0)
        est = predicted_cutoff(1.0, 1.0, 2000.0, cfg)
        assert est.f_c_hz == pytest.approx((6.0 * 2000.0 / 4.0) * 2**8, rel=1e-12)

    @given(
        alpha=st.floats(0.5, 4.0),
        log_s0=st.floats(-6, 2),
        fs=st.floats(100.0, 1e6),
        full_scale=st.floats(0.5, 10.0),
        bits=st.integers(1, 20),
    )
    @settings(max_examples=100)
    def test_consecutive_ratio_is_scaling_ratio(self, alpha, log_s0, fs, full_scale, bits):
        s0 = 10.0**log_s0
        lo = predicted_cutoff(alpha, s0, fs, QuantizerConfig(bits, full_scale))
        hi = predicted_cutoff(alpha, s0, fs, QuantizerConfig(bits + 1, full_scale))
        assert hi.f_c_hz / lo.f_c_hz == pytest.approx(scaling_ratio(alpha), rel=1e-12)

    def test_shallow_slope_overflows_to_inf(self):
        est = predicted_cutoff(1e-3, 1.0, 2000.0, QuantizerConfig(bits=8, full_scale=2.0))
        assert est.f_c_hz == math.inf
        assert est.exceeded_nyquist

    def test_overflowing_factor_with_finite_product(self):
        # The factors 2^(16 / 0.015) and (6 S_0 f_s / R^2)^(1 / 0.015) = 2^(-16 / 0.015)
        # lie outside the float range, but S_0 / floor = 1, so f_c = 1 Hz.
        est = predicted_cutoff(0.015, 2.0**-16 / 3000.0, 2000.0, QuantizerConfig(8, 2.0))
        assert est.f_c_hz == pytest.approx(1.0, rel=1e-9)
        assert not est.exceeded_nyquist

    @given(
        alpha=st.floats(0.3, 4.0),
        log_s0=st.floats(-12, 3),
        log_fs=st.floats(2, 6),
        full_scale=st.floats(0.1, 10.0),
        bits=st.integers(1, 24),
    )
    @settings(max_examples=200)
    def test_matches_two_factor_closed_form(self, alpha, log_s0, log_fs, full_scale, bits):
        s0, fs, cfg = 10.0**log_s0, 10.0**log_fs, QuantizerConfig(bits, full_scale)
        est = predicted_cutoff(alpha, s0, fs, cfg)
        reference = (6.0 * s0 * fs / full_scale**2) ** (1.0 / alpha) * 2.0 ** (2.0 * bits / alpha)
        assert est.f_c_hz == pytest.approx(reference, rel=1e-12)
        assert est.floor_value == theoretical_noise_floor(cfg, fs)
        assert est.exceeded_nyquist == (est.f_c_hz > fs / 2.0)

    @given(
        alpha=st.floats(0.3, 4.0),
        log_s0=st.floats(-12, 3),
        log_fs=st.floats(0, 6),
        log_full_scale=st.floats(-3, 3),
        bits=st.integers(1, MAX_BITS - 1),
    )
    @settings(max_examples=200)
    def test_one_bit_buys_what_four_times_the_rate_buys(
        self, alpha, log_s0, log_fs, log_full_scale, bits
    ):
        # f_c = (6 S_0 f_s 4^N / R^2)^(1/alpha): f_s and 4^N enter alike. Not
        # bit-exact, since the floor squares the step through pow, which may
        # round either side's floor by an ulp.
        s0, fs, full_scale = 10.0**log_s0, 10.0**log_fs, 10.0**log_full_scale
        faster = predicted_cutoff(alpha, s0, 4.0 * fs, QuantizerConfig(bits, full_scale))
        deeper = predicted_cutoff(alpha, s0, fs, QuantizerConfig(bits + 1, full_scale))
        assert math.isclose(faster.floor_value, deeper.floor_value, rel_tol=1e-15)
        assert math.isclose(faster.f_c_hz, deeper.f_c_hz, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "alpha, bits, white", [(1.5, 7, True), (2.0, 10, True), (1.5, 3, False), (2.0, 6, False)]
    )
    def test_four_times_the_rate_buys_one_bit_only_where_the_error_is_white(
        self, alpha, bits, white
    ):
        # A full-scale record of 4 * 10^5 samples at 8 kHz: its N_min is 5
        # at alpha 1.5 and 8 at alpha 2. Decimating by 4 keeps a quarter of
        # a white error's power, as one more bit at the low rate does; a red
        # error, two bits below N_min, keeps more. The shortfall, in bits,
        # reads 0 when the rate buys the whole bit. Seeds 21-24 read -0.016
        # to +0.008 when white and -0.30 to -0.57 when red.
        x = synthesize(SynthesisSpec(alpha, 400_000, 8000.0, seed=1234))
        oversampled = decimated_by_4(quantization_error(x, bits))
        deeper = quantization_error(decimated_by_4(x), bits + 1)
        ratio = median_power(oversampled, 20.0, 800.0) / median_power(deeper, 20.0, 800.0)
        shortfall = -0.5 * math.log2(ratio)
        if white:
            assert abs(shortfall) < 0.05
        else:
            assert shortfall <= -0.2

    def test_floor_underflowing_to_zero_reads_inf(self):
        cfg = QuantizerConfig(bits=24, full_scale=1e-100)
        assert theoretical_noise_floor(cfg, 1e300) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = predicted_cutoff(2.0, 1.0, 1e300, cfg)
        assert est.f_c_hz == math.inf
        assert est.exceeded_nyquist

    def test_rejects_bad_inputs(self):
        cfg = QuantizerConfig(bits=8, full_scale=2.0)
        with pytest.raises(ValidationError):
            predicted_cutoff(0.0, 1.0, 2000.0, cfg)
        with pytest.raises(ValidationError):
            predicted_cutoff(2.0, -1.0, 2000.0, cfg)


class TestDetectCutoff:
    def test_analytic_crossing_inverse_square(self):
        psd = power_law_psd(2.0)
        est = detect_cutoff(psd, 1e-4)
        # Crossing solves f^-2 = 1e-4 -> 100 Hz; allow one bin width.
        assert abs(est.f_c_hz - 100.0) <= psd.df_hz + 1e-9
        assert not est.exceeded_nyquist

    @pytest.mark.parametrize("alpha,floor", [(1.0, 1e-2), (1.5, 1e-3), (2.5, 1e-6)])
    def test_analytic_crossing_general(self, alpha, floor):
        psd = power_law_psd(alpha)
        est = detect_cutoff(psd, floor)
        assert abs(est.f_c_hz - floor ** (-1.0 / alpha)) <= psd.df_hz + 1e-9

    def test_analytic_crossing_with_coefficient(self):
        psd = power_law_psd(1.5, coeff=4.0)
        floor = 1e-3
        est = detect_cutoff(psd, floor)
        assert abs(est.f_c_hz - (4.0 / floor) ** (1.0 / 1.5)) <= psd.df_hz + 1e-9

    def test_one_bit_ratio_unbiased_on_noisy_power_law(self):
        # Noise makes the first bin below the floor come early, by more bins
        # at higher frequencies; the refined crossing keeps the ratio of
        # cutoffs one bit apart at 2^(2/alpha).
        rng = np.random.default_rng(0)
        freqs = np.arange(1.0, 8193.0)
        alpha, floor = 1.5, 1000.0**-1.5
        ratios = []
        for _ in range(10):
            noisy = freqs**-alpha * rng.chisquare(32, freqs.size) / 32
            psd = Psd(freqs, noisy, 1.0)
            ratios.append(detect_cutoff(psd, floor / 4).f_c_hz / detect_cutoff(psd, floor).f_c_hz)
        assert np.mean(ratios) == pytest.approx(scaling_ratio(alpha), rel=0.015)

    def test_rising_local_fit_keeps_the_first_bin_below_the_floor(self):
        # A 1 Hz dip under the floor, then a wall: the run below the floor
        # starts at 19.9 Hz, where the smoothed log power first dips, and the
        # local fit around it rises, so it has no falling crossing to refine.
        freqs = np.arange(1, 2001) / 10.0
        power = np.where(freqs < 20.0, 1.5, np.where(freqs <= 21.0, 0.5, 1e6))
        psd = Psd(freqs, power, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = detect_cutoff(psd, 1.0)
        assert est.f_c_hz == 19.9
        assert not est.exceeded_nyquist
        band = (19.9 / CROSSING_FIT_HALF_WIDTH, 19.9 * CROSSING_FIT_HALF_WIDTH)
        assert fit_slope(psd, band).slope > 50.0

    def test_floor_below_everything_flags_nyquist(self):
        psd = power_law_psd(2.0)
        est = detect_cutoff(psd, float(psd.power.min()) / 10.0)
        assert est.exceeded_nyquist
        assert est.f_c_hz == psd.max_freq_hz

    def test_floor_above_everything_raises(self):
        psd = power_law_psd(2.0)
        with pytest.raises(NoUsableBandError):
            detect_cutoff(psd, float(psd.power.max()) * 10.0)

    def test_monotone_in_floor(self):
        psd = power_law_psd(2.0)
        floors = [1e-5, 1e-4, 1e-3, 1e-2]
        cutoffs = [detect_cutoff(psd, f).f_c_hz for f in floors]
        assert all(a >= b for a, b in zip(cutoffs, cutoffs[1:]))

    def test_floor_must_be_positive(self):
        with pytest.raises(ValidationError):
            detect_cutoff(power_law_psd(2.0), 0.0)

    def test_detection_consistent_with_closed_form(self):
        # Detected cutoff on a synthetic signal should track the closed
        # form evaluated with the fitted slope and intercept.
        from quantband.quantizer import theoretical_noise_floor
        from quantband.spectral import welch_psd

        sig = synthesize(SynthesisSpec(2.0, 100_000, 2000.0, seed=2))
        psd = welch_psd(sig)
        fit = fit_slope(psd)
        cfg = QuantizerConfig(bits=6, full_scale=2.0)
        floor = theoretical_noise_floor(cfg, 2000.0)
        detected = detect_cutoff(psd, floor)
        predicted = predicted_cutoff(fit.alpha_hat, fit.s0_hat, 2000.0, cfg)
        assert not detected.exceeded_nyquist
        assert detected.f_c_hz == pytest.approx(predicted.f_c_hz, rel=0.1)


class TestNoiseColor:
    def test_white_input_gives_white_error(self):
        sig = synthesize(SynthesisSpec(0.0, 65_536, 2000.0, seed=6))
        slope = measure_noise_slope(sig, QuantizerConfig(bits=6, full_scale=2.0))
        assert is_white(slope)
        assert abs(slope) < 0.1

    @pytest.mark.parametrize("bits", [4, 8])
    def test_white_input_white_across_depths(self, bits):
        sig = synthesize(SynthesisSpec(0.0, 65_536, 2000.0, seed=7))
        assert is_white(measure_noise_slope(sig, QuantizerConfig(bits=bits, full_scale=2.0)))

    def test_colored_at_low_bits_for_steep_spectrum(self):
        sig = synthesize(SynthesisSpec(2.0, 100_000, 2000.0, seed=8))
        slope = measure_noise_slope(sig, QuantizerConfig(bits=4, full_scale=2.0))
        assert not is_white(slope)
        assert slope < -0.5

    def test_a_slope_holds_one_record(self, traced_peak):
        # The error is formed in the quantized record. The rest is one
        # Welch block of windowed segments and their spectra, 0.39 records
        # here; an error in an array of its own reads 2.13 records.
        n = 100_000
        sig = synthesize(SynthesisSpec(2.0, n, 2000.0, seed=8))
        cfg = QuantizerConfig(bits=6, full_scale=2.0)
        assert traced_peak(measure_noise_slope, sig, cfg) < 1.5 * 8 * n

    def test_an_analysis_holds_one_record_beside_its_input(self, traced_peak):
        # analyze reads its floor from the quantized record and then forms
        # the error in it, as every slope does: 1.44 records here, against
        # 2.44 with the error in an array of its own. The warm-up call
        # leaves out what a first call allocates once.
        n = 100_000
        sig = synthesize(SynthesisSpec(2.0, n, 2000.0, seed=8))
        cfg = QuantizerConfig(bits=6, full_scale=2.0)
        analyze_signal(sig, cfg)
        assert traced_peak(analyze_signal, sig, cfg) < 1.6 * 8 * n

    @pytest.mark.parametrize(
        "slope, white",
        [(0.0, True), (-0.0999, True), (0.0999, True), (-0.1, False), (0.1, False), (-1.2, False)],
    )
    def test_is_white_threshold(self, slope, white):
        assert is_white(slope) is white

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
    def test_increment_bits_rise_by_half_of_alpha_minus_one_per_doubling(self, alpha):
        # A full-scale record's range follows sigma_x, and for 1 < alpha < 3
        # sigma_x^2 / sigma_d^2 grows as n^(alpha - 1). Seeds 0-9 and 40-49
        # fit slopes within 0.06 of (alpha - 1) / 2.
        lengths = [2**k for k in range(13, 17)]
        mean_b = [
            np.mean([
                increment_bits(sig, 2.0)
                for sig in trial_signals(SynthesisSpec(alpha, n, 2000.0, seed=1234), 10)
            ])
            for n in lengths
        ]
        slope = np.polyfit(np.log2(lengths), mean_b, 1)[0]
        assert slope == pytest.approx((alpha - 1) / 2, abs=0.1)

    def test_find_n_min_pink_noise(self):
        assert find_n_min(1.0, (4, 6), trials=3, master_seed=0) == 4

    def test_find_n_min_absent_when_range_too_low(self):
        assert find_n_min(2.5, (4, 5), trials=2, master_seed=0) is None

    def test_find_n_min_default_battery_computes_few_cells(self, n_min_battery):
        # The five default nmin runs at seed 1234, whose answers criterion
        # 5 reads: 8 of the 24 cells a scan up from 4 bits computes, at
        # 20 trials each.
        answers, slope_fits = n_min_battery
        assert list(answers.values()) == [4, 5, 8, 10, None]
        assert slope_fits <= 180

    @pytest.mark.parametrize("lo, hi", [(1, 1), (4, 12), (1, 24)])
    def test_first_white_of_an_upward_closed_pattern(self, lo, hi):
        # From every start, the search returns the threshold and asks
        # about at most |start - threshold| + 2 depths.
        for threshold in range(lo, hi + 2):
            for start in range(lo, hi + 1):
                asked = []

                def white_at(bits):
                    asked.append(bits)
                    return bits >= threshold

                answer = threshold if threshold <= hi else None
                assert _first_white(white_at, start, lo, hi) == answer
                assert len(asked) <= abs(start - threshold) + 2
                assert all(lo <= bits <= hi for bits in asked)

    def test_find_n_min_rejects_empty_range(self):
        with pytest.raises(ValidationError):
            find_n_min(1.0, (6, 4), trials=2, master_seed=0)
