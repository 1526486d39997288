import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantband.errors import ValidationError
from quantband.noise import Signal
from quantband.quantizer import QuantizerConfig, error_signal, quantize
from quantband.spectral import (
    MIN_FIT_SAMPLES,
    WELCH_BLOCK_SEGMENTS,
    Psd,
    _welch_density,
    band_power,
    default_fit_band,
    empirical_noise_floor,
    fit_slope,
    record_psd,
    welch_psd,
)


def power_law_psd(alpha: float, coeff: float = 1.0, f_lo=1.0, f_hi=1000.0, n=1000) -> Psd:
    freqs = np.linspace(f_lo, f_hi, n)
    return Psd(freqs, coeff * freqs ** (-alpha), float(freqs[1] - freqs[0]))


class TestPsd:
    @pytest.mark.parametrize(
        "freqs, power, df, message",
        [
            ([1.0, 2.0, 3.0], [1.0, 1.0], 1.0, "differ in length"),
            ([1.0], [1.0], 1.0, "strictly increasing and positive"),
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], 1.0, "strictly increasing and positive"),
            ([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], 1.0, "strictly increasing and positive"),
            ([1.0, 2.0, 2.0], [1.0, 1.0, 1.0], 1.0, "strictly increasing and positive"),
            ([1.0, 2.0, 3.0], [1.0, np.nan, 1.0], 1.0, "finite and nonnegative"),
            ([1.0, 2.0, 3.0], [1.0, np.inf, 1.0], 1.0, "finite and nonnegative"),
            ([1.0, 2.0, 3.0], [1.0, -1e-300, 1.0], 1.0, "finite and nonnegative"),
            ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 0.0, "bin width must be positive, got 0.0"),
            ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], -1.0, "bin width must be positive, got -1.0"),
            ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], np.nan, "bin width must be positive, got nan"),
        ],
    )
    def test_rejects_an_invalid_grid(self, freqs, power, df, message):
        with pytest.raises(ValidationError, match=message):
            Psd(np.array(freqs), np.array(power), df)


class TestWelchPsd:
    def test_white_noise_density_level(self):
        rng = np.random.default_rng(1)
        sig = Signal(rng.standard_normal(2**16), 2000.0)
        psd = welch_psd(sig)
        # Unit variance spread over [0, 1000] Hz: density 1/1000.
        assert psd.power.mean() == pytest.approx(1e-3, rel=0.1)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2**16)
        psd = welch_psd(Signal(x, 2000.0))
        assert np.sum(psd.power) * psd.df_hz == pytest.approx(x.var(), rel=0.1)

    def test_sinusoid_concentrates(self):
        fs, n = 2000.0, 2**15
        t = np.arange(n) / fs
        f0 = 250.0  # lands on a bin center for nperseg 4096
        sig = Signal(np.sin(2 * np.pi * f0 * t), fs)
        psd = welch_psd(sig)
        assert psd.freqs_hz[np.argmax(psd.power)] == pytest.approx(f0, abs=psd.df_hz)

    def test_mean_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2**14)
        a = welch_psd(Signal(x, 2000.0))
        b = welch_psd(Signal(x + 5.0, 2000.0))
        assert np.allclose(a.power, b.power)

    def test_dc_excluded(self):
        rng = np.random.default_rng(4)
        psd = welch_psd(Signal(rng.standard_normal(2**13), 2000.0))
        assert psd.freqs_hz[0] == pytest.approx(psd.df_hz)
        assert psd.max_freq_hz == pytest.approx(1000.0)

    def test_short_signal_rejected(self):
        with pytest.raises(ValidationError):
            welch_psd(Signal(np.zeros(100), 100.0), segment_len=4096)

    def test_bad_overlap_rejected(self):
        with pytest.raises(ValidationError):
            welch_psd(Signal(np.zeros(8192), 100.0), overlap_fraction=1.0)


def scipy_welch_psd(x: np.ndarray, fs: float, segment_len: int, overlap_fraction: float):
    """The reference: scipy's Welch with the settings welch_psd documents."""
    scipy_signal = pytest.importorskip("scipy.signal")
    freqs, power = scipy_signal.welch(
        x,
        fs=fs,
        window="hann",
        nperseg=segment_len,
        noverlap=int(overlap_fraction * segment_len),
        detrend="constant",
        scaling="density",
    )
    return freqs[1:], power[1:]


def assert_matches_scipy(x: np.ndarray, fs: float, segment_len: int, overlap_fraction: float):
    psd = welch_psd(Signal(x, fs), segment_len, overlap_fraction)
    freqs, power = scipy_welch_psd(x, fs, segment_len, overlap_fraction)
    assert np.array_equal(psd.freqs_hz, freqs)
    # FFT rounding scales with the whole spectrum, so the rare bin that
    # lands a million times under the median gets an absolute bound.
    np.testing.assert_allclose(psd.power, power, rtol=1e-12, atol=1e-12 * np.median(power))


class TestWelchScipyParity:
    @pytest.mark.parametrize(
        "n_samples, segment_len, overlap",
        # 10_001 is a multiple of no segment step here, so the tail that
        # fits no whole segment must be dropped as scipy drops it; the
        # last two cases are a single segment of even and odd length.
        [
            (n, seg, overlap)
            for n in (10_001, 2**15)
            for seg in (64, 65, 4096)
            for overlap in (0.0, 0.5, 0.75)
        ]
        + [(4096, 4096, 0.5), (4095, 4095, 0.5)],
    )
    def test_matches_scipy(self, n_samples, segment_len, overlap):
        x = np.random.default_rng(5).standard_normal(n_samples) + 3.0
        assert_matches_scipy(x, 2000.0, segment_len, overlap)

    @given(
        n_samples=st.integers(8, 5000),
        len_fraction=st.floats(0.0, 1.0),
        overlap=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_for_any_length_and_overlap(self, n_samples, len_fraction, overlap, seed):
        segment_len = 8 + round(len_fraction * (n_samples - 8))
        x = np.random.default_rng(seed).standard_normal(n_samples)
        assert_matches_scipy(x, 1000.0, segment_len, overlap)


def one_shot_welch_psd(x: np.ndarray, fs: float, segment_len: int, overlap_fraction: float):
    """The reference: every segment detrended, windowed and transformed at once."""
    noverlap = int(overlap_fraction * segment_len)
    step = segment_len - noverlap
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_len)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    spectra = np.fft.rfft((segments - segments.mean(axis=-1, keepdims=True)) * window, axis=-1)
    power = (spectra.real**2 + spectra.imag**2).mean(axis=-2) / (fs * np.dot(window, window))
    power[1 : segment_len - segment_len // 2] *= 2.0
    return np.fft.rfftfreq(segment_len, 1.0 / fs)[1:], power[1:]


def assert_matches_one_shot(x: np.ndarray, fs: float, segment_len: int, overlap_fraction: float):
    psd = welch_psd(Signal(x, fs), segment_len, overlap_fraction)
    freqs, power = one_shot_welch_psd(x, fs, segment_len, overlap_fraction)
    assert np.array_equal(psd.freqs_hz, freqs)
    assert np.array_equal(psd.power, power)


def length_for(segment_count: int, segment_len: int, overlap_fraction: float) -> int:
    """A signal length with exactly ``segment_count`` segments and a dropped tail."""
    noverlap = int(overlap_fraction * segment_len)
    step = segment_len - noverlap
    return noverlap + segment_count * step + step // 2


class TestWelchStreaming:
    """The blocked engine against the one-shot formula."""

    @pytest.mark.parametrize("segment_len", [8, 64, 65, 4096])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize(
        "segment_count",
        [1, WELCH_BLOCK_SEGMENTS - 1, WELCH_BLOCK_SEGMENTS, WELCH_BLOCK_SEGMENTS + 1, 47],
    )
    def test_bit_identical_to_one_shot(self, segment_len, overlap, segment_count):
        n = length_for(segment_count, segment_len, overlap)
        x = np.random.default_rng(segment_len + segment_count).standard_normal(n).cumsum()
        assert_matches_one_shot(x, 2000.0, segment_len, overlap)

    @given(
        n_samples=st.integers(8, 5000),
        len_fraction=st.floats(0.0, 1.0),
        overlap=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_for_any_length_and_overlap(self, n_samples, len_fraction, overlap, seed):
        segment_len = 8 + round(len_fraction * (n_samples - 8))
        x = np.random.default_rng(seed).standard_normal(n_samples)
        assert_matches_one_shot(x, 1000.0, segment_len, overlap)

    @given(
        n_samples=st.integers(8, 5000),
        len_fraction=st.floats(0.0, 1.0),
        overlap=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_parseval(self, n_samples, len_fraction, overlap, seed):
        # Summed over the full grid, the density times f_s / L is each
        # segment's windowed, detrended energy over sum(w^2), averaged.
        # A segment left out of the average, such as a dropped tail
        # block, breaks the equality.
        fs = 1000.0
        segment_len = 8 + round(len_fraction * (n_samples - 8))
        noverlap = int(overlap * segment_len)
        x = np.random.default_rng(seed).standard_normal(n_samples) + 2.0
        _, power = _welch_density(x, fs, segment_len, noverlap)
        segments = np.lib.stride_tricks.sliding_window_view(x, segment_len)[:: segment_len - noverlap]
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
        energy = np.sum((window * (segments - segments.mean(axis=1, keepdims=True))) ** 2, axis=1)
        expected = energy.mean() / np.sum(window**2)
        assert power.sum() * fs / segment_len == pytest.approx(expected, rel=1e-12)

    def test_memory_stays_bounded(self, traced_peak):
        # The one-shot engine held the whole (487, 4096) segment stack and
        # its transform at once, about 32 MB at this length.
        sig = Signal(np.random.default_rng(9).standard_normal(10**6), 2000.0)
        assert traced_peak(welch_psd, sig) < 2_000_000


class TestRecordPsd:
    @pytest.mark.parametrize(
        "n_samples, segment_len", [(16, 16), (4095, 4094), (4096, 4096), (10_001, 4096)]
    )
    def test_one_even_segment_rule(self, n_samples, segment_len):
        sig = Signal(np.random.default_rng(n_samples).standard_normal(n_samples), 160.0)
        psd = record_psd(sig)
        reference = welch_psd(sig, segment_len)
        assert psd.power.tobytes() == reference.power.tobytes()
        assert psd.max_freq_hz == 80.0

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError, match="segment length too small"):
            record_psd(Signal(np.zeros(7), 160.0))

    @pytest.mark.parametrize(
        "n_samples", [MIN_FIT_SAMPLES - 1, MIN_FIT_SAMPLES, MIN_FIT_SAMPLES + 1]
    )
    def test_min_fit_samples_is_the_shortest_fittable_record(self, n_samples):
        sig = Signal(np.random.default_rng(n_samples).standard_normal(n_samples), 100.0)
        if n_samples < MIN_FIT_SAMPLES:
            with pytest.raises(ValidationError, match="contains 9 bins"):
                fit_slope(record_psd(sig))
        else:
            fit_slope(record_psd(sig))


class TestFitSlope:
    def test_band_defaults_to_default_fit_band(self):
        psd = power_law_psd(1.5, f_lo=0.5, n=2000)
        assert fit_slope(psd) == fit_slope(psd, default_fit_band(psd))

    def test_default_band_named_in_error(self):
        psd = power_law_psd(1.0, f_lo=1.0, f_hi=30.0, n=30)
        with pytest.raises(ValidationError, match=r"fit band \(10\.0, 15\.0\) contains 6 bins"):
            fit_slope(psd)

    def test_exact_inverse_square(self):
        fit = fit_slope(power_law_psd(2.0), (1.0, 1000.0))
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)
        assert fit.rms_residual < 1e-9

    def test_constant_power_zero_slope(self):
        psd = Psd(np.linspace(1, 100, 100), np.full(100, 3.7), 1.0)
        fit = fit_slope(psd, (1.0, 100.0))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_known_coefficient(self):
        fit = fit_slope(power_law_psd(1.5, coeff=3.0), (1.0, 1000.0))
        assert fit.slope == pytest.approx(-1.5, abs=1e-9)
        assert fit.s0_hat == pytest.approx(3.0, rel=1e-9)
        assert fit.alpha_hat == pytest.approx(1.5, abs=1e-9)

    @given(
        alpha=st.floats(0.0, 4.0),
        log_coeff=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=50)
    def test_exact_on_random_power_laws(self, alpha, log_coeff):
        fit = fit_slope(power_law_psd(alpha, coeff=10.0**log_coeff), (1.0, 1000.0))
        assert fit.slope == pytest.approx(-alpha, abs=1e-9)
        assert fit.intercept_log10 == pytest.approx(log_coeff, abs=1e-9)
        assert fit.rms_residual < 1e-9

    @pytest.mark.parametrize("band", [(5.0, 5.0), (6.0, 5.0), (0.0, 5.0), (-1.0, 5.0)])
    def test_invalid_band_rejected(self, band):
        with pytest.raises(ValidationError, match=rf"invalid fit band \({band[0]}, {band[1]}\)"):
            fit_slope(power_law_psd(1.0), band)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValidationError):
            fit_slope(power_law_psd(1.0), (1.0, 5.0))

    def test_zero_power_rejected(self):
        freqs = np.linspace(1, 100, 100)
        power = np.ones(100)
        power[50] = 0.0
        with pytest.raises(ValidationError):
            fit_slope(Psd(freqs, power, 1.0), (1.0, 100.0))

    def test_default_band(self):
        psd = power_law_psd(1.0, f_lo=0.5, f_hi=1000.0, n=2000)
        lo, hi = default_fit_band(psd)
        assert lo == pytest.approx(10 * psd.df_hz)
        assert hi == pytest.approx(500.0)


class TestEmpiricalNoiseFloor:
    def test_constant_psd(self):
        psd = Psd(np.linspace(1, 100, 64), np.full(64, 2.5), 1.0)
        assert empirical_noise_floor(psd) == 2.5

    def test_matches_direct_median_on_power_law(self):
        psd = power_law_psd(2.0)
        expected = np.median(psd.power[psd.freqs_hz >= 750.0])
        assert empirical_noise_floor(psd) == expected

    def test_scale_equivariance(self):
        psd = power_law_psd(1.3)
        scaled = Psd(psd.freqs_hz, 7.0 * psd.power, psd.df_hz)
        assert empirical_noise_floor(scaled) == 7.0 * empirical_noise_floor(psd)

    def test_too_short_rejected(self):
        psd = Psd(np.linspace(1, 4, 4), np.ones(4), 1.0)
        with pytest.raises(ValidationError):
            empirical_noise_floor(psd)

    def test_dithered_zero_signal_recovers_theoretical_floor(self):
        # Quantizing uniform dither of half a step gives an exactly
        # uniform white error, so the error PSD's floor should land on
        # delta^2 / (6 f_s).
        rng = np.random.default_rng(8)
        cfg = QuantizerConfig(bits=8, full_scale=2.0)
        half_step = cfg.step / 2
        sig = Signal(rng.uniform(-half_step, half_step, 100_000), 2000.0)
        err = error_signal(sig, quantize(sig, cfg))
        floor = empirical_noise_floor(welch_psd(err))
        theory = cfg.step**2 / (6 * 2000.0)
        assert theory / 2 <= floor <= theory * 2


class TestBandPower:
    def test_flat_psd_integration(self):
        psd = Psd(np.linspace(1, 100, 199), np.full(199, 2.0), 0.5)
        assert band_power(psd, 10.0, 20.0) == pytest.approx(20.0, rel=1e-9)

    def test_band_outside_support_rejected(self):
        psd = power_law_psd(1.0)
        with pytest.raises(ValidationError):
            band_power(psd, 900.0, 1100.0)

    def test_inverted_band_rejected(self):
        psd = power_law_psd(1.0)
        with pytest.raises(ValidationError):
            band_power(psd, 20.0, 10.0)
