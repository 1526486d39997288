import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantband.errors import ValidationError
from quantband.noise import (
    REFERENCE_RATE_HZ,
    PeakSpec,
    Signal,
    SynthesisSpec,
    reference_rate_scale,
    synthesize,
    trial_signals,
)
from quantband.spectral import fit_slope, record_psd, welch_psd


def fitted_slope(signal, band=None):
    return fit_slope(record_psd(signal), band).slope


class TestSynthesize:
    def test_deterministic_under_fixed_seed(self):
        spec = SynthesisSpec(2.0, 100_000, 2000.0, seed=7)
        a = synthesize(spec)
        b = synthesize(spec)
        assert np.array_equal(a.samples, b.samples)
        assert a.sample_rate_hz == b.sample_rate_hz == 2000.0

    def test_different_seeds_differ(self):
        a = synthesize(SynthesisSpec(2.0, 4096, 2000.0, seed=1))
        b = synthesize(SynthesisSpec(2.0, 4096, 2000.0, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_normalization(self, alpha, seed):
        sig = synthesize(SynthesisSpec(alpha, 16384, 2000.0, seed=seed))
        assert abs(np.max(np.abs(sig.samples)) - 1.0) < 1e-12
        assert abs(sig.samples.mean()) < 1e-10

    def test_white_noise_has_flat_spectrum(self):
        sig = synthesize(SynthesisSpec(0.0, 2**16, 2000.0, seed=11))
        assert abs(fitted_slope(sig)) < 0.1

    def test_alpha_15_slope_recovery(self):
        sig = synthesize(SynthesisSpec(1.5, 100_000, 2000.0, seed=5))
        assert fitted_slope(sig) == pytest.approx(-1.5, abs=0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.0, 2.5])
    def test_slope_recovery_over_seeds(self, alpha):
        # Mean fitted slope over 10 seeds must track -alpha within 0.1.
        slopes = [
            fitted_slope(synthesize(SynthesisSpec(alpha, 100_000, 2000.0, seed=s)))
            for s in range(10)
        ]
        assert np.mean(slopes) == pytest.approx(-alpha, abs=0.1)

    def test_peak_does_not_disturb_broadband_slope(self):
        peak = PeakSpec(center_hz=10.0, width_hz=2.0, amplitude_factor=50.0)
        flat = synthesize(SynthesisSpec(2.0, 100_000, 2000.0, seed=9))
        bumped = synthesize(SynthesisSpec(2.0, 100_000, 2000.0, seed=9, peaks=(peak,)))
        # Fit band excludes [center - 3w, center + 3w].
        band = (16.0, 500.0)
        assert abs(fitted_slope(bumped, band) - fitted_slope(flat, band)) < 0.05

    def test_peak_multiplies_power_at_its_center(self):
        # 1 Hz bins: the peak multiplies the power at bin 10 by 1 + 50 and
        # leaves bin 500 alone; peak normalization scales every bin alike.
        peak = PeakSpec(center_hz=10.0, width_hz=1.0, amplitude_factor=50.0)
        plain = np.fft.rfft(synthesize(SynthesisSpec(2.0, 4096, 4096.0, seed=5)).samples)
        bumped = np.fft.rfft(
            synthesize(SynthesisSpec(2.0, 4096, 4096.0, seed=5, peaks=(peak,))).samples
        )
        gain = np.abs(bumped / plain) ** 2
        assert gain[10] / gain[500] == pytest.approx(51.0, rel=1e-9)

    def test_zero_amplitude_peak_is_identity(self):
        peak = PeakSpec(center_hz=50.0, width_hz=5.0, amplitude_factor=0.0)
        plain = synthesize(SynthesisSpec(1.0, 8192, 2000.0, seed=4))
        with_peak = synthesize(SynthesisSpec(1.0, 8192, 2000.0, seed=4, peaks=(peak,)))
        assert np.array_equal(plain.samples, with_peak.samples)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-1.0, n_samples=4096, sample_rate_hz=2000.0),
            dict(alpha=float("nan"), n_samples=4096, sample_rate_hz=2000.0),
            dict(alpha=1.0, n_samples=8, sample_rate_hz=2000.0),
            dict(alpha=1.0, n_samples=4096, sample_rate_hz=0.0),
            dict(alpha=1.0, n_samples=4096, sample_rate_hz=2000.0, seed=-1),
            dict(
                alpha=1.0, n_samples=4096, sample_rate_hz=2000.0,
                peaks=(PeakSpec(999.0, 10.0, 1.0),),
            ),
            dict(
                alpha=1.0, n_samples=4096, sample_rate_hz=2000.0,
                peaks=(PeakSpec(100.0, -1.0, 1.0),),
            ),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SynthesisSpec(**kwargs)

    @pytest.mark.parametrize("width", [1e-154, 1e-200, 5e-324])
    def test_width_whose_square_is_not_normal_rejected(self, width):
        # The Gaussian divides by 2 * width^2; at 0 its center bin is 0 / 0.
        with pytest.raises(ValidationError, match=f"peak width {width} Hz is out of range"):
            SynthesisSpec(2.0, 1000, 2000.0, peaks=(PeakSpec(100.0, width, 1.0),))

    def test_width_near_the_smallest_accepted_synthesizes_without_warnings(self):
        # Far from the center the exponent overflows to -inf, so exp gives 0.
        peak = PeakSpec(100.0, 1.1e-154, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = synthesize(SynthesisSpec(2.0, 1000, 2000.0, peaks=(peak,))).samples
        assert np.abs(samples).max() == 1.0

    def test_peak_gain_counts_toward_the_upper_limit(self):
        # Bare, the largest bin is 2^830.5, inside 2^(1024 - log2 n); the
        # peak raises it by 2^498.3, past that.
        SynthesisSpec(100.0, 1000, 0.01, peaks=(PeakSpec(0.001, 0.0001, 1.0),))
        with pytest.raises(
            ValidationError,
            match=r"is 2\^830\.5, and peaks with amplitude factors summing to 1e\+300 raise "
            r"a bin by up to 2\^498\.3$",
        ):
            SynthesisSpec(100.0, 1000, 0.01, peaks=(PeakSpec(0.001, 0.0001, 1e300),))


def hand_fixed_synthesis(spec: SynthesisSpec) -> np.ndarray:
    """``synthesize``'s samples with the DC bin set to 0 and an even
    length's Nyquist bin set real by hand before the inverse FFT."""
    n = spec.n_samples
    rng = np.random.default_rng(spec.seed)
    freqs = np.fft.rfftfreq(n, d=1.0 / spec.sample_rate_hz)
    mult = np.ones_like(freqs[1:])
    for peak in spec.peaks:
        mult += peak.amplitude_factor * np.exp(
            -((freqs[1:] - peak.center_hz) ** 2) / (2.0 * peak.width_hz**2)
        )
    shape = np.zeros(freqs.size)
    shape[1:] = freqs[1:] ** (-spec.alpha / 2.0) * np.sqrt(mult)
    re = rng.standard_normal(freqs.size)
    im = rng.standard_normal(freqs.size)
    spectrum = (re + 1j * im) * shape
    spectrum[0] = 0.0
    if n % 2 == 0:
        spectrum[-1] = re[-1] * shape[-1]
    samples = np.fft.irfft(spectrum, n=n)
    samples -= samples.mean()
    samples /= np.max(np.abs(samples))
    return samples


@st.composite
def synthesis_specs(draw):
    """Specs of odd and even lengths, half of them with one valid peak."""
    fs = draw(st.sampled_from([100.0, 2000.0, 20_000.0]))
    peaks = ()
    if draw(st.booleans()):
        nyquist = fs / 2.0
        width = draw(st.floats(0.001, 0.1)) * nyquist
        center = draw(st.floats(0.01, 0.6)) * nyquist
        peaks = (PeakSpec(center, width, draw(st.floats(0.0, 100.0))),)
    return SynthesisSpec(
        alpha=draw(st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.5]) | st.floats(0.0, 3.0)),
        n_samples=draw(st.integers(16, 20_000)),
        sample_rate_hz=fs,
        seed=draw(st.integers(0, 2**32 - 1)),
        peaks=peaks,
    )


@given(spec=synthesis_specs())
@example(spec=SynthesisSpec(2.0, 100_000, 20_000.0, seed=1234))
@example(
    spec=SynthesisSpec(1.5, 100_001, 200_000.0, seed=1234, peaks=(PeakSpec(100.0, 20.0, 0.25),))
)
@settings(max_examples=150, deadline=None)
def test_synthesis_needs_no_hand_fixed_dc_or_nyquist_bin(spec):
    # The shape's zero DC amplitude already zeroes the DC bin, and the
    # inverse real FFT reads an even length's Nyquist bin as real.
    assert np.array_equal(synthesize(spec).samples, hand_fixed_synthesis(spec))


def complex_product_synthesis(spec: SynthesisSpec) -> np.ndarray:
    """The whole-record expression ``synthesize`` replaced: a complex
    spectrum times the real shape, normalized by max |x|."""
    rng = np.random.default_rng(spec.seed)
    freqs = np.fft.rfftfreq(spec.n_samples, d=1.0 / spec.sample_rate_hz)
    mult = np.ones_like(freqs[1:])
    for p in spec.peaks:
        mult += p.amplitude_factor * np.exp(
            -((freqs[1:] - p.center_hz) ** 2) / (2.0 * p.width_hz**2)
        )
    shape = np.zeros(freqs.size)
    shape[1:] = freqs[1:] ** (-spec.alpha / 2.0) * np.sqrt(mult)
    re = rng.standard_normal(freqs.size)
    im = rng.standard_normal(freqs.size)
    x = np.fft.irfft((re + 1j * im) * shape, n=spec.n_samples)
    x -= x.mean()
    x /= np.max(np.abs(x))
    return x


@given(
    n=st.integers(16, 4097),
    alpha=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    peak=st.none()
    | st.tuples(st.floats(10.0, 600.0), st.floats(1.0, 100.0), st.floats(0.0, 100.0)),
)
@settings(max_examples=200, deadline=None)
def test_synthesis_bits_equal_the_complex_product(n, alpha, seed, peak):
    spec = SynthesisSpec(
        alpha, n, 2000.0, seed=seed, peaks=() if peak is None else (PeakSpec(*peak),)
    )
    assert synthesize(spec).samples.tobytes() == complex_product_synthesis(spec).tobytes()


@given(
    n=st.integers(16, 4097),
    alpha=st.floats(0.0, 3.0),
    fs=st.sampled_from([REFERENCE_RATE_HZ, 20_000.0, 200_000.0]),
    seed=st.integers(0, 2**32 - 4),
    peak=st.none()
    | st.tuples(st.floats(10.0, 600.0), st.floats(1.0, 100.0), st.floats(0.0, 100.0)),
)
@settings(max_examples=100, deadline=None)
def test_workspace_synthesis_equals_one_shot(n, alpha, fs, seed, peak):
    # Consecutive seeds through one workspace, each against the
    # whole-record expression at its seed: a buffer one synthesis left
    # stale would show in the next one's bytes.
    spec = SynthesisSpec(alpha, n, fs, seed=seed, peaks=() if peak is None else (PeakSpec(*peak),))
    scale = reference_rate_scale(alpha, fs)
    buffers = []
    for i, signal in enumerate(trial_signals(spec, 3)):
        expected = complex_product_synthesis(replace(spec, seed=spec.seed + i)) * scale
        assert signal.samples.tobytes() == expected.tobytes()
        assert signal.sample_rate_hz == fs
        buffers.append(signal.samples)
    assert len(buffers) == 3
    assert all(np.shares_memory(buffers[0], samples) for samples in buffers[1:])


def test_synthesis_holds_under_three_records(traced_peak):
    # The whole-record temporaries (re, im, their complex sum and product)
    # held about 4 records of 8 * n bytes beside the output. Drawing holds
    # 2.5: the record, the spectrum and the shape.
    n = 200_000
    spec = SynthesisSpec(2.0, n, 2000.0, seed=3, peaks=(PeakSpec(100.0, 20.0, 0.25),))
    assert traced_peak(synthesize, spec) <= 3 * 8 * n


@given(
    alpha=st.floats(0.0, 400.0),
    n=st.integers(16, 4096),
    log10_fs=st.floats(-3.0, 9.0),
    seed=st.integers(0, 2**32 - 1),
    peak=st.none()
    | st.tuples(st.floats(0.0, 0.99), st.floats(-330.0, 0.0), st.floats(-10.0, 308.0)),
)
@example(alpha=2.0, n=1000, log10_fs=math.log10(2000.0), seed=0, peak=(0.1, -202.0, 0.0))
@example(alpha=100.0, n=1000, log10_fs=-2.0, seed=0, peak=(0.2, -2.0, 300.0))
@settings(max_examples=200, deadline=None)
def test_every_accepted_spec_synthesizes_finite_samples_with_peak_one(
    alpha, n, log10_fs, seed, peak
):
    # A spectrum whose bins all underflowed was normalized by dividing 0
    # by 0, and one whose bins were too large overflowed in the inverse FFT.
    # A peak's gain could push the bins past the float range, and a width
    # whose square underflowed divided 0 by 0 at the center bin. ``peak``
    # is (center / Nyquist, log10(width / Nyquist), log10(amplitude factor)).
    fs = 10.0**log10_fs
    peaks = ()
    if peak is not None:
        nyquist = fs / 2.0
        peaks = (PeakSpec(peak[0] * nyquist, 10.0 ** peak[1] * nyquist, 10.0 ** peak[2]),)
    try:
        spec = SynthesisSpec(alpha, n, fs, seed=seed, peaks=peaks)
    except ValidationError as exc:
        assert str(exc).startswith(
            (f"the spectrum at alpha={alpha}, n={n} and f_s=", "peak ")
        )
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = synthesize(spec).samples
    assert np.isfinite(samples).all()
    assert np.abs(samples).max() == 1.0


class TestReferenceRateScale:
    def test_unity_at_reference_rate_and_for_alpha_one(self):
        assert reference_rate_scale(2.5, REFERENCE_RATE_HZ) == 1.0
        assert reference_rate_scale(1.0, 200_000.0) == 1.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
    def test_same_s0_at_every_rate(self, alpha):
        # Scaled records at two rates come from one process S0 * f^-alpha:
        # bin k sits at ten times the frequency at the higher rate, so it
        # holds 10^-alpha times the power.
        psds = []
        for fs in (REFERENCE_RATE_HZ, 10 * REFERENCE_RATE_HZ):
            sig = synthesize(SynthesisSpec(alpha, 16_384, fs, seed=3))
            psds.append(welch_psd(Signal(sig.samples * reference_rate_scale(alpha, fs), fs)))
        np.testing.assert_allclose(psds[1].power, psds[0].power * 10.0**-alpha, rtol=1e-9)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError):
            reference_rate_scale(2.0, 0.0)

    def test_overflow_reads_inf(self):
        assert reference_rate_scale(300.0, 0.001) == np.inf


class TestSignal:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Signal(np.array([0.0, np.nan]), 100.0)

    def test_rejects_too_short(self):
        with pytest.raises(ValidationError):
            Signal(np.array([1.0]), 100.0)

    def test_properties(self):
        sig = Signal(np.zeros(200), 100.0)
        assert sig.n_samples == 200
        assert sig.nyquist_hz == 50.0
