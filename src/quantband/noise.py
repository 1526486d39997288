"""Synthesis of 1/f^alpha Gaussian noise, optionally with spectral peaks.

The generator shapes a complex Gaussian spectrum in the frequency domain:
bin k gets amplitude f_k^(-alpha/2) (times the square root of the peak
multiplier when Gaussian peaks are requested) and the DC bin amplitude 0,
and the result is inverse-transformed; the inverse real FFT reads an
even length's Nyquist bin as real. The output is zero-mean and
peak-normalized to 1, so a full-scale range of 2 covers it exactly.

Peak normalization makes the samples the same at every sample rate. To
model one physical process sampled at different rates, as the validation
presets do, scale a synthesis by ``reference_rate_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_positive

# Full-scale range that exactly covers a peak-normalized synthetic signal.
SYNTH_FULL_SCALE = 2.0
# Sample rate at which a synthetic record spans the full-scale range
# exactly: the rate of the noise-color, N_min and peak-robustness runs.
REFERENCE_RATE_HZ = 2000.0


@dataclass(frozen=True, eq=False)
class Signal:
    """A uniformly sampled real-valued time series."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise ValidationError("signal must be a 1-D array with at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("signal contains non-finite samples")
        check_positive(self.sample_rate_hz, "sample rate")

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def nyquist_hz(self) -> float:
        return self.sample_rate_hz / 2.0


@dataclass(frozen=True)
class PeakSpec:
    """A Gaussian spectral peak riding on the power-law background.

    The peak multiplies the target PSD by
    ``1 + amplitude_factor * exp(-(f - center_hz)^2 / (2 * width_hz^2))``.
    """

    center_hz: float
    width_hz: float
    amplitude_factor: float

    def validate(self, sample_rate_hz: float) -> None:
        nyquist = sample_rate_hz / 2.0
        if not (0.0 < self.center_hz < nyquist):
            raise ValidationError(
                f"peak center {self.center_hz} Hz must lie in (0, {nyquist}) Hz"
            )
        check_positive(self.width_hz, "peak width")
        if not (self.amplitude_factor >= 0 and np.isfinite(self.amplitude_factor)):
            raise ValidationError(
                f"peak amplitude factor must be >= 0, got {self.amplitude_factor}"
            )
        if self.center_hz + 3.0 * self.width_hz >= nyquist:
            raise ValidationError(
                f"peak at {self.center_hz} Hz with width {self.width_hz} Hz extends "
                f"past the Nyquist frequency {nyquist} Hz"
            )


@dataclass(frozen=True)
class SynthesisSpec:
    """Deterministic recipe for one synthetic 1/f^alpha signal."""

    alpha: float
    n_samples: int
    sample_rate_hz: float
    seed: int = 0
    peaks: tuple[PeakSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if int(self.n_samples) != self.n_samples or self.n_samples < 16:
            raise ValidationError(f"n_samples must be an integer >= 16, got {self.n_samples}")
        object.__setattr__(self, "n_samples", int(self.n_samples))
        check_positive(self.sample_rate_hz, "sample rate")
        for peak in self.peaks:
            peak.validate(self.sample_rate_hz)


def _peak_multiplier(spec: SynthesisSpec, freqs: np.ndarray) -> np.ndarray:
    mult = np.ones_like(freqs)
    for peak in spec.peaks:
        mult += peak.amplitude_factor * np.exp(
            -((freqs - peak.center_hz) ** 2) / (2.0 * peak.width_hz**2)
        )
    return mult


def synthesize(spec: SynthesisSpec) -> Signal:
    """Generate a 1/f^alpha Gaussian signal from a synthesis spec.

    The same spec (including seed) always yields a bit-identical signal.
    The output is zero-mean with max |sample| = 1 at any sample rate; see
    ``reference_rate_scale`` for a level fixed in physical units.

    Each spectral half is written straight into the complex spectrum, and
    every array is dropped once used, so at most the record and a spectrum
    are held at once. The bits are those of ``(re + 1j * im) * shape``
    normalized by ``max(abs(x))``: a real factor scales each half exactly.
    """
    n = spec.n_samples
    rng = np.random.default_rng(spec.seed)

    freqs = np.fft.rfftfreq(n, d=1.0 / spec.sample_rate_hz)
    m = freqs.size
    shape = np.zeros(m)
    shape[1:] = freqs[1:] ** (-spec.alpha / 2.0)
    if spec.peaks:
        shape[1:] *= np.sqrt(_peak_multiplier(spec, freqs[1:]))
    del freqs

    spectrum = np.empty(m, dtype=np.complex128)
    np.multiply(rng.standard_normal(m), shape, out=spectrum.real)
    np.multiply(rng.standard_normal(m), shape, out=spectrum.imag)
    del shape

    samples = np.fft.irfft(spectrum, n=n)
    del spectrum
    samples -= samples.mean()
    samples /= max(samples.max(), -samples.min())
    return Signal(samples, spec.sample_rate_hz)


def reference_rate_scale(alpha: float, sample_rate_hz: float) -> float:
    """Amplitude factor that puts a synthesis at a level fixed in physical units.

    An n-sample record of a process with PSD S0 * f^-alpha has variance
    S0 * (f_s / n)^(1 - alpha) * sum_k k^-alpha, so at a fixed seed its
    samples keep their pattern and scale as f_s^((1 - alpha) / 2).
    Multiplying the peak-normalized ``synthesize`` output by
    (REFERENCE_RATE_HZ / f_s)^((alpha - 1) / 2) therefore gives the record,
    at f_s, of the process whose record at the reference rate has peak 1.
    A fixed range then sees the same S0 at every rate, so f_s moves the
    cutoffs against the Nyquist frequency as the closed form says. The
    factor is 1 at the reference rate and for alpha = 1; spectral peaks
    are scaled with the background.
    """
    check_positive(sample_rate_hz, "sample rate")
    return float((REFERENCE_RATE_HZ / sample_rate_hz) ** ((alpha - 1.0) / 2.0))
