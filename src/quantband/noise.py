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

from dataclasses import dataclass, field, replace

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


def _spectral_shape(spec: SynthesisSpec) -> np.ndarray:
    """Amplitude of each rfft bin: 0 at DC, f^(-alpha/2) times sqrt(peak multiplier) above."""
    freqs = np.fft.rfftfreq(spec.n_samples, d=1.0 / spec.sample_rate_hz)
    shape = np.zeros(freqs.size)
    shape[1:] = freqs[1:] ** (-spec.alpha / 2.0)
    if spec.peaks:
        shape[1:] *= np.sqrt(_peak_multiplier(spec, freqs[1:]))
    return shape


class SynthesisWorkspace:
    """Buffers shared by every synthesis of one spec with any seed.

    It holds the spectral shape, one complex spectrum and one record, so a
    run of many seeds builds the shape once and allocates no record-sized
    array per synthesis. ``synthesize(spec, workspace)`` overwrites the
    record, which the signal it returns aliases.
    """

    def __init__(self, spec: SynthesisSpec):
        self.spec = spec
        self.shape = _spectral_shape(spec)
        self.spectrum = np.empty(self.shape.size, dtype=np.complex128)
        self.record = np.empty(spec.n_samples)


def synthesize(spec: SynthesisSpec, workspace: SynthesisWorkspace | None = None) -> Signal:
    """Generate a 1/f^alpha Gaussian signal from a synthesis spec.

    The same spec (including seed) always yields a bit-identical signal.
    The output is zero-mean with max |sample| = 1 at any sample rate; see
    ``reference_rate_scale`` for a level fixed in physical units.

    Each spectral half is written straight into the complex spectrum. The
    bits are those of ``(re + 1j * im) * shape`` normalized by
    ``max(abs(x))``: a real factor scales each half exactly. Without a
    workspace every array is dropped once used, so at most the record and
    a spectrum are held at once. With a ``workspace`` built for the spec
    at any seed, the draws, the spectrum and the record are its buffers,
    and the returned samples alias ``workspace.record`` until the next
    synthesis into it; the bits are the same.
    """
    rng = np.random.default_rng(spec.seed)
    if workspace is None:
        shape = _spectral_shape(spec)
        spectrum = np.empty(shape.size, dtype=np.complex128)
        record = noise = None
    else:
        if replace(spec, seed=workspace.spec.seed) != workspace.spec:
            raise ValidationError(f"workspace built for {workspace.spec} cannot synthesize {spec}")
        shape, spectrum, record = workspace.shape, workspace.spectrum, workspace.record
        noise = record[: shape.size]
    for half in (spectrum.real, spectrum.imag):
        np.multiply(rng.standard_normal(shape.size, out=noise), shape, out=half)
    del shape, noise

    samples = np.fft.irfft(spectrum, n=spec.n_samples, out=record)
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
    are scaled with the background. A factor past the float range reads inf.
    """
    check_positive(sample_rate_hz, "sample rate")
    try:
        return float((REFERENCE_RATE_HZ / sample_rate_hz) ** ((alpha - 1.0) / 2.0))
    except OverflowError:
        return float("inf")
