"""Uniform mid-rise quantization and quantization-error extraction.

The quantizer has 2^N reconstruction levels at +/-(k + 1/2) * delta with
delta = R / 2^N, no level at zero, nearest-level rounding (ties at cell
boundaries round toward the upper cell) and saturation to the outermost
level outside [-R/2, R/2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_positive
from .noise import Signal

MAX_BITS = 24
# Largest full-scale range: the squares that the white floor and every
# Welch PSD of a quantized record form stay finite below it.
MAX_FULL_SCALE = 1e100
# Sample rates a signal file may be read at. Scaling the rate by c scales
# a record's frequencies by c, its densities by 1 / c and its fitted S_0,
# about span^2 * (f_s / n)^(alpha - 1), by c^(alpha - 1). With spans up to
# MAX_FULL_SCALE, rates from 1e-30 to 1e30 keep S_0 below 1e290 for fitted
# alphas from -1 to 4 and records of 76 to 10^8 samples.
SIGNAL_RATE_LIMITS_HZ = (1e-30, 1e30)


def check_span(span: float, what: str) -> None:
    """Raise ValidationError naming ``what`` unless ``span`` is at most MAX_FULL_SCALE."""
    if not span <= MAX_FULL_SCALE:
        raise ValidationError(f"{what} must be at most {MAX_FULL_SCALE:g}, got {span:g}")


@dataclass(frozen=True)
class QuantizerConfig:
    """Bit depth and full-scale range of a uniform quantizer."""

    bits: int
    full_scale: float

    def __post_init__(self):
        if int(self.bits) != self.bits or not (1 <= self.bits <= MAX_BITS):
            raise ValidationError(f"bits must be an integer in [1, {MAX_BITS}], got {self.bits}")
        object.__setattr__(self, "bits", int(self.bits))
        check_positive(self.full_scale, "full-scale range")
        check_span(self.full_scale, "full-scale range")

    @property
    def step(self) -> float:
        """Quantization step delta = R / 2^N."""
        return self.full_scale / 2**self.bits


def quantize_values(values: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Map each value to its nearest mid-rise reconstruction level.

    Every step after the division runs in place in one output buffer.
    """
    values = np.asarray(values, dtype=np.float64)
    half_levels = 2 ** (cfg.bits - 1)
    out = np.divide(values, cfg.step, out=np.empty_like(values))
    np.floor(out, out=out)
    np.clip(out, -half_levels, half_levels - 1, out=out)
    out += 0.5
    out *= cfg.step
    return out


def quantize(signal: Signal, cfg: QuantizerConfig) -> Signal:
    """Quantize a signal; sample rate is unchanged."""
    return Signal(quantize_values(signal.samples, cfg), signal.sample_rate_hz)


def saturation_count(signal: Signal, cfg: QuantizerConfig) -> int:
    """Number of samples strictly outside [-R/2, R/2]."""
    return int(np.count_nonzero(np.abs(signal.samples) > cfg.full_scale / 2.0))


def error_signal(original: Signal, quantized: Signal) -> Signal:
    """Quantization error e[n] = x_q[n] - x[n]."""
    if original.n_samples != quantized.n_samples:
        raise ValidationError(
            f"length mismatch: {original.n_samples} vs {quantized.n_samples}"
        )
    if original.sample_rate_hz != quantized.sample_rate_hz:
        raise ValidationError(
            f"sample rate mismatch: {original.sample_rate_hz} vs {quantized.sample_rate_hz}"
        )
    return Signal(quantized.samples - original.samples, original.sample_rate_hz)


def increment_bits(signal: Signal, full_scale: float) -> float:
    """Range-to-increment ratio b = log2(R / sigma_d), in bits.

    sigma_d is the rms of the increments x[n+1] - x[n]. Quantizing 2x at
    N bits gives exactly half of quantizing x at N + 1 bits, so the error
    depends on N - b; for Gaussian increments the lag-1 whiteness term of
    Widrow & Kollar (2008) is exp(-2 pi^2 4^(N - b)). A constant record
    reads inf.
    """
    check_positive(full_scale, "full-scale range")
    d = np.diff(signal.samples)
    with np.errstate(divide="ignore"):
        return float(np.log2(full_scale / np.sqrt(d @ d / d.size)))


def theoretical_noise_floor(cfg: QuantizerConfig, sample_rate_hz: float) -> float:
    """One-sided quantization noise PSD delta^2 / (6 * f_s) under the white model."""
    check_positive(sample_rate_hz, "sample rate")
    return cfg.step**2 / (6.0 * sample_rate_hz)
