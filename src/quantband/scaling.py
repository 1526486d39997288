"""Cutoff-frequency scaling law, crossing detection and noise-color checks.

A 1/f^alpha signal quantized at N bits sinks below the flat quantization
noise floor at a cutoff frequency f_c(N); each extra bit multiplies that
cutoff by 2^(2/alpha). This module evaluates the closed-form cutoff,
detects the crossing on measured PSDs, and classifies whether the
quantization error itself is spectrally white.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NoUsableBandError, ValidationError, check_positive
from .noise import REFERENCE_RATE_HZ, Signal, SYNTH_FULL_SCALE, SynthesisSpec, synthesize
from .quantizer import (
    MAX_BITS,
    QuantizerConfig,
    error_signal,
    increment_bits,
    quantize,
    theoretical_noise_floor,
)
from .spectral import Psd, check_fit_samples, fit_slope, record_psd
from .spectral import welch_psd  # noqa: F401  unused; perfbench/tracer.py patches every binding

# Crossing detector: moving-average width (bins) and required run length.
SMOOTH_WINDOW = 9
MIN_RUN = 5
# The crossing is refined by a power-law fit over [f / w, f * w] around
# the first bin of the run: half an octave in all.
CROSSING_FIT_HALF_WIDTH = 2.0**0.25
# |slope| below this counts as white quantization noise.
WHITE_SLOPE_THRESHOLD = 0.1
# Record of one noise-color trial: 10^5 samples.
NOISE_COLOR_N_SAMPLES = 100_000
# The N_min search starts at ceil(b - N_MIN_OFFSET), b the trials' mean
# ``increment_bits``. Starting at N_min or at N_min - 1 both cost two
# cells, so any offset in [b - N_min, b - N_min + 2) is cheapest. Over 70
# grids off the acceptance seeds (master seeds 0, 7, 100, 300, 900, 2000,
# 4000 and 5000; alphas 1-3; 25,000 to 10^5 samples; 3 or 20 trials),
# b - N_min spanned 0.81-1.98, so every offset in [1.98, 2.81) is; this
# is its middle. Where whiteness is upward-closed in depth (see
# ``find_n_min``) the offset moves only how many cells the search
# computes, not which depth it returns.
N_MIN_OFFSET = 2.4

FLOOR_THEORETICAL = "theoretical"
FLOOR_EMPIRICAL = "empirical"


@dataclass(frozen=True)
class CutoffEstimate:
    """An effective cutoff frequency and the noise floor that produced it."""

    f_c_hz: float
    floor_value: float
    floor_method: str
    exceeded_nyquist: bool


@dataclass(frozen=True)
class NoiseColorCell:
    alpha: float
    bits: int
    noise_slope: float
    is_white: bool


def is_white(slope: float) -> bool:
    """Whether a quantization error with this PSD slope counts as white."""
    return bool(abs(slope) < WHITE_SLOPE_THRESHOLD)


def check_grid(bit_range: tuple[int, int], trials: int) -> tuple[int, int]:
    """Reject trials < 1 or a bit range that is empty or past MAX_BITS; return the range as ints."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    n_lo, n_hi = int(bit_range[0]), int(bit_range[1])
    if n_lo < 1 or n_lo > n_hi or n_hi > MAX_BITS:
        raise ValidationError(f"invalid bit range {(n_lo, n_hi)}")
    return n_lo, n_hi


def scaling_ratio(alpha: float) -> float:
    """Bandwidth gained per additional bit: 2^(2/alpha)."""
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValidationError(f"scaling law undefined for alpha = {alpha}")
    return float(2.0 ** (2.0 / alpha))


def predicted_cutoff(
    alpha: float,
    s0: float,
    sample_rate_hz: float,
    cfg: QuantizerConfig,
) -> CutoffEstimate:
    """Closed-form cutoff (S_0 / floor)^(1/alpha), floor from ``theoretical_noise_floor``.

    The value is returned even when it exceeds the Nyquist frequency;
    ``exceeded_nyquist`` flags that case. A value beyond the float range,
    or a floor that underflows to 0, is returned as inf.
    """
    check_positive(alpha, "alpha")
    check_positive(s0, "S_0")
    floor = theoretical_noise_floor(cfg, sample_rate_hz)
    with np.errstate(over="ignore", divide="ignore"):
        f_c = np.power(np.float64(s0) / floor, 1.0 / alpha)
    return CutoffEstimate(
        f_c_hz=float(f_c),
        floor_value=floor,
        floor_method=FLOOR_THEORETICAL,
        exceeded_nyquist=bool(f_c > sample_rate_hz / 2.0),
    )


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; windows shrink at the edges."""
    kernel = np.ones(window)
    sums = np.convolve(values, kernel, mode="same")
    counts = np.convolve(np.ones_like(values), kernel, mode="same")
    return sums / counts


def _refine_crossing(psd: Psd, floor_value: float, f_first: float) -> float:
    """Crossing of a local power-law fit with the floor, near ``f_first``.

    The first bin of a run below the floor comes early by a margin that
    grows with its bin index: at a higher bin the spectrum falls less per
    bin, so PSD noise dips under the floor over more bins before the true
    crossing. Cutoffs one bit apart then sit at different relative
    biases and their ratio comes out low. A log-log line fitted over
    [f / w, f * w] averages that noise over a fixed fraction of an
    octave. Its crossing is returned when the band, cut at the top of the
    grid, holds enough bins for ``fit_slope``, the slope is negative and
    the crossing lies inside the band; otherwise ``f_first``.
    """
    band = (
        f_first / CROSSING_FIT_HALF_WIDTH,
        min(f_first * CROSSING_FIT_HALF_WIDTH, psd.max_freq_hz),
    )
    try:
        fit = fit_slope(psd, band)
    except ValidationError:
        return f_first
    if not fit.slope < 0:
        return f_first
    f_c = 10.0 ** ((np.log10(floor_value) - fit.intercept_log10) / fit.slope)
    return float(f_c) if band[0] <= f_c <= band[1] else f_first


def detect_cutoff(
    psd: Psd,
    floor_value: float,
    floor_method: str = FLOOR_THEORETICAL,
) -> CutoffEstimate:
    """Find the lowest frequency where the PSD sinks under a noise floor.

    log10 power is smoothed with a centered moving average, and the
    crossing must stay below the floor for MIN_RUN consecutive bins.
    The first bin of that run locates the crossing; the reported
    frequency is where a log-log line fitted to the PSD over half an
    octave around that bin meets the floor (see ``_refine_crossing``).
    If the smoothed PSD never drops below the floor the Nyquist-end
    frequency is returned with ``exceeded_nyquist`` set. A floor above
    the entire PSD raises NoUsableBandError.
    """
    check_positive(floor_value, "floor")
    tiny = np.finfo(np.float64).tiny
    log_power = np.log10(np.maximum(psd.power, tiny))
    smoothed = _smooth(log_power, SMOOTH_WINDOW)
    below = smoothed < np.log10(floor_value)

    if below.all():
        raise NoUsableBandError(
            f"noise floor {floor_value:.3e} lies above the entire PSD; no usable band"
        )

    # Under MIN_RUN bins, "valid" mode sums fewer than MIN_RUN, so no run is found.
    run_lengths = np.convolve(below.astype(np.int64), np.ones(MIN_RUN, dtype=np.int64), mode="valid")
    starts_hz = psd.freqs_hz[np.flatnonzero(run_lengths == MIN_RUN)]
    f_c = _refine_crossing(psd, floor_value, float(starts_hz[0])) if starts_hz.size else psd.max_freq_hz
    return CutoffEstimate(f_c, float(floor_value), floor_method, exceeded_nyquist=not starts_hz.size)


def error_noise_slope(err: Signal) -> float:
    """Slope of a quantization error's PSD over the default fit band."""
    return fit_slope(record_psd(err)).slope


def measure_noise_slope(signal: Signal, cfg: QuantizerConfig) -> float:
    """Quantize, extract e[n] = x_q[n] - x[n], and fit the slope of its PSD."""
    return error_noise_slope(error_signal(signal, quantize(signal, cfg)))


def _first_white(white_at: Callable[[int], bool], start: int, lo: int, hi: int) -> int | None:
    """Smallest depth in [lo, hi] that ``white_at``, searched outward from ``start``.

    If ``start`` is white, step down while the depth below is white;
    otherwise step up to the first white depth, or return None past hi.
    This is the first white depth of a scan up from lo whenever
    whiteness is upward-closed in depth over the range (every depth
    above a white one is white). It then asks about at most
    |start - answer| + 2 depths.
    """
    if white_at(start):
        while start > lo and white_at(start - 1):
            start -= 1
        return start
    return next((bits for bits in range(start + 1, hi + 1) if white_at(bits)), None)


def noise_color_cells(
    alpha: float,
    bit_range: tuple[int, int],
    trials: int,
    master_seed: int,
    n_samples: int,
) -> tuple[Callable[[int], NoiseColorCell], int | None]:
    """The noise-color cells of one alpha, computed when asked for, and its N_min.

    Returns ``(cell, n_min)``. ``cell(bits)`` is the cell of one depth,
    white when the mean slope over the trials ``is_white``; it is
    memoized, so each depth is computed once, when first asked for.
    Trial i (seed master_seed + i) is synthesized once, here. Synthesis
    peak-normalizes, so the sample rate changes no sample and no slope:
    every trial runs at REFERENCE_RATE_HZ.

    ``n_min`` is what the search finds through ``cell``: it computes
    depth ceil(b - N_MIN_OFFSET) first, b the trials' mean
    ``increment_bits``, clipped to the range, and steps down while the
    depth below is white, or up to the first white depth (see
    ``_first_white``).
    """
    n_lo, n_hi = check_grid(bit_range, trials)
    check_fit_samples(n_samples)
    signals = [
        synthesize(SynthesisSpec(alpha, n_samples, REFERENCE_RATE_HZ, seed=master_seed + i))
        for i in range(trials)
    ]
    b_mean = np.mean([increment_bits(sig, SYNTH_FULL_SCALE) for sig in signals])

    @cache
    def cell(bits: int) -> NoiseColorCell:
        cfg = QuantizerConfig(bits=bits, full_scale=SYNTH_FULL_SCALE)
        mean_slope = float(np.mean([measure_noise_slope(sig, cfg) for sig in signals]))
        return NoiseColorCell(alpha, bits, mean_slope, is_white(mean_slope))

    start = int(np.clip(np.ceil(b_mean - N_MIN_OFFSET), n_lo, n_hi))
    return cell, _first_white(lambda bits: cell(bits).is_white, start, n_lo, n_hi)


def find_n_min(
    alpha: float,
    bit_range: tuple[int, int],
    trials: int,
    master_seed: int,
    n_samples: int = NOISE_COLOR_N_SAMPLES,
) -> int | None:
    """Smallest bit depth in range whose mean noise slope is white, or None.

    Whiteness is decided on the mean slope across trials. This is the
    ``n_min`` of ``noise_color_cells``: the trials' mean
    ``increment_bits`` predicts the answer to within a bit, the search
    starts there, and only the cells it visits are computed. The answer
    is the first white depth of a scan up from the bottom of the range
    wherever whiteness is upward-closed in depth, as it was in every
    checked record of 4,096 samples or more; in single-segment records of
    a few hundred samples it is not, and the two can differ.
    """
    return noise_color_cells(alpha, bit_range, trials, master_seed, n_samples)[1]
