"""PSD estimation, log-log slope fitting and empirical noise floors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .noise import Signal

DEFAULT_SEGMENT_LEN = 4096
DEFAULT_OVERLAP = 0.5
# Shortest Welch segment, and so the shortest record ``record_psd`` estimates.
MIN_SEGMENT_LEN = 8
MIN_FIT_BINS = 10
# Shortest record the default fit band can be fitted on. On an L-sample
# segment the band runs from bin 10 (= MIN_FIT_BINS) to bin L/4, which
# holds MIN_FIT_BINS bins once L/4 >= 2 * MIN_FIT_BINS - 1.
MIN_FIT_SAMPLES = 4 * (2 * MIN_FIT_BINS - 1)
# Noise floors are read from the upper quarter of the frequency range.
FLOOR_BAND_FRACTION = 0.75
# Segments transformed together by the Welch engine; bounds its memory.
WELCH_BLOCK_SEGMENTS = 4


@dataclass(frozen=True, eq=False)
class Psd:
    """One-sided power spectral density on a positive frequency grid."""

    freqs_hz: np.ndarray
    power: np.ndarray
    df_hz: float

    def __post_init__(self):
        freqs = np.asarray(self.freqs_hz, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "power", power)
        if freqs.size != power.size:
            raise ValidationError("frequency and power arrays differ in length")
        if freqs.size < 2 or freqs[0] <= 0 or np.any(np.diff(freqs) <= 0):
            raise ValidationError("frequencies must be strictly increasing and positive")
        if not np.all(np.isfinite(power)) or np.any(power < 0):
            raise ValidationError("power values must be finite and nonnegative")
        if not (self.df_hz > 0):
            raise ValidationError(f"bin width must be positive, got {self.df_hz}")

    @property
    def max_freq_hz(self) -> float:
        return float(self.freqs_hz[-1])


@dataclass(frozen=True)
class SpectralFit:
    """Least-squares line fit of log10 power against log10 frequency.

    ``slope`` estimates -alpha; ``intercept_log10`` is the log10 power
    density at 1 Hz, so the power-law coefficient is 10**intercept_log10.
    """

    slope: float
    intercept_log10: float
    fit_band_hz: tuple[float, float]
    rms_residual: float

    @property
    def alpha_hat(self) -> float:
        return -self.slope

    @property
    def s0_hat(self) -> float:
        """Fitted S_0; inf when it is beyond the float range."""
        with np.errstate(over="ignore"):
            return float(np.power(10.0, self.intercept_log10))


def _power_sum(segments: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Sum of |rfft(window * (segment - its mean))|^2 over the rows of ``segments``.

    The segments are streamed through blocks of WELCH_BLOCK_SEGMENTS, so
    the temporaries stay a few segments long at any signal length: one
    block of windowed segments and one of their spectra, which every
    block reuses, and |X|^2 is written where the windowed segments were.
    Each block's |X|^2 rows are added to the total in segment order, the
    sum numpy's mean over the stacked segments forms, so the total is
    bit-identical to transforming every segment at once.
    """
    segment_len = window.size
    total = np.zeros(segment_len // 2 + 1)
    rows = min(WELCH_BLOCK_SEGMENTS, len(segments))
    windowed = np.empty((rows, segment_len))
    spectra = np.empty((rows, total.size), dtype=np.complex128)
    for start in range(0, len(segments), WELCH_BLOCK_SEGMENTS):
        block = segments[start : start + WELCH_BLOCK_SEGMENTS]
        detrended, spectrum = windowed[: len(block)], spectra[: len(block)]
        # np.mean's sum and division, without its per-call Python wrapper.
        np.subtract(block, np.add.reduce(block, axis=1, keepdims=True) / segment_len, out=detrended)
        for row in detrended:  # a whole-block in-place multiply allocates a 64 KB buffer
            row *= window
        np.fft.rfft(detrended, out=spectrum)
        # Square re and im where they lie, then add each pair: re^2 + im^2.
        parts = spectrum.view(np.float64)
        np.square(parts, out=parts)
        power = windowed.reshape(-1)[: parts.size // 2].reshape(len(block), total.size)
        np.add(parts[:, 0::2], parts[:, 1::2], out=power)
        for row in power:
            total += row
    return total


def _welch_density(
    x: np.ndarray, fs: float, segment_len: int, noverlap: int
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch density of a 1-D array (Welch 1967).

    Segments of ``segment_len`` samples start every ``segment_len -
    noverlap`` samples; samples past the last whole segment are dropped.
    Each segment has its mean removed and a periodic Hann window applied.
    Returns the full rfft grid, DC included.
    """
    step = segment_len - noverlap
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_len)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    density = _power_sum(segments, window) / len(segments) / (fs * np.dot(window, window))
    # Fold the negative frequencies in: every bin but DC and, for even
    # lengths, Nyquist appears twice in the two-sided spectrum.
    density[1 : segment_len - segment_len // 2] *= 2.0
    return np.fft.rfftfreq(segment_len, 1.0 / fs), density


def welch_psd(
    signal: Signal,
    segment_len: int = DEFAULT_SEGMENT_LEN,
    overlap_fraction: float = DEFAULT_OVERLAP,
) -> Psd:
    """Welch PSD with a Hann window, density scaling, DC bin dropped.

    Per-segment means are removed, so the estimate is invariant to the
    signal mean. The grid runs from one bin width up to the Nyquist
    frequency.
    """
    if segment_len > signal.n_samples:
        raise ValidationError(
            f"segment length {segment_len} exceeds signal length {signal.n_samples}"
        )
    if segment_len < MIN_SEGMENT_LEN:
        raise ValidationError(f"segment length too small: {segment_len}")
    if not 0 <= overlap_fraction < 1:
        raise ValidationError(f"overlap fraction must be in [0, 1), got {overlap_fraction}")
    freqs, power = _welch_density(
        signal.samples,
        signal.sample_rate_hz,
        segment_len,
        int(overlap_fraction * segment_len),
    )
    df = float(freqs[1] - freqs[0])
    return Psd(freqs[1:], power[1:], df)


def record_psd(signal: Signal) -> Psd:
    """Welch PSD of a whole record, the estimate every report is read from.

    A record shorter than DEFAULT_SEGMENT_LEN is one even-length segment,
    so its last bin sits at the Nyquist frequency.
    """
    return welch_psd(signal, min(DEFAULT_SEGMENT_LEN, signal.n_samples // 2 * 2))


def _check_record_samples(n_samples: int, minimum: int, purpose: str) -> None:
    if n_samples < minimum:
        raise ValidationError(
            f"record of {n_samples} samples is too short for {purpose}; need at least {minimum}"
        )


def check_psd_samples(n_samples: int) -> None:
    """Raise ValidationError unless ``record_psd`` can estimate a record of ``n_samples``."""
    _check_record_samples(n_samples, MIN_SEGMENT_LEN, "a Welch PSD")


def check_fit_samples(n_samples: int) -> None:
    """Raise ValidationError unless a record of ``n_samples`` is long enough to fit."""
    _check_record_samples(n_samples, MIN_FIT_SAMPLES, "a spectral fit")


def default_fit_band(psd: Psd) -> tuple[float, float]:
    """Fit band [10 * df, f_max / 2], i.e. up to a quarter of the sample rate.

    The lower edge skips the poorly estimated first bins; the upper edge
    keeps clear of the roll-off near Nyquist.
    """
    return 10.0 * psd.df_hz, psd.max_freq_hz / 2.0


def fit_slope(psd: Psd, band_hz: tuple[float, float] | None = None) -> SpectralFit:
    """Least squares of log10(power) on log10(freq) in a band, by default ``default_fit_band``."""
    if band_hz is None:
        band_hz = default_fit_band(psd)
    f_low, f_high = band_hz
    if not (0 < f_low < f_high):
        raise ValidationError(f"invalid fit band {band_hz}")
    mask = (psd.freqs_hz >= f_low) & (psd.freqs_hz <= f_high)
    n_bins = int(np.count_nonzero(mask))
    if n_bins < MIN_FIT_BINS:
        raise ValidationError(
            f"fit band {band_hz} contains {n_bins} bins, need at least {MIN_FIT_BINS}"
        )
    power = psd.power[mask]
    if np.any(power <= 0):
        raise ValidationError("fit band contains zero power bins")
    log_f = np.log10(psd.freqs_hz[mask])
    log_p = np.log10(power)
    # Closed-form least squares; np.polyfit costs several times more per call.
    centered = log_f - log_f.mean()
    slope = np.dot(centered, log_p) / np.dot(centered, centered)
    intercept = log_p.mean() - slope * log_f.mean()
    residual = log_p - (slope * log_f + intercept)
    return SpectralFit(
        slope=float(slope),
        intercept_log10=float(intercept),
        fit_band_hz=(float(f_low), float(f_high)),
        rms_residual=float(np.sqrt(np.mean(residual**2))),
    )


def empirical_noise_floor(psd: Psd) -> float:
    """Median power over the upper quarter of the frequency range."""
    if psd.freqs_hz.size < 8:
        raise ValidationError("PSD too short for a floor estimate (need >= 8 bins)")
    upper = psd.power[psd.freqs_hz >= FLOOR_BAND_FRACTION * psd.max_freq_hz]
    return float(np.median(upper))


def band_power(psd: Psd, f_low: float, f_high: float) -> float:
    """Trapezoidal integral of the PSD over [f_low, f_high]."""
    if not (0 < f_low < f_high):
        raise ValidationError(f"invalid band ({f_low}, {f_high})")
    if f_high > psd.max_freq_hz or f_low < psd.freqs_hz[0] - psd.df_hz:
        raise ValidationError(
            f"band ({f_low}, {f_high}) Hz outside PSD support "
            f"[{psd.freqs_hz[0]}, {psd.max_freq_hz}] Hz"
        )
    mask = (psd.freqs_hz >= f_low) & (psd.freqs_hz <= f_high)
    if np.count_nonzero(mask) < 2:
        raise ValidationError(f"band ({f_low}, {f_high}) Hz spans fewer than 2 bins")
    return float(np.trapezoid(psd.power[mask], psd.freqs_hz[mask]))
