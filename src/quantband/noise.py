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

import math
import os
import sys
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
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
        # The Gaussian divides by 2 * width^2. Below the normal range that
        # loses its precision and then reads 0, which the center bin
        # divides 0 by; past the float range it is inf.
        divisor = 2.0 * self.width_hz * self.width_hz
        if not sys.float_info.min <= divisor < math.inf:
            raise ValidationError(
                f"peak width {self.width_hz} Hz is out of range: twice its square, "
                f"{divisor:g}, is not a normal finite float"
            )
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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for peak in self.peaks:
            peak.validate(self.sample_rate_hz)
        # The largest bin amplitude, (f_s / n)^(-alpha / 2), in bits. The
        # inverse FFT sums n terms of at most that size and divides by n.
        # Past either limit below, the record overflows to inf, or it
        # underflows to 0 and peak normalization divides 0 by 0. Peaks
        # raise a bin by at most sqrt(1 + the sum of their amplitude
        # factors), which the upper limit counts; they lower none.
        log2_n = math.log2(self.n_samples)
        log2_amp = -0.5 * self.alpha * (math.log2(self.sample_rate_hz) - log2_n)
        factors = sum(peak.amplitude_factor for peak in self.peaks)
        log2_gain = 0.5 * math.log2(1.0 + factors)
        if not (
            sys.float_info.min_exp - 1 + log2_n <= log2_amp
            and log2_amp + log2_gain < sys.float_info.max_exp - log2_n
        ):
            peaks = (
                f", and peaks with amplitude factors summing to {factors:g} raise a bin "
                f"by up to 2^{log2_gain:.1f}"
                if self.peaks
                else ""
            )
            raise ValidationError(
                f"the spectrum at alpha={self.alpha}, n={self.n_samples} and "
                f"f_s={self.sample_rate_hz} Hz cannot be represented: its largest bin "
                f"amplitude (f_s/n)^(-alpha/2) is 2^{log2_amp:.1f}{peaks}"
            )


def _peak_multiplier(spec: SynthesisSpec, freqs: np.ndarray) -> np.ndarray:
    mult = np.ones_like(freqs)
    for peak in spec.peaks:
        # Far from a narrow peak the exponent overflows to -inf, and exp
        # gives the 0 it tends to.
        with np.errstate(over="ignore"):
            exponent = -((freqs - peak.center_hz) ** 2) / (2.0 * peak.width_hz**2)
        mult += peak.amplitude_factor * np.exp(exponent)
    return mult


def _spectral_shape(spec: SynthesisSpec) -> np.ndarray:
    """Amplitude of each rfft bin: 0 at DC, f^(-alpha/2) times sqrt(peak multiplier) above."""
    freqs = np.fft.rfftfreq(spec.n_samples, d=1.0 / spec.sample_rate_hz)
    shape = np.zeros(freqs.size)
    shape[1:] = freqs[1:] ** (-spec.alpha / 2.0)
    if spec.peaks:
        shape[1:] *= np.sqrt(_peak_multiplier(spec, freqs[1:]))
    return shape


@contextmanager
def _refusal_named(what: str) -> Iterator[None]:
    """Re-raise a MemoryError in the block as one that starts with ``what``."""
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"{what}: {exc}") from None


class SynthesisWorkspace:
    """The buffers of a synthesis: the spectral shape, a complex spectrum, a record.

    ``synthesize`` draws into them and overwrites the record, which the
    signal it returns aliases. A run of many seeds of one spec that passes
    one workspace builds the shape once and allocates no record per seed.
    Workspaces given one ``shape`` share it, read-only. The ``record``, by
    default a new array, may be any contiguous ``spec.n_samples`` floats,
    a row of a larger array included, and may be pointed elsewhere
    between syntheses. A refused allocation names the record's length.
    """

    def __init__(
        self,
        spec: SynthesisSpec,
        shape: np.ndarray | None = None,
        record: np.ndarray | None = None,
    ):
        with _refusal_named(f"a record of {spec.n_samples} samples does not fit in memory"):
            self.shape = _spectral_shape(spec) if shape is None else shape
            self.spectrum = np.empty(self.shape.size, dtype=np.complex128)
            self.record = np.empty(spec.n_samples) if record is None else record


def synthesize(spec: SynthesisSpec, workspace: SynthesisWorkspace | None = None) -> Signal:
    """Generate a 1/f^alpha Gaussian signal from a synthesis spec.

    The same spec (including seed) always yields a bit-identical signal.
    The output is zero-mean with max |sample| = 1 at any sample rate; see
    ``reference_rate_scale`` for a level fixed in physical units.

    The buffers are those of ``workspace``, built for the spec at any seed,
    or of a workspace built for this call alone. Each half of the spectrum
    is drawn into the head of the record and scaled into the spectrum,
    which is transformed into the record; the returned samples alias it
    until the next synthesis into it. The bits are those of
    ``(re + 1j * im) * shape`` normalized by ``max(abs(x))``: a real factor
    scales each half exactly. A workspace built for one call frees its
    shape before the transform, whose scratch then takes its place.
    """
    rng = np.random.default_rng(spec.seed)
    ws = SynthesisWorkspace(spec) if workspace is None else workspace
    shape, spectrum, record = ws.shape, ws.spectrum, ws.record
    del ws
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


def _cores() -> int:
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_trials(trials: int, work: Callable[[range], None]) -> None:
    """Run ``work(rows)`` on each worker's share of ``range(trials)``.

    There are min(cores, trials) workers, the calling thread the first
    and each other on a thread of its own. Worker w takes the w-th of
    that many contiguous runs of near-equal length, so a lower worker
    holds lower trials. ``work`` handles its rows in order and stops at
    its first error; once every worker is done, the error of the lowest
    worker that raised is raised. That is the error of the lowest failing
    trial, the one a serial loop over ``range(trials)`` raises.
    """
    workers = min(_cores(), trials)
    bounds = [trials * w // workers for w in range(workers + 1)]
    errors: list[BaseException | None] = [None] * workers

    def run(w: int) -> None:
        try:
            work(range(bounds[w], bounds[w + 1]))
        except BaseException as exc:
            errors[w] = exc

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    error = next((exc for exc in errors if exc is not None), None)
    if error is not None:
        raise error


def _draw_trial(spec: SynthesisSpec, i: int, workspace: SynthesisWorkspace) -> np.ndarray:
    """Trial i of a run, in the workspace record.

    That is ``spec`` at seed ``spec.seed + i``, scaled in place by
    ``reference_rate_scale``, exactly 1.0 at REFERENCE_RATE_HZ.
    """
    samples = synthesize(replace(spec, seed=spec.seed + i), workspace).samples
    samples *= reference_rate_scale(spec.alpha, spec.sample_rate_hz)
    return samples


def trial_signals(spec: SynthesisSpec, trials: int) -> Iterator[Signal]:
    """The trials of a Monte Carlo run: trial i is ``spec`` at seed ``spec.seed + i``.

    Each is drawn by ``_draw_trial`` through one ``SynthesisWorkspace`` per
    call. A yielded signal aliases the workspace record until the next
    trial is drawn, so a caller that keeps a trial copies it.
    """
    workspace = SynthesisWorkspace(spec)
    for i in range(trials):
        yield Signal(_draw_trial(spec, i, workspace), spec.sample_rate_hz)


def trial_block(spec: SynthesisSpec, trials: int) -> np.ndarray:
    """The samples of ``trial_signals(spec, trials)`` as the rows of one (trials, n) array.

    The rows are drawn by ``split_trials``' workers. They share one
    spectral shape; each draws into a complex spectrum of its own and
    straight into its rows, which serve as its workspace record, so no
    record is allocated or copied per trial. A block too large to
    allocate raises MemoryError naming the trial count and the length.
    """
    with _refusal_named(f"{trials} trials of {spec.n_samples} samples do not fit in memory"):
        records = np.empty((trials, spec.n_samples))
    shape = _spectral_shape(spec)

    def draw(rows: range) -> None:
        workspace = SynthesisWorkspace(spec, shape, records[rows.start])
        for i in rows:
            workspace.record = records[i]
            _draw_trial(spec, i, workspace)

    split_trials(trials, draw)
    return records
