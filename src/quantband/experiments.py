"""End-to-end experiment runners and their report types.

Each runner is deterministic under a fixed master seed: trial i always
uses seed master_seed + i.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import NoMeasurableBandError, NoUsableBandError, ValidationError, check_positive
from .noise import (
    REFERENCE_RATE_HZ,
    PeakSpec,
    Signal,
    SYNTH_FULL_SCALE,
    SynthesisSpec,
    SynthesisWorkspace,
    reference_rate_scale,
    synthesize,
)
from .quantizer import (
    QuantizerConfig,
    check_span,
    error_signal,
    quantize,
    saturation_count,
    theoretical_noise_floor,
)
from .scaling import (
    FLOOR_EMPIRICAL,
    FLOOR_THEORETICAL,
    NOISE_COLOR_N_SAMPLES,
    CutoffEstimate,
    NoiseColorCell,
    check_grid,
    detect_cutoff,
    error_noise_slope,
    is_white,
    noise_color_cells,
    predicted_cutoff,
    scaling_ratio,
)
from .spectral import (
    SpectralFit,
    band_power,
    check_fit_samples,
    check_psd_samples,
    empirical_noise_floor,
    fit_slope,
    record_psd,
)
from .spectral import welch_psd  # noqa: F401  unused; perfbench/tracer.py patches every binding

DEFAULT_SEED = 1234

# Conventional EEG band edges; Gamma runs up to the Nyquist frequency.
BAND_EDGES = (
    ("delta", 0.5, 4.0),
    ("theta", 4.0, 8.0),
    ("alpha", 8.0, 13.0),
    ("beta", 13.0, 30.0),
)
GAMMA_LOW_HZ = 30.0
# A band power ratio in this range counts as preserved.
PRESERVED_RANGE = (0.8, 1.2)


def standard_bands(nyquist_hz: float) -> list[tuple[str, float, float]]:
    """Delta through Gamma band edges for a given Nyquist frequency."""
    if nyquist_hz <= GAMMA_LOW_HZ:
        raise ValidationError(
            f"Nyquist frequency {nyquist_hz} Hz leaves no room for a Gamma band"
        )
    return [*BAND_EDGES, ("gamma", GAMMA_LOW_HZ, nyquist_hz)]


@dataclass(frozen=True)
class ValidationConfig:
    """Configuration of a scaling-law validation run."""

    alpha: float
    sample_rate_hz: float
    n_samples: int
    bit_range: tuple[int, int]
    trials: int
    master_seed: int = DEFAULT_SEED
    floor_method: str = FLOOR_THEORETICAL
    peaks: tuple[PeakSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "bit_range", check_grid(self.bit_range, self.trials))
        object.__setattr__(self, "peaks", tuple(self.peaks))
        if self.floor_method not in (FLOOR_THEORETICAL, FLOOR_EMPIRICAL):
            raise ValidationError(f"unknown floor method {self.floor_method!r}")
        # A bad alpha, rate, length, peak or level fails here, before any
        # trial is synthesized.
        scaling_ratio(self.alpha)
        check_positive(self.sample_rate_hz, "sample rate")
        check_fit_samples(self.n_samples)
        for peak in self.peaks:
            peak.validate(self.sample_rate_hz)
        # Each trial's record spans 2 * reference_rate_scale; past the
        # largest range a quantizer takes, its PSD overflows.
        check_span(
            2.0 * reference_rate_scale(self.alpha, self.sample_rate_hz),
            f"the span of each record at alpha={self.alpha} and f_s={self.sample_rate_hz} Hz",
        )

    @property
    def bits(self) -> list[int]:
        return list(range(self.bit_range[0], self.bit_range[1] + 1))


@dataclass(frozen=True)
class BitCutoffStats:
    """Detected cutoffs at one bit depth, aggregated over trials."""

    bits: int
    mean_f_c_hz: float | None
    std_f_c_hz: float | None
    valid_trials: int
    excluded: bool


@dataclass(frozen=True)
class StepRatio:
    """Measured cutoff ratio between two consecutive bit depths."""

    bits_low: int
    bits_high: int
    mean_ratio: float
    std_ratio: float
    n_trials: int
    rel_error: float


@dataclass(frozen=True)
class ValidationReport:
    config: ValidationConfig
    predicted_ratio: float
    per_bit_cutoffs: list[BitCutoffStats]
    ratios: list[StepRatio]
    measured_ratio_mean: float
    measured_ratio_std: float
    mean_error: float
    excluded_bits: list[int]

    def csv_table(self) -> tuple[list[str], list[list]]:
        header = ["alpha", "bits", "mean_f_c_hz", "std_f_c_hz", "valid_trials", "excluded"]
        return header, [
            [self.config.alpha, b.bits, b.mean_f_c_hz, b.std_f_c_hz, b.valid_trials, b.excluded]
            for b in self.per_bit_cutoffs
        ]


def _fitted_cutoff(fit: SpectralFit, sample_rate_hz: float, cfg: QuantizerConfig) -> float:
    """Closed-form cutoff at a fit's slope and intercept; NaN unless the fit falls."""
    if not (fit.alpha_hat > 0 and fit.s0_hat > 0):
        return float("nan")
    return predicted_cutoff(fit.alpha_hat, fit.s0_hat, sample_rate_hz, cfg).f_c_hz


def _trial_cutoffs(cfg: ValidationConfig, trial: int, workspace: SynthesisWorkspace) -> np.ndarray:
    """Detected sub-Nyquist cutoff at each of ``cfg.bits`` for one trial, NaN where dropped.

    The signal level is fixed in physical units, not per signal: the
    trial's synthesis is scaled by ``reference_rate_scale``, so every rate
    sees the process whose record at the reference rate spans the range
    R = SYNTH_FULL_SCALE, and R stays fixed. A higher f_s then lowers the
    floor delta^2 / (6 f_s) against the same S0 and moves the cutoffs
    away from the Nyquist frequency. With the range set from each
    signal's own peak, f_s would cancel from every cutoff's position
    relative to Nyquist.

    A bit depth is dropped (Nyquist-flagged) when the detected crossing
    reaches the end of the grid, when the closed-form cutoff predicted
    from the trial's fitted slope and intercept exceeds f_s/2, or when
    the floor buries the whole PSD.

    The trial synthesizes into ``workspace``'s record and scales it there.
    """
    nyquist = cfg.sample_rate_hz / 2.0
    spec = SynthesisSpec(
        cfg.alpha,
        cfg.n_samples,
        cfg.sample_rate_hz,
        seed=cfg.master_seed + trial,
        peaks=cfg.peaks,
    )
    samples = synthesize(spec, workspace).samples
    samples *= reference_rate_scale(cfg.alpha, cfg.sample_rate_hz)
    signal = Signal(samples, cfg.sample_rate_hz)
    psd = record_psd(signal)
    fit = fit_slope(psd)

    row: list[float] = []
    for bits in cfg.bits:
        qcfg = QuantizerConfig(bits=bits, full_scale=SYNTH_FULL_SCALE)
        if cfg.floor_method == FLOOR_THEORETICAL:
            floor = theoretical_noise_floor(qcfg, cfg.sample_rate_hz)
        else:
            floor = empirical_noise_floor(record_psd(quantize(signal, qcfg)))
        try:
            detected = detect_cutoff(psd, floor, cfg.floor_method)
        except NoUsableBandError:
            kept = False
        else:
            kept = not (detected.exceeded_nyquist or _fitted_cutoff(fit, cfg.sample_rate_hz, qcfg) > nyquist)
        row.append(detected.f_c_hz if kept else np.nan)
    return np.array(row)


def run_validation(cfg: ValidationConfig) -> ValidationReport:
    """Measure cutoff ratios across bit depths and compare to 2^(2/alpha).

    Per trial: synthesize at the physical level described in
    ``_trial_cutoffs``, estimate the PSD, and detect the cutoff at each
    bit depth against the configured noise floor (the empirical floor
    comes from the quantized signal's own PSD) into one (trial, bits)
    array, NaN where the trial dropped the depth. The ratio of consecutive
    depths counts only in the trials that kept both.

    Every trial synthesizes into one workspace, built once per run.
    """
    predicted = scaling_ratio(cfg.alpha)
    workspace = SynthesisWorkspace(
        SynthesisSpec(cfg.alpha, cfg.n_samples, cfg.sample_rate_hz, peaks=cfg.peaks)
    )
    f_c = np.array([_trial_cutoffs(cfg, i, workspace) for i in range(cfg.trials)])
    per_bit = [
        BitCutoffStats(
            bits=bits,
            mean_f_c_hz=float(np.mean(values)) if values.size else None,
            std_f_c_hz=float(np.std(values)) if values.size else None,
            valid_trials=values.size,
            excluded=not values.size,
        )
        for bits, values in zip(cfg.bits, (column[~np.isnan(column)] for column in f_c.T))
    ]

    # Per step, the ratios of the trials that kept both depths; the others divide to NaN.
    step_ratios = [column[~np.isnan(column)] for column in (f_c[:, 1:] / f_c[:, :-1]).T]
    steps = [
        StepRatio(
            bits_low=low,
            bits_high=high,
            mean_ratio=float(np.mean(ratios)),
            std_ratio=float(np.std(ratios)),
            n_trials=ratios.size,
            rel_error=abs(float(np.mean(ratios)) - predicted) / predicted,
        )
        for low, high, ratios in zip(cfg.bits[:-1], cfg.bits[1:], step_ratios)
        if ratios.size
    ]

    if not steps:
        raise NoMeasurableBandError(
            f"no consecutive bit depths in {cfg.bit_range} have measurable "
            f"sub-Nyquist cutoffs (alpha={cfg.alpha}, f_s={cfg.sample_rate_hz} Hz)"
        )

    pooled = np.concatenate(step_ratios)
    return ValidationReport(
        config=cfg,
        predicted_ratio=predicted,
        per_bit_cutoffs=per_bit,
        ratios=steps,
        measured_ratio_mean=float(np.mean(pooled)),
        measured_ratio_std=float(np.std(pooled)),
        mean_error=float(np.mean([s.rel_error for s in steps])),
        excluded_bits=[b.bits for b in per_bit if b.excluded],
    )


@dataclass(frozen=True)
class NoiseColorSweepReport:
    alphas: list[float]
    bit_range: tuple[int, int]
    trials: int
    n_samples: int
    sample_rate_hz: float
    master_seed: int
    cells: list[NoiseColorCell]
    n_min: dict[float, int | None]

    def csv_table(self) -> tuple[list[str], list[list]]:
        header = ["alpha", "bits", "noise_slope", "is_white"]
        return header, [[c.alpha, c.bits, c.noise_slope, c.is_white] for c in self.cells]


def run_noise_color_sweep(
    alphas: list[float],
    bit_range: tuple[int, int],
    trials: int,
    master_seed: int,
    n_samples: int,
) -> NoiseColorSweepReport:
    """Mean quantization-noise slope over an (alpha, bits) grid.

    Whiteness at each cell is judged on the mean slope across trials. The
    grid, the record length and every alpha are checked before any trial
    is synthesized. Each alpha's ``noise_color_cells`` gives its n_min,
    the answer ``find_n_min`` returns, and its memoized ``cell``, which is
    then asked for every depth in order: the cells the search computed
    are reused, not refitted.
    """
    n_lo, n_hi = check_grid(bit_range, trials)
    check_fit_samples(n_samples)
    for alpha in alphas:
        SynthesisSpec(alpha, n_samples, REFERENCE_RATE_HZ)  # raises on a bad alpha
    cells, n_min = [], {}
    for alpha in alphas:
        cell, n_min[alpha] = noise_color_cells(alpha, bit_range, trials, master_seed, n_samples)
        cells.extend(cell(bits) for bits in range(n_lo, n_hi + 1))
        del cell  # drops this alpha's trials before the next alpha's are synthesized
    return NoiseColorSweepReport(
        alphas=list(alphas),
        bit_range=(n_lo, n_hi),
        trials=trials,
        n_samples=n_samples,
        sample_rate_hz=REFERENCE_RATE_HZ,
        master_seed=master_seed,
        cells=cells,
        n_min=n_min,
    )


@dataclass(frozen=True)
class SensitivityRow:
    delta_alpha: float
    perturbed_alpha: float
    predicted_ratio: float
    rel_error: float


@dataclass(frozen=True)
class SensitivityReport:
    config: ValidationConfig
    measured_ratio: float
    baseline_rel_error: float
    rows: list[SensitivityRow]

    def csv_table(self) -> tuple[list[str], list[list]]:
        header = ["delta_alpha", "perturbed_alpha", "predicted_ratio", "rel_error"]
        return header, [
            [r.delta_alpha, r.perturbed_alpha, r.predicted_ratio, r.rel_error] for r in self.rows
        ]


def run_sensitivity(cfg: ValidationConfig, perturbations: list[float]) -> SensitivityReport:
    """Prediction error when the scaling ratio is computed at alpha + delta.

    The error of each perturbed prediction is taken relative to the
    measured ratio of the unperturbed validation run, so the row at
    delta = 0 reproduces the baseline error.
    """
    for delta in perturbations:
        if cfg.alpha + delta <= 0:
            raise ValidationError(f"perturbation {delta} makes alpha nonpositive")
    measured = run_validation(cfg).measured_ratio_mean

    def row(delta: float) -> SensitivityRow:
        pred = scaling_ratio(cfg.alpha + delta)
        return SensitivityRow(delta, cfg.alpha + delta, pred, abs(pred - measured) / measured)

    rows = [row(delta) for delta in perturbations]
    return SensitivityReport(
        config=cfg, measured_ratio=measured, baseline_rel_error=row(0.0).rel_error, rows=rows
    )


@dataclass(frozen=True)
class PeakRobustnessRow:
    peak: PeakSpec
    mean_rel_error: float
    measured_ratio: float
    error_vs_baseline: float


@dataclass(frozen=True)
class PeakRobustnessReport:
    config: ValidationConfig
    baseline: ValidationReport
    rows: list[PeakRobustnessRow]

    def csv_table(self) -> tuple[list[str], list[list]]:
        header = ["center_hz", "width_hz", "amplitude_factor",
                  "mean_rel_error", "measured_ratio", "error_vs_baseline"]
        return header, [
            [r.peak.center_hz, r.peak.width_hz, r.peak.amplitude_factor,
             r.mean_rel_error, r.measured_ratio, r.error_vs_baseline]
            for r in self.rows
        ]


def run_peak_robustness(base: ValidationConfig, peaks: list[PeakSpec]) -> PeakRobustnessReport:
    """Validation error with each spectral peak injected, one at a time.

    The baseline is the peak-free validation of the same config; with no
    peaks the report reduces to that baseline exactly.
    """
    configs = [replace(base, peaks=(peak,)) for peak in peaks]  # checks every peak first
    baseline = run_validation(replace(base, peaks=()))
    rows = []
    for peak, cfg in zip(peaks, configs):
        report = run_validation(cfg)
        rows.append(
            PeakRobustnessRow(
                peak=peak,
                mean_rel_error=report.mean_error,
                measured_ratio=report.measured_ratio_mean,
                error_vs_baseline=report.mean_error - baseline.mean_error,
            )
        )
    return PeakRobustnessReport(config=base, baseline=baseline, rows=rows)


@dataclass(frozen=True)
class BandPowerRow:
    band: str
    f_low_hz: float
    f_high_hz: float
    power_original: float
    power_quantized: float
    ratio: float
    preserved: bool


@dataclass(frozen=True)
class BandPowerReport:
    bits: int
    full_scale: float
    sample_rate_hz: float
    n_samples: int
    rows: list[BandPowerRow]

    def csv_table(self) -> tuple[list[str], list[list]]:
        header = ["band", "f_low_hz", "f_high_hz", "power_original", "power_quantized", "ratio", "preserved"]
        return header, [
            [r.band, r.f_low_hz, r.f_high_hz, r.power_original, r.power_quantized, r.ratio, r.preserved]
            for r in self.rows
        ]


def run_band_power(
    signal: Signal,
    cfg: QuantizerConfig,
    bands: list[tuple[str, float, float]] | None = None,
) -> BandPowerReport:
    """Quantized-to-original band power ratios from Welch PSDs."""
    check_psd_samples(signal.n_samples)
    if bands is None:
        bands = standard_bands(signal.nyquist_hz)
    for _, f_low, f_high in bands:
        if not (0 < f_low < f_high <= signal.nyquist_hz):
            raise ValidationError(
                f"band ({f_low}, {f_high}) Hz outside (0, {signal.nyquist_hz}] Hz"
            )
    psd_orig = record_psd(signal)
    psd_quant = record_psd(quantize(signal, cfg))
    rows = []
    for name, f_low, f_high in bands:
        p_orig = band_power(psd_orig, f_low, f_high)
        p_quant = band_power(psd_quant, f_low, f_high)
        ratio = p_quant / p_orig
        rows.append(
            BandPowerRow(
                band=name,
                f_low_hz=f_low,
                f_high_hz=f_high,
                power_original=p_orig,
                power_quantized=p_quant,
                ratio=ratio,
                preserved=bool(PRESERVED_RANGE[0] <= ratio <= PRESERVED_RANGE[1]),
            )
        )
    return BandPowerReport(
        bits=cfg.bits,
        full_scale=cfg.full_scale,
        sample_rate_hz=signal.sample_rate_hz,
        n_samples=signal.n_samples,
        rows=rows,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Single-signal analysis: fit, noise color, floors and cutoffs."""

    sample_rate_hz: float
    n_samples: int
    bits: int
    full_scale: float
    alpha_hat: float
    s0_hat: float
    fit_band_hz: tuple[float, float]
    fit_rms_residual: float
    noise_slope: float
    noise_is_white: bool
    saturated_samples: int
    theoretical_floor: float
    empirical_floor: float
    cutoff_theoretical: CutoffEstimate
    cutoff_empirical: CutoffEstimate
    predicted_cutoff_hz: float
    predicted_exceeds_nyquist: bool

    def csv_table(self) -> tuple[list[str], list[list]]:
        return ["field", "value"], [[f.name, getattr(self, f.name)] for f in fields(self)]


def analyze_signal(signal: Signal, cfg: QuantizerConfig) -> AnalysisReport:
    """Run the per-signal pipeline: fit the spectrum, quantize, locate cutoffs."""
    check_fit_samples(signal.n_samples)
    psd = record_psd(signal)
    fit = fit_slope(psd)
    # One quantization feeds both the noise slope and the empirical floor.
    quantized = quantize(signal, cfg)
    noise_slope = error_noise_slope(error_signal(signal, quantized))

    floor_th = theoretical_noise_floor(cfg, signal.sample_rate_hz)
    floor_emp = empirical_noise_floor(record_psd(quantized))
    cut_th = detect_cutoff(psd, floor_th, FLOOR_THEORETICAL)
    cut_emp = detect_cutoff(psd, floor_emp, FLOOR_EMPIRICAL)
    pred_fc = _fitted_cutoff(fit, signal.sample_rate_hz, cfg)

    return AnalysisReport(
        sample_rate_hz=signal.sample_rate_hz,
        n_samples=signal.n_samples,
        bits=cfg.bits,
        full_scale=cfg.full_scale,
        alpha_hat=fit.alpha_hat,
        s0_hat=fit.s0_hat,
        fit_band_hz=fit.fit_band_hz,
        fit_rms_residual=fit.rms_residual,
        noise_slope=noise_slope,
        noise_is_white=is_white(noise_slope),
        saturated_samples=saturation_count(signal, cfg),
        theoretical_floor=floor_th,
        empirical_floor=floor_emp,
        cutoff_theoretical=cut_th,
        cutoff_empirical=cut_emp,
        predicted_cutoff_hz=pred_fc,
        predicted_exceeds_nyquist=not pred_fc <= signal.nyquist_hz,
    )


# Preset configurations for the validation sweeps: alpha = 1.5 at 200 kHz
# (bits 5-6), alpha = 2.0 and 2.5 at 20 kHz (bits 7-12).
VALIDATION_PRESETS: dict[str, ValidationConfig] = {
    "paper-alpha15": ValidationConfig(
        alpha=1.5, sample_rate_hz=200_000.0, n_samples=100_000, bit_range=(5, 6), trials=20
    ),
    "paper-alpha20": ValidationConfig(
        alpha=2.0, sample_rate_hz=20_000.0, n_samples=100_000, bit_range=(7, 12), trials=20
    ),
    "paper-alpha25": ValidationConfig(
        alpha=2.5, sample_rate_hz=20_000.0, n_samples=100_000, bit_range=(7, 12), trials=20
    ),
}

# Base grid of the noise-color sweep and of N_min, as keyword arguments of
# ``run_noise_color_sweep`` without ``alphas``.
NOISE_COLOR_DEFAULTS = {
    "bit_range": (4, 12),
    "trials": 20,
    "n_samples": NOISE_COLOR_N_SAMPLES,
}

# Noise-color sweep presets: table 2 is alpha = 2 over bits 4-8.
NOISE_COLOR_PRESETS = {
    "paper-table2": {**NOISE_COLOR_DEFAULTS, "alphas": [2.0], "bit_range": (4, 8)},
}
