"""Quantization-bandwidth analysis for 1/f^alpha signals."""

__version__ = "0.1.0"

from .errors import (
    EmptySignalError,
    MalformedSampleError,
    NoMeasurableBandError,
    NonFiniteSampleError,
    NoUsableBandError,
    QuantbandError,
    SignalIoError,
    UnreadableFileError,
    ValidationError,
)
from .noise import PeakSpec, Signal, SYNTH_FULL_SCALE, SynthesisSpec, synthesize
from .quantizer import (
    QuantizerConfig,
    error_signal,
    increment_bits,
    quantize,
    quantize_values,
    saturation_count,
    theoretical_noise_floor,
)
from .scaling import (
    CutoffEstimate,
    detect_cutoff,
    find_n_min,
    is_white,
    measure_noise_slope,
    predicted_cutoff,
    scaling_ratio,
)
from .spectral import (
    Psd,
    SpectralFit,
    band_power,
    default_fit_band,
    empirical_noise_floor,
    fit_slope,
    welch_psd,
)

__all__ = [
    "EmptySignalError",
    "MalformedSampleError",
    "NoMeasurableBandError",
    "NonFiniteSampleError",
    "NoUsableBandError",
    "QuantbandError",
    "SignalIoError",
    "UnreadableFileError",
    "ValidationError",
    "PeakSpec",
    "Signal",
    "SYNTH_FULL_SCALE",
    "SynthesisSpec",
    "synthesize",
    "QuantizerConfig",
    "error_signal",
    "increment_bits",
    "quantize",
    "quantize_values",
    "saturation_count",
    "theoretical_noise_floor",
    "CutoffEstimate",
    "detect_cutoff",
    "find_n_min",
    "is_white",
    "measure_noise_slope",
    "predicted_cutoff",
    "scaling_ratio",
    "Psd",
    "SpectralFit",
    "band_power",
    "default_fit_band",
    "empirical_noise_floor",
    "fit_slope",
    "welch_psd",
    "__version__",
]
