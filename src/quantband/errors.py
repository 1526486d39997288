"""Exception types shared across the package."""

import numpy as np


class QuantbandError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QuantbandError, ValueError):
    """An input spec or config violates its invariants."""


def check_positive(value, what: str) -> None:
    """Raise ValidationError unless ``value`` is positive and finite."""
    if not (value > 0 and np.isfinite(value)):
        raise ValidationError(f"{what} must be positive, got {value}")


class NoUsableBandError(QuantbandError):
    """The noise floor sits above the entire PSD; the signal is fully buried."""


class NoMeasurableBandError(QuantbandError):
    """Every bit depth in a validation run was Nyquist-excluded."""


class SignalIoError(QuantbandError):
    """Base class for signal file read/write failures."""

    def __init__(self, message: str, path=None, location=None):
        self.path = str(path) if path is not None else None
        self.location = location
        prefix = f"{self.path}: " if self.path else ""
        suffix = f" ({location})" if location else ""
        super().__init__(f"{prefix}{message}{suffix}")


class UnreadableFileError(SignalIoError):
    """The file does not exist or cannot be opened/decoded."""


class MalformedSampleError(SignalIoError):
    """A row or byte range could not be parsed as a sample."""


class NonFiniteSampleError(SignalIoError):
    """A parsed sample is NaN or infinite."""


class EmptySignalError(SignalIoError):
    """The file contains no samples."""
