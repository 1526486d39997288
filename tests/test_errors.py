import numpy as np
import pytest

from quantband.errors import ValidationError
from quantband.experiments import ValidationConfig
from quantband.io import SignalFileSpec
from quantband.noise import PeakSpec, Signal, SynthesisSpec, reference_rate_scale
from quantband.quantizer import QuantizerConfig, theoretical_noise_floor
from quantband.scaling import detect_cutoff, predicted_cutoff
from quantband.spectral import Psd

CFG = QuantizerConfig(bits=8, full_scale=2.0)
PSD = Psd(np.arange(1.0, 101.0), np.arange(1.0, 101.0) ** -2.0, 1.0)

# Every input that must be positive and finite: (name in the message, call with the value).
POSITIVE_INPUTS = {
    "Signal": ("sample rate", lambda v: Signal(np.zeros(4), v)),
    "SynthesisSpec": ("sample rate", lambda v: SynthesisSpec(1.0, 4096, v)),
    "reference_rate_scale": ("sample rate", lambda v: reference_rate_scale(2.0, v)),
    "theoretical_noise_floor": ("sample rate", lambda v: theoretical_noise_floor(CFG, v)),
    "SignalFileSpec": ("sample rate", lambda v: SignalFileSpec("x.csv", "csv", v)),
    "ValidationConfig": ("sample rate", lambda v: ValidationConfig(2.0, v, 30_000, (5, 6), 3)),
    "predicted_cutoff-alpha": ("alpha", lambda v: predicted_cutoff(v, 1.0, 2000.0, CFG)),
    "predicted_cutoff-s0": ("S_0", lambda v: predicted_cutoff(2.0, v, 2000.0, CFG)),
    "predicted_cutoff-rate": ("sample rate", lambda v: predicted_cutoff(2.0, 1.0, v, CFG)),
    "PeakSpec": ("peak width", lambda v: PeakSpec(100.0, v, 1.0).validate(2000.0)),
    "QuantizerConfig": ("full-scale range", lambda v: QuantizerConfig(8, v)),
    "detect_cutoff": ("floor", lambda v: detect_cutoff(PSD, v)),
}


@pytest.mark.parametrize(
    "value, shown", [(0.0, "0.0"), (-1.0, "-1.0"), (float("nan"), "nan"), (float("inf"), "inf")]
)
@pytest.mark.parametrize("site", POSITIVE_INPUTS)
def test_nonpositive_or_nonfinite_input_message(site, value, shown):
    what, call = POSITIVE_INPUTS[site]
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be positive, got {shown}"


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0, 0.0, 0.0), "alpha must be positive, got 0.0"),
        ((2.0, 0.0, 0.0), "S_0 must be positive, got 0.0"),
        ((2.0, 1.0, 0.0), "sample rate must be positive, got 0.0"),
    ],
)
def test_predicted_cutoff_checks_alpha_then_s0_then_rate(args, message):
    with pytest.raises(ValidationError) as exc:
        predicted_cutoff(*args, CFG)
    assert str(exc.value) == message
