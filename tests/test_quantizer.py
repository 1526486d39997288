import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantband.errors import ValidationError
from quantband.noise import Signal, SynthesisSpec, synthesize
from quantband.quantizer import (
    MAX_BITS,
    MAX_FULL_SCALE,
    QuantizerConfig,
    error_signal,
    increment_bits,
    quantize,
    quantize_values,
    saturation_count,
    theoretical_noise_floor,
)
from quantband.spectral import fit_slope, welch_psd


def nearest_level(x: float, cfg: QuantizerConfig) -> float:
    """Brute-force oracle: enumerate all 2^N mid-rise levels, pick nearest."""
    half = 2 ** (cfg.bits - 1)
    levels = np.array([(k + 0.5) * cfg.step for k in range(-half, half)])
    return levels[np.argmin(np.abs(levels - x))]


class TestQuantize:
    def test_example_midpoint(self):
        cfg = QuantizerConfig(bits=2, full_scale=2.0)
        assert quantize_values(np.array([0.3]), cfg)[0] == nearest_level(0.3, cfg) == 0.25

    def test_level_is_fixed_point(self):
        cfg = QuantizerConfig(bits=2, full_scale=2.0)
        assert quantize_values(np.array([0.25]), cfg)[0] == 0.25

    def test_saturation(self):
        cfg = QuantizerConfig(bits=2, full_scale=2.0)
        assert quantize_values(np.array([5.0]), cfg)[0] == nearest_level(5.0, cfg) == 0.75
        assert quantize_values(np.array([-5.0]), cfg)[0] == -0.75

    @given(
        bits=st.integers(1, 12),
        values=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=64),
    )
    def test_matches_enumeration_oracle(self, bits, values):
        cfg = QuantizerConfig(bits=bits, full_scale=2.0)
        got = quantize_values(np.array(values), cfg)
        want = [nearest_level(v, cfg) for v in values]
        # Boundary ties may fall either way in the oracle; the distance to
        # the chosen level must never exceed the nearest-level distance.
        assert np.allclose(np.abs(got - values), np.abs(np.array(want) - values), atol=1e-15)

    @given(
        bits=st.integers(1, 16),
        full_scale=st.floats(0.1, 100.0),
        values=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=64),
    )
    def test_matches_closed_form(self, bits, full_scale, values):
        # The in-place steps give the floats of the plain expression.
        cfg = QuantizerConfig(bits=bits, full_scale=full_scale)
        x = np.array(values)
        half = 2 ** (bits - 1)
        want = (np.clip(np.floor(x / cfg.step), -half, half - 1) + 0.5) * cfg.step
        assert np.array_equal(quantize_values(x, cfg), want)
        assert np.array_equal(x, values)  # the input is left alone

    def test_zero_dimensional_input(self):
        cfg = QuantizerConfig(bits=2, full_scale=2.0)
        assert quantize_values(np.float64(0.3), cfg) == 0.25

    @given(
        bits=st.integers(1, 16),
        full_scale=st.floats(0.1, 100.0),
        values=st.lists(st.floats(-200.0, 200.0), min_size=2, max_size=64),
    )
    def test_idempotent(self, bits, full_scale, values):
        cfg = QuantizerConfig(bits=bits, full_scale=full_scale)
        once = quantize_values(np.array(values), cfg)
        assert np.array_equal(quantize_values(once, cfg), once)

    @given(
        bits=st.integers(1, 16),
        pairs=st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=32
        ),
    )
    def test_monotone(self, bits, pairs):
        cfg = QuantizerConfig(bits=bits, full_scale=2.0)
        for a, b in pairs:
            lo, hi = min(a, b), max(a, b)
            q = quantize_values(np.array([lo, hi]), cfg)
            assert q[0] <= q[1]

    def test_error_bound_in_range(self):
        rng = np.random.default_rng(0)
        cfg = QuantizerConfig(bits=6, full_scale=2.0)
        x = rng.uniform(-1.0, 1.0, 10_000)
        e = quantize_values(x, cfg) - x
        assert np.all(np.abs(e) <= cfg.step / 2 + 1e-15)

    def test_signal_wrapper_keeps_rate(self):
        sig = Signal(np.linspace(-1, 1, 100), 500.0)
        q = quantize(sig, QuantizerConfig(bits=4, full_scale=2.0))
        assert q.sample_rate_hz == 500.0
        assert q.n_samples == 100

    def test_saturation_count(self):
        cfg = QuantizerConfig(bits=4, full_scale=2.0)
        sig = Signal(np.array([0.0, 0.5, 1.5, -3.0]), 100.0)
        assert saturation_count(sig, cfg) == 2

    @given(
        st.lists(
            st.one_of(
                st.floats(-4.0, 4.0),
                st.sampled_from([-1.5, 1.5, -0.0, 0.0, np.nextafter(1.5, 2), -1e300, 1e300]),
            ),
            min_size=2,
            max_size=50,
        )
    )
    def test_saturation_count_counts_what_abs_counts(self, values):
        # +-R/2 itself and -0.0 are inside the range; R/2 = 1.5 here.
        cfg = QuantizerConfig(bits=3, full_scale=3.0)
        x = np.array(values, dtype=np.float64)
        assert saturation_count(Signal(x, 100.0), cfg) == np.count_nonzero(np.abs(x) > 1.5)

    @pytest.mark.parametrize("full_scale", [2.0, 3.7, 1e-3])
    @pytest.mark.parametrize("bits", range(1, 20))
    def test_doubling_the_input_costs_one_bit_exactly(self, bits, full_scale):
        # With |x| < R/4 nothing saturates at either depth, and every step
        # of the quantizer scales by a power of two: bit for bit equal.
        rng = np.random.default_rng(bits)
        quarter = full_scale / 4
        finer = QuantizerConfig(bits + 1, full_scale)
        edges = rng.integers(-(2 ** (bits - 1)) + 1, 2 ** (bits - 1), 512) * finer.step
        x = np.concatenate([rng.uniform(-quarter, quarter, 4096), edges])
        assert np.all(np.abs(x) < quarter)
        coarse = quantize_values(2 * x, QuantizerConfig(bits, full_scale)) / 2
        assert np.array_equal(coarse, quantize_values(x, finer))


class TestErrorSignal:
    def test_zero_for_identical(self):
        sig = Signal(np.linspace(-1, 1, 64), 100.0)
        err = error_signal(sig, sig)
        assert np.all(err.samples == 0)

    def test_length_mismatch_rejected(self):
        a = Signal(np.zeros(10), 100.0)
        b = Signal(np.zeros(12), 100.0)
        with pytest.raises(ValidationError):
            error_signal(a, b)

    def test_rate_mismatch_rejected(self):
        a = Signal(np.zeros(10), 100.0)
        b = Signal(np.zeros(10), 200.0)
        with pytest.raises(ValidationError):
            error_signal(a, b)

    def test_out_takes_the_error_in_place(self):
        cfg = QuantizerConfig(bits=6, full_scale=2.0)
        sig = synthesize(SynthesisSpec(2.0, 4096, 2000.0, seed=3))
        quantized = quantize(sig, cfg)
        err = error_signal(sig, quantized, out=quantized.samples)
        assert err.samples is quantized.samples
        assert np.array_equal(err.samples, error_signal(sig, quantize(sig, cfg)).samples)

    def test_bennett_variance_on_colored_signal(self):
        cfg = QuantizerConfig(bits=8, full_scale=2.0)
        sig = synthesize(SynthesisSpec(2.0, 100_000, 2000.0, seed=3))
        err = error_signal(sig, quantize(sig, cfg))
        assert err.samples.var() == pytest.approx(cfg.step**2 / 12, rel=0.2)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_bennett_white_input(self, bits):
        # Full-scale white input: error variance near delta^2/12, flat PSD.
        rng = np.random.default_rng(42)
        cfg = QuantizerConfig(bits=bits, full_scale=2.0)
        sig = Signal(rng.uniform(-1.0, 1.0, 100_000), 2000.0)
        err = error_signal(sig, quantize(sig, cfg))
        assert 0.8 * cfg.step**2 / 12 <= err.samples.var() <= 1.2 * cfg.step**2 / 12
        assert abs(fit_slope(welch_psd(err)).slope) < 0.1


class TestIncrementBits:
    def test_hand_example(self):
        # Increments +1, -1, +1: rms 1, so b = log2(R).
        assert increment_bits(Signal(np.array([0.0, 1.0, 0.0, 1.0]), 100.0), 8.0) == 3.0

    def test_constant_record_reads_inf(self):
        assert increment_bits(Signal(np.full(16, 0.25), 100.0), 2.0) == np.inf

    def test_unchanged_by_an_added_constant(self):
        sig = synthesize(SynthesisSpec(2.0, 4096, 2000.0, seed=9))
        shifted = Signal(sig.samples + 0.3, sig.sample_rate_hz)
        assert increment_bits(shifted, 2.0) == pytest.approx(increment_bits(sig, 2.0), abs=1e-9)

    @given(
        n=st.integers(2, 5000),
        seed=st.integers(0, 2**32 - 1),
        log10_level=st.floats(-100.0, 100.0),
        full_scale=st.floats(1e-3, 1e3),
    )
    def test_matches_the_rms_of_the_increments(self, n, seed, log10_level, full_scale):
        x = 10.0**log10_level * np.random.default_rng(seed).standard_normal(n).cumsum()
        b = increment_bits(Signal(x, 100.0), full_scale)
        assert b == pytest.approx(
            np.log2(full_scale / np.sqrt(np.mean(np.diff(x) ** 2))), abs=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 3.0])
    def test_halving_the_record_adds_one_bit(self, alpha):
        sig = synthesize(SynthesisSpec(alpha, 4096, 2000.0, seed=9))
        half = Signal(sig.samples / 2, sig.sample_rate_hz)
        assert increment_bits(half, 2.0) == pytest.approx(increment_bits(sig, 2.0) + 1, abs=1e-12)


class TestTheoreticalNoiseFloor:
    def test_hand_computed_example(self):
        cfg = QuantizerConfig(bits=8, full_scale=2.0)
        assert cfg.step == 0.0078125
        # delta^2 / (6 f_s) = 6.103515625e-05 / 12000
        assert theoretical_noise_floor(cfg, 2000.0) == pytest.approx(
            5.0862630208333e-09, rel=1e-12
        )

    def test_extra_bit_divides_by_four(self):
        a = theoretical_noise_floor(QuantizerConfig(6, 2.0), 2000.0)
        b = theoretical_noise_floor(QuantizerConfig(7, 2.0), 2000.0)
        assert a == 4.0 * b

    def test_doubling_rate_halves_floor(self):
        cfg = QuantizerConfig(bits=8, full_scale=2.0)
        assert theoretical_noise_floor(cfg, 2000.0) == 2.0 * theoretical_noise_floor(cfg, 4000.0)


class TestQuantizerConfig:
    @pytest.mark.parametrize("bits", [0, 25, -3])
    def test_bits_out_of_range(self, bits):
        with pytest.raises(ValidationError):
            QuantizerConfig(bits=bits, full_scale=2.0)

    @pytest.mark.parametrize("full_scale", [0.0, -1.0, float("inf")])
    def test_bad_range(self, full_scale):
        with pytest.raises(ValidationError):
            QuantizerConfig(bits=8, full_scale=full_scale)

    def test_range_past_max_full_scale_named(self):
        with pytest.raises(ValidationError, match=r"at most 1e\+100, got 1e\+200"):
            QuantizerConfig(bits=8, full_scale=1e200)

    @pytest.mark.parametrize("bits", [1, MAX_BITS])
    def test_floor_and_psd_finite_at_max_full_scale(self, bits):
        # A full-scale square wave at the Nyquist frequency is the largest
        # Welch PSD a quantized record can have.
        cfg = QuantizerConfig(bits=bits, full_scale=MAX_FULL_SCALE)
        assert np.isfinite(theoretical_noise_floor(cfg, 1e-3))
        x = np.tile([1.0, -1.0], 50_000) * MAX_FULL_SCALE
        with np.errstate(all="raise"):
            assert np.isfinite(welch_psd(quantize(Signal(x, 2000.0), cfg)).power).all()

    def test_step(self):
        assert QuantizerConfig(bits=1, full_scale=2.0).step == 1.0
        assert QuantizerConfig(bits=24, full_scale=2.0).step == 2.0 / 2**24
