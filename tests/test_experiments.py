import inspect
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from quantband import experiments, noise, quantizer, scaling
from quantband.errors import NoMeasurableBandError, NoUsableBandError, ValidationError
from quantband.experiments import (
    NOISE_COLOR_BASE,
    ValidationConfig,
    analyze_signal,
    run_band_power,
    run_noise_color_sweep,
    run_peak_robustness,
    run_sensitivity,
    run_validation,
    standard_bands,
)
from quantband.noise import (
    REFERENCE_RATE_HZ,
    SYNTH_FULL_SCALE,
    PeakSpec,
    Signal,
    SynthesisSpec,
    synthesize,
)
from quantband.quantizer import QuantizerConfig, theoretical_noise_floor
from quantband.scaling import (
    FLOOR_EMPIRICAL,
    CutoffEstimate,
    NoiseColorConfig,
    find_n_min,
    measure_noise_slope,
    noise_color_cells,
)
from quantband.spectral import SpectralFit

SMALL = ValidationConfig(
    alpha=2.0, sample_rate_hz=2000.0, n_samples=30_000, bit_range=(5, 6), trials=3
)
# A fit that does not fall: its closed-form cutoff is NaN, which never
# drops a depth from validation.
RISING = SpectralFit(slope=0.5, intercept_log10=3.0, fit_band_hz=(1.0, 2.0), rms_residual=0.0)


class TestRunValidation:
    def test_deterministic(self):
        assert run_validation(SMALL) == run_validation(SMALL)

    def test_spectral_shape_is_built_once_per_run(self, monkeypatch):
        calls = []
        build = noise._spectral_shape
        monkeypatch.setattr(noise, "_spectral_shape", lambda spec: calls.append(spec) or build(spec))
        run_validation(SMALL)
        assert calls == [SMALL.spec]

    def test_report_shape(self):
        rep = run_validation(SMALL)
        assert rep.predicted_ratio == 2.0
        assert [b.bits for b in rep.per_bit_cutoffs] == [5, 6]
        assert len(rep.ratios) == 1
        assert rep.ratios[0].n_trials == 3
        assert rep.measured_ratio_mean == pytest.approx(2.0, rel=0.2)

    def test_sample_rate_moves_cutoffs_against_nyquist(self):
        # The level is fixed in physical units, so ten times the rate moves
        # each cutoff by 10^(1/alpha); a level set per signal would move it
        # by 10 and leave every cutoff where it was relative to Nyquist.
        fast = run_validation(replace(SMALL, sample_rate_hz=10 * SMALL.sample_rate_hz))
        for slow_bit, fast_bit in zip(run_validation(SMALL).per_bit_cutoffs, fast.per_bit_cutoffs):
            ratio = fast_bit.mean_f_c_hz / slow_bit.mean_f_c_hz
            assert ratio == pytest.approx(10 ** (1 / SMALL.alpha), rel=0.05)

    def test_traced_peak_does_not_grow_with_trials(self, traced_peak):
        # Every trial synthesizes into the run's one workspace, so 8 trials
        # hold what 2 do, give or take their cutoff rows. The first run
        # pays the FFT's one-time set-up.
        cfg = replace(SMALL, n_samples=50_000)
        traced_peak(run_validation, cfg)
        two, eight = (traced_peak(run_validation, replace(cfg, trials=t)) for t in (2, 8))
        assert eight - two < 8 * cfg.n_samples // 10

    def test_all_bits_beyond_nyquist_raises(self):
        cfg = replace(SMALL, bit_range=(11, 12))
        with pytest.raises(NoMeasurableBandError):
            run_validation(cfg)

    def test_empirical_floor_method_runs(self):
        rep = run_validation(replace(SMALL, floor_method="empirical"))
        assert rep.ratios

    @pytest.mark.parametrize(
        "make",
        [
            lambda bit_range, trials: ValidationConfig(2.0, 2000.0, 30_000, bit_range, trials),
            lambda bit_range, trials: NoiseColorConfig((2.0,), bit_range, trials, 0, 30_000),
            lambda bit_range, trials: find_n_min(2.0, bit_range, trials, 0, 30_000),
        ],
        ids=["config", "noise-color-config", "n_min"],
    )
    @pytest.mark.parametrize(
        "bit_range, trials, message",
        [
            ((6, 5), 3, "invalid bit range (6, 5)"),
            ((0, 5), 3, "invalid bit range (0, 5)"),
            ((5, 6), 0, "trials must be >= 1, got 0"),
            ((4, 30), 3, "invalid bit range (4, 30)"),
            ((30, 31), 3, "invalid bit range (30, 31)"),
        ],
        ids=["reversed", "zero-bits", "zero-trials", "past-max-bits", "all-past-max-bits"],
    )
    def test_invalid_configs_rejected(self, make, bit_range, trials, message):
        with pytest.raises(ValidationError) as exc:
            make(bit_range, trials)
        assert str(exc.value) == message

    def test_one_depth_rejected_by_validation_only(self):
        # One depth has no step ratio; the noise-color grid still searches it.
        with pytest.raises(ValidationError) as exc:
            ValidationConfig(2.0, 2000.0, 30_000, (5, 5), 3)
        assert str(exc.value) == "bit range (5, 5) holds one depth; a step ratio needs two"
        assert NoiseColorConfig((2.0,), (5, 5), 3, 0, 30_000).bit_range == (5, 5)

    def test_unknown_floor_method_rejected(self):
        with pytest.raises(ValidationError):
            ValidationConfig(2.0, 2000.0, 30_000, (5, 6), 3, floor_method="magic")

    def test_rising_fit_keeps_the_depth_that_analyze_flags(self, monkeypatch):
        # A fit that does not fall has no closed-form cutoff (NaN): validate
        # keeps every depth it detects, and analyze flags the missing value.
        monkeypatch.setattr(experiments, "fit_slope", lambda psd: RISING)
        cfg = QuantizerConfig(5, 2.0)
        assert math.isnan(experiments._fitted_cutoff(RISING, SMALL.sample_rate_hz, cfg))
        rep = run_validation(SMALL)
        assert [b.valid_trials for b in rep.per_bit_cutoffs] == [SMALL.trials] * 2
        analysis = analyze_signal(synthesize(SynthesisSpec(2.0, 30_000, 2000.0, seed=12)), cfg)
        assert math.isnan(analysis.predicted_cutoff_hz)
        assert analysis.predicted_exceeds_nyquist

    def test_empirical_floor_is_read_only_at_or_below_nyquist(self, monkeypatch):
        # A depth whose closed-form cutoff, from the trial's fit, exceeds
        # f_s/2 is dropped whatever the floor, so it is never quantized and
        # its floor never read. Here each trial keeps 8 bits, one of three
        # keeps 9, and none keeps 10 or 11.
        cfg = ValidationConfig(2.0, 20_000.0, 30_000, (8, 11), 3, floor_method=FLOOR_EMPIRICAL)
        fit_slope, quantize = experiments.fit_slope, experiments.quantize
        floor = experiments.empirical_noise_floor
        fits, quantized, read = [], [], []  # read[i]: the depths whose floor trial i read

        def recording_fit(psd):
            fits.append(fit_slope(psd))
            read.append([])
            return fits[-1]

        def recording_quantize(signal, qcfg):
            quantized.append(qcfg.bits)
            return quantize(signal, qcfg)

        def recording_floor(psd):
            read[-1].append(quantized[-1])
            return floor(psd)

        monkeypatch.setattr(experiments, "fit_slope", recording_fit)
        monkeypatch.setattr(experiments, "quantize", recording_quantize)
        monkeypatch.setattr(experiments, "empirical_noise_floor", recording_floor)
        run_validation(cfg)
        def fitted(fit, bits):
            return experiments._fitted_cutoff(fit, cfg.sample_rate_hz, QuantizerConfig(bits, 2.0))

        nyquist = cfg.sample_rate_hz / 2.0
        assert read == [[b for b in cfg.bits if not fitted(fit, b) > nyquist] for fit in fits]
        assert sorted(quantized) == sorted(sum(read, [])) == [8, 8, 8, 9]

    def test_aggregation_of_scripted_cutoffs(self, monkeypatch):
        # Cutoffs in Hz per trial (rows) and bit depth 5..9 (columns); "usable"
        # raises NoUsableBandError and "nyquist" flags the crossing at Nyquist.
        script = [
            [10.0, 20.0, 40.0, "usable", "nyquist"],
            [12.0, 30.0, "nyquist", 90.0, "usable"],
            [8.0, 16.0, "usable", 64.0, "nyquist"],
        ]
        cfg = replace(SMALL, bit_range=(5, 9), n_samples=8192)
        bits_at_floor = {
            theoretical_noise_floor(QuantizerConfig(b, 2.0), cfg.sample_rate_hz): b for b in cfg.bits
        }
        calls = {b: 0 for b in cfg.bits}

        def scripted(psd, floor, method):
            bits = bits_at_floor[floor]
            value = script[calls[bits]][bits - 5]
            calls[bits] += 1
            if value == "usable":
                raise NoUsableBandError("scripted")
            exceeded = value == "nyquist"
            return CutoffEstimate(psd.freqs_hz[-1] if exceeded else value, floor, method, exceeded)

        monkeypatch.setattr(experiments, "detect_cutoff", scripted)
        monkeypatch.setattr(experiments, "fit_slope", lambda psd: RISING)
        rep = run_validation(cfg)

        stats = [(b.bits, b.mean_f_c_hz, b.std_f_c_hz, b.valid_trials, b.excluded)
                 for b in rep.per_bit_cutoffs]
        assert stats == [
            (5, pytest.approx(10.0), pytest.approx(math.sqrt(8 / 3)), 3, False),
            (6, pytest.approx(22.0), pytest.approx(math.sqrt(104 / 3)), 3, False),
            (7, 40.0, 0.0, 1, False),
            (8, 77.0, 13.0, 2, False),
            (9, None, None, 0, True),
        ]
        assert rep.excluded_bits == [9]
        # A ratio counts only in trials that kept both depths: 6 -> 7 pairs
        # trial 0 alone, and 7 -> 8 pairs no trial, so it has no step.
        steps = [(s.bits_low, s.bits_high, s.n_trials, s.mean_ratio) for s in rep.ratios]
        assert steps == [(5, 6, 3, pytest.approx(6.5 / 3)), (6, 7, 1, 2.0)]
        assert rep.measured_ratio_mean == pytest.approx(8.5 / 4)


class TestRunSensitivity:
    def test_zero_perturbation_matches_baseline(self):
        rep = run_sensitivity(SMALL, [-0.2, 0.0, 0.2])
        zero_row = next(r for r in rep.rows if r.delta_alpha == 0.0)
        assert zero_row.rel_error == rep.baseline_rel_error

    def test_error_formula(self):
        rep = run_sensitivity(SMALL, [0.5])
        row = rep.rows[0]
        expected = abs(2.0 ** (2.0 / 2.5) - rep.measured_ratio) / rep.measured_ratio
        assert row.rel_error == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValidationError):
            run_sensitivity(SMALL, [-2.0])


class TestRunPeakRobustness:
    def test_peak_free_equals_validation(self):
        rep = run_peak_robustness(SMALL, [])
        assert rep.baseline == run_validation(SMALL)
        assert rep.rows == []

    def test_zero_amplitude_peak_matches_baseline(self):
        rep = run_peak_robustness(SMALL, [PeakSpec(100.0, 10.0, 0.0)])
        assert rep.rows[0].mean_rel_error == rep.baseline.mean_error
        assert rep.rows[0].error_vs_baseline == 0.0

    def test_peak_rejected_for_rate(self):
        with pytest.raises(ValidationError):
            run_peak_robustness(SMALL, [PeakSpec(999.0, 10.0, 1.0)])


class TestRunNoiseColorSweep:
    def test_grid_and_n_min(self):
        rep = run_noise_color_sweep(
            NoiseColorConfig((0.0, 1.0), (4, 5), trials=2, master_seed=5, n_samples=30_000)
        )
        assert len(rep.cells) == 4
        assert rep.n_min[0.0] == 4  # white input is white at any depth
        assert all(c.is_white for c in rep.cells if c.alpha == 0.0)

    def test_deterministic(self):
        cfg = NoiseColorConfig((1.0,), (4, 4), trials=2, master_seed=5, n_samples=30_000)
        assert run_noise_color_sweep(cfg) == run_noise_color_sweep(cfg)

    @pytest.mark.parametrize("alpha", [2.0, 2.5])
    def test_n_min_matches_find_n_min(self, alpha):
        # At these settings alpha 2 turns white at 7 bits; alpha 2.5 never does.
        r, trials, n, seed = (4, 8), 2, 30_000, 5
        sweep = run_noise_color_sweep(NoiseColorConfig((alpha,), r, trials, seed, n))
        assert find_n_min(alpha, r, trials, seed, n) == sweep.n_min[alpha]

    @pytest.mark.parametrize("n, seed", [(25_000, 31), (50_000, 62)])
    def test_guided_n_min_is_the_first_white_depth_of_the_full_table(self, n, seed):
        # Whiteness is upward-closed in depth at these lengths, so the
        # search from ceil(b - N_MIN_OFFSET) lands where a scan up from
        # the bottom does, whatever its start.
        alphas, r, trials = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (1, 16), 2
        sweep = run_noise_color_sweep(NoiseColorConfig(alphas, r, trials, seed, n))
        for alpha in alphas:
            linear = next((c.bits for c in sweep.cells if c.alpha == alpha and c.is_white), None)
            assert linear is not None
            assert sweep.n_min[alpha] == linear, alpha
            assert find_n_min(alpha, r, trials, seed, n) == linear, alpha

    def test_short_record_n_min_is_the_guided_answer(self):
        # A 300-sample record is one Welch segment: its mean slopes are
        # noisy enough that whiteness is not upward-closed in depth. Here
        # 1 and 4 bits are white and 2-3 are not; the search starts at 2
        # and steps up to 4, and the sweep answers the same.
        r, trials, seed, n = (1, 18), 3, 0, 300
        sweep = run_noise_color_sweep(NoiseColorConfig((1.5,), r, trials, seed, n))
        white = [c.bits for c in sweep.cells if c.is_white]
        assert white[:2] == [1, 4]
        assert sweep.n_min[1.5] == find_n_min(1.5, r, trials, seed, n) == 4

    def test_each_cell_is_fitted_once(self, monkeypatch):
        # The sweep reads every depth through the cells its N_min search
        # already computed: one slope fit per (alpha, bits, trial).
        alphas, r, trials, seed, n = (1.5, 2.5), (1, 8), 2, 77, 4096
        calls = []
        fit = scaling.measure_noise_slope
        monkeypatch.setattr(
            scaling, "measure_noise_slope", lambda sig, cfg: calls.append(cfg) or fit(sig, cfg)
        )
        sweep = run_noise_color_sweep(NoiseColorConfig(alphas, r, trials, seed, n))
        assert len(calls) == len(alphas) * 8 * trials
        assert len(sweep.cells) == len(alphas) * 8
        monkeypatch.undo()
        for alpha in alphas:
            assert sweep.n_min[alpha] == find_n_min(alpha, r, trials, seed, n), alpha

    @pytest.mark.parametrize(
        "alpha, r, trials, seed, n", [(1.5, (3, 6), 3, 40, 4096), (2.5, (5, 9), 2, 8, 5001)]
    )
    def test_cells_equal_those_of_one_shot_synthesis(self, alpha, r, trials, seed, n):
        # The trials are synthesized through one workspace into one array;
        # each cell's mean slope is that of one-shot syntheses, bit for bit.
        cell, _ = noise_color_cells(NoiseColorConfig((alpha,), r, trials, seed, n), alpha)
        signals = [
            synthesize(SynthesisSpec(alpha, n, REFERENCE_RATE_HZ, seed=seed + i))
            for i in range(trials)
        ]
        for bits in range(r[0], r[1] + 1):
            cfg = QuantizerConfig(bits=bits, full_scale=SYNTH_FULL_SCALE)
            expected = float(np.mean([measure_noise_slope(sig, cfg) for sig in signals]))
            assert cell(bits).noise_slope == expected, bits

    def test_spectral_shape_is_built_once_per_alpha(self, monkeypatch):
        alphas = [0.5, 1.5, 2.5]
        calls = []
        build = noise._spectral_shape
        monkeypatch.setattr(
            noise, "_spectral_shape", lambda spec: calls.append(spec.alpha) or build(spec)
        )
        run_noise_color_sweep(NoiseColorConfig(alphas, (4, 6), 3, master_seed=1, n_samples=4096))
        assert calls == alphas

    @pytest.mark.parametrize("trials", [1, 3, 5])
    def test_worker_count_changes_no_number(self, trials, monkeypatch):
        # Trials and slopes are split over min(cores, trials) workers, the
        # calling thread one of them; each slope has its own slot, and the
        # mean is taken in trial order. The threads switch every microsecond,
        # so a lost or misplaced write would show.
        cfg = NoiseColorConfig((1.5, 2.5), (3, 7), trials, master_seed=21, n_samples=4096)
        fit, calls = scaling.measure_noise_slope, []
        monkeypatch.setattr(
            scaling,
            "measure_noise_slope",
            lambda sig, qcfg: calls.append((qcfg, threading.current_thread())) or fit(sig, qcfg),
        )
        runs = []
        for cores in (1, 2, 3, 8):
            monkeypatch.setattr(noise, "_cores", lambda: cores)
            calls.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                sweep = run_noise_color_sweep(cfg)
                answers = [find_n_min(a, cfg.bit_range, trials, 21, 4096) for a in cfg.alphas]
            finally:
                sys.setswitchinterval(interval)
            runs.append((sweep, answers))
            # Each cell has a config of its own; these are its workers.
            workers = {}
            for qcfg, thread in calls:
                workers.setdefault(id(qcfg), set()).add(thread)
            for threads in workers.values():
                assert len(threads) == min(cores, trials)
                assert threading.current_thread() in threads
        for sweep, answers in runs[1:]:
            assert sweep == runs[0][0]
            assert answers == runs[0][1] == list(sweep.n_min.values())

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_a_failing_slope_raises_the_serial_error(self, cores, monkeypatch):
        # Trials 2 to 4 all fail. At three workers, trials 1-2 and 3-4 each
        # fail on a thread of their own; trial 2's error surfaces, the one
        # a serial loop raises.
        cfg = NoiseColorConfig((2.0,), (4, 6), trials=5, master_seed=3, n_samples=4096)
        trial_of = {row[0]: i for i, row in enumerate(noise.trial_block(cfg.spec(2.0), 5))}
        assert len(trial_of) == 5
        fit = scaling.measure_noise_slope

        def failing(sig, qcfg):
            i = trial_of[sig.samples[0]]
            if i >= 2:
                raise RuntimeError(f"trial {i}")
            return fit(sig, qcfg)

        monkeypatch.setattr(noise, "_cores", lambda: cores)
        monkeypatch.setattr(scaling, "measure_noise_slope", failing)
        with pytest.raises(RuntimeError, match="^trial 2$"):
            run_noise_color_sweep(cfg)

    def test_traced_peak_holds_one_alpha_at_a_time(self, traced_peak):
        # Each alpha's (trials, n) block is dropped before the next alpha's
        # is synthesized, so three alphas hold what one does, give or take
        # a record. The first run pays the FFT's one-time set-up.
        one = NoiseColorConfig((1.0,), (4, 5), trials=4, master_seed=1, n_samples=50_000)
        three = replace(one, alphas=(1.0, 2.0, 3.0))
        traced_peak(run_noise_color_sweep, one)
        one_peak, three_peak = (traced_peak(run_noise_color_sweep, cfg) for cfg in (one, three))
        assert three_peak - one_peak < 8 * one.n_samples

    def test_defaults_are_the_cli_base(self):
        params = inspect.signature(find_n_min).parameters
        assert params["n_samples"].default == NOISE_COLOR_BASE.n_samples


class TestRunBandPower:
    def make_signal(self, n=8192, seed=1):
        return synthesize(SynthesisSpec(1.56, n, 160.0, seed=seed))

    def test_high_bits_preserve_everything(self):
        rep = run_band_power(self.make_signal(), QuantizerConfig(16, 2.0))
        for row in rep.rows:
            assert 0.99 <= row.ratio <= 1.01
            assert row.preserved

    def test_band_names_and_edges(self):
        rep = run_band_power(self.make_signal(), QuantizerConfig(8, 2.0))
        assert [r.band for r in rep.rows] == ["delta", "theta", "alpha", "beta", "gamma"]
        assert rep.rows[-1].f_high_hz == 80.0

    def test_rescaling_invariance(self):
        # Scaling the signal by 2 with the range scaled the same way
        # leaves every band ratio untouched (bit-exact for powers of 2).
        sig = self.make_signal()
        doubled = Signal(2.0 * sig.samples, sig.sample_rate_hz)
        a = run_band_power(sig, QuantizerConfig(6, 2.0))
        b = run_band_power(doubled, QuantizerConfig(6, 4.0))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.ratio == pytest.approx(rb.ratio, rel=1e-12)

    def test_band_outside_nyquist_rejected(self):
        with pytest.raises(ValidationError):
            run_band_power(
                self.make_signal(), QuantizerConfig(8, 2.0), bands=[("bad", 10.0, 200.0)]
            )

    def test_standard_bands_requires_room(self):
        with pytest.raises(ValidationError):
            standard_bands(25.0)
        bands = standard_bands(80.0)
        assert bands[-1] == ("gamma", 30.0, 80.0)


class TestAnalyzeSignal:
    def test_pipeline_self_consistency(self):
        sig = synthesize(SynthesisSpec(2.0, 65_536, 2000.0, seed=12))
        rep = analyze_signal(sig, QuantizerConfig(8, 2.0))
        assert rep.alpha_hat == pytest.approx(2.0, abs=0.1)
        assert rep.saturated_samples == 0
        assert rep.theoretical_floor == pytest.approx(5.0862630208e-09, rel=1e-9)
        # Detected cutoff consistent with the closed form at the fitted
        # parameters, when measurable.
        if not rep.cutoff_theoretical.exceeded_nyquist:
            assert rep.cutoff_theoretical.f_c_hz == pytest.approx(
                rep.predicted_cutoff_hz, rel=0.15
            )

    def test_odd_short_record_fits_up_to_a_quarter_of_the_rate(self):
        # An odd record under one default segment is estimated in one even
        # segment, so the PSD reaches Nyquist and the fit band fs / 4.
        sig = synthesize(SynthesisSpec(1.56, 4095, 160.0, seed=1))
        rep = analyze_signal(sig, QuantizerConfig(8, 2.0))
        assert rep.fit_band_hz[1] == 40.0

    def test_low_bits_flag_colored_noise(self):
        sig = synthesize(SynthesisSpec(2.0, 65_536, 2000.0, seed=12))
        rep = analyze_signal(sig, QuantizerConfig(4, 2.0))
        assert not rep.noise_is_white

    def test_quantizes_once(self, monkeypatch):
        sig = synthesize(SynthesisSpec(2.0, 65_536, 2000.0, seed=12))
        cfg = QuantizerConfig(6, 2.0)
        calls = []

        def counting(values, c):
            calls.append(c)
            return original(values, c)

        original = quantizer.quantize_values
        monkeypatch.setattr(quantizer, "quantize_values", counting)
        rep = analyze_signal(sig, cfg)
        assert calls == [cfg]
        # The shared quantization gives the slope measure_noise_slope gives.
        assert rep.noise_slope == measure_noise_slope(sig, cfg)
