import hashlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import quantband.cli
import quantband.experiments
import quantband.scaling
from quantband.cli import build_parser, main
from quantband.experiments import ValidationConfig
from quantband.noise import PeakSpec

REPO = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_deterministic_output_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.f64", tmp_path / "b.f64"
        for out in (a, b):
            code, _, _ = run(
                capsys, "synth", "--alpha", "2", "--n", "4096",
                "--fs", "2000", "--seed", "7", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_bytes_pinned(self, tmp_path, capsys):
        # Recorded with the per-sample f-string writer; it also pins the
        # synthesis, so a change to numpy's RNG or FFT moves it too.
        out = tmp_path / "x.csv"
        code, _, _ = run(
            capsys, "synth", "--alpha", "2", "--n", "100000",
            "--fs", "2000", "--seed", "11", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a88a45d6cf6f8669405e5f252655c85524ef2d31937e20a4d61effb8739d9054"
        )

    def test_negative_alpha_exits_two(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--alpha", "-1", "--n", "4096",
            "--fs", "2000", "--out", str(tmp_path / "x.f64"),
        )
        assert code == 2
        assert "alpha" in err

    def test_peak_flag_changes_output(self, tmp_path, capsys):
        plain, peaked = tmp_path / "p.f64", tmp_path / "q.f64"
        run(capsys, "synth", "--alpha", "2", "--n", "4096", "--fs", "2000",
            "--seed", "7", "--out", str(plain))
        code, _, _ = run(
            capsys, "synth", "--alpha", "2", "--n", "4096", "--fs", "2000",
            "--seed", "7", "--peak", "10:1:50", "--out", str(peaked),
        )
        assert code == 0
        assert plain.read_bytes() != peaked.read_bytes()

    def test_peak_flag_grammar(self):
        from quantband.cli import _parse_peak
        from quantband.noise import PeakSpec

        assert _parse_peak("10:1:50") == PeakSpec(
            center_hz=10.0, width_hz=1.0, amplitude_factor=50.0
        )

    def test_malformed_peak_exits_two(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--alpha", "2", "--n", "4096", "--fs", "2000",
            "--peak", "10:1", "--out", str(tmp_path / "x.f64"),
        )
        assert code == 2
        assert "peak" in err

    def test_csv_extension_selects_csv(self, tmp_path, capsys):
        out = tmp_path / "sig.csv"
        run(capsys, "synth", "--alpha", "1", "--n", "64", "--fs", "100", "--out", str(out))
        values = [float(line) for line in out.read_text().splitlines()]
        assert len(values) == 64

    def test_quiet_prints_only_path(self, tmp_path, capsys):
        out = tmp_path / "sig.f64"
        code, stdout, _ = run(
            capsys, "synth", "--alpha", "1", "--n", "64", "--fs", "100",
            "--out", str(out), "--quiet",
        )
        assert code == 0
        assert stdout.strip() == str(out)


class TestAnalyze:
    @pytest.fixture()
    def alpha2_file(self, tmp_path, capsys):
        out = tmp_path / "sig.f64"
        run(capsys, "synth", "--alpha", "2", "--n", "65536", "--fs", "2000",
            "--seed", "3", "--out", str(out))
        return out

    def test_recovers_alpha(self, alpha2_file, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--in", str(alpha2_file), "--fs", "2000",
            "--bits", "8", "--range", "2",
        )
        assert code == 0
        line = next(l for l in stdout.splitlines() if l.startswith("fitted alpha"))
        assert float(line.split(":")[1]) == pytest.approx(2.0, abs=0.1)

    def test_low_bits_reported_colored(self, alpha2_file, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--in", str(alpha2_file), "--fs", "2000",
            "--bits", "4", "--range", "2",
        )
        assert code == 0
        assert "colored" in stdout

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "analyze", "--in", str(tmp_path / "missing.f64"),
            "--fs", "2000", "--bits", "8",
        )
        assert code == 1
        assert "missing.f64" in err

    def test_overflowing_closed_form_reads_inf(self, tmp_path, capsys):
        # White noise fits a nearly flat slope, so 2^(2N/alpha) overflows.
        sig, out = tmp_path / "w.f64", tmp_path / "w.json"
        run(capsys, "synth", "--alpha", "0", "--n", "20000", "--fs", "1000",
            "--seed", "3", "--out", str(sig))
        code, stdout, _ = run(
            capsys, "analyze", "--in", str(sig), "--fs", "1000", "--bits", "8", "--out", str(out),
        )
        assert code == 0
        assert "f_c (closed form):  inf Hz [beyond Nyquist]" in stdout.splitlines()
        report = json.loads(out.read_text())["report"]
        assert report["predicted_cutoff_hz"] is None
        assert report["predicted_exceeds_nyquist"] is True

    def test_huge_range_exits_two_naming_it(self, alpha2_file, capsys):
        # The squares of a 1e200 range overflowed inside the Welch PSD.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(
                capsys, "analyze", "--in", str(alpha2_file), "--fs", "2000",
                "--bits", "8", "--range", "1e200",
            )
        assert (code, stdout, err) == (
            2, "", "error: full-scale range must be at most 1e+100, got 1e+200\n"
        )

    def test_json_report_written(self, alpha2_file, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        code, _, _ = run(
            capsys, "analyze", "--in", str(alpha2_file), "--fs", "2000",
            "--bits", "8", "--range", "2", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["bits"] == 8


class TestExperimentCommands:
    def test_validate_small_run(self, tmp_path, capsys):
        out = tmp_path / "val.json"
        code, stdout, _ = run(
            capsys, "validate", "--alpha", "2", "--fs", "2000", "--n", "30000",
            "--bits", "5:6", "--trials", "3", "--out", str(out),
        )
        assert code == 0
        assert "measured ratio" in stdout
        payload = json.loads(out.read_text())
        assert payload["report"]["predicted_ratio"] == 2.0

    @pytest.mark.parametrize("command", ["validate", "sensitivity", "peaks"])
    @pytest.mark.parametrize("n, exit_code", [(3000, 0), (40, 2)])
    def test_record_shorter_than_one_segment(self, command, n, exit_code, tmp_path, capsys):
        # 3000 samples are fewer than one 4096-sample Welch segment; the
        # PSD is then estimated from one segment of the whole record. Under
        # 76 samples the default fit band holds fewer than MIN_FIT_BINS bins.
        code, _, err = run(
            capsys, command, "--n", str(n), "--trials", "3", "--out", str(tmp_path / "r.json")
        )
        assert code == exit_code, err

    def test_validate_quiet_prints_path_only(self, tmp_path, capsys):
        out = tmp_path / "val.json"
        code, stdout, _ = run(
            capsys, "validate", "--alpha", "2", "--fs", "2000", "--n", "30000",
            "--bits", "5:6", "--trials", "2", "--out", str(out), "--quiet",
        )
        assert code == 0
        assert stdout.strip() == str(out)

    def test_validate_identical_payload_modulo_timestamp(self, tmp_path, capsys):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            run(capsys, "validate", "--alpha", "2", "--fs", "2000", "--n", "30000",
                "--bits", "5:6", "--trials", "2", "--seed", "99", "--out", str(out))
        payloads = [json.loads(p.read_text()) for p in outs]
        for p in payloads:
            p["metadata"].pop("created_utc")
        assert payloads[0] == payloads[1]

    def test_validate_unknown_preset_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", "--preset", "nope", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "preset" in err

    def test_validate_preset_alpha20_band(self, tmp_path, capsys):
        out = tmp_path / "preset.json"
        code, _, _ = run(capsys, "validate", "--preset", "paper-alpha20", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert 1.94 <= payload["report"]["measured_ratio_mean"] <= 2.06

    def test_noise_color_small(self, tmp_path, capsys):
        out = tmp_path / "nc.csv"
        code, stdout, _ = run(
            capsys, "noise-color", "--alpha", "1", "--bits", "4:5", "--trials", "2",
            "--n", "30000", "--out", str(out), "--format", "csv",
        )
        assert code == 0
        assert "N_min" in stdout
        assert out.read_text().splitlines()[0] == "alpha,bits,noise_slope,is_white"

    def test_sensitivity_small(self, tmp_path, capsys):
        out = tmp_path / "sens.json"
        code, stdout, _ = run(
            capsys, "sensitivity", "--alpha", "2", "--fs", "2000", "--n", "30000",
            "--bits", "5:6", "--trials", "2", "--delta", "-0.1", "--delta", "0.1",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["report"]["rows"]) == 2

    def test_peaks_small(self, tmp_path, capsys):
        out = tmp_path / "peaks.json"
        code, stdout, _ = run(
            capsys, "peaks", "--alpha", "2", "--fs", "2000", "--n", "30000",
            "--bits", "5:6", "--trials", "2", "--peak", "10:2:50", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["rows"][0]["peak"]["center_hz"] == 10.0

    def test_bands_on_proxy(self, tmp_path, capsys):
        sig_path = tmp_path / "eeg.csv"
        run(capsys, "synth", "--alpha", "1.56", "--n", "8192", "--fs", "160",
            "--seed", "1234", "--out", str(sig_path))
        out = tmp_path / "bands.json"
        code, stdout, _ = run(
            capsys, "bands", "--in", str(sig_path), "--fs", "160", "--bits", "6",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        ratios = {r["band"]: r["ratio"] for r in payload["report"]["rows"]}
        assert set(ratios) == {"delta", "theta", "alpha", "beta", "gamma"}
        assert all(0.8 <= v <= 1.2 for v in ratios.values())

    def test_bands_on_odd_short_signal(self, tmp_path, capsys):
        # An odd record shorter than one default segment: the gamma band
        # still ends at the Nyquist frequency.
        sig_path, out = tmp_path / "odd.f64", tmp_path / "bands.json"
        run(capsys, "synth", "--alpha", "1.56", "--n", "4095", "--fs", "160",
            "--seed", "1", "--out", str(sig_path))
        code, _, err = run(
            capsys, "bands", "--in", str(sig_path), "--fs", "160", "--bits", "6",
            "--range", "2", "--out", str(out),
        )
        assert code == 0, err
        rows = json.loads(out.read_text())["report"]["rows"]
        assert len(rows) == 5
        assert rows[-1]["f_high_hz"] == 80.0

    def test_nmin_smoke(self, capsys):
        code, stdout, _ = run(
            capsys, "nmin", "--alpha", "1", "--bits", "4:5", "--trials", "2", "--n", "30000",
        )
        assert code == 0
        assert stdout.strip() == "4"

    def test_noise_color_without_alpha_or_preset_exits_two(self, tmp_path, capsys):
        out = tmp_path / "nc.json"
        code, _, err = run(capsys, "noise-color", "--out", str(out))
        assert code == 2
        assert "--alpha" in err
        assert not out.exists()

    def test_noise_color_bad_alpha_exits_two_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # Alpha 2's whole default grid was computed before -1 was rejected.
        calls = []
        synthesize = quantband.scaling.synthesize
        monkeypatch.setattr(
            quantband.scaling, "synthesize",
            lambda spec, *rest: calls.append(spec) or synthesize(spec, *rest),
        )
        out = tmp_path / "nc.json"
        code, stdout, err = run(
            capsys, "noise-color", "--alpha", "2", "--alpha", "-1", "--out", str(out)
        )
        assert (code, stdout, err) == (2, "", "error: alpha must be finite and >= 0, got -1.0\n")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["nmin", "--alpha", "2", "--trials", "0"],
            ["noise-color", "--alpha", "2", "--trials", "0"],
        ],
    )
    def test_zero_trials_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "nc.json"
        extra = ["--out", str(out)] if argv[0] == "noise-color" else []
        code, stdout, err = run(capsys, *argv, *extra)
        assert code == 2
        assert "trials" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["noise-color", "nmin"])
    def test_noise_grid_takes_no_sample_rate(self, command, capsys):
        # Synthesis peak-normalizes, so a noise-color trial has the same
        # samples, and its error the same slope, at every rate.
        with pytest.raises(SystemExit) as exc:
            main([command, "--alpha", "2", "--fs", "2000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fs 2000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, section, expected",
        [
            (
                ["validate", "--preset", "paper-alpha20", "--alpha", "2.5", "--fs", "2000",
                 "--n", "30000", "--bits", "5:6", "--trials", "2"],
                "config",
                {"alpha": 2.5, "sample_rate_hz": 2000.0, "n_samples": 30000,
                 "bit_range": [5, 6], "trials": 2},
            ),
            (
                ["noise-color", "--preset", "paper-table2", "--bits", "4:5", "--trials", "1",
                 "--n", "30000"],
                None,
                {"alphas": [2.0], "bit_range": [4, 5], "trials": 1, "n_samples": 30000,
                 "sample_rate_hz": 2000.0},
            ),
        ],
    )
    def test_flags_override_the_preset(self, argv, section, expected, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())["report"]
        config = report[section] if section else report
        assert {k: config[k] for k in expected} == expected

    def test_unknown_command_raises_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["peaks", "--peak", "10:1"], "peak must be center:width:amplitude, got '10:1'"),
        (["peaks", "--peak", "a:b:c"], "peak fields must be numeric, got 'a:b:c'"),
        (["validate", "--bits", "1:2:3"], "bit range must be lo:hi, got '1:2:3'"),
        (["validate", "--bits", "3:x"], "bit range fields must be integers, got '3:x'"),
        (["validate", "--bits", ""], "bit range fields must be integers, got ''"),
        (["nmin", "--alpha", "2", "--bits", "x"], "bit range fields must be integers, got 'x'"),
        (["bands", "--band", "a:1"], "band must be name:f_low:f_high, got 'a:1'"),
        (["bands", "--band", "a:b:c"], "band edges must be numeric, got 'a:b:c'"),
    ],
)
def test_colon_flag_errors_quote_the_flag(argv, message, tmp_path, capsys):
    out = tmp_path / "r.json"
    if argv[0] == "bands":
        sig = tmp_path / "sig.f64"
        run(capsys, "synth", "--alpha", "1", "--n", "4096", "--fs", "160", "--out", str(sig))
        argv = [*argv, "--in", str(sig), "--fs", "160", "--bits", "6"]
    if argv[0] != "nmin":
        argv = [*argv, "--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, n",
    [
        (["analyze", "--fs", "100", "--bits", "8"], 7),
        (["analyze", "--fs", "100", "--bits", "8"], 30),
        (["validate", "--n", "40"], 40),
        (["validate", "--n", "75"], 75),
        (["nmin", "--alpha", "2", "--n", "40"], 40),
    ],
)
def test_record_too_short_to_fit_exits_two_naming_its_length(
    argv, n, tmp_path, capsys, monkeypatch
):
    calls = []
    for module in (quantband.experiments, quantband.scaling):
        synthesize = module.synthesize
        monkeypatch.setattr(
            module, "synthesize",
            lambda spec, *rest, f=synthesize: calls.append(spec) or f(spec, *rest),
        )
    if argv[0] == "analyze":
        sig = tmp_path / "short.csv"
        sig.write_text("".join(f"{math.sin(i)}\n" for i in range(n)))
        argv = [*argv, "--in", str(sig)]
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err == (
        f"error: record of {n} samples is too short for a spectral fit; need at least 76\n"
    )
    assert calls == []


def test_bands_on_a_record_too_short_to_fit_names_the_band(tmp_path, capsys):
    # bands fits no slope, so a short record fails on its band edges.
    sig = tmp_path / "short.csv"
    sig.write_text("".join(f"{math.sin(i)}\n" for i in range(30)))
    code, stdout, err = run(capsys, "bands", "--in", str(sig), "--fs", "100", "--bits", "8")
    assert (code, stdout, err) == (2, "", "error: band (0.5, 4.0) Hz spans fewer than 2 bins\n")


def test_bad_peak_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    calls = []
    synthesize = quantband.experiments.synthesize
    monkeypatch.setattr(
        quantband.experiments, "synthesize",
        lambda spec, *rest: calls.append(spec) or synthesize(spec, *rest),
    )
    code, _, err = run(capsys, "peaks", "--peak", "999:10:1", "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert err == (
        "error: peak at 999.0 Hz with width 10.0 Hz extends past the Nyquist frequency 1000.0 Hz\n"
    )
    assert calls == []


@pytest.mark.parametrize(
    "argv, bit_range",
    [
        (["nmin", "--alpha", "2", "--bits", "4:30", "--trials", "5"], (4, 30)),
        (["noise-color", "--alpha", "2", "--bits", "4:30", "--trials", "5"], (4, 30)),
        (["validate", "--bits", "30:31", "--n", "1000000"], (30, 31)),
    ],
    ids=["nmin", "noise-color", "validate"],
)
def test_bit_range_past_max_bits_fails_before_any_trial(
    argv, bit_range, tmp_path, capsys, monkeypatch
):
    calls = []
    for module in (quantband.experiments, quantband.scaling):
        synthesize = module.synthesize
        monkeypatch.setattr(
            module, "synthesize",
            lambda spec, *rest, f=synthesize: calls.append(spec) or f(spec, *rest),
        )
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: invalid bit range {bit_range}\n"
    assert calls == []


@pytest.mark.parametrize(
    "alpha, fs, span", [("300", "0.001", "inf"), ("60", "0.01", "4.80192e+156")]
)
def test_record_span_past_max_full_scale_fails_before_any_trial(
    alpha, fs, span, tmp_path, capsys, monkeypatch
):
    # reference_rate_scale overflowed (alpha 300), or the scaled record's
    # PSD did (alpha 60), inside the first trial.
    calls = []
    synthesize = quantband.experiments.synthesize
    monkeypatch.setattr(
        quantband.experiments, "synthesize",
        lambda spec, *rest: calls.append(spec) or synthesize(spec, *rest),
    )
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            capsys, "validate", "--alpha", alpha, "--fs", fs, "--n", "1000",
            "--bits", "4:5", "--trials", "1",
        )
    assert (code, stdout) == (2, "")
    assert err == (
        f"error: the span of each record at alpha={float(alpha)} and f_s={float(fs)} Hz "
        f"must be at most 1e+100, got {span}\n"
    )
    assert calls == []


@pytest.mark.parametrize("command", ["analyze", "bands"])
@pytest.mark.parametrize(
    "fs, expected",
    [("1e-320", 2), ("1e-310", 2), ("1e-305", 2), ("1e-300", 2), ("1e300", 2), ("1e308", 2),
     ("1e-30", 0), ("1e30", 0)],
)
def test_signal_rate_outside_the_limits_exits_two_naming_it(
    command, fs, expected, tmp_path, capsys
):
    # A tiny rate overflowed S_0 into a traceback, or leaked a numpy
    # warning; the limits themselves still run.
    sig = tmp_path / "normals.csv"
    values = np.random.default_rng(0).standard_normal(4096)
    sig.write_text("".join(f"{x!r}\n" for x in values.tolist()))
    out = tmp_path / "r.json"
    band = ["--band", f"b:{float(fs) / 100!r}:{float(fs) / 4!r}"] if command == "bands" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            capsys, command, "--in", str(sig), "--fs", fs, "--bits", "8", *band, "--out", str(out)
        )
    assert code == expected, err
    if expected == 2:
        assert err == f"error: sample rate {float(fs):g} Hz is outside [1e-30, 1e+30] Hz\n"
        assert not out.exists()


@pytest.mark.parametrize("n", [4096, 20_000])
def test_blue_record_at_the_lowest_rate_reads_s0_inf(n, tmp_path, capsys):
    # S_0 scales as f_s^(alpha - 1): a fitted alpha near -3.9 at 1e-30 Hz
    # puts it past the float range, which raised OverflowError.
    x = np.diff(np.random.default_rng(0).standard_normal(n + 2), 2)
    sig = tmp_path / "blue.csv"
    sig.write_text("".join(f"{v!r}\n" for v in (x / np.abs(x).max() * 1e98).tolist()))
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            capsys, "analyze", "--in", str(sig), "--fs", "1e-30", "--bits", "8", "--out", str(out)
        )
    assert (code, err) == (0, "")
    assert "fitted S0 (1 Hz):   inf" in stdout
    report = json.loads(out.read_text())["report"]
    assert report["alpha_hat"] < -3 and report["s0_hat"] is None


@pytest.mark.parametrize("command", ["analyze", "bands"])
@pytest.mark.parametrize("range_flag", [[], ["--range", "2"]])
def test_signal_level_past_max_full_scale_exits_two_naming_its_peak(
    command, range_flag, tmp_path, capsys
):
    # The PSD of a 1e160-level signal overflowed whatever the range, and
    # without --range the error named a range the user never gave.
    sig = tmp_path / "huge.csv"
    sig.write_text("".join(f"{math.sin(i) * 1e160!r}\n" for i in range(4096)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            capsys, command, "--in", str(sig), "--fs", "2000", "--bits", "8", *range_flag
        )
    peak = max(abs(math.sin(i) * 1e160) for i in range(4096))
    assert (code, stdout) == (2, "")
    assert err == (
        f"error: {sig}: the span 2 * peak |sample| must be at most 1e+100, got {2 * peak:g}\n"
    )


def test_bands_on_a_record_under_one_segment_names_its_length(tmp_path, capsys):
    sig = tmp_path / "seven.csv"
    sig.write_text("".join(f"{math.sin(i)}\n" for i in range(7)))
    code, stdout, err = run(capsys, "bands", "--in", str(sig), "--fs", "100", "--bits", "8")
    assert (code, stdout, err) == (
        2, "", "error: record of 7 samples is too short for a Welch PSD; need at least 8\n"
    )


class _Resolved(Exception):
    pass


# Without a preset and with no grid flag given, each experiment command
# runs these literal settings.
VALIDATION_DEFAULTS = ValidationConfig(
    alpha=2.0, sample_rate_hz=20_000.0, n_samples=100_000, bit_range=(7, 12), trials=20
)
NOISE_GRID_DEFAULTS = {
    "bit_range": (4, 12), "trials": 20, "n_samples": 100_000, "master_seed": 1234,
}


class TestBaseConfigs:
    @pytest.mark.parametrize(
        "argv, runner, expected",
        [
            (["validate"], "run_validation", {"cfg": VALIDATION_DEFAULTS}),
            (
                ["sensitivity"],
                "run_sensitivity",
                {"cfg": VALIDATION_DEFAULTS,
                 "perturbations": [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3]},
            ),
            (
                ["peaks"],
                "run_peak_robustness",
                {"base": ValidationConfig(
                    alpha=2.0, sample_rate_hz=2000.0, n_samples=100_000, bit_range=(5, 6),
                    trials=20),
                 "peaks": [PeakSpec(10.0, 2.0, 50.0), PeakSpec(100.0, 20.0, 0.25)]},
            ),
            (
                ["noise-color", "--alpha", "2"],
                "run_noise_color_sweep",
                {"alphas": [2.0], **NOISE_GRID_DEFAULTS},
            ),
            (["nmin", "--alpha", "2"], "find_n_min", {"alpha": 2.0, **NOISE_GRID_DEFAULTS}),
        ],
    )
    def test_no_grid_flags_resolve_to_the_defaults(self, argv, runner, expected, monkeypatch):
        signature = inspect.signature(getattr(quantband.cli, runner))

        def resolved(*args, **kwargs):
            raise _Resolved(signature.bind(*args, **kwargs).arguments)

        monkeypatch.setattr(quantband.cli, runner, resolved)
        with pytest.raises(_Resolved) as exc:
            main(argv)
        assert exc.value.args[0] == expected


def test_battery_script_commands_parse():
    spec = importlib.util.spec_from_file_location(
        "run_all_experiments", REPO / "scripts" / "run_all_experiments.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    battery = script.commands("results", "1234")
    assert battery
    parser = build_parser()
    for argv in battery:
        parser.parse_args(argv)


class TestColdStart:
    def test_cli_import_leaves_scipy_unloaded(self):
        # The CLI's cold start is dominated by whatever it imports; scipy
        # alone once cost over a second of it.
        src = str(REPO / "src")
        env = {**os.environ, "PYTHONPATH": src}
        probe = (
            "import sys, quantband.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"
