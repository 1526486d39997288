import argparse
import hashlib
import importlib.util
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import quantband.cli
from quantband.cli import build_parser, main
from quantband.experiments import ValidationConfig
from quantband.noise import PeakSpec
from quantband.scaling import NoiseColorConfig

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

    @pytest.mark.parametrize(
        "name, file_format, natural", [("b.dat", "csv", "a.csv"), ("b.csv", "raw", "a.f64")]
    )
    def test_file_format_overrides_the_file_name(
        self, name, file_format, natural, tmp_path, capsys
    ):
        # synth writes, and analyze reads, the format given, whatever the suffix.
        files = [(tmp_path / natural, []), (tmp_path / name, ["--file-format", file_format])]
        for path, flag in files:
            run(capsys, "synth", "--alpha", "2", "--n", "4096", "--fs", "2000", "--seed", "5",
                "--out", str(path), *flag)
        (named, _), (overridden, _) = files
        assert named.read_bytes() == overridden.read_bytes()
        analyses = [
            run(capsys, "analyze", "--in", str(path), "--fs", "2000", "--bits", "8", *flag)
            for path, flag in files
        ]
        assert analyses[0][0] == 0
        assert analyses[0] == analyses[1]

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
    def test_record_shorter_than_one_segment(self, command, n, exit_code, rejects, accepts):
        # 3000 samples are fewer than one 4096-sample Welch segment; the
        # PSD is then estimated from one segment of the whole record. Under
        # 76 samples the default fit band holds fewer than MIN_FIT_BINS bins.
        argv = [command, "--n", str(n), "--trials", "3", "--out", "r.json"]
        if exit_code == 0:
            accepts(argv)
        else:
            rejects(argv, 2, SHORT_FIT.format(n))

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

    def test_negative_delta_in_exponent_form_after_equals(self, tmp_path, capsys):
        # argparse reads "-1e-3" as an option, so the help names this form.
        out = tmp_path / "sens.json"
        code, _, err = run(
            capsys, "sensitivity", "--delta=-1e-3", "--trials", "1", "--n", "4096",
            "--bits", "7:8", "--out", str(out),
        )
        assert code == 0, err
        [row] = json.loads(out.read_text())["report"]["rows"]
        assert row["delta_alpha"] == -1e-3
        assert row["perturbed_alpha"] == 2.0 - 1e-3

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

    def test_nmin_at_a_steep_alpha_still_synthesizes(self, capsys):
        # At the 2 kHz reference rate the largest bin amplitude is 2^-150,
        # well inside the float range.
        code, stdout, err = run(capsys, "nmin", "--alpha", "300", "--n", "1000", "--trials", "1")
        assert (code, stdout, err) == (0, "9\n", "")

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


# Signal files the command lines read, written with numpy by the suffix of
# their name; a command line reads the one named after its --in.
NORMALS = np.random.default_rng(0).standard_normal(4096)
INPUTS = {
    "normals.f64": NORMALS,
    "empty.f64": np.array([]),
    "short7.csv": np.sin(np.arange(7)),
    "short30.csv": np.sin(np.arange(30)),
    "huge.csv": np.sin(np.arange(4096)) * 1e160,
    "tiny.csv": NORMALS * 1e-160,
    "zeros.f64": np.zeros(4096),
    "ones.f64": np.ones(4096),
}


def run_in(tmp_path, monkeypatch, capsys, argv: str | list[str]) -> tuple[int, str, str, bool]:
    """``main`` on ``argv`` in ``tmp_path`` with every warning raised as an error.

    Writes the file after ``--in`` if INPUTS names it. Returns the exit
    code, stdout, stderr and whether argparse rejected the command line.
    """
    monkeypatch.chdir(tmp_path)
    args = shlex.split(argv) if isinstance(argv, str) else list(argv)
    name = args[args.index("--in") + 1] if "--in" in args else None
    if name in INPUTS:
        if name.endswith(".csv"):
            np.savetxt(name, INPUTS[name], fmt="%.17g")
        else:
            INPUTS[name].tofile(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code, usage = main(args), False
        except SystemExit as exc:
            code, usage = exc.code, True
    out, err = capsys.readouterr()
    return code, out, err, usage


@pytest.fixture()
def rejects(tmp_path, monkeypatch, capsys, synthesis_calls):
    """``rejects(argv, exit_code, stderr)`` asserts the boundary contract.

    The command exits with ``exit_code``, prints nothing to stdout and
    exactly the ``stderr`` line, writes no file and synthesizes nothing.
    For argparse rejections ``stderr`` is the last line after the usage,
    up to any list of choices.
    """
    def check(argv, exit_code: int, stderr: str) -> None:
        code, out, err, usage = run_in(tmp_path, monkeypatch, capsys, argv)
        assert (code, out) == (exit_code, "")
        if usage:
            assert err.startswith("usage: quantband") and err.splitlines()[-1].startswith(stderr)
        else:
            assert err == stderr + "\n"
        assert {p.name for p in tmp_path.iterdir()} <= set(INPUTS)  # no report, no --out file
        assert synthesis_calls == []

    return check


@pytest.fixture()
def accepts(tmp_path, monkeypatch, capsys):
    """``accepts(argv)`` asserts the command exits 0, silent on stderr, and writes r.json."""
    def check(argv) -> None:
        code, _, err, _ = run_in(tmp_path, monkeypatch, capsys, argv)
        assert (code, err) == (0, "")
        assert (tmp_path / "r.json").exists()

    return check


SEED = "error: seed must be >= 0, got -1"
SHORT_FIT = "error: record of {} samples is too short for a spectral fit; need at least 76"
SCALING_RATIO = "error: alpha must be finite and > 2/1024, got {}"
SPAN = "error: the span of each record at alpha={} and f_s={} Hz must be {}"
FILE_SPAN = "error: {}: the span 2 * peak |sample| must be {}"

# Inputs a command rejects at the boundary: (id, argv, exit code, stderr).
# The rules that take many inputs have their own tests below.
REJECTED = [
    ("synth-negative-alpha", "synth --alpha -1 --n 4096 --fs 2000 --out x.f64", 2,
     "error: alpha must be finite and >= 0, got -1.0"),
    *(
        (f"synth-spectrum-at-{fs}-hz", f"synth --alpha 300 --n 1000 --fs {fs} --out x.csv", 2,
         f"error: the spectrum at alpha=300.0, n=1000 and f_s={float(fs)} Hz cannot be "
         f"represented: its largest bin amplitude (f_s/n)^(-alpha/2) is 2^{log2_amp}")
        for fs, log2_amp in (("1e6", "-1494.9"), ("1", "1494.9"))
    ),
    ("synth-malformed-peak", "synth --alpha 2 --n 4096 --fs 2000 --peak 10:1 --out x.f64", 2,
     "error: peak must be center:width:amplitude, got '10:1'"),
    ("synth-peak-at-dc", "synth --alpha 2 --n 4096 --fs 2000 --peak 0:1:1 --out x.f64", 2,
     "error: peak center 0.0 Hz must lie in (0, 1000.0) Hz"),
    ("synth-negative-peak-amplitude",
     "synth --alpha 2 --n 4096 --fs 2000 --peak 10:1:-1 --out x.f64", 2,
     "error: peak amplitude factor must be >= 0, got -1.0"),
    ("synth-peak-width-underflows",
     "synth --n 1000 --alpha 2 --fs 2000 --peak 100:1e-200:1 --out x.csv", 2,
     "error: peak width 1e-200 Hz is out of range: twice its square, 0, is not a normal "
     "finite float"),
    ("synth-peak-gain-overflows",
     "synth --n 1000 --alpha 100 --fs 0.01 --peak 0.001:0.0001:1e300 --out x.csv", 2,
     "error: the spectrum at alpha=100.0, n=1000 and f_s=0.01 Hz cannot be represented: its "
     "largest bin amplitude (f_s/n)^(-alpha/2) is 2^830.5, and peaks with amplitude factors "
     "summing to 1e+300 raise a bin by up to 2^498.3"),
    ("analyze-missing-file", "analyze --in missing.f64 --fs 2000 --bits 8", 1,
     "error: missing.f64: [Errno 2] No such file or directory: 'missing.f64'"),
    ("analyze-empty-raw-file", "analyze --in empty.f64 --fs 2000 --bits 8", 1,
     "error: empty.f64: file contains no samples"),
    ("analyze-negative-channel", "analyze --in normals.f64 --fs 2000 --bits 8 --channel -1", 2,
     "error: channel index must be >= 0, got -1"),
    ("analyze-channel-of-a-raw-file",
     "analyze --in normals.f64 --fs 2000 --bits 8 --channel 3", 2,
     "error: a raw file has one channel; channel index must be 0, got 3"),
    ("analyze-huge-range", "analyze --in normals.f64 --fs 2000 --bits 8 --range 1e200", 2,
     "error: full-scale range must be at most 1e+100, got 1e+200"),
    ("analyze-tiny-range", "analyze --in normals.f64 --fs 2000 --bits 8 --range 1e-160", 2,
     "error: full-scale range must be at least 1e-100, got 1e-160"),
    ("bands-7-samples", "bands --in short7.csv --fs 100 --bits 8", 2,
     "error: record of 7 samples is too short for a Welch PSD; need at least 8"),
    ("bands-30-samples", "bands --in short30.csv --fs 100 --bits 8", 2,
     "error: band (0.5, 4.0) Hz spans fewer than 2 bins"),
    ("bands-constant-record", "bands --in ones.f64 --fs 2000 --bits 8 --range 2", 2,
     "error: band (0.5, 4.0) Hz holds no power in the record"),
    ("validate-unknown-preset", "validate --preset nope --out x.json", 2,
     "error: unknown preset 'nope'; choose from "
     "['paper-alpha15', 'paper-alpha20', 'paper-alpha25']"),
    ("peaks-peak-past-nyquist", "peaks --peak 999:10:1 --out r.json", 2,
     "error: peak at 999.0 Hz with width 10.0 Hz extends past the Nyquist frequency 1000.0 Hz"),
    *(
        (f"{cmd}-one-depth", f"{cmd} --bits {depth} --trials 2 --n 4096 --out v.json", 2,
         f"error: bit range {(depth, depth)} holds one depth; a step ratio needs two")
        for cmd, depth in (("validate", 7), ("sensitivity", 7), ("peaks", 5))
    ),
    ("noise-color-without-alpha", "noise-color --out nc.json", 2,
     "error: give --preset paper-table2 or at least one --alpha"),
    ("noise-color-negative-alpha", "noise-color --alpha 2 --alpha -1 --out nc.json", 2,
     "error: alpha must be finite and >= 0, got -1.0"),
    ("noise-color-repeated-alpha",
     "noise-color --alpha 1 --alpha 1 --bits 4:5 --trials 2 --n 4096 --out nc.json", 2,
     "error: alpha 1.0 is given more than once"),
    ("noise-color-zero-trials", "noise-color --alpha 2 --trials 0 --out nc.json", 2,
     "error: trials must be >= 1, got 0"),
    ("nmin-zero-trials", "nmin --alpha 2 --trials 0", 2, "error: trials must be >= 1, got 0"),
    *(
        (f"{cmd}-takes-no-fs", f"{cmd} --alpha 2 --fs 2000", 2,
         "quantband: error: unrecognized arguments: --fs 2000")
        for cmd in ("noise-color", "nmin")
    ),
    ("unknown-command", "frobnicate", 2,
     "quantband: error: argument command: invalid choice: 'frobnicate'"),
]


@pytest.mark.parametrize(
    "argv, exit_code, stderr", [pytest.param(*row, id=row_id) for row_id, *row in REJECTED]
)
def test_rejected_at_the_boundary(argv, exit_code, stderr, rejects):
    rejects(argv, exit_code, stderr)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["peaks", "--peak", "10:1", "--out", "r.json"],
         "peak must be center:width:amplitude, got '10:1'"),
        (["peaks", "--peak", "a:b:c", "--out", "r.json"],
         "peak fields must be numeric, got 'a:b:c'"),
        (["validate", "--bits", "1:2:3", "--out", "r.json"],
         "bit range must be lo:hi, got '1:2:3'"),
        (["validate", "--bits", "3:x", "--out", "r.json"],
         "bit range fields must be integers, got '3:x'"),
        (["validate", "--bits", "", "--out", "r.json"],
         "bit range fields must be integers, got ''"),
        (["nmin", "--alpha", "2", "--bits", "x"], "bit range fields must be integers, got 'x'"),
        (["bands", "--band", "a:1", "--in", "normals.f64", "--fs", "160", "--bits", "6",
          "--out", "r.json"], "band must be name:f_low:f_high, got 'a:1'"),
        (["bands", "--band", "a:b:c", "--in", "normals.f64", "--fs", "160", "--bits", "6",
          "--out", "r.json"], "band edges must be numeric, got 'a:b:c'"),
    ],
)
def test_colon_flag_errors_quote_the_flag(argv, message, rejects):
    rejects(argv, 2, f"error: {message}")


@pytest.mark.parametrize(
    "argv, n",
    [
        (["analyze", "--fs", "100", "--bits", "8", "--in", "short7.csv"], 7),
        (["analyze", "--fs", "100", "--bits", "8", "--in", "short30.csv"], 30),
        (["validate", "--n", "40"], 40),
        (["validate", "--n", "75"], 75),
        (["nmin", "--alpha", "2", "--n", "40"], 40),
        (["nmin", "--alpha", "2", "--n", "10"], 10),
        (["noise-color", "--alpha", "2", "--n", "10"], 10),
    ],
)
def test_record_too_short_to_fit_exits_two_naming_its_length(argv, n, rejects):
    rejects(argv, 2, SHORT_FIT.format(n))


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--alpha", "2", "--fs", "1000", "--n", "1000", "--out", "out.csv"],
        ["validate", "--trials", "2", "--n", "20000", "--out", "out.csv"],
        ["sensitivity", "--trials", "2", "--n", "20000", "--out", "out.csv"],
        ["peaks", "--trials", "2", "--n", "20000", "--out", "out.csv"],
        ["noise-color", "--alpha", "2", "--trials", "2", "--n", "5000", "--out", "out.csv"],
        ["nmin", "--alpha", "2", "--trials", "2", "--n", "5000"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_two_before_any_trial(argv, rejects):
    rejects([*argv, "--seed", "-1"], 2, SEED)


@pytest.mark.parametrize(
    "argv, alpha",
    [
        (["validate", "--alpha", "0.001"], 0.001),
        (["sensitivity", "--delta", "-1.999"], 2.0 - 1.999),
        *(
            (["sensitivity", f"--delta={d}"], 2.0 + float(d))
            for d in ("nan", "inf", "-inf", "-2")
        ),
    ],
)
def test_alpha_without_a_finite_scaling_ratio_exits_two_before_any_trial(argv, alpha, rejects):
    rejects([*argv, "--trials", "1", "--n", "2000", "--out", "r.json"], 2,
            SCALING_RATIO.format(alpha))


@pytest.mark.parametrize(
    "argv, bit_range",
    [
        (["nmin", "--alpha", "2", "--bits", "4:30", "--trials", "5"], (4, 30)),
        (["noise-color", "--alpha", "2", "--bits", "4:30", "--trials", "5"], (4, 30)),
        (["validate", "--bits", "30:31", "--n", "1000000"], (30, 31)),
    ],
    ids=["nmin", "noise-color", "validate"],
)
def test_bit_range_past_max_bits_fails_before_any_trial(argv, bit_range, rejects):
    rejects(argv, 2, f"error: invalid bit range {bit_range}")


def _validate_span(alpha: str, fs: str) -> str:
    return f"validate --alpha {alpha} --fs {fs} --n 1000 --bits 4:5 --trials 1"


@pytest.mark.parametrize(
    "alpha, fs, span", [("300", "0.001", "inf"), ("60", "0.01", "4.80192e+156")]
)
def test_record_span_past_max_full_scale_fails_before_any_trial(alpha, fs, span, rejects):
    rejects(_validate_span(alpha, fs), 2,
            SPAN.format(float(alpha), float(fs), f"at most 1e+100, got {span}"))


@pytest.mark.parametrize("alpha, fs, span", [("60", "1e9", "1.5185e-168"), ("300", "1e6", "0")])
def test_record_span_under_min_full_scale_fails_before_any_trial(alpha, fs, span, rejects):
    rejects(_validate_span(alpha, fs), 2,
            SPAN.format(float(alpha), float(fs), f"at least 1e-100, got {span}"))


@pytest.mark.parametrize("command", ["analyze", "bands"])
@pytest.mark.parametrize(
    "fs, expected",
    [("1e-320", 2), ("1e-310", 2), ("1e-305", 2), ("1e-300", 2), ("1e300", 2), ("1e308", 2),
     ("1e-30", 0), ("1e30", 0)],
)
def test_signal_rate_outside_the_limits_exits_two_naming_it(
    command, fs, expected, rejects, accepts
):
    band = ["--band", f"b:{float(fs) / 100!r}:{float(fs) / 4!r}"] if command == "bands" else []
    argv = [command, "--in", "normals.f64", "--fs", fs, "--bits", "8", *band, "--out", "r.json"]
    if expected == 0:
        accepts(argv)
    else:
        rejects(argv, 2, f"error: sample rate {float(fs):g} Hz is outside [1e-30, 1e+30] Hz")


@pytest.mark.parametrize("command", ["analyze", "bands"])
@pytest.mark.parametrize("range_flag", [[], ["--range", "2"]])
def test_signal_level_past_max_full_scale_exits_two_naming_its_peak(
    command, range_flag, rejects
):
    rejects([command, "--in", "huge.csv", "--fs", "2000", "--bits", "8", *range_flag], 2,
            FILE_SPAN.format("huge.csv", "at most 1e+100, got 1.99998e+160"))


@pytest.mark.parametrize("command", ["analyze", "bands"])
@pytest.mark.parametrize("range_flag", [[], ["--range", "2"]])
@pytest.mark.parametrize("name, level", [("tiny.csv", 1e-160), ("zeros.f64", 0.0)])
def test_signal_level_under_min_full_scale_exits_two_naming_its_peak(
    command, range_flag, name, level, rejects
):
    span = 2 * np.abs(NORMALS).max() * level
    rejects([command, "--in", name, "--fs", "2000", "--bits", "8", *range_flag], 2,
            FILE_SPAN.format(name, f"at least 1e-100, got {span:g}"))


NUMPY_REFUSAL = r"Unable to allocate [\d.]+ EiB for an array with shape .*\n"
# A refused trial block names the grid that asked for it, a refused workspace its record.
BLOCK_REFUSAL = r"1000000000 trials of 1000000000 samples do not fit in memory: " + NUMPY_REFUSAL
RECORD_REFUSAL = r"a record of 1000000000000000000 samples does not fit in memory: " + NUMPY_REFUSAL


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(argv, message, id=argv.split()[0])
        for argv, message in [
            ("nmin --alpha 2 --trials 1000000000 --n 1000000000 --bits 4:6", BLOCK_REFUSAL),
            (
                "noise-color --alpha 2 --trials 1000000000 --n 1000000000 --bits 4:6 "
                "--out nc.json",
                BLOCK_REFUSAL,
            ),
            ("synth --alpha 2 --fs 2000 --n 1000000000000000000 --out x.f64", RECORD_REFUSAL),
            ("validate --n 1000000000000000000 --trials 1 --out v.json", RECORD_REFUSAL),
        ]
    ],
)
def test_refused_allocation_exits_one(argv, message, tmp_path, monkeypatch, capsys):
    # Each asks for 3.5 to 6.9 EiB, past any 64-bit address space, so it
    # fails at once and touches no memory.
    code, out, err, _ = run_in(tmp_path, monkeypatch, capsys, argv)
    assert (code, out) == (1, "")
    assert re.fullmatch("error: " + message, err)
    assert list(tmp_path.iterdir()) == []


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


class _Resolved(Exception):
    pass


def resolved_arguments(monkeypatch, runner: str, argv: list[str]) -> dict:
    """The arguments ``main(argv)`` passes to ``cli.<runner>``, which does not run."""
    signature = inspect.signature(getattr(quantband.cli, runner))

    def resolved(*args, **kwargs):
        raise _Resolved(signature.bind(*args, **kwargs).arguments)

    monkeypatch.setattr(quantband.cli, runner, resolved)
    with pytest.raises(_Resolved) as exc:
        main(argv)
    return exc.value.args[0]


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
                {"cfg": NoiseColorConfig(alphas=(2.0,), **NOISE_GRID_DEFAULTS)},
            ),
            (["nmin", "--alpha", "2"], "find_n_min", {"alpha": 2.0, **NOISE_GRID_DEFAULTS}),
        ],
    )
    def test_no_grid_flags_resolve_to_the_defaults(self, argv, runner, expected, monkeypatch):
        assert resolved_arguments(monkeypatch, runner, argv) == expected

    @pytest.mark.parametrize(
        "command, base, runner, arg",
        [
            ("validate", "VALIDATION_BASE", "run_validation", "cfg"),
            ("sensitivity", "VALIDATION_BASE", "run_sensitivity", "cfg"),
            ("peaks", "PEAKS_BASE", "run_peak_robustness", "base"),
        ],
    )
    @pytest.mark.parametrize("flags, seed", [([], 7), (["--seed", "9"], 9)])
    def test_base_config_seed_applies_unless_seed_is_given(
        self, command, base, runner, arg, flags, seed, monkeypatch
    ):
        monkeypatch.setattr(quantband.cli, base, replace(getattr(quantband.cli, base), master_seed=7))
        assert resolved_arguments(monkeypatch, runner, [command, *flags])[arg].master_seed == seed


def _subparsers() -> dict:
    [sub] = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


# Each command's options, in order, as (option strings, dest, metavar).
COMMAND_OPTIONS = {
    "synth": [
        ("-h --help", "help", None), ("--alpha", "alpha", None), ("--n", "n", None),
        ("--fs", "fs", None), ("--seed", "seed", None), ("--peak", "peak", "C:W:A"),
        ("--out", "out", None), ("--file-format", "file_format", None),
        ("--quiet", "quiet", None),
    ],
    "analyze": [
        ("-h --help", "help", None), ("--in", "infile", None), ("--fs", "fs", None),
        ("--bits", "bits", None), ("--range", "range", None), ("--channel", "channel", None),
        ("--file-format", "file_format", None), ("--out", "out", None),
        ("--format", "format", None), ("--quiet", "quiet", None),
    ],
    "validate": [
        ("-h --help", "help", None), ("--preset", "preset", None), ("--alpha", "alpha", None),
        ("--n", "n_samples", "N"), ("--bits", "bit_range", "BITS"), ("--trials", "trials", None),
        ("--seed", "master_seed", "SEED"), ("--fs", "sample_rate_hz", "FS"),
        ("--floor", "floor_method", None), ("--out", "out", None),
        ("--format", "format", None), ("--quiet", "quiet", None),
    ],
    "noise-color": [
        ("-h --help", "help", None), ("--preset", "preset", None),
        ("--alpha", "alphas", "ALPHA"), ("--n", "n_samples", "N"),
        ("--bits", "bit_range", "BITS"), ("--trials", "trials", None),
        ("--seed", "master_seed", "SEED"), ("--out", "out", None),
        ("--format", "format", None), ("--quiet", "quiet", None),
    ],
    "sensitivity": [
        ("-h --help", "help", None), ("--preset", "preset", None), ("--alpha", "alpha", None),
        ("--n", "n_samples", "N"), ("--bits", "bit_range", "BITS"), ("--trials", "trials", None),
        ("--seed", "master_seed", "SEED"), ("--fs", "sample_rate_hz", "FS"),
        ("--floor", "floor_method", None), ("--out", "out", None),
        ("--format", "format", None), ("--quiet", "quiet", None), ("--delta", "delta", None),
    ],
    "peaks": [
        ("-h --help", "help", None), ("--preset", "preset", None), ("--alpha", "alpha", None),
        ("--n", "n_samples", "N"), ("--bits", "bit_range", "BITS"), ("--trials", "trials", None),
        ("--seed", "master_seed", "SEED"), ("--fs", "sample_rate_hz", "FS"),
        ("--floor", "floor_method", None), ("--out", "out", None),
        ("--format", "format", None), ("--quiet", "quiet", None), ("--peak", "peak", "C:W:A"),
    ],
    "bands": [
        ("-h --help", "help", None), ("--in", "infile", None), ("--fs", "fs", None),
        ("--bits", "bits", None), ("--range", "range", None), ("--channel", "channel", None),
        ("--file-format", "file_format", None), ("--band", "band", "NAME:LO:HI"),
        ("--out", "out", None), ("--format", "format", None), ("--quiet", "quiet", None),
    ],
    "nmin": [
        ("-h --help", "help", None), ("--alpha", "alpha", None), ("--n", "n_samples", "N"),
        ("--bits", "bit_range", "BITS"), ("--trials", "trials", None),
        ("--seed", "master_seed", "SEED"),
    ],
}


def test_command_options_are_pinned():
    # Options, dests and metavars, not the help text, which argparse
    # formats differently across Python versions.
    options = {
        name: [(" ".join(a.option_strings), a.dest, a.metavar) for a in q._actions]
        for name, q in _subparsers().items()
    }
    assert options == COMMAND_OPTIONS


@pytest.mark.parametrize("command", ["validate", "sensitivity", "peaks", "noise-color", "nmin"])
def test_every_grid_flag_overrides_a_field_of_the_base_config(command):
    # The override reads the base config's fields, so a grid flag whose
    # dest is no field would be dropped without a word. nmin's --alpha
    # names its config's one alpha instead.
    parser = _subparsers()[command]
    other = {"help", "preset", "out", "format", "quiet", "delta", "peak"}
    if command == "nmin":
        other.add("alpha")
    grid = [a.dest for a in parser._actions if a.dest not in other]
    assert grid
    assert set(grid) <= {f.name for f in fields(parser.get_default("base"))}


def _battery_script():
    spec = importlib.util.spec_from_file_location(
        "run_all_experiments", REPO / "scripts" / "run_all_experiments.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_battery_script_commands_parse():
    script = _battery_script()
    battery = script.commands("results", "1234")
    assert battery
    parser = build_parser()
    for argv in battery:
        parser.parse_args(argv)


@pytest.mark.parametrize(
    "codes, expected", [({}, 0), ({"synth": 1}, 1), ({"synth": 1, "nmin": 2}, 2)]
)
def test_battery_script_exits_with_the_worst_command_code(
    codes, expected, tmp_path, monkeypatch, capsys
):
    # A command that failed at run time (exit 1) once left the script at 0.
    script = _battery_script()
    monkeypatch.setattr(script, "quantband", lambda argv: codes.get(argv[0], 0))
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", "--out", str(tmp_path)])
    assert script.main() == expected


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
