"""Command-line front end: synthesis, analysis and experiment runners.

Every run is reproducible: identical flags and seed produce an identical
report payload (modulo the timestamp in the metadata block). Exit codes:
0 success, 1 runtime/file errors and refused allocations, 2 argument or
validation errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import QuantbandError, ValidationError
from .experiments import (
    DEFAULT_PEAKS,
    DEFAULT_SEED,
    NOISE_COLOR_BASE,
    NOISE_COLOR_PRESETS,
    PEAKS_BASE,
    SENSITIVITY_DELTAS,
    VALIDATION_BASE,
    VALIDATION_PRESETS,
    analyze_signal,
    run_band_power,
    run_noise_color_sweep,
    run_peak_robustness,
    run_sensitivity,
    run_validation,
)
from .io import (
    FORMAT_CSV,
    FORMAT_RAW,
    SignalFileSpec,
    read_signal,
    write_report,
    write_signal,
)
from .noise import PeakSpec, Signal, SynthesisSpec, synthesize
from .quantizer import SIGNAL_RATE_LIMITS_HZ, QuantizerConfig, check_span
from .scaling import FLOOR_EMPIRICAL, FLOOR_THEORETICAL, find_n_min

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _colon_fields(text: str, converters: tuple, form: str, kind: str) -> tuple:
    """``text`` split on ":", field i converted by ``converters[i]``; errors quote ``text``."""
    parts = text.split(":")
    if len(parts) != len(converters):
        raise ValidationError(f"{form}, got {text!r}")
    try:
        return tuple(convert(part) for convert, part in zip(converters, parts))
    except ValueError:
        raise ValidationError(f"{kind}, got {text!r}") from None


def _parse_peak(text: str) -> PeakSpec:
    form, kind = "peak must be center:width:amplitude", "peak fields must be numeric"
    return PeakSpec(*_colon_fields(text, (float, float, float), form, kind))


def _parse_bit_range(text: str) -> tuple[int, int]:
    form, kind = "bit range must be lo:hi", "bit range fields must be integers"
    depths = _colon_fields(text, (int, int) if ":" in text else (int,), form, kind)
    return depths[0], depths[-1]  # a single depth N stands for N:N


def _parse_band(text: str) -> tuple[str, float, float]:
    form, kind = "band must be name:f_low:f_high", "band edges must be numeric"
    return _colon_fields(text, (str, float, float), form, kind)


def _signal_format(path: str, explicit: str | None) -> str:
    if explicit:
        return FORMAT_CSV if explicit == "csv" else FORMAT_RAW
    return FORMAT_CSV if Path(path).suffix.lower() == ".csv" else FORMAT_RAW


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _emit(args, report, default_name: str) -> None:
    out = args.out or f"{default_name}.{args.format}"
    write_report(report, out, args.format)
    if args.quiet:
        print(out)
    else:
        print(f"report written to {out}")


def _load_signal(args) -> tuple[Signal, QuantizerConfig]:
    """The input signal of analyze/bands and its quantizer.

    Without --range the quantizer range covers the signal exactly (2 *
    max|x|), matching the synthetic convention (peak 1, R = 2). A signal
    whose span 2 * max|x| lies outside the ranges a quantizer takes is
    rejected whatever the range: its own PSD would overflow or underflow.
    So is a rate outside SIGNAL_RATE_LIMITS_HZ.
    """
    fmt = _signal_format(args.infile, args.file_format)
    spec = SignalFileSpec(args.infile, fmt, args.fs, channel_index=args.channel)
    lo, hi = SIGNAL_RATE_LIMITS_HZ
    if not lo <= args.fs <= hi:
        raise ValidationError(f"sample rate {args.fs:g} Hz is outside [{lo:g}, {hi:g}] Hz")
    signal = read_signal(spec)
    peak = float(np.max(np.abs(signal.samples)))
    check_span(2.0 * peak, f"{args.infile}: the span 2 * peak |sample|")
    full_scale = 2.0 * peak if args.range is None else args.range
    return signal, QuantizerConfig(bits=args.bits, full_scale=full_scale)


def _config(args):
    """The command's --preset entry, or its base config, with each grid flag
    the user gave applied to the config field its argparse dest names."""
    preset, base = getattr(args, "preset", None), args.base
    if preset:
        if preset not in args.presets:
            raise ValidationError(f"unknown preset {preset!r}; choose from {sorted(args.presets)}")
        base = args.presets[preset]
    given = {
        f.name: getattr(args, f.name)
        for f in fields(base)
        if getattr(args, f.name, None) is not None
    }
    if "bit_range" in given:
        given["bit_range"] = _parse_bit_range(given["bit_range"])
    return replace(base, **given)


def cmd_synth(args) -> int:
    spec = SynthesisSpec(
        alpha=args.alpha,
        n_samples=args.n,
        sample_rate_hz=args.fs,
        seed=args.seed,
        peaks=tuple(_parse_peak(p) for p in args.peak or []),
    )
    signal = synthesize(spec)
    fmt = _signal_format(args.out, args.file_format)
    write_signal(signal, SignalFileSpec(args.out, fmt, args.fs))
    if args.quiet:
        print(args.out)
    else:
        print(f"wrote {signal.n_samples} samples ({fmt}) to {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    report = analyze_signal(*_load_signal(args))
    if not args.quiet:
        print(f"samples:            {report.n_samples} at {report.sample_rate_hz} Hz")
        print(f"fitted alpha:       {report.alpha_hat:.3f}")
        print(f"fitted S0 (1 Hz):   {report.s0_hat:.4e}")
        print(f"noise slope:        {report.noise_slope:+.3f} "
              f"({'white' if report.noise_is_white else 'colored'})")
        print(f"saturated samples:  {report.saturated_samples}")
        print(f"theoretical floor:  {report.theoretical_floor:.4e}")
        print(f"empirical floor:    {report.empirical_floor:.4e}")
        for label, cut in (
            ("f_c (theoretical)", report.cutoff_theoretical),
            ("f_c (empirical)", report.cutoff_empirical),
        ):
            flag = " [beyond Nyquist]" if cut.exceeded_nyquist else ""
            print(f"{label}:  {cut.f_c_hz:.1f} Hz{flag}")
        flag = " [beyond Nyquist]" if report.predicted_exceeds_nyquist else ""
        print(f"f_c (closed form):  {report.predicted_cutoff_hz:.1f} Hz{flag}")
    if args.out:
        _emit(args, report, "analysis_report")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _config(args)
    report = run_validation(cfg)
    _say(
        args,
        f"alpha={cfg.alpha}: measured ratio {report.measured_ratio_mean:.3f} "
        f"+/- {report.measured_ratio_std:.3f} (predicted {report.predicted_ratio:.3f}, "
        f"mean error {report.mean_error * 100:.1f}%, "
        f"excluded bits {report.excluded_bits or 'none'})",
    )
    _emit(args, report, "validation_report")
    return EXIT_OK


def cmd_noise_color(args) -> int:
    cfg = _config(args)
    if not cfg.alphas:
        raise ValidationError("give --preset paper-table2 or at least one --alpha")
    report = run_noise_color_sweep(cfg)
    for alpha in report.alphas:
        n_min = report.n_min[alpha]
        _say(args, f"alpha={alpha}: N_min={'none' if n_min is None else n_min}")
    _emit(args, report, "noise_color_report")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    cfg = _config(args)
    report = run_sensitivity(cfg, args.delta or list(SENSITIVITY_DELTAS))
    worst = max(report.rows, key=lambda r: r.rel_error)
    _say(
        args,
        f"alpha={cfg.alpha}: baseline error {report.baseline_rel_error * 100:.1f}%, "
        f"worst {worst.rel_error * 100:.1f}% at delta={worst.delta_alpha:+.2f}",
    )
    _emit(args, report, "sensitivity_report")
    return EXIT_OK


def cmd_peaks(args) -> int:
    cfg = _config(args)
    peaks = [_parse_peak(p) for p in args.peak] if args.peak else list(DEFAULT_PEAKS)
    report = run_peak_robustness(cfg, peaks)
    _say(args, f"baseline error {report.baseline.mean_error * 100:.2f}%")
    for row in report.rows:
        _say(
            args,
            f"peak {row.peak.center_hz:g} Hz (width {row.peak.width_hz:g}, "
            f"{row.peak.amplitude_factor:g}x): error {row.mean_rel_error * 100:.2f}%",
        )
    _emit(args, report, "peak_robustness_report")
    return EXIT_OK


def cmd_bands(args) -> int:
    signal, cfg = _load_signal(args)
    bands = [_parse_band(b) for b in args.band] if args.band else None
    report = run_band_power(signal, cfg, bands)
    for row in report.rows:
        _say(
            args,
            f"{row.band:>6} [{row.f_low_hz:g}, {row.f_high_hz:g}] Hz: "
            f"ratio {row.ratio:.3f} ({'preserved' if row.preserved else 'distorted'})",
        )
    _emit(args, report, "band_power_report")
    return EXIT_OK


def cmd_nmin(args) -> int:
    cfg = _config(args)  # with no alphas: --alpha is the search's one alpha
    result = find_n_min(args.alpha, cfg.bit_range, cfg.trials, cfg.master_seed, cfg.n_samples)
    print("none" if result is None else result)
    return EXIT_OK


def _add_output(
    parser: argparse.ArgumentParser,
    out_help: str = "output path (default derived from the command)",
) -> None:
    parser.add_argument("--out", help=out_help)
    parser.add_argument("--format", choices=["json", "csv"], default="json", help="report format")
    parser.add_argument("--quiet", action="store_true", help="print only the output path")


def _add_grid(parser: argparse.ArgumentParser, **alpha) -> None:
    # No defaults: a flag the user does not give keeps the base config's value.
    parser.add_argument("--alpha", type=float, **alpha)
    parser.add_argument("--n", dest="n_samples", type=int, metavar="N", help="samples per trial")
    parser.add_argument("--bits", dest="bit_range", metavar="BITS", help="bit range lo:hi")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", dest="master_seed", type=int, metavar="SEED", help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantband",
        description="Quantization-bandwidth scaling analysis for 1/f^alpha signals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a 1/f^alpha signal file")
    p.add_argument("--alpha", type=float, required=True, help="spectral slope (>= 0)")
    p.add_argument("--n", type=int, default=100_000, help="number of samples")
    p.add_argument("--fs", type=float, required=True, help="sample rate in Hz")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--peak", action="append", metavar="C:W:A",
        help="Gaussian peak center:width:amplitude (repeatable)",
    )
    p.add_argument("--out", required=True, help="output file (.csv or raw float64)")
    p.add_argument("--file-format", choices=["csv", "raw"], help="override format inference")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_synth)

    def signal_parser(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--in", dest="infile", required=True, help="input signal file")
        q.add_argument("--fs", type=float, required=True, help="sample rate in Hz")
        q.add_argument("--bits", type=int, required=True)
        q.add_argument("--range", type=float, help="full-scale range (default: 2 * max|x|)")
        q.add_argument("--channel", type=int, default=0, help="CSV column index")
        q.add_argument("--file-format", choices=["csv", "raw"])
        return q

    p = signal_parser("analyze", "fit, quantize and locate cutoffs for a signal file")
    _add_output(p, "optionally write the report here")
    p.set_defaults(fn=cmd_analyze)

    def experiment_parser(name, help_text, fn, base=VALIDATION_BASE, presets=VALIDATION_PRESETS,
                          **alpha):
        q = sub.add_parser(name, help=help_text)
        q.add_argument(
            "--preset", help=f"base config, one of {' | '.join(presets)}; flags override it"
        )
        _add_grid(q, **alpha)
        # Validation configs also take their sample rate, which moves their
        # cutoffs, and their noise floor.
        if hasattr(base, "sample_rate_hz"):
            q.add_argument(
                "--fs", dest="sample_rate_hz", type=float, metavar="FS", help="sample rate in Hz"
            )
        if hasattr(base, "floor_method"):
            q.add_argument(
                "--floor", dest="floor_method", choices=[FLOOR_THEORETICAL, FLOOR_EMPIRICAL]
            )
        _add_output(q)
        q.set_defaults(fn=fn, base=base, presets=presets)
        return q

    experiment_parser(
        "validate", "measure cutoff ratios across bit depths vs 2^(2/alpha)", cmd_validate
    )
    experiment_parser(
        "noise-color", "quantization-noise slope over an (alpha, bits) grid", cmd_noise_color,
        NOISE_COLOR_BASE, NOISE_COLOR_PRESETS,
        dest="alphas", action="append", metavar="ALPHA", help="repeatable",
    )
    p = experiment_parser(
        "sensitivity", "scaling prediction error under perturbed alpha", cmd_sensitivity
    )
    p.add_argument(
        "--delta", type=float, action="append",
        help="alpha perturbation (repeatable); give -1e-3 or -inf as --delta=-1e-3, --delta=-inf",
    )
    p = experiment_parser(
        "peaks", "validation error with spectral peaks injected", cmd_peaks, PEAKS_BASE
    )
    p.add_argument("--peak", action="append", metavar="C:W:A", help="repeatable")

    p = signal_parser("bands", "band power preservation under quantization")
    p.add_argument(
        "--band", action="append", metavar="NAME:LO:HI",
        help="band definition (repeatable; default delta..gamma)",
    )
    _add_output(p)
    p.set_defaults(fn=cmd_bands)

    p = sub.add_parser("nmin", help="smallest bit depth with white quantization noise")
    _add_grid(p, required=True)
    p.set_defaults(fn=cmd_nmin, base=NOISE_COLOR_BASE)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuantbandError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
