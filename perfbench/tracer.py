"""Spans around quantband's public functions, recorded from outside the package.

The tracer replaces each traced function at every module attribute that is
bound to it (``experiments`` and ``scaling`` import ``welch_psd`` and the
others by name, so patching only the defining module would miss calls).
Spans are kept in memory as ``[name, start, end, parent, op, work]`` lists
and written out by the caller when the run ends.

``work`` holds counts computed from the call's arguments (samples, FFT
segments, file bytes). They are derived, not measured.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, WORK = range(6)

TRACED = (
    "noise.synthesize",
    "quantizer.quantize",
    "quantizer.error_signal",
    "spectral.welch_psd",
    "spectral.fit_slope",
    "spectral.empirical_noise_floor",
    "scaling.detect_cutoff",
    "scaling.measure_noise_slope",
    "scaling.find_n_min",
    "experiments.run_validation",
    "experiments.run_noise_color_sweep",
    "experiments.analyze_signal",
    "io.read_signal",
    "io.write_signal",
    "io.write_report",
    "cli.main",
)


def _samples(a) -> dict:
    return {"samples": a["signal"].n_samples}


def _synthesis(a) -> dict:
    spec = a["spec"]
    return {"samples": spec.n_samples, "spec": repr(spec)}


def _welch(a) -> dict:
    # Same segmentation as scipy.signal.welch: noverlap = int(overlap * L),
    # one segment every L - noverlap samples.
    n, seg = a["signal"].n_samples, a["segment_len"]
    noverlap = int(a["overlap_fraction"] * seg)
    return {"samples": n, "segments": (n - noverlap) // (seg - noverlap)}


def _file_bytes(a) -> dict:
    return {"bytes": os.path.getsize(a["spec"].path)}


WORK_COUNTS = {
    "noise.synthesize": _synthesis,
    "quantizer.quantize": _samples,
    "spectral.welch_psd": _welch,
    "io.read_signal": _file_bytes,
    "io.write_signal": _file_bytes,
}


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        work = WORK_COUNTS.get(name)
        signature = inspect.signature(fn) if work else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[WORK] = work(bound.arguments)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in loaded quantband modules."""
        importlib.import_module("quantband.cli")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quantband" or key.startswith("quantband.")]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"quantband.{module}"), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def per_pass(spans: list[list], ops_per_pass: int) -> dict[int, dict[str, dict]]:
    """Totals per pass and function: calls, self time and work counts.

    A span's pass is its op id divided by the number of ops in a pass.
    Distinct synthesis specs are collected per pass, since every pass
    repeats the same inputs.
    """
    totals: dict[int, dict[str, dict]] = defaultdict(
        lambda: {name: {"calls": 0, "self_s": 0.0, "samples": 0, "segments": 0,
                        "bytes": 0, "specs": set()} for name in TRACED}
    )
    for span, own in zip(spans, self_times(spans)):
        t = totals[span[OP] // ops_per_pass][span[NAME]]
        t["calls"] += 1
        t["self_s"] += own
        for key, value in (span[WORK] or {}).items():
            if key == "spec":
                t["specs"].add(value)
            else:
                t[key] += value
    return dict(totals)


def layer_metrics(spans: list[list], ops_per_pass: int) -> dict[str, float]:
    """Per-layer metrics as medians over the traced passes."""
    passes = list(per_pass(spans, ops_per_pass).values())

    def med(fn) -> float:
        return float(statistics.median(fn(p) for p in passes)) if passes else 0.0

    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = med(lambda p: p[name]["calls"])
        out[f"{name}.self_s"] = med(lambda p: p[name]["self_s"])
    synth = "noise.synthesize"
    out[f"{synth}.msamples"] = med(lambda p: p[synth]["samples"] / 1e6)
    out[f"{synth}.repeat_ratio"] = med(
        lambda p: p[synth]["calls"] / len(p[synth]["specs"]) if p[synth]["specs"] else 0.0
    )
    out["quantizer.quantize.msamples"] = med(lambda p: p["quantizer.quantize"]["samples"] / 1e6)
    out["spectral.welch_psd.msamples"] = med(lambda p: p["spectral.welch_psd"]["samples"] / 1e6)
    out["spectral.welch_psd.segments"] = med(lambda p: p["spectral.welch_psd"]["segments"])
    out["io.read_signal.mbytes"] = med(lambda p: p["io.read_signal"]["bytes"] / 1e6)
    out["io.write_signal.mbytes"] = med(lambda p: p["io.write_signal"]["bytes"] / 1e6)
    return out
