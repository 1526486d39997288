import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402


def span(name, start, end, parent, op=0, work=None):
    return [name, start, end, parent, op, work]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("experiments.run_validation", 1.0, 3.0, 0),
        span("noise.synthesize", 2.0, 5.0, 0),  # overlaps the previous child
        span("spectral.welch_psd", 8.0, 12.0, 0),  # runs past its parent's end
        span("spectral.fit_slope", 1.5, 2.5, 1),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_per_pass_totals_and_repeat_ratio():
    spec_a = {"samples": 100, "spec": "a"}
    spec_b = {"samples": 100, "spec": "b"}
    spans = [
        span("cli.main", 0.0, 4.0, -1, op=0),
        span("noise.synthesize", 0.0, 1.0, 0, op=0, work=spec_a),
        span("noise.synthesize", 1.0, 2.0, 0, op=0, work=spec_a),
        span("cli.main", 4.0, 6.0, -1, op=1),
        span("noise.synthesize", 4.0, 5.0, 3, op=1, work=spec_b),
        span("cli.main", 6.0, 7.0, -1, op=2),
    ]
    passes = tracer.per_pass(spans, ops_per_pass=2)
    assert sorted(passes) == [0, 1]
    first = passes[0]
    assert first["cli.main"]["calls"] == 2
    assert first["cli.main"]["self_s"] == pytest.approx(3.0)
    assert first["noise.synthesize"]["samples"] == 300
    metrics = tracer.layer_metrics(spans, ops_per_pass=2)
    assert metrics["cli.main.calls"] == 1.5  # median of 2 and 1
    assert metrics["noise.synthesize.repeat_ratio"] == pytest.approx(0.75)  # median of 1.5 and 0


def test_welch_segment_count_matches_the_segment_starts():
    class Sig:
        n_samples = 100_000

    step = 4096 - 2048
    starts = range(0, Sig.n_samples - 4096 + 1, step)
    work = tracer._welch({"signal": Sig, "segment_len": 4096, "overlap_fraction": 0.5})
    assert work == {"samples": 100_000, "segments": len(starts)}


def test_install_patches_every_binding_and_uninstall_restores():
    import quantband
    import quantband.experiments
    import quantband.scaling
    import quantband.spectral

    original = quantband.spectral.welch_psd
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = quantband.spectral.welch_psd
        assert wrapped is not original
        assert quantband.experiments.welch_psd is wrapped
        assert quantband.scaling.welch_psd is wrapped
        assert quantband.welch_psd is wrapped
        t.op = 0
        from quantband.noise import SynthesisSpec

        sig = quantband.synthesize(SynthesisSpec(2.0, 8192, 1000.0, seed=1))
        quantband.scaling.measure_noise_slope(sig, quantband.QuantizerConfig(8, 2.0))
    finally:
        t.uninstall()
    assert quantband.experiments.welch_psd is original
    names = [s[tracer.NAME] for s in t.spans]
    assert names == [
        "noise.synthesize", "scaling.measure_noise_slope", "quantizer.quantize",
        "quantizer.error_signal", "spectral.welch_psd", "spectral.fit_slope",
    ]
    parents = [s[tracer.PARENT] for s in t.spans]
    assert parents == [-1, -1, 1, 1, 1, 1]
    assert t.spans[4][tracer.WORK] == {"samples": 8192, "segments": 3}
