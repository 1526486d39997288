import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantband.io
from quantband.errors import (
    EmptySignalError,
    MalformedSampleError,
    NonFiniteSampleError,
    SignalIoError,
    UnreadableFileError,
    ValidationError,
)
from quantband.experiments import (
    AnalysisReport,
    ValidationConfig,
    analyze_signal,
    run_band_power,
    run_noise_color_sweep,
    run_peak_robustness,
    run_sensitivity,
    run_validation,
)
from quantband.io import (
    CSV_WRITE_BLOCK,
    FORMAT_CSV,
    FORMAT_RAW,
    SignalFileSpec,
    read_signal,
    report_to_dict,
    write_report,
    write_signal,
)
from quantband.noise import PeakSpec, Signal, SynthesisSpec, synthesize
from quantband.quantizer import QuantizerConfig
from quantband.scaling import NoiseColorConfig


def row_parser_samples(spec: SignalFileSpec) -> np.ndarray:
    """What ``read_signal`` gives for a CSV file, parsed one row at a time.

    This is the reader from before the ``np.loadtxt`` fast path, with
    error locations counted as the lines of the open text file: a line
    ends at "\n", "\r\n" or "\r" only.
    """
    with Path(spec.path).open() as fh:
        lines = [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise EmptySignalError("file contains no samples", path=spec.path)

    def parse(n, line):
        fields = line.split(",")
        if spec.channel_index >= len(fields):
            raise MalformedSampleError(
                f"row has {len(fields)} columns, wanted column {spec.channel_index}",
                path=spec.path,
                location=f"row {n}",
            )
        field = fields[spec.channel_index].strip()
        try:
            value = float(field)
        except ValueError:
            raise MalformedSampleError(
                f"could not parse {field!r} as a number", path=spec.path, location=f"row {n}"
            ) from None
        if not math.isfinite(value):
            raise NonFiniteSampleError(f"sample is {field}", path=spec.path, location=f"row {n}")
        return value

    start = 0
    try:
        parse(*lines[0])
    except MalformedSampleError:
        start = 1
    if start == len(lines):
        raise EmptySignalError("file contains only a header", path=spec.path)
    values = np.asarray([parse(n, line) for n, line in lines[start:]], dtype=np.float64)
    if values.size < 2:
        raise EmptySignalError(f"need at least 2 samples, found {values.size}", path=spec.path)
    return values


@st.composite
def csv_text(draw):
    """CSV text: well-formed rows, or odd fields and characters that other line rules split at."""
    number = st.one_of(
        st.floats(width=64).map(lambda x: f"{x:.17g}"),
        st.floats(width=64).map(repr),
        st.integers(-10**6, 10**6).map(str),
    )
    odd = st.sampled_from(
        ["nan", "-inf", "inf", "-0", "1_000", "\u0661\u0662", "\uff13", "", " 2.5 ",
         "\t-1e-3", "abc", "1e999", "0x10", "+.5", "1e", "\x1f7"]
    )
    breaks = ["\n", "\r\n", "\r"]
    blanks = ["", " ", "\t", " \t "]
    if not draw(st.booleans()):
        number = st.one_of(number, odd)
        breaks += ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
    row = st.lists(number, min_size=1, max_size=4).map(",".join)
    lines = draw(st.lists(st.one_of(row, row, row, st.sampled_from(blanks)), max_size=12))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["value", "t,x,y", "t , x"])))
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


class TestReadCsv:
    def test_plain_column(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("0.1\n0.2\n0.3\n")
        sig = read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))
        assert np.allclose(sig.samples, [0.1, 0.2, 0.3])
        assert sig.sample_rate_hz == 100.0

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("value\n1.0\n2.0\n")
        sig = read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))
        assert np.allclose(sig.samples, [1.0, 2.0])

    def test_channel_selection(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("t,ch0,ch1\n0,1.0,10.0\n1,2.0,20.0\n")
        sig = read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0, channel_index=2))
        assert np.allclose(sig.samples, [10.0, 20.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            read_signal(SignalFileSpec(str(tmp_path / "nope.csv"), FORMAT_CSV, 100.0))

    def test_non_numeric_row_has_context(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("1.0\nbogus\n3.0\n")
        with pytest.raises(MalformedSampleError, match="row 2"):
            read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("1.0\nnan\n")
        with pytest.raises(NonFiniteSampleError, match="row 2"):
            read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))

    def test_undecodable_byte_located_from_the_file_start(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_bytes(b"1.0\n" * 30_000 + b"\xff\n")
        with pytest.raises(UnreadableFileError, match="in position 120000"):
            read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("")
        with pytest.raises(EmptySignalError):
            read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))

    def test_header_only(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("value\n")
        with pytest.raises(EmptySignalError):
            read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))

    @pytest.mark.parametrize(
        "text",
        [b"1.0\nabc\n" + b"1.0\n" * 30_000 + b"\xff\n", b"nan\n" + b"1.0\n" * 30_000 + b"\xff\n"],
        ids=["bad-row", "non-finite-first-row"],
    )
    def test_undecodable_byte_outranks_an_earlier_bad_row(self, text, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_bytes(text)
        with pytest.raises(UnreadableFileError, match="not a text file"):
            read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))

    def test_form_feed_inside_a_row_is_that_rows_error(self, tmp_path):
        # Only "\n", "\r\n" and "\r" end a line, so the row is the line an
        # editor shows.
        p = tmp_path / "sig.csv"
        p.write_text("1.0\n2.0\f3.0\n4.0\n")
        with pytest.raises(MalformedSampleError) as info:
            read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))
        assert str(info.value) == f"{p}: could not parse '2.0\\x0c3.0' as a number (row 2)"

    def test_form_feed_in_the_first_row_makes_it_the_header(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("1.0\f2.0\n3.0\n4.0\n")
        assert read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0)).samples.tolist() == [3.0, 4.0]

    @pytest.mark.parametrize(
        "text, error, location",
        [
            ("value\n\n1.0\n\n\n2.0\nabc\n3.0\n", MalformedSampleError, "row 7"),
            ("1.0\n\n\n2.0\nnan\n", NonFiniteSampleError, "row 5"),
        ],
    )
    def test_error_location_is_the_file_line(self, text, error, location, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text(text)
        with pytest.raises(error) as info:
            read_signal(SignalFileSpec(str(p), FORMAT_CSV, 100.0))
        assert info.value.location == location

    @given(text=csv_text(), channel=st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_matches_row_parser(self, text, channel, tmp_path_factory):
        p = tmp_path_factory.mktemp("csv") / "sig.csv"
        p.write_bytes(text.encode())
        spec = SignalFileSpec(str(p), FORMAT_CSV, 100.0, channel_index=channel)
        try:
            expected = row_parser_samples(spec)
        except SignalIoError as exc:
            with pytest.raises(type(exc)) as info:
                read_signal(spec)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
        else:
            assert read_signal(spec).samples.tobytes() == expected.tobytes()

    def test_non_ascii_header_takes_the_fast_path(self, tmp_path, monkeypatch):
        # EEG exports name the unit in the header; the row parser should
        # only look at that header, not parse every row.
        calls = []
        parse_row = quantband.io._parse_csv_row
        monkeypatch.setattr(
            quantband.io, "_parse_csv_row", lambda *a: calls.append(a) or parse_row(*a)
        )
        values = np.random.default_rng(3).standard_normal(1000)
        p = tmp_path / "eeg.csv"
        p.write_text("Fp1 (\u00b5V)\n" + "".join(f"{x:.17g}\n" for x in values.tolist()))
        samples = read_signal(SignalFileSpec(str(p), FORMAT_CSV, 256.0)).samples
        assert samples.tobytes() == values.tobytes()
        assert len(calls) <= 2

    def test_memory_stays_bounded(self, tmp_path, traced_peak):
        # Parsing row by row held a Python string and float per row, about
        # 13.6 MB for this 2 MB file.
        p = tmp_path / "sig.csv"
        values = np.random.default_rng(5).standard_normal(10**5)
        p.write_text("".join(f"{x:.17g}\n" for x in values.tolist()))
        spec = SignalFileSpec(str(p), FORMAT_CSV, 100.0)
        assert traced_peak(read_signal, spec) < 3 * p.stat().st_size

    def test_row_parser_memory_stays_bounded(self, tmp_path, traced_peak):
        # np.loadtxt rejects a line of spaces, so this file takes the row
        # parser. Holding the whole text and a string per row took 6.4x the
        # file size.
        p = tmp_path / "sig.csv"
        values = np.random.default_rng(5).standard_normal(10**5)
        p.write_text("".join(f"{x:.17g}\n" for x in values.tolist()) + "   \n")
        spec = SignalFileSpec(str(p), FORMAT_CSV, 100.0)
        assert traced_peak(read_signal, spec) < 3 * p.stat().st_size
        assert read_signal(spec).samples.tobytes() == values.tobytes()


class TestRawFormat:
    def test_byte_count_maps_to_samples(self, tmp_path):
        p = tmp_path / "sig.f64"
        values = np.arange(5, dtype="<f8")
        p.write_bytes(values.tobytes())
        sig = read_signal(SignalFileSpec(str(p), FORMAT_RAW, 100.0))
        assert sig.n_samples == 5

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "sig.f64"
        p.write_bytes(b"\x00" * 12)
        with pytest.raises(MalformedSampleError, match="multiple of 8"):
            read_signal(SignalFileSpec(str(p), FORMAT_RAW, 100.0))

    def test_nonfinite_sample_located(self, tmp_path):
        p = tmp_path / "sig.f64"
        values = np.array([1.0, np.inf, 3.0], dtype="<f8")
        p.write_bytes(values.tobytes())
        with pytest.raises(NonFiniteSampleError, match="byte offset 8"):
            read_signal(SignalFileSpec(str(p), FORMAT_RAW, 100.0))

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=2,
            max_size=128,
        )
    )
    @settings(max_examples=50)
    def test_round_trip_bit_exact(self, values, tmp_path_factory):
        p = tmp_path_factory.mktemp("raw") / "sig.f64"
        spec = SignalFileSpec(str(p), FORMAT_RAW, 250.0)
        write_signal(Signal(np.array(values), 250.0), spec)
        back = read_signal(spec)
        assert np.array_equal(back.samples, np.array(values))


class TestWriteSignal:
    def test_csv_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(64)
        p = tmp_path / "sig.csv"
        spec = SignalFileSpec(str(p), FORMAT_CSV, 100.0)
        write_signal(Signal(values, 100.0), spec)
        back = read_signal(spec)
        assert np.max(np.abs(back.samples - values)) <= 1e-12

    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.sampled_from(
                    [-0.0, 5e-324, -2.5e-320, 1.7976931348623157e308, -1.7976931348623157e308]
                ),
            ),
            min_size=2,
            max_size=128,
        )
    )
    @settings(max_examples=100)
    def test_csv_bytes_match_per_sample_format(self, values, tmp_path_factory):
        p = tmp_path_factory.mktemp("csv") / "sig.csv"
        write_signal(Signal(np.array(values), 250.0), SignalFileSpec(str(p), FORMAT_CSV, 250.0))
        assert p.read_bytes() == ("\n".join(f"{x:.17g}" for x in values) + "\n").encode()

    def test_signal_shorter_than_two_rejected(self):
        with pytest.raises(ValidationError):
            Signal(np.array([1.0]), 100.0)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            SignalFileSpec("x.bin", "parquet", 100.0)

    def test_raw_channel_other_than_zero_rejected(self):
        SignalFileSpec("x.f64", FORMAT_RAW, 100.0, channel_index=0)
        with pytest.raises(ValidationError, match="channel index must be 0, got 3$"):
            SignalFileSpec("x.f64", FORMAT_RAW, 100.0, channel_index=3)


SMALL = ValidationConfig(
    alpha=2.0, sample_rate_hz=2000.0, n_samples=30_000, bit_range=(5, 6), trials=2
)
EEG_PROXY = synthesize(SynthesisSpec(1.56, 8192, 160.0, seed=1))


# Memory bounds are stated in records: one record of MEMORY_N samples is
# 8 * MEMORY_N bytes.
MEMORY_N = 200_000
RECORD_BYTES = 8 * MEMORY_N


class TestSignalFileMemory:
    """Each signal path holds at most the record plus one fixed-size block."""

    @pytest.fixture()
    def signal(self):
        return Signal(np.random.default_rng(8).standard_normal(MEMORY_N), 250.0)

    @pytest.mark.parametrize("n", [MEMORY_N, 2 * MEMORY_N])
    def test_csv_write_holds_one_block(self, n, tmp_path, traced_peak):
        # Formatting every sample at once held about 9 records.
        sig = Signal(np.random.default_rng(n).standard_normal(n), 250.0)
        spec = SignalFileSpec(str(tmp_path / "sig.csv"), FORMAT_CSV, 250.0)
        assert traced_peak(write_signal, sig, spec) <= 100 * CSV_WRITE_BLOCK

    def test_raw_write_copies_nothing(self, signal, tmp_path, traced_peak):
        spec = SignalFileSpec(str(tmp_path / "sig.f64"), FORMAT_RAW, 250.0)
        assert traced_peak(write_signal, signal, spec) <= 0.1 * RECORD_BYTES

    def test_raw_read_holds_the_record_once(self, signal, tmp_path, traced_peak):
        spec = SignalFileSpec(str(tmp_path / "sig.f64"), FORMAT_RAW, 250.0)
        write_signal(signal, spec)
        assert traced_peak(read_signal, spec) <= 1.5 * RECORD_BYTES

    @pytest.mark.parametrize(
        "n", [CSV_WRITE_BLOCK - 1, CSV_WRITE_BLOCK, CSV_WRITE_BLOCK + 1, 2 * CSV_WRITE_BLOCK + 3]
    )
    def test_csv_blocks_join_into_per_sample_lines(self, n, tmp_path):
        values = np.random.default_rng(n).standard_normal(n)
        p = tmp_path / "sig.csv"
        write_signal(Signal(values, 250.0), SignalFileSpec(str(p), FORMAT_CSV, 250.0))
        assert p.read_bytes() == "".join(f"{x:.17g}\n" for x in values.tolist()).encode()


class TestWriteReport:
    def test_validation_json_schema(self, tmp_path):
        rep = run_validation(SMALL)
        out = tmp_path / "rep.json"
        write_report(rep, out, "json")
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2
        assert payload["metadata"]["tool"] == "quantband"
        assert payload["metadata"]["master_seed"] == SMALL.master_seed
        body = payload["report"]
        for key in (
            "config",
            "per_bit_cutoffs",
            "ratios",
            "predicted_ratio",
            "mean_error",
            "excluded_bits",
        ):
            assert key in body
        assert body["config"]["alpha"] == 2.0
        # v2 dropped the segment length: every record's PSD uses one rule.
        assert "segment_len" not in body["config"]

    @pytest.mark.parametrize(
        "make, header, n_rows",
        [
            pytest.param(
                lambda: run_noise_color_sweep(
                    NoiseColorConfig((1.0,), (4, 5), trials=2, master_seed=3, n_samples=30_000)
                ),
                "alpha,bits,noise_slope,is_white",
                2,
                id="noise-color",
            ),
            pytest.param(
                lambda: run_validation(SMALL),
                "alpha,bits,mean_f_c_hz,std_f_c_hz,valid_trials,excluded",
                2,
                id="validation",
            ),
            pytest.param(
                lambda: run_sensitivity(SMALL, [-0.1, 0.0, 0.1]),
                "delta_alpha,perturbed_alpha,predicted_ratio,rel_error",
                3,
                id="sensitivity",
            ),
            pytest.param(
                lambda: run_peak_robustness(SMALL, [PeakSpec(10.0, 2.0, 50.0)]),
                "center_hz,width_hz,amplitude_factor,mean_rel_error,measured_ratio,"
                "error_vs_baseline",
                1,
                id="peaks",
            ),
            pytest.param(
                lambda: run_band_power(EEG_PROXY, QuantizerConfig(6, 2.0)),
                "band,f_low_hz,f_high_hz,power_original,power_quantized,ratio,preserved",
                5,
                id="bands",
            ),
            pytest.param(
                lambda: analyze_signal(EEG_PROXY, QuantizerConfig(6, 2.0)),
                "field,value",
                len(dataclasses.fields(AnalysisReport)),
                id="analysis",
            ),
        ],
    )
    def test_csv_columns(self, make, header, n_rows, tmp_path):
        out = tmp_path / "rep.csv"
        write_report(make(), out, "csv")
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + n_rows

    def test_csv_needs_a_table(self, tmp_path):
        out = tmp_path / "rep.csv"
        with pytest.raises(ValidationError, match="no CSV schema for report type object"):
            write_report(object(), out, "csv")
        assert not out.exists()

    def test_reruns_identical_apart_from_timestamp(self, tmp_path):
        rep = run_validation(SMALL)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(rep, a, "json")
        write_report(run_validation(SMALL), b, "json")
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da["metadata"].pop("created_utc")
        db["metadata"].pop("created_utc")
        assert da == db

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            write_report(run_validation(SMALL), tmp_path / "r.x", "yaml")

    def test_report_to_dict_handles_numpy_scalars(self):
        payload = report_to_dict(run_validation(SMALL))
        json.dumps(payload)  # must be serializable without numpy types
