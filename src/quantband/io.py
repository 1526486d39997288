"""Signal file ingestion and report serialization.

Signals travel as single-column (or column-selected) CSV or as raw
little-endian float64 with no header; the sample rate is always supplied
out of band. Reports serialize to JSON (full structure plus metadata) or
to CSV (the primary numeric table, one row per grid point).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EmptySignalError,
    MalformedSampleError,
    NonFiniteSampleError,
    SignalIoError,
    UnreadableFileError,
    ValidationError,
    check_positive,
)
from .noise import Signal

FORMAT_CSV = "csv"
FORMAT_RAW = "raw_f64_le"
# Samples formatted per write by the CSV writer: it bounds that step's memory.
CSV_WRITE_BLOCK = 4096

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SignalFileSpec:
    """Where a signal lives on disk and how to decode it."""

    path: str
    format: str
    sample_rate_hz: float
    channel_index: int = 0

    def __post_init__(self):
        if self.format not in (FORMAT_CSV, FORMAT_RAW):
            raise ValidationError(f"unknown signal format {self.format!r}")
        check_positive(self.sample_rate_hz, "sample rate")
        if self.channel_index < 0:
            raise ValidationError(f"channel index must be >= 0, got {self.channel_index}")
        if self.format == FORMAT_RAW and self.channel_index != 0:
            raise ValidationError(
                f"a raw file has one channel; channel index must be 0, got {self.channel_index}"
            )


def _parse_csv_row(line: str, channel: int, row: int, path: str) -> float:
    fields = line.split(",")
    if channel >= len(fields):
        raise MalformedSampleError(
            f"row has {len(fields)} columns, wanted column {channel}",
            path=path,
            location=f"row {row}",
        )
    text = fields[channel].strip()
    try:
        value = float(text)
    except ValueError:
        raise MalformedSampleError(
            f"could not parse {text!r} as a number", path=path, location=f"row {row}"
        ) from None
    if not math.isfinite(value):
        raise NonFiniteSampleError(
            f"sample is {text}", path=path, location=f"row {row}"
        )
    return value


def _data_rows(lines, spec: SignalFileSpec):
    """Yield ``(file line, text)`` for each data row of numbered ``lines``.

    Blank lines are skipped. A single header line is tolerated: the first
    non-blank line is skipped iff it does not parse as numbers.
    """
    rows = ((number, line) for number, line in lines if line.strip())
    first = next(rows, None)
    if first is None:
        raise EmptySignalError("file contains no samples", path=spec.path)
    try:
        _parse_csv_row(first[1], spec.channel_index, first[0], spec.path)
    except MalformedSampleError:
        first = next(rows, None)
        if first is None:
            raise EmptySignalError("file contains only a header", path=spec.path)
    yield first
    yield from rows


def _csv_samples(fh, spec: SignalFileSpec) -> np.ndarray:
    """Every data row's sample of the open text file ``fh``.

    ``np.loadtxt`` and the row parser read the lines ``fh`` yields, which
    end at "\n", "\r\n" or "\r" only. Where ``loadtxt`` rejects a row or
    reads a non-finite sample, the row parser reads them again, one at a
    time, and names the first bad row's file line.
    """
    first_line, _ = next(_data_rows(enumerate(fh, start=1), spec))
    fh.seek(0)
    try:
        values = np.loadtxt(
            fh,
            dtype=np.float64,
            delimiter=",",
            usecols=spec.channel_index,
            comments=None,
            skiprows=first_line - 1,
            ndmin=1,
        )
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    fh.seek(0)
    rows = _data_rows(enumerate(fh, start=1), spec)
    return np.fromiter(
        (_parse_csv_row(line, spec.channel_index, n, spec.path) for n, line in rows),
        dtype=np.float64,
    )


def _read_csv_samples(spec: SignalFileSpec) -> np.ndarray:
    try:
        with Path(spec.path).open() as fh:
            try:
                return _csv_samples(fh, spec)
            except SignalIoError:
                # A file that does not decode is unreadable, whatever its rows hold.
                for _ in fh:
                    pass
                raise
    except OSError as exc:
        raise UnreadableFileError(str(exc), path=spec.path) from exc
    except UnicodeDecodeError:
        # A chunked read counts the bad byte's position from its chunk;
        # decoding the whole file counts it from the start of the file.
        try:
            Path(spec.path).read_text()
        except UnicodeDecodeError as exc:
            raise UnreadableFileError(f"not a text file: {exc}", path=spec.path) from exc
        raise


def _read_raw_samples(spec: SignalFileSpec) -> np.ndarray:
    try:
        with Path(spec.path).open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if not size:
                raise EmptySignalError("file contains no samples", path=spec.path)
            if size % 8:
                raise MalformedSampleError(
                    f"file size {size} is not a multiple of 8",
                    path=spec.path,
                    location=f"byte {size - size % 8}",
                )
            values = np.fromfile(fh, dtype="<f8")
    except OSError as exc:
        raise UnreadableFileError(str(exc), path=spec.path) from exc
    bad = np.nonzero(~np.isfinite(values))[0]
    if bad.size:
        raise NonFiniteSampleError(
            f"sample {bad[0]} is {values[bad[0]]}",
            path=spec.path,
            location=f"byte offset {8 * int(bad[0])}",
        )
    return values


def read_signal(spec: SignalFileSpec) -> Signal:
    """Load a signal file according to its spec."""
    if spec.format == FORMAT_CSV:
        values = _read_csv_samples(spec)
    else:
        values = _read_raw_samples(spec)
    if values.size < 2:
        raise EmptySignalError(
            f"need at least 2 samples, found {values.size}", path=spec.path
        )
    return Signal(values, spec.sample_rate_hz)


def write_signal(signal: Signal, spec: SignalFileSpec) -> None:
    """Write a signal; raw round-trips bit-exactly, CSV to 17 significant digits."""
    samples = signal.samples
    if spec.format == FORMAT_CSV:
        # Formatted a block at a time, so only one block's text is held.
        with Path(spec.path).open("w") as fh:
            for start in range(0, samples.size, CSV_WRITE_BLOCK):
                block = samples[start : start + CSV_WRITE_BLOCK].tolist()
                fh.write(("%.17g\n" * len(block)) % tuple(block))
    else:
        np.asarray(samples, dtype="<f8").tofile(spec.path)


def _jsonable(value):
    """A report of Python scalars as JSON values; a non-finite float becomes null."""
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _find_seed(report) -> int | None:
    config = getattr(report, "config", None)
    return getattr(config, "master_seed", getattr(report, "master_seed", None))


def report_to_dict(report) -> dict:
    """JSON-ready dict: schema version, metadata block, then report fields."""
    payload = _jsonable(report)
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": {
            "tool": "quantband",
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "report_type": type(report).__name__,
            "master_seed": _jsonable(_find_seed(report)),
        },
        "report": payload,
    }


def write_report(report, path, format: str = "json") -> None:
    """Serialize a report to JSON, or its ``csv_table()`` to CSV with JSON's cell values."""
    path = Path(path)
    if format == "json":
        path.write_text(json.dumps(report_to_dict(report), indent=2) + "\n")
    elif format == "csv":
        if not hasattr(report, "csv_table"):
            raise ValidationError(f"no CSV schema for report type {type(report).__name__}")
        header, rows = report.csv_table()
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(_jsonable(rows))
    else:
        raise ValidationError(f"unknown report format {format!r}")
