"""File formats: signal CSV, model JSON, and deterministic report JSON.

Signals travel as CSV with a header, either ``t,value`` for one signal or
``t,u,y`` for an input/output pair; the time column must be uniformly
spaced. Models travel as JSON, either state-space ``{"A","B","C","D"}`` or
root form ``{"poles","zeros","gain"}`` where each root is a real number or
a ``[re, im]`` pair. Report JSON is canonical: sorted keys, two-space
indent, trailing newline, no timestamps, NaN encoded as null.

Signal rows are parsed by NumPy's C reader, which is handed the file's
lines, split by universal newlines, and converts each cell as Python's
``float`` does. A file it refuses, or that holds a non-finite value, is
parsed again in chunks of rows with ``float`` itself. That parse
also reads what the C reader refuses (quoted cells, underscores in numbers,
rows of only blanks and commas) and names the first row at fault. A file
of ``parallel.FORK_MIN_BYTES`` or more is parsed in one contiguous line
range per worker process (``parallel.worker_count``), each after the first
in a forked child; the values and errors are those of the one-process read.

Numbers are written with the text of Python's ``%``: samples, cepstral
coefficients and matrix cells with ``"%.17g"``, which reads back as the
same float, and times with ``"%.12g"``, or with ``"%d"`` where every time
of the rows is a whole number below 1e12, which gives the same text. The
text comes from ``numtext.format_block``, CSV_CHUNK_ROWS rows at a time. It
computes the digits with exact NumPy integer arithmetic and hands only the
non-finite values, and those that ``%g`` writes with an exponent, to
Python's ``%``.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import json
import math
import re
import warnings
from itertools import chain, islice
from typing import Iterator

import numpy as np

from . import numtext, parallel
from .errors import ValidationError, naming
from .lti import (
    TIME_JITTER_RTOL,
    Signal,
    StateSpaceModel,
    ZeroPoleGain,
    check_numbers,
    check_pair,
)
from .parallel import map_chunks

# Rows formatted per step, and rows parsed per step when a file falls back
# from NumPy's reader. It bounds the intermediate strings and lists to a few
# hundred kilobytes whatever the record length.
CSV_CHUNK_ROWS = 4096
# A cell wrapped in double quotes, as CSV writers emit it. Only a quoted
# cell free of commas and quotes is unwrapped, so any other quote leaves its
# cell unparseable.
_QUOTED_CELL = re.compile(r'(?:^|(?<=,))"([^",]*)"')
# A byte that is not UTF-8, as the "surrogateescape" error handler decodes it.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _is_numeric(row: str) -> bool:
    try:
        for cell in row.split(","):
            float(cell)
    except ValueError:
        return False
    return True


def _row_chunks(fh) -> Iterator[list[str]]:
    """The file's non-blank rows, CSV_CHUNK_ROWS lines of it at a time.

    A row keeps its line ending; ``float`` ignores it like any surrounding
    whitespace. A row whose cells are all blank is skipped.
    """
    while lines := list(islice(fh, CSV_CHUNK_ROWS)):
        if '"' in "".join(lines):
            lines = [_QUOTED_CELL.sub(r"\1", line) for line in lines]
        rows = [line for line in lines if line.replace(",", " ").strip()]
        if rows:
            yield rows


def _undecoded(row: str, number: int, path: str) -> ValidationError | None:
    """The error for a row that holds a byte that is not UTF-8, if it does."""
    found = _UNDECODED.search(row)
    if found is None:
        return None
    byte = ord(found.group()) - 0xDC00
    return ValidationError(f"{path}: row {number}: not UTF-8 text (byte 0x{byte:02x})")


def _bad_row(rows: list[str], width: int, first_row: int, path: str) -> ValidationError:
    """The error for the first row of a chunk that is not UTF-8 text of
    ``width`` finite numbers."""
    for offset, row in enumerate(rows, start=first_row):
        if undecoded := _undecoded(row, offset, path):
            return undecoded
        cells = row.split(",")
        if len(cells) != width:
            return ValidationError(
                f"{path}: row {offset}: expected {width} cells, got {len(cells)}"
            )
        for cell in cells:
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                return ValidationError(f"{path}: row {offset}: {text!r} is not a number")
            if not math.isfinite(value):
                return ValidationError(f"{path}: row {offset}: {text!r} is not a finite number")
    raise AssertionError("every row of the chunk is valid")


def _parse_rows(rows: list[str], width: int, first_row: int, path: str) -> np.ndarray:
    """The values of one chunk of rows, shape (len(rows), width).

    Every value is Python's ``float`` of its cell stripped of whitespace,
    which also drops the separators U+001C..U+001F that ``float`` keeps.
    ``first_row`` is the row number of ``rows[0]`` in error messages.
    """
    values = None
    if all(row.count(",") == width - 1 for row in rows):
        cells = ",".join(rows).split(",")
        with contextlib.suppress(ValueError):
            values = np.fromiter(map(float, map(str.strip, cells)), dtype=float, count=len(cells))
    if values is None or not np.isfinite(values).all():
        raise _bad_row(rows, width, first_row, path)
    return values.reshape(len(rows), width)


def _loadtxt_bytes(data: bytes) -> np.ndarray | None:
    """The rows of UTF-8 bytes as NumPy's C reader parses them, shape
    (rows, cells); None when it refuses one or a value is not finite.

    The reader gets the lines of the bytes, split by universal newlines,
    and no quote character: it would let a quoted cell run on over line
    ends, where the row-wise parse refuses the row, so a quote sends the
    file to that parse instead.
    """
    lines = io.TextIOWrapper(io.BytesIO(data), "utf-8", newline="")
    with warnings.catch_warnings():
        # A header-only file makes loadtxt warn "input contained no data";
        # the row-wise parse refuses it with its own message.
        warnings.simplefilter("ignore", UserWarning)
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    return table if np.isfinite(table).all() else None


def _data_start(data: bytes, path: str) -> tuple[int, int]:
    """The offset of the first data row in a file's bytes and its row
    number: 2 after a header, else 1; the end of the bytes and 1 when every
    line is blank. Every read of the rows starts there.

    A blank line holds only whitespace and commas, quotes around a cell
    free of commas and quotes dropped. A header is a first row that is not
    all numbers; one that is not UTF-8 text is refused, read as the
    "surrogateescape" error handler decodes it.
    """
    offset = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    text = io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", errors="surrogateescape", newline="")
    for line in text:
        first = _QUOTED_CELL.sub(r"\1", line)
        if first.replace(",", " ").strip():
            if _is_numeric(first):
                return offset, 1
            if undecoded := _undecoded(line, 1, path):
                raise undecoded
            return offset + len(line.encode()), 2
        offset += len(line.encode())
    return len(data), 1


def _line_cuts(data: bytes, parts: int) -> list[int]:
    """Offsets that split ``data`` into ``parts`` line ranges of nearly
    equal size: 0, the start of the line at or after each k/parts of the
    bytes, and the length. A cut follows a line feed, which ends a line
    whatever the line ends of the file, and no UTF-8 character holds one.
    """
    cuts = [0]
    for k in range(1, parts):
        start = max(cuts[-1], len(data) * k // parts)
        if start > 0 and data[start - 1 : start] != b"\n":
            start = data.find(b"\n", start) + 1 or len(data)
        cuts.append(start)
    return cuts + [len(data)]


def _range_table(
    data: bytes, head: tuple[int, int], cuts: list[int]
) -> tuple[np.ndarray, int] | None:
    """The data rows of a whole file's bytes as NumPy's C reader parses
    them, with the row number of the first; None when it refuses them or
    finds no finite table of 2 or 3 columns.

    The rows are parsed in the line ranges between the cuts, each after the
    first in a worker process (``parallel.map_chunks``); the lines before
    ``head``, the file's ``_data_start``, are left out of the first range.
    Each range is read with universal newlines, as the whole file would be,
    so the joined rows are the one-range read's rows, bit for bit.
    """
    start, first_row = head
    bounds = sorted({start, *(cut for cut in cuts if cut > start)})
    ranges = list(zip(bounds, bounds[1:]))
    tables = map_chunks(lambda span: _loadtxt_bytes(data[span[0] : span[1]]), ranges)
    if any(table is None for table in tables):
        return None
    tables = [table for table in tables if table.size]
    widths = {table.shape[1] for table in tables}
    if len(widths) != 1 or widths - {2, 3}:
        return None
    return np.concatenate(tables), first_row


def _read_table(data: bytes, path: str) -> tuple[np.ndarray, int]:
    """All data rows of a signal file's bytes, and the row number of the first.

    NumPy's C reader parses the bytes first, in one line range per worker
    (``_range_table``). The ranges refuse a file exactly when the reader
    would refuse it whole, so either way a refused file goes to the
    row-wise parse, which names the fault. Both start at ``_data_start``.
    """
    head = _data_start(data, path)
    parts = parallel.worker_count(len(data), parallel.FORK_MIN_BYTES, len(data))
    return _range_table(data, head, _line_cuts(data, parts)) or _parse_table(data, head, path)


def _parse_table(data: bytes, head: tuple[int, int], path: str) -> tuple[np.ndarray, int]:
    """``_read_table`` by Python's ``float``, CSV_CHUNK_ROWS rows at a time,
    from ``head``, the file's ``_data_start``.

    A byte that is not UTF-8 is refused in its row, read as the
    "surrogateescape" error handler decodes it.
    """
    start, first_row = head
    buffer = io.BytesIO(data)
    buffer.seek(start)
    chunks = _row_chunks(io.TextIOWrapper(buffer, "utf-8", errors="surrogateescape", newline=""))
    first = next(chunks, None)
    if first is None:
        what = "a header but no data" if first_row > 1 else "no data"
        raise ValidationError(f"{path}: file contains {what}")
    width = first[0].count(",") + 1
    if width not in (2, 3):
        raise ValidationError(f"{path}: expected 2 (t,value) or 3 (t,u,y) columns, got {width}")
    blocks = []
    row = first_row
    for rows in chain([first], chunks):
        blocks.append(_parse_rows(rows, width, row, path))
        row += len(rows)
    return np.concatenate(blocks), first_row


def _sample_period(times: np.ndarray, first_row: int, path: str) -> float:
    if times.size < 2:
        return 1.0
    steps = np.diff(times)
    dt = float(steps[0])
    if dt <= 0.0:
        raise ValidationError(f"{path}: time column must be strictly increasing")
    off = np.abs(steps - dt) > TIME_JITTER_RTOL * max(abs(dt), 1e-12)
    if off.any():
        idx = int(np.argmax(off))
        raise ValidationError(
            f"{path}: row {first_row + idx + 1}: non-uniform time step {float(steps[idx])} "
            f"(expected {dt})"
        )
    return dt


def read_signal_csv(path: str) -> Signal | tuple[Signal, Signal]:
    """Read a signal file: a t,value file gives a Signal, a t,u,y file the
    pair (u, y).

    A header row is expected but a purely numeric first row is accepted as
    data, with columns interpreted positionally. Rows are numbered from 1
    among the non-blank rows, header included; every value must be finite.
    A file of ``parallel.FORK_MIN_BYTES`` or more is parsed in line ranges
    across forked worker processes; the result and every error are those
    of the one-process read.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        table, first_row = _read_table(data, path)
    except OSError as exc:
        raise ValidationError(f"cannot read signal file {path}: {exc}") from exc
    times, *columns = (np.ascontiguousarray(column) for column in table.T)
    period = _sample_period(times, first_row, path)
    if len(columns) == 1:
        return Signal(columns[0], period)
    return Signal(columns[0], period), Signal(columns[1], period)


def _format_rows(header: str, formats: tuple[str, ...], *columns: np.ndarray) -> str:
    """The header, then one row per index of the columns: column j written
    as ``formats[j] % value`` writes it, fields joined by commas.

    The rows are written CSV_CHUNK_ROWS at a time (``numtext.format_block``).
    """
    parts = [header]
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        chunk = [column[start : start + CSV_CHUNK_ROWS] for column in columns]
        parts.append(numtext.format_block(formats, chunk).decode("ascii"))
    return "".join(parts)


def _time_column(start: int, stop: int, period: float) -> tuple[str, np.ndarray]:
    """The times of rows ``start`` to ``stop - 1``, and their format.

    A time is the row number times the period, written with ``"%.12g"``.
    That writes an integer below 1e12 as its digits, as ``"%d"`` does with
    the same integer, which is faster; so when every time of the rows is
    one, they are written that way.
    """
    times = np.arange(start, stop) * period
    if times.size and times[-1] < 1e12 and (times == np.trunc(times)).all():
        return "%d", times.astype(np.int64)
    return "%.12g", times


def format_signal_csv(signal: Signal) -> str:
    time_format, times = _time_column(0, len(signal), signal.sample_period)
    return _format_rows("t,value\n", (time_format, "%.17g"), times, signal.samples)


PAIR_CSV_HEADER = "t,u,y\n"


def format_pair_csv(input_signal: Signal, output_signal: Signal) -> str:
    return PAIR_CSV_HEADER + pair_csv_rows(input_signal, output_signal, 0, len(input_signal))


def pair_csv_rows(input_signal: Signal, output_signal: Signal, start: int, stop: int) -> str:
    """Rows ``start`` to ``stop - 1`` of ``format_pair_csv``, without its header.

    Row k's time is k times the sample period, so the rows of any split of
    the record join into the text of the whole. A range that is not within
    the record, or that ends before it starts, is refused.
    """
    check_pair(input_signal, output_signal)
    if not 0 <= start <= stop <= len(input_signal):
        raise ValidationError(
            f"row range [{start}, {stop}) is not within the {len(input_signal)} rows of the record"
        )
    time_format, times = _time_column(start, stop, input_signal.sample_period)
    return _format_rows(
        "",
        (time_format, "%.17g", "%.17g"),
        times,
        input_signal.samples[start:stop],
        output_signal.samples[start:stop],
    )


def format_cepstrum_csv(cepstrum) -> str:
    """Lag/value rows; complex cepstra list negative lags first."""
    if cepstrum.kind == "complex":
        lags = np.arange(-cepstrum.order, cepstrum.order + 1)
        values = np.concatenate([cepstrum.negative[::-1], [cepstrum.zeroth], cepstrum.positive])
    else:
        lags = np.arange(cepstrum.order + 1)
        values = np.concatenate([[cepstrum.zeroth], cepstrum.positive])
    return _format_rows("k,value\n", ("%d", "%.17g"), lags, values)


def _csv_row(fields) -> str:
    """One CSV row without its line end.

    The writer is told that lines end in "\r\n", so a field holding a
    carriage return is quoted like one holding a line feed, a comma or a
    quote, and every row reads back through ``csv.reader``.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(fields)
    return out.getvalue()[:-2]


def _format_numbers(numbers: np.ndarray) -> list[str]:
    """``"%.17g"`` of each number."""
    return _format_rows("", ("%.17g",), numbers).split("\n")[:-1]


def format_matrix_csv(ids: tuple[str, ...], values: np.ndarray) -> str:
    """An ``id`` column and one column per id; NaN cells are left empty.

    The upper triangle is formatted once. A cell below the diagonal is
    written as its mirror's text where the two hold equal values of equal
    sign, and formatted on its own only where they differ.
    """
    mirrored = np.tril((values == values.T) & (np.signbit(values) == np.signbit(values.T)), -1)
    own = ~mirrored & ~np.isnan(values)
    cells = np.full(values.shape, "", dtype=object)
    cells[own] = _format_numbers(values[own])
    cells[mirrored] = cells.T[mirrored]
    rows = (f"{_csv_row([name, ''])}{','.join(row)}\n" for name, row in zip(ids, cells.tolist()))
    return _csv_row(["id", *ids]) + "\n" + "".join(rows)


def _parse_root(entry, key: str):
    """A JSON root, with an [re, im] pair read as one complex number."""
    if not isinstance(entry, list):
        return entry
    if len(entry) == 2 and not any(isinstance(part, list) for part in entry):
        return complex(*check_numbers(entry, key, 1))
    raise ValidationError(f"roots must be numbers or [re, im] pairs, got {entry!r}")


def read_model_json(path: str) -> StateSpaceModel | ZeroPoleGain:
    """Read a model file in state-space or root form.

    Every entry must be a JSON number: a string or boolean is refused.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValidationError(f"{path}: not UTF-8 text (byte 0x{byte:02x})") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: model file must hold a JSON object")
    state_keys = {"A", "B", "C", "D"}
    root_keys = {"poles", "zeros", "gain"}
    try:
        with naming(path):
            if state_keys <= set(data):
                a = np.asarray(check_numbers(data["A"], "A", 2), dtype=float)
                if a.size == 0:
                    a = np.zeros((0, 0))
                return StateSpaceModel(a, data["B"], data["C"], data["D"])
            if root_keys <= set(data):
                poles, zeros = ([_parse_root(r, key) for r in data[key]]
                                if isinstance(data[key], list) else data[key]
                                for key in ("poles", "zeros"))
                return ZeroPoleGain(poles, zeros, data["gain"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: malformed model: {exc}") from exc
    raise ValidationError(
        f"{path}: model needs keys A,B,C,D (state space) or poles,zeros,gain (root form)"
    )


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if math.isinf(value):
            raise ValidationError(f"cannot write the non-finite value {value} into a report")
        return None if math.isnan(value) else value
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise ValidationError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed indent, trailing newline."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
