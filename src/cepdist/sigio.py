"""File formats: signal CSV, model JSON, and deterministic report JSON.

Signals travel as CSV with a header, either ``t,value`` for one signal or
``t,u,y`` for an input/output pair; the time column must be uniformly
spaced. Models travel as JSON, either state-space ``{"A","B","C","D"}`` or
root form ``{"poles","zeros","gain"}`` where each root is a real number or
a ``[re, im]`` pair. Report JSON is canonical: sorted keys, two-space
indent, trailing newline, no timestamps, NaN encoded as null.

Signal rows have one grammar, read by one parser, ``numtext.parse_block``,
PARSE_BLOCK_BYTES of lines at a time: each value is Python's ``float`` of
its cell, bit for bit. Lines end in LF, CRLF or a lone CR. A cell is an
ASCII decimal number (a sign, digits with a point, an exponent) with blanks
(space, tab, VT, FF, U+001C..U+001F) around it, optionally wrapped in
double quotes that open the cell, with blanks after them. Rows of only
blanks and commas, such quotes dropped, are skipped and not counted. The
first other row is a header if ``float`` cannot read one of its cells. A
row of other cells, of a width other than the first data row's, or with a
value that is not finite is refused with exit code 2, naming the first such
row and its fault: a byte that is not UTF-8, the width, or the cell. So
"1_0", "２", a no-break space and '"1"2' are refused, though ``float`` reads
them, and so is a first row "1_0,2". The data rows are cut once, at line
starts, into the blocks that every read parses; a file of
``parallel.FORK_MIN_BYTES`` or more is parsed in one contiguous run of
blocks per worker process (``parallel.map_runs``), each after the first in
a forked child, so the values and errors are those of the one-process read.

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
import csv
import io
import json
import math
import re
from itertools import chain

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
from .parallel import map_runs

# Rows formatted per step. It bounds the intermediate strings and lists to
# a few hundred kilobytes whatever the record length.
CSV_CHUNK_ROWS = 4096
# At most about this many bytes of lines go to one ``numtext.parse_block``
# call: some 2600 t,value or 1400 t,u,y rows. Its token arrays then stay
# below the 128 KiB from which malloc maps fresh pages for each call; a
# file of 4097 two-cell rows read in one block took about 280 page faults
# and a fifth more time per read than in two.
PARSE_BLOCK_BYTES = 1 << 16
_BLANKS = numtext.BLANKS.decode("ascii")
# A cell in double quotes, with blanks after them.
_QUOTED = re.compile(f'"([^"]*)"[{_BLANKS}]*')
# The number of a cell, as numtext.parse_block reads it.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# A byte that is not UTF-8, as the "surrogateescape" error handler decodes it.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _cell_text(cell: str) -> str:
    """A cell without the double quotes around it and the blanks around
    those and around the number."""
    quoted = _QUOTED.fullmatch(cell)
    return (quoted[1] if quoted else cell).strip(_BLANKS)


def _undecoded(row: str, number: int, path: str) -> ValidationError | None:
    """The error for a row that holds a byte that is not UTF-8, if it does."""
    if found := _UNDECODED.search(row):
        byte = ord(found.group()) - 0xDC00
        return ValidationError(f"{path}: row {number}: not UTF-8 text (byte 0x{byte:02x})")
    return None


def _row_error(line: bytes, width: int, number: int, path: str) -> ValidationError:
    """The error for a row, without its line end, that ``numtext.parse_block``
    refuses: a byte that is not UTF-8, else a width other than ``width``,
    else the first cell that is not a number of the grammar or not finite."""
    row = line.decode("utf-8", "surrogateescape")
    if undecoded := _undecoded(row, number, path):
        return undecoded
    cells = row.split(",")
    if len(cells) != width:
        return ValidationError(f"{path}: row {number}: expected {width} cells, got {len(cells)}")
    for text in map(_cell_text, cells):
        try:
            finite = math.isfinite(float(text))
        except ValueError:
            finite = True
        if not finite or not _NUMBER.fullmatch(text):
            what = "a number" if finite else "a finite number"
            return ValidationError(f"{path}: row {number}: {text!r} is not {what}")
    raise AssertionError("the row is one of the grammar")


def _is_header(cells: list[str]) -> bool:
    """Whether ``float`` cannot read one of a first row's cells."""
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return True
    return False


def _data_start(data: bytes, path: str) -> tuple[int, int, int]:
    """The offset of the first data row in a file's bytes, its row number
    (2 after a header, else 1) and its number of cells, 2 or 3. A header
    that is not UTF-8 text is refused, read as the "surrogateescape" error
    handler decodes it."""
    offset = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    text = io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", errors="surrogateescape", newline="")
    first_row = 1
    for line in text:
        row = line.rstrip("\r\n")
        cells = [_cell_text(cell) for cell in row.split(",")]
        if any(cells):
            if first_row == 2 or not _is_header(cells):
                if len(cells) not in (2, 3):
                    raise ValidationError(
                        f"{path}: expected 2 (t,value) or 3 (t,u,y) columns, got {len(cells)}"
                    )
                return offset, first_row, len(cells)
            if undecoded := _undecoded(row, 1, path):
                raise undecoded
            first_row = 2
        offset += len(line.encode())
    what = "a header but no data" if first_row > 1 else "no data"
    raise ValidationError(f"{path}: file contains {what}")


def _line_cuts(data: bytes, start: int, parts: int) -> list[int]:
    """Offsets that split the bytes from ``start`` on into ``parts`` line
    ranges of nearly equal size: ``start``, the start of the line at or
    after each k/parts of those bytes, and the length. ``start`` is taken
    for a line start. A cut follows a line end, whatever the line ends of
    the file: a line feed, or a CR that no line feed follows. No UTF-8
    character holds either byte. A CR is looked for only before the next
    line feed, so in an LF or CRLF file each cut scans at most one line
    twice.
    """
    cuts = [start]
    for k in range(1, parts):
        cut = max(cuts[-1], start + (len(data) - start) * k // parts)
        if cut > start:
            lf = data.find(b"\n", cut - 1)
            cr = data.find(b"\r", cut - 1, len(data) if lf < 0 else lf)
            cut = cr + 1 if cr >= 0 and cr + 1 != lf else lf + 1 or len(data)
        cuts.append(cut)
    return cuts + [len(data)]


def _read_table(data: bytes, path: str) -> tuple[np.ndarray, int]:
    """All data rows of a signal file's bytes, and the row number of the
    first; the first refused row is named by ``_row_error``.

    The lines from ``_data_start`` are cut once into blocks of about
    PARSE_BLOCK_BYTES, parsed in one contiguous run per worker
    (``parallel.map_runs``), so every worker count parses the same blocks.
    """
    start, first_row, width = _data_start(data, path)
    cuts = _line_cuts(data, start, -(-(len(data) - start) // PARSE_BLOCK_BYTES))
    view = memoryview(data)
    blocks = [view[a:b] for a, b in zip(cuts, cuts[1:])]
    runs = map_runs(
        lambda run: [numtext.parse_block(block, width) for block in run],
        blocks, len(data), parallel.FORK_MIN_BYTES,
    )
    tables = []
    row = first_row
    for block, (table, stop) in zip(blocks, chain.from_iterable(runs)):
        tables.append(table)
        row += len(table)
        if stop < len(block):
            raise _row_error(bytes(block[stop:]).splitlines()[0], width, row, path)
    return np.concatenate(tables), first_row


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
    among the rows not skipped, header included; every value must be finite.
    A file of ``parallel.FORK_MIN_BYTES`` or more is parsed in runs of
    blocks across forked worker processes; the blocks do not depend on the
    number of workers, so the result and every error are those of the
    one-process read.
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
