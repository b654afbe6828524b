"""File formats: signal CSV, model JSON, and deterministic report JSON.

Signals travel as CSV with a header, either ``t,value`` for one signal or
``t,u,y`` for an input/output pair; the time column must be uniformly
spaced. Models travel as JSON, either state-space ``{"A","B","C","D"}`` or
root form ``{"poles","zeros","gain"}`` where each root is a real number or
a ``[re, im]`` pair. Report JSON is canonical: sorted keys, two-space
indent, trailing newline, no timestamps, NaN encoded as null.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .errors import CepdistError, ValidationError
from .lti import Signal, StateSpaceModel, ZeroPoleGain

# Relative jitter allowed in the time column before it counts as non-uniform.
TIME_JITTER_RTOL = 1e-6
# Rows parsed or formatted per step. It bounds the intermediate strings and
# lists to a few hundred kilobytes whatever the record length.
CSV_CHUNK_ROWS = 4096
# A cell wrapped in double quotes, as CSV writers emit it. Only a quoted
# cell free of commas and quotes is unwrapped, so any other quote leaves its
# cell unparseable.
_QUOTED_CELL = re.compile(r'(?:^|(?<=,))"([^",]*)"')


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


def _bad_row(rows: list[str], width: int, first_row: int, path: str) -> ValidationError:
    """The error for the first row of a chunk that is not ``width`` finite numbers."""
    for offset, row in enumerate(rows, start=first_row):
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

    Every value is Python's ``float`` of its cell. ``first_row`` is the row
    number of ``rows[0]`` in error messages.
    """
    values = None
    if all(row.count(",") == width - 1 for row in rows):
        cells = ",".join(rows).split(",")
        with contextlib.suppress(ValueError):
            values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    if values is None or not np.isfinite(values).all():
        raise _bad_row(rows, width, first_row, path)
    return values.reshape(len(rows), width)


def _read_table(fh, path: str) -> tuple[np.ndarray, int]:
    """All data rows of an open signal file, and the row number of the first."""
    chunks = _row_chunks(fh)
    head = next(chunks, None)
    if head is None:
        raise ValidationError(f"{path}: file contains no data")
    start = 0 if _is_numeric(head[0]) else 1
    head = head[start:] or next(chunks, None)
    if head is None:
        raise ValidationError(f"{path}: file contains a header but no data")
    width = head[0].count(",") + 1
    if width not in (2, 3):
        raise ValidationError(f"{path}: expected 2 (t,value) or 3 (t,u,y) columns, got {width}")
    blocks = []
    row = start + 1
    for rows in chain([head], chunks):
        blocks.append(_parse_rows(rows, width, row, path))
        row += len(rows)
    return np.concatenate(blocks), start + 1


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


def read_signal_csv(path: str) -> tuple[str, Signal | tuple[Signal, Signal]]:
    """Read a signal file; returns ("single", Signal) or ("pair", (u, y)).

    A header row is expected but a purely numeric first row is accepted as
    data, with columns interpreted positionally. Rows are numbered from 1
    among the non-blank rows, header included; every value must be finite.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            table, first_row = _read_table(fh, path)
    except OSError as exc:
        raise ValidationError(f"cannot read signal file {path}: {exc}") from exc
    times, *columns = (np.ascontiguousarray(column) for column in table.T)
    period = _sample_period(times, first_row, path)
    if len(columns) == 1:
        return "single", Signal(columns[0], period)
    return "pair", (Signal(columns[0], period), Signal(columns[1], period))


def _format_rows(header: str, row_format: str, *columns: np.ndarray) -> str:
    """The header, then ``row_format`` applied to each row of the columns.

    Each chunk of CSV_CHUNK_ROWS rows is one %-operation. ``"%.17g" % x``
    gives the same text as ``f"{x:.17g}"``.
    """
    parts = [header]
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        block = np.column_stack([column[start : start + CSV_CHUNK_ROWS] for column in columns])
        parts.append(row_format * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def format_signal_csv(signal: Signal) -> str:
    times = np.arange(len(signal)) * signal.sample_period
    return _format_rows("t,value\n", "%.12g,%.17g\n", times, signal.samples)


def format_pair_csv(input_signal: Signal, output_signal: Signal) -> str:
    if len(input_signal) != len(output_signal):
        raise ValidationError("input and output lengths differ")
    times = np.arange(len(input_signal)) * input_signal.sample_period
    return _format_rows(
        "t,u,y\n", "%.12g,%.17g,%.17g\n", times, input_signal.samples, output_signal.samples
    )


def format_cepstrum_csv(cepstrum) -> str:
    """Lag/value rows; complex cepstra list negative lags first."""
    if cepstrum.kind == "complex":
        lags = np.arange(-cepstrum.order, cepstrum.order + 1)
        values = np.concatenate([cepstrum.negative[::-1], [cepstrum.zeroth], cepstrum.positive])
    else:
        lags = np.arange(cepstrum.order + 1)
        values = np.concatenate([[cepstrum.zeroth], cepstrum.positive])
    return _format_rows("k,value\n", "%d,%.17g\n", lags, values)


def _csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def format_matrix_csv(ids: tuple[str, ...], values: np.ndarray) -> str:
    """An ``id`` column and one column per id; NaN cells are left empty."""
    parts = [_csv_text([["id", *ids]])]
    # The csv module quotes the ids; each row then becomes one format string
    # with "%.17g" in the cells that hold a number.
    cell_formats = np.where(np.isnan(values), "", "%.17g").tolist()
    for start in range(0, len(ids), CSV_CHUNK_ROWS):
        stop = start + CSV_CHUNK_ROWS
        row_format = _csv_text(
            [name.replace("%", "%%"), *cells]
            for name, cells in zip(ids[start:stop], cell_formats[start:stop])
        )
        block = values[start:stop]
        parts.append(row_format % tuple(block[~np.isnan(block)].tolist()))
    return "".join(parts)


def _parse_root(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        re, im = entry
        if isinstance(re, (int, float)) and isinstance(im, (int, float)):
            return complex(re, im)
    raise ValidationError(f"{where}: roots must be numbers or [re, im] pairs, got {entry!r}")


def read_model_json(path: str) -> StateSpaceModel | ZeroPoleGain:
    """Read a model file in state-space or root form."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: model file must hold a JSON object")
    state_keys = {"A", "B", "C", "D"}
    root_keys = {"poles", "zeros", "gain"}
    try:
        if state_keys <= set(data):
            a = np.asarray(data["A"], dtype=float)
            if a.size == 0:
                a = np.zeros((0, 0))
            return StateSpaceModel(
                a,
                np.asarray(data["B"], dtype=float),
                np.asarray(data["C"], dtype=float),
                float(data["D"]),
            )
        if root_keys <= set(data):
            poles = [_parse_root(r, path) for r in data["poles"]]
            zeros = [_parse_root(r, path) for r in data["zeros"]]
            return ZeroPoleGain.from_roots(poles, zeros, float(data["gain"]))
    except CepdistError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
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
