"""Configuration resolution and the CSV/JSON file formats."""

import csv
import io
import json
import math
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepdist import (
    CepdistError,
    CepstrumSequence,
    ConfigError,
    RunConfig,
    Signal,
    StateSpaceModel,
    ValidationError,
    ZeroPoleGain,
    canonical_json,
    complex_cepstrum_from_zpk,
    format_cepstrum_csv,
    format_matrix_csv,
    format_pair_csv,
    format_signal_csv,
    load_config,
    pair_csv_rows,
    parse_config_value,
    power_cepstrum_from_zpk,
    read_model_json,
    read_signal_csv,
)
from cepdist import parallel, sigio
from cepdist.cli import main
from cepdist.sigio import CSV_CHUNK_ROWS, TIME_JITTER_RTOL
from conftest import white_record

POLE_HALF = ZeroPoleGain([0.5], [], 1.0)

# Record lengths around the formatters' chunk size.
CHUNK_LENGTHS = (1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 3 * CSV_CHUNK_ROWS + 5)


# The per-row reader and the per-value formatters that the chunked code in
# cepdist.sigio replaced, kept as the oracles it must match. The reader
# takes the numbers of the grammar that sigio states: ASCII decimal cells
# with ASCII blanks around them, which csv.reader unwraps from quotes.
BLANKS = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"


def _reference_parse_float(text, where):
    try:
        value = float(text)
    except ValueError as exc:
        raise ValidationError(f"{where}: {text!r} is not a number") from exc
    if math.isfinite(value) and not re.fullmatch(NUMBER, text):
        raise ValidationError(f"{where}: {text!r} is not a number")
    return value


def _reference_sample_period(times, path):
    if len(times) < 2:
        return 1.0
    dt = times[1] - times[0]
    if dt <= 0.0:
        raise ValidationError(f"{path}: time column must be strictly increasing")
    for idx in range(1, len(times)):
        step = times[idx] - times[idx - 1]
        if abs(step - dt) > TIME_JITTER_RTOL * max(abs(dt), 1e-12):
            raise ValidationError(
                f"{path}: row {idx + 2}: non-uniform time step {step} (expected {dt})"
            )
    return dt


def _reference_read_signal_csv(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if any(cell.strip(BLANKS) for cell in row)]
    except OSError as exc:
        raise ValidationError(f"cannot read signal file {path}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: file contains no data")

    def _numeric_row(row):
        try:
            for cell in row:
                float(cell)
        except ValueError:
            return False
        return True

    start = 0 if _numeric_row(rows[0]) else 1
    if start == 1 and len(rows) == 1:
        raise ValidationError(f"{path}: file contains a header but no data")
    width = len(rows[start])
    if width not in (2, 3):
        raise ValidationError(f"{path}: expected 2 (t,value) or 3 (t,u,y) columns, got {width}")
    columns = [[] for _ in range(width)]
    for offset, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ValidationError(f"{path}: row {offset}: expected {width} cells, got {len(row)}")
        where = f"{path}: row {offset}"
        for cidx, cell in enumerate(row):
            columns[cidx].append(_reference_parse_float(cell.strip(BLANKS), where))
    period = _reference_sample_period(columns[0], path)
    if width == 2:
        return Signal(np.asarray(columns[1]), period)
    return Signal(np.asarray(columns[1]), period), Signal(np.asarray(columns[2]), period)


def _reference_format_signal_csv(signal):
    out = io.StringIO()
    out.write("t,value\n")
    for idx, value in enumerate(signal.samples):
        out.write(f"{idx * signal.sample_period:.12g},{value:.17g}\n")
    return out.getvalue()


def _reference_format_pair_csv(input_signal, output_signal):
    out = io.StringIO()
    out.write("t,u,y\n")
    dt = input_signal.sample_period
    for idx in range(len(input_signal)):
        out.write(
            f"{idx * dt:.12g},{input_signal.samples[idx]:.17g},{output_signal.samples[idx]:.17g}\n"
        )
    return out.getvalue()


def _reference_format_cepstrum_csv(cepstrum):
    out = io.StringIO()
    out.write("k,value\n")
    if cepstrum.kind == "complex":
        for k in range(-cepstrum.order, cepstrum.order + 1):
            out.write(f"{k},{cepstrum.coefficient(k):.17g}\n")
    else:
        for k in range(0, cepstrum.order + 1):
            out.write(f"{k},{cepstrum.coefficient(k):.17g}\n")
    return out.getvalue()


def _reference_csv_field(text):
    """A field as CSV quotes it: in double quotes, with each quote doubled,
    when it holds a comma, a quote, a line feed or a carriage return."""
    if any(char in text for char in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reference_format_matrix_csv(ids, values):
    rows = [["id", *ids]]
    for idx, name in enumerate(ids):
        rows.append([name, *("" if math.isnan(v) else f"{v:.17g}" for v in values[idx])])
    return "".join(",".join(map(_reference_csv_field, row)) + "\n" for row in rows)


def _same_floats(a, b):
    """Bit-identical arrays: equal values, equal signs of zero, equal dtypes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _signals(record):
    """The signals of a record read: a pair's two, or the one signal."""
    return record if isinstance(record, tuple) else (record,)


def _outcome(read, path):
    """Whether a read gave a pair, its samples and sample period, or the
    error message."""
    try:
        record = read(str(path))
    except ValidationError as exc:
        return str(exc)
    signals = _signals(record)
    return isinstance(record, tuple), [(s.samples.tobytes(), s.sample_period) for s in signals]


def _handed_blocks(monkeypatch):
    """A list that gets the bytes of every block handed to the block parser."""
    blocks = []
    parse_block = sigio.numtext.parse_block

    def spy(text, width):
        if width != 1:  # not a refused row's cell, asked whether it is a number
            blocks.append(bytes(text))
        return parse_block(text, width)

    monkeypatch.setattr(sigio.numtext, "parse_block", spy)
    return blocks


def _read_both(path):
    """Read with the reader and the oracle; require bit-identical results."""
    record = read_signal_csv(path)
    ref_record = _reference_read_signal_csv(path)
    assert isinstance(record, tuple) == isinstance(ref_record, tuple)
    for got, want in zip(_signals(record), _signals(ref_record)):
        assert _same_floats(got.samples, want.samples)
        assert got.sample_period == want.sample_period
    return record


def _raw_values(rng, size):
    """Floats of many magnitudes, with signed zeros, subnormals and integers."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    pick = rng.random(size)
    values[pick < 0.02] = 0.0
    values[(pick >= 0.02) & (pick < 0.04)] = -0.0
    values[(pick >= 0.04) & (pick < 0.06)] = 5e-324 * rng.integers(1, 1000)
    values[(pick >= 0.06) & (pick < 0.12)] = np.round(rng.standard_normal(1) * 100)
    return values


def _cell_texts(rng, values):
    """Each value written in one of several spellings that float() reads."""
    spellings = (repr, "{:.17g}".format, "{:.6e}".format, " {!r} ".format, "{:.3f}".format)
    choice = rng.integers(0, len(spellings), values.size)
    return [spellings[c](v) for c, v in zip(choice.tolist(), values.tolist())]


def test_defaults_validate():
    # The defaults pass the checks that run when a config is built.
    config = RunConfig()
    assert config.method == "welch"
    assert config.K == 256
    assert config.K_test == 20
    assert config.seed == 44


BAD_VALUES = [
    ("method", "burg", "method must be one of ('welch', 'periodogram'), got 'burg'"),
    ("output_format", "yaml", "output_format must be one of ('json', 'csv'), got 'yaml'"),
    ("window_len", 4, "window_len must be at least 8, got 4"),
    ("overlap", 1.0, "overlap must lie in [0, 1), got 1.0"),
    ("overlap", -0.1, "overlap must lie in [0, 1), got -0.1"),
    ("fft_length", 100, "fft_length must be a power of two, got 100"),
    ("K", 0, "K must be a positive integer, got 0"),
    ("K_test", 0, "K_test must be a positive integer, got 0"),
    ("hankel_rows", 0, "hankel_rows must be a positive integer, got 0"),
    ("tol_model", 0.0, "tol_model must lie in (0, 1), got 0.0"),
    ("tol_estimated", 1.0, "tol_estimated must lie in (0, 1), got 1.0"),
    ("seed", -1, "seed must be a nonnegative integer, got -1"),
]


@pytest.mark.parametrize(
    "field,value,message", BAD_VALUES, ids=[f"{field}-{value}" for field, value, _ in BAD_VALUES]
)
def test_validate_rejects_bad_values(field, value, message):
    # Refused where the config is built, whether new or a replaced copy.
    for build in (RunConfig, lambda **changes: replace(RunConfig(), **changes)):
        with pytest.raises(ConfigError) as info:
            build(**{field: value})
        assert str(info.value) == message


def test_parse_optional_integers():
    for text in ("none", "auto", "", "None", "AUTO"):
        assert parse_config_value("window_len", text) is None
        assert parse_config_value("fft_length", text) is None
    assert parse_config_value("window_len", "64") == 64
    assert parse_config_value("overlap", "0.25") == 0.25
    assert parse_config_value("method", " welch ") == "welch"


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_value("K", "abc")
    with pytest.raises(ConfigError):
        parse_config_value("overlap", "half")
    with pytest.raises(ConfigError):
        parse_config_value("bogus_key", "1")


def test_precedence_file_env_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "K = 64\n"
        "method = periodogram  # trailing comment\n"
        "window_len = none\n"
    )
    env = {"CEPDIST_K": "128", "CEPDIST_OVERLAP": "0.25", "UNRELATED": "1"}
    config = load_config(str(path), env=env, overrides={"K": "32"})
    assert config.K == 32
    assert config.overlap == 0.25
    assert config.method == "periodogram"
    assert config.window_len is None

    file_and_env = load_config(str(path), env=env)
    assert file_and_env.K == 128
    file_only = load_config(str(path), env={})
    assert file_only.K == 64
    assert load_config(env={}).K == 256


def test_config_file_errors_carry_line_numbers(tmp_path):
    bad_shape = tmp_path / "a.cfg"
    bad_shape.write_text("K 64\n")
    with pytest.raises(ConfigError, match="a.cfg:1"):
        load_config(str(bad_shape), env={})
    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("\nK = twelve\n")
    with pytest.raises(ConfigError, match="b.cfg:2"):
        load_config(str(bad_value), env={})
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"), env={})


def test_config_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfK = 64\n")
    assert load_config(str(path), env={}).K == 64


def test_negative_seed_exits_with_validation_code(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"poles": [0.5], "zeros": [], "gain": 1.0}))
    assert main(["simulate", "--model", str(model), "--seed", "-1"]) == 2
    assert main(["verify", "--case", "min-phase", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: seed must be a nonnegative integer, got -1") == 2


def test_load_config_validates_the_merged_result():
    # The override replaces the valid value from the environment, and a
    # value that is not a string is checked only on the merged result.
    with pytest.raises(ConfigError, match="overlap must lie in"):
        load_config(env={"CEPDIST_OVERLAP": "0.25"}, overrides={"overlap": 1.0})
    with pytest.raises(ConfigError):
        load_config(env={}, overrides={"bogus": 1})


def test_single_signal_round_trip(tmp_path):
    signal = Signal(np.random.default_rng(0).standard_normal(32), sample_period=0.01)
    path = tmp_path / "sig.csv"
    path.write_text(format_signal_csv(signal))
    back = read_signal_csv(str(path))
    assert isinstance(back, Signal)
    assert np.array_equal(back.samples, signal.samples)
    assert back.sample_period == pytest.approx(0.01, rel=1e-9)


def test_pair_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    u = Signal(rng.standard_normal(16))
    y = Signal(rng.standard_normal(16))
    text = format_pair_csv(u, y)
    assert text.startswith("t,u,y\n")
    path = tmp_path / "pair.csv"
    path.write_text(text)
    record = read_signal_csv(str(path))
    assert isinstance(record, tuple)
    u_back, y_back = record
    assert np.array_equal(u_back.samples, u.samples)
    assert np.array_equal(y_back.samples, y.samples)
    assert u_back.sample_period == 1.0


def test_pair_formatting_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        format_pair_csv(Signal(np.ones(4)), Signal(np.ones(5)))


def test_headerless_numeric_rows_are_accepted(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("0,1.5\n1,2.5\n2,3.5\n")
    signal = read_signal_csv(str(path))
    assert isinstance(signal, Signal)
    assert np.array_equal(signal.samples, [1.5, 2.5, 3.5])


@pytest.mark.parametrize(
    "content,samples",
    [("0,1\n1,2\n2,3\n", [1.0, 2.0, 3.0]), ("t,value\n0,1\n1,2\n", [1.0, 2.0])],
)
def test_byte_order_mark_is_not_part_of_the_first_row(tmp_path, content, samples):
    # A UTF-8 byte-order mark used to stick to the first cell, so a
    # headerless file lost its first row to header detection.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + content.encode())
    signal = read_signal_csv(str(path))
    assert isinstance(signal, Signal)
    assert np.array_equal(signal.samples, samples)


def test_simulate_reads_an_input_file_with_a_byte_order_mark(tmp_path, capsys):
    model = tmp_path / "model.json"
    identity = {"A": [[0.0]], "B": [0.0], "C": [0.0], "D": 1.0}
    model.write_bytes(b"\xef\xbb\xbf" + json.dumps(identity).encode())
    record = tmp_path / "input.csv"
    record.write_bytes(b"\xef\xbb\xbf0,1\n1,2\n2,3\n")
    assert main(["simulate", "--model", str(model), "--input", str(record)]) == 0
    assert capsys.readouterr().out == "t,u,y\n0,1,1\n1,2,2\n2,3,3\n"


# A header, then CSV_CHUNK_ROWS + 2 good rows: a row after them is row
# CSV_CHUNK_ROWS + 4.
_LONG_PREFIX = "t,value\n" + "".join(f"{k},{k}\n" for k in range(CSV_CHUNK_ROWS + 2))


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "no data"),
        ("t,value\n", "no data"),
        ("t,a,b,c\n0,1,2,3\n", "columns"),
        ("t,value\n0,1\n1\n", "row 3"),
        ("t,value\n0,1\n1,oops\n", "row 3"),
        ("t,value\n0,1\n1,2\n2.5,3\n", "non-uniform"),
        ("t,value\n2,1\n1,2\n", "increasing"),
        # Blank, whitespace-only and comma-only rows are not counted.
        ("\n , \nt,value\n\n0,1\n,\n1\n", "row 3:"),
        ("t,value\r\n0,1\r\n\t\r\n1,2\r\n2,oops\r\n", "row 4:"),
        ('t,value\n"0","1"\n"1",oops\n', "row 3:"),
        ("0,1\n1,2,3\n", "row 2:"),
        ("t,u,y\n0,1\n1,2\n2,3,4\n", "row 4:"),
        (" , \nt,value\n\n", "header but no data"),
        # An underscore is refused before the row of the wrong width.
        ("t,value\n0,1_0\n1,2\n2,3,4\n", "row 2:"),
        ("t,value\n0,1\n \n1,x_1\n", "row 3:"),
        ("t,value\n0,1,2,3\n", "columns"),
        pytest.param(_LONG_PREFIX + "oops,1\n", f"row {CSV_CHUNK_ROWS + 4}:", id="cell-in-chunk-2"),
        pytest.param(_LONG_PREFIX + "1\n", f"row {CSV_CHUNK_ROWS + 4}:", id="width-in-chunk-2"),
        pytest.param(_LONG_PREFIX + "1e9,1\n", "non-uniform", id="step-in-chunk-2"),
    ],
)
def test_signal_file_validation(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_bytes(content.encode())
    with pytest.raises(ValidationError, match=fragment) as raised:
        read_signal_csv(str(path))
    with pytest.raises(ValidationError) as reference:
        _reference_read_signal_csv(str(path))
    assert str(raised.value) == str(reference.value)


@pytest.mark.parametrize(
    "content",
    [
        pytest.param("t,value\n0,1\n\n1,2\n", id="empty-row"),
        pytest.param("t,value\n0,1\n \t\n1,2\n", id="whitespace-row"),
        pytest.param("t,value\n0,1\n,\n1,2\n", id="comma-row"),
        pytest.param('t,value\n0,1\n""\n1,2\n', id="quoted-empty-row"),
        pytest.param("t,value\n0,1_0\n1,2_5\n", id="underscore"),
        pytest.param('"0","1"\n1,2\n', id="quoted-first-row-no-header"),
        pytest.param("\ufefft,u,y\r\n0,1,2\r\n1,3,4\r\n", id="bom-crlf"),
        pytest.param("\nt,value\n0,1\n1,2\n", id="blank-first-line"),
        pytest.param('t,value\n"0" ,1\n"1" ,2\n', id="space-after-quote"),
        # U+001C..U+001F count as whitespace for str.strip but not for float.
        pytest.param("t,value\n0,1\x1c\n1,\x1f2\n", id="separator-padding"),
        pytest.param('t,value\n"0",1\x1c\n1,2\n', id="separator-padding-quoted"),
    ],
)
def test_reader_edge_cases_match_the_reference(tmp_path, monkeypatch, content):
    # The block parser is handed every data row of each example, and reads
    # it or, for the underscore, refuses it; each must give what the oracle
    # gives, its values or its error.
    path = tmp_path / "edge.csv"
    path.write_bytes(content.encode())
    blocks = _handed_blocks(monkeypatch)
    assert _outcome(read_signal_csv, path) == _outcome(_reference_read_signal_csv, path)
    data = path.read_bytes()
    assert b"".join(blocks) == data[sigio._data_start(data)[0] :]


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "file contains no data"),
        ("t,value\n", "header but no data"),
        ("t,value\n\n\n", "header but no data"),
    ],
)
def test_files_without_data_are_refused_without_a_warning(
    tmp_path, monkeypatch, content, message
):
    path = tmp_path / "empty.csv"
    path.write_text(content)
    for parts in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                _read_split(monkeypatch, str(path), parts)


def test_a_quoted_cell_does_not_run_on_over_a_line_end(tmp_path):
    # The csv module, and a reader given a quote character, would join
    # these lines into one row; the reader refuses the open quote.
    path = tmp_path / "open.csv"
    path.write_text('t,value\n0,1\n"1\n",2\n')
    with pytest.raises(ValidationError, match="row 3: expected 2 cells, got 1"):
        read_signal_csv(str(path))


# Spellings that float() reads but the grammar refuses, each in row 3 of
# a file, and the error each gives.
REFUSED_SPELLINGS = {
    "underscore": ("1,1_0", "row 3: '1_0' is not a number"),
    "fullwidth-digit": ("1,\uff12", "row 3: '\uff12' is not a number"),
    "arabic-indic-digit": ("1,\u0663", "row 3: '\u0663' is not a number"),
    "no-break-space": ("1,\xa02", "row 3: '\\xa02' is not a number"),
    "ideographic-space": ("1\u3000,2", "row 3: '1\\u3000' is not a number"),
    "no-break-space-row": ("\xa0", "row 3: expected 2 cells, got 1"),
    "next-line-row": ("\x85,", "row 3: '\\x85' is not a number"),
    "digits-after-quotes": ('1,"2"3', "row 3: '\"2\"3' is not a number"),
    "number-after-empty-quotes": ('1,"" 2', "row 3: '\"\" 2' is not a number"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_SPELLINGS))
def test_spellings_outside_the_grammar_are_refused_with_their_row(tmp_path, monkeypatch, name):
    line, message = REFUSED_SPELLINGS[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(f"t,value\n0,1\n{line}\n2,3\n".encode())
    for parts in (1, 2):
        with pytest.raises(ValidationError) as caught:
            _read_split(monkeypatch, str(path), parts)
        assert str(caught.value) == f"{path}: {message}"


def test_a_first_row_that_float_reads_is_refused_not_skipped(tmp_path, capsys):
    # float() reads every cell of "1_0,2", so it is no header: the grammar
    # refuses it as a data row.
    path = tmp_path / "raw.csv"
    path.write_text("1_0,2\n11,3\n12,4\n")
    assert main(["cepstrum", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: row 1: '1_0' is not a number\n"


def test_the_probe_file_is_refused_at_its_first_spelling_outside_the_grammar(tmp_path, capsys):
    path = tmp_path / "probe.csv"
    path.write_text('t,value\n0,1_0\n1,\uff12\n2,"3"\n3,\xa04\n', encoding="utf-8")
    assert main(["cepstrum", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: row 2: '1_0' is not a number\n")


def test_non_uniform_step_names_its_row_in_headerless_files(tmp_path):
    # The per-row reader named the row after it when there was no header.
    path = tmp_path / "raw.csv"
    path.write_text("0,1\n1,2\n2.5,3\n")
    with pytest.raises(ValidationError, match=r"raw\.csv: row 3: non-uniform time step 1\.5"):
        read_signal_csv(str(path))


@pytest.mark.parametrize(
    "content,row",
    [
        ("t,value\n0,1\n1,2\nnan,3\n", 4),
        ("t,value\nnan,1\n1,2\n", 2),
        ("t,value\n0,1\ninf,2\n", 3),
        ("t,value\n0,1\n1,nan\n", 3),
        ("t,u,y\n0,1,2\n1,2,-inf\n", 3),
        ("t,value\n0,1\n1,1e999\n", 3),
        ('0,1\n1,"NaN"\n', 2),
        pytest.param(_LONG_PREFIX + "nan,1\n", CSV_CHUNK_ROWS + 4, id="nan-in-chunk-2"),
    ],
)
def test_non_finite_values_are_refused_with_their_row(tmp_path, content, row):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValidationError, match=rf"bad\.csv: row {row}: .* is not a finite number"):
        read_signal_csv(str(path))


# Files with a byte that is not UTF-8, and the one-process error each gives.
NOT_UTF8_FILES = {
    "data-row": (b"t,value\n0,1\n1,\xff2\n", "row 3: not UTF-8 text (byte 0xff)"),
    "header": (b"t,val\xffue\n0,1\n1,2\n", "row 1: not UTF-8 text (byte 0xff)"),
    "headerless": (b"0,1\n1,2\n\xe22,3\n", "row 3: not UTF-8 text (byte 0xe2)"),
    "after-bom": (b"\xef\xbb\xbft,u,y\n0,1,2\n1,2,\xfe\n", "row 3: not UTF-8 text (byte 0xfe)"),
    "earlier-fault-first": (b"t,value\n0,x\n1,\xff2\n", "row 2: 'x' is not a number"),
    "in-chunk-2": (_LONG_PREFIX.encode() + b"9999,\xc3\n", f"row {CSV_CHUNK_ROWS + 4}: "
                   "not UTF-8 text (byte 0xc3)"),
}


@pytest.mark.parametrize("name", sorted(NOT_UTF8_FILES))
def test_a_byte_that_is_not_utf8_is_refused_with_its_row(tmp_path, monkeypatch, name):
    data, message = NOT_UTF8_FILES[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    for parts in (1, 2, 3):
        with pytest.raises(ValidationError) as caught:
            _read_split(monkeypatch, str(path), parts)
        assert str(caught.value) == f"{path}: {message}"


def test_model_and_config_files_that_are_not_utf8_are_refused(tmp_path):
    model = tmp_path / "model.json"
    model.write_bytes(b'{"poles": [0.5], "zeros": [], "gain": 1.0, "note": "\xff"}')
    with pytest.raises(ValidationError, match=r"model\.json: not UTF-8 text \(byte 0xff\)$"):
        read_model_json(str(model))
    config = tmp_path / "run.cfg"
    config.write_bytes(b"K = 32\n# a comment \xfe\n")
    with pytest.raises(ConfigError, match=r"run\.cfg: not UTF-8 text \(byte 0xfe\)$"):
        load_config(str(config), env={})


def test_non_finite_time_stamp_exits_with_validation_code(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"poles": [0.5], "zeros": [], "gain": 1.0}))
    record = tmp_path / "input.csv"
    record.write_text("t,value\n0,1\n1,2\nnan,3\n")
    assert main(["simulate", "--model", str(model), "--input", str(record)]) == 2
    assert "input.csv: row 4:" in capsys.readouterr().err


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.sampled_from(CHUNK_LENGTHS),
    width=st.sampled_from((2, 3)),
    header=st.booleans(),
    newline=st.sampled_from(("\n", "\r\n")),
    final_newline=st.booleans(),
    blank_rows=st.booleans(),
    quoted=st.booleans(),
)
def test_reader_matches_the_reference(
    tmp_path_factory, seed, length, width, header, newline, final_newline, blank_rows, quoted
):
    rng = np.random.default_rng(seed)
    period = float(rng.choice([1.0, 0.01, 0.25, 1e-3]))
    columns = [["%.12g" % (k * period) for k in range(length)]]
    columns += [_cell_texts(rng, _raw_values(rng, length)) for _ in range(width - 1)]
    rows = [",".join(cells) for cells in zip(*columns)]
    if quoted:
        for idx in rng.choice(length, size=min(length, 50), replace=False).tolist():
            rows[idx] = ",".join(f'"{cell}"' for cell in rows[idx].split(","))
    if header:
        rows.insert(0, '"t","u","y"' if width == 3 and quoted else ",".join("tuy"[:width]))
    if blank_rows:
        for blank in rng.choice(["", "  ", ",", " , ,", "\t", '""'], size=8).tolist():
            rows.insert(int(rng.integers(0, len(rows) + 1)), blank)
    text = newline.join(rows) + (newline if final_newline else "")
    path = tmp_path_factory.mktemp("records") / "record.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert isinstance(_read_both(str(path)), tuple) == (width == 3)


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.sampled_from(CHUNK_LENGTHS),
    period=st.sampled_from((1.0, 0.01, 1.0 / 3.0, 2.5e-7, 1e6)),
)
def test_formatters_match_the_reference(seed, length, period):
    rng = np.random.default_rng(seed)
    u = Signal(_raw_values(rng, length), period)
    y = Signal(_raw_values(rng, length), period)
    assert format_signal_csv(u) == _reference_format_signal_csv(u)
    assert format_pair_csv(u, y) == _reference_format_pair_csv(u, y)
    positive = _raw_values(rng, length)
    power = CepstrumSequence("power", positive, None, float(rng.standard_normal()))
    assert format_cepstrum_csv(power) == _reference_format_cepstrum_csv(power)
    mixed = CepstrumSequence("complex", positive, _raw_values(rng, length), -0.0)
    assert format_cepstrum_csv(mixed) == _reference_format_cepstrum_csv(mixed)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.sampled_from(CHUNK_LENGTHS + (2, 3 * CSV_CHUNK_ROWS + 6)),
    period=st.sampled_from((1.0, 0.1, 1e-3, 1.0 / 3.0, 3.0, 2.5e-7, 1e6)),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=5),
)
def test_row_ranges_of_any_split_join_into_the_reference(seed, length, period, cuts):
    rng = np.random.default_rng(seed)
    u = Signal(_raw_values(rng, length), period)
    y = Signal(_raw_values(rng, length), period)
    # Split points anywhere, repeats (empty ranges) and both ends included.
    bounds = sorted([0, length, *(int(cut * length) for cut in cuts)])
    text = "".join(pair_csv_rows(u, y, a, b) for a, b in zip(bounds, bounds[1:]))
    assert sigio.PAIR_CSV_HEADER + text == _reference_format_pair_csv(u, y)


@pytest.mark.parametrize("start,stop", [(0, 7), (-2, 5), (3, 1)])
def test_a_row_range_outside_the_record_is_refused(start, stop):
    signal = Signal(np.ones(5))
    message = f"row range [{start}, {stop}) is not within the 5 rows of the record"
    with pytest.raises(ValidationError) as info:
        pair_csv_rows(signal, signal, start, stop)
    assert str(info.value) == message


def test_formatted_records_read_back_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    u = Signal(_raw_values(rng, 3 * CSV_CHUNK_ROWS + 5), 0.01)
    y = Signal(_raw_values(rng, 3 * CSV_CHUNK_ROWS + 5), 0.01)
    path = tmp_path / "pair.csv"
    path.write_text(format_pair_csv(u, y))
    u_back, y_back = _read_both(str(path))
    assert _same_floats(u_back.samples, u.samples)
    assert _same_floats(y_back.samples, y.samples)


# The block reader cuts a file's data rows once into blocks of whole
# lines and parses them in one contiguous run of blocks per worker, each
# run after the first in a forked child. Its tables must be the row-wise
# parse's bit for bit, and a file it refuses must give the row-wise
# parse's error.

# Small files for the block reader.
RANGE_FILES = {
    "lf-header": "t,value\n0,1.5\n1,-2e-300\n2,3\n3,0.1\n4,-0\n",
    "crlf-pair": "t,u,y\r\n0,1,2\r\n1,3,4\r\n2,5,6\r\n3,7,8\r\n",
    "bom": "\ufefft,value\n0,1\n1,2\n2,3\n3,4\n",
    "no-header": "0,1\n1,2\n2,3\n3,4\n4,5\n",
    "bom-no-header": "\ufeff0,1\r\n1,2\r\n2,3\r\n3,4\r\n",
    "blank-lines": "t,value\n0,1\n\n1,2\n\r\n2,3\n\n3,4\n",
    "trailing-blank-lines": "t,value\n0,1\n1,2\n2,3\n\n\n\n",
    "blank-first-lines": "\n , \nt,value\n0,1\n1,2\n2,3\n",
    "bare-carriage-returns": "t,value\r0,1\r1,2\n2,3\r3,4\n",
    "no-final-line-end": "t,value\n0,1\n1,2\n2,3",
    "crlf-empty-lines": "t,value\r\n\r\n0,1\r\n\r\n1,2\r\n2,3\r\n",
    "crlf-trailing-empty-lines": "t,u,y\r\n0,1,2\r\n1,3,4\r\n\r\n\r\n",
    "empty-line-after-header": "t,value\n\n0,1\n1,2\n",
    "trailing-empty-line-no-header": "0,1\n1,2\n2,3\n\n",
    "blank-padded": "t, u ,y\n0, 1.5 ,\t-2\n 1,3e-3 , 4\r\n",
    "exponents": "t,value\n0,1e-300\n1,-2.5E+10\n2,.5e3\n3,5.e-2\n",
    "quoted": 't,value\n0,1\n1,2\n"2",3\n',
    "blank-row": "t,value\n0,1\n1,2\n , \n2,3\n",
}


def _read_split(monkeypatch, path, parts):
    """``read_signal_csv`` of the path with ``parts`` usable CPUs and no
    minimum size, so that its blocks are split into up to ``parts`` runs,
    as ``parallel.map_runs`` splits a large file's."""
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "FORK_MIN_BYTES", 0)
        patch.setattr(parallel, "usable_cpus", lambda: parts)
        return read_signal_csv(path)


def _line_starts(data):
    """Every offset at which a line of the bytes starts, and their length.
    A line ends in a line feed, or in a CR that no line feed follows."""
    ends = [
        k for k, byte in enumerate(data)
        if byte == 10 or byte == 13 and data[k + 1 : k + 2] != b"\n"
    ]
    return sorted({0, len(data), *(k + 1 for k in ends)})


# Quotes around a cell free of commas and quotes, as the row-wise parse
# dropped them.
_QUOTED_CELL = re.compile(r'(?:^|(?<=,))"([^",]*)"')


def _row_wise_table(data):
    """The data rows from ``sigio._data_start`` on as the row-wise parse,
    which the block parser replaced, reads them: each cell by Python's
    ``float``, rows of only whitespace and commas skipped, and the first
    faulty row named, without the file's name. The row number of the first
    row comes with them."""
    start, first_row, width = sigio._data_start(data)
    text = io.TextIOWrapper(io.BytesIO(data[start:]), "utf-8", "surrogateescape", newline="")
    rows = [_QUOTED_CELL.sub(r"\1", line) for line in text]
    rows = [row for row in rows if row.replace(",", " ").strip()]
    values = []
    for number, row in enumerate(rows, start=first_row):
        if undecoded := re.search("[\udc80-\udcff]", row):
            byte = ord(undecoded.group()) - 0xDC00
            raise ValidationError(f"row {number}: not UTF-8 text (byte 0x{byte:02x})")
        cells = [cell.strip() for cell in row.split(",")]
        if len(cells) != width:
            raise ValidationError(f"row {number}: expected {width} cells, got {len(cells)}")
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(f"row {number}: {cell!r} is not a number") from None
            if not math.isfinite(value):
                raise ValidationError(f"row {number}: {cell!r} is not a finite number")
            values.append(value)
    return np.array(values, dtype=float).reshape(-1, width), first_row


def _table_outcome(read, data):
    """The table and first row number that a reader gives, or its error."""
    try:
        table, first_row = read(data)
    except ValidationError as exc:
        return str(exc)
    return table.shape, table.tobytes(), first_row


def _block_tables(monkeypatch, data):
    """The block reader's outcome for the bytes (``_table_outcome``) at
    every block size from 1 byte to the length of the bytes, each with 1,
    2 and 3 workers: (block size, workers, outcome) triples."""
    outcomes = []
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "FORK_MIN_BYTES", 0)
        for size in range(1, len(data) + 1):
            patch.setattr(sigio, "PARSE_BLOCK_BYTES", size)
            for workers in (1, 2, 3):
                patch.setattr(parallel, "usable_cpus", lambda: workers)
                outcomes.append((size, workers, _table_outcome(sigio._read_table, data)))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return outcomes


@pytest.mark.parametrize("name", sorted(RANGE_FILES))
def test_range_reader_matches_one_process_at_every_split(tmp_path, monkeypatch, name):
    # Every block size, from one byte, where every line is a block of its
    # own, to the whole file, which is one block, each in 1 to 3 runs.
    data = RANGE_FILES[name].encode()
    want = _table_outcome(_row_wise_table, data)
    assert not isinstance(want, str)
    for size, workers, parsed in _block_tables(monkeypatch, data):
        assert parsed == want, (size, workers)


@pytest.mark.parametrize("name", sorted(RANGE_FILES))
def test_blocks_of_any_size_give_the_one_block_read(tmp_path, monkeypatch, name):
    # A range is parsed in blocks of whole lines; every block size gives
    # the rows of one block, bit for bit.
    path = tmp_path / "record.csv"
    path.write_bytes(RANGE_FILES[name].encode())
    want = _read_outcome(monkeypatch, path)
    for size in (1, 5, 16):
        monkeypatch.setattr(sigio, "PARSE_BLOCK_BYTES", size)
        assert _read_outcome(monkeypatch, path) == want
        assert _read_outcome(monkeypatch, path, 2) == want


# Files that the block reader refuses, wherever the cuts fall.
REFUSED_RANGE_FILES = {
    "inner-bom": "t,value\n0,1\n\ufeff1,2\n2,3\n",
    "non-finite": "t,value\n0,1\n1,2\n2,-inf\n",
    "row-width": "t,u,y\n0,1,2\n1,2,3\n2,3\n",
    "header-only": "t,value\n",
    "blank-lines-only": "\n , \n\n",
}


@pytest.mark.parametrize("name", sorted(REFUSED_RANGE_FILES))
def test_range_reader_refuses_a_bad_row_at_every_split(monkeypatch, name):
    data = REFUSED_RANGE_FILES[name].encode()
    want = _table_outcome(_row_wise_table, data)
    assert isinstance(want, str)
    for size, workers, parsed in _block_tables(monkeypatch, data):
        assert parsed == want, (size, workers)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_every_worker_count_parses_the_same_blocks(tmp_path, monkeypatch):
    # numtext.parse_block is handed the same blocks, in the same order,
    # whatever the number of workers. Each process logs the blocks it is
    # handed to a file of its own; the parent parses the first run and the
    # children the others, in the order they were forked.
    record = tmp_path / "record.csv"
    record.write_text(format_pair_csv(*white_record(POLE_HALF, 25000, 3)))
    assert record.stat().st_size > 1 << 20
    parse_block = sigio.numtext.parse_block
    real_fork = os.fork

    def blocks_read(path, workers):
        log = tmp_path / f"log{workers}"
        log.mkdir()
        pids = [os.getpid()]

        def spy(block, width):
            with open(log / str(os.getpid()), "ab") as fh:
                fh.write(len(block).to_bytes(8, "little") + bytes(block))
            return parse_block(block, width)

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        with monkeypatch.context() as patch:
            patch.setattr(sigio.numtext, "parse_block", spy)
            patch.setattr(os, "fork", fork)
            _read_split(monkeypatch, str(path), workers)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        blocks = []
        for pid in pids:
            text = (log / str(pid)).read_bytes()
            while text:
                size = int.from_bytes(text[:8], "little")
                blocks.append(text[8 : 8 + size])
                text = text[8 + size :]
        for entry in log.iterdir():
            entry.unlink()
        log.rmdir()
        return blocks, len(pids)

    # The record in blocks of the default size, the small files in blocks
    # of one byte, so one line each.
    cases = [(record, sigio.PARSE_BLOCK_BYTES)]
    for name in sorted(RANGE_FILES):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(RANGE_FILES[name].encode())
        cases.append((path, 1))
    for path, size in cases:
        monkeypatch.setattr(sigio, "PARSE_BLOCK_BYTES", size)
        data = path.read_bytes()
        one, processes = blocks_read(path, 1)
        assert processes == 1 and len(one) > 3
        assert b"".join(one) == data[sigio._data_start(data)[0] :]
        for workers in (2, 3):
            assert blocks_read(path, workers) == (one, workers), (path.name, workers)


def test_a_lone_cr_file_is_cut_into_the_blocks_of_the_lf_file(tmp_path, monkeypatch):
    # Blocks are cut at line starts whatever the line end, so a lone-CR file
    # is not parsed as one block: it is cut where its LF copy is.
    rows = "t,value\n" + "".join(f"{k},{k % 7 - 3.5}\n" for k in range(300))
    parse_block = sigio.numtext.parse_block
    monkeypatch.setattr(sigio, "PARSE_BLOCK_BYTES", 256)
    reads = []
    for text in (rows, rows.replace("\n", "\r")):
        path = tmp_path / f"record{len(reads)}.csv"
        path.write_bytes(text.encode())
        sizes = []
        with monkeypatch.context() as patch:
            patch.setattr(
                sigio.numtext, "parse_block",
                lambda block, width: sizes.append(len(block)) or parse_block(block, width),
            )
            signal = read_signal_csv(str(path))
        reads.append((sizes, signal.samples.tobytes(), signal.sample_period))
    assert len(reads[0][0]) > 1
    assert reads[1] == reads[0]


# Cells, separators and characters that end or might end a line, for the
# property below; float() reads the underscore, the fullwidth digit and
# the no-break space, which the grammar refuses.
READER_PIECES = [
    "0,1\n", "2.5,-3e-300\r\n", "0", "1.5", "-2e-3", "nan", "inf", "1e999", "x", "_", '"', ",",
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\x00", "\ufeff",
    "5.", ".5", "1E+5", "+", "-", ".", "e", "1_0", "\uff12", "\xa0",
]
# A cell of the grammar: a number with blanks around it, optionally in
# double quotes that open the cell, with blanks after them; or no number,
# for a skipped row.
_B = f"[{BLANKS}]*"
GRAMMAR_CELL = re.compile(f'(?:"{_B}({NUMBER})?{_B}"|{_B}({NUMBER})?){_B}')


def _in_grammar(data):
    """Whether every line of the bytes is UTF-8 text of cells of the
    grammar, either all with a number or none."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    for line in re.split("\r\n|\r|\n", text):
        cells = [GRAMMAR_CELL.fullmatch(cell) for cell in line.split(",")]
        numbers = [cell is not None and cell.lastindex is not None for cell in cells]
        if not all(cells) or any(numbers) and not all(numbers):
            return False
    return True


@settings(max_examples=300)
@given(pieces=st.lists(st.sampled_from(READER_PIECES), max_size=40))
def test_the_block_parser_reads_each_text_as_the_row_parse(pieces):
    # Wherever every data row is in the grammar, the block reader gives the
    # rows of the row-wise parse by float(), bit for bit, with the same
    # number for the first, or the same error; anywhere else it refuses.
    data = "".join(pieces).encode()
    by_reader = _table_outcome(sigio._read_table, data)
    try:
        start = sigio._data_start(data)[0]
    except ValidationError as exc:
        assert by_reader == str(exc)
        return
    if _in_grammar(data[start:]):
        assert by_reader == _table_outcome(_row_wise_table, data)
    else:
        assert isinstance(by_reader, str)


@settings(max_examples=50)
@given(
    lines=st.lists(st.text("ab,\r", max_size=6), max_size=12),
    final=st.booleans(),
    first=st.integers(0, 20),
    parts=st.integers(1, 6),
)
def test_line_cuts_fall_at_the_first_line_start_past_each_share(lines, final, first, parts):
    data = ("\n".join(lines) + ("\n" if final else "")).encode()
    starts = _line_starts(data)
    start = starts[first % len(starts)]
    cuts = sigio._line_cuts(data, start, parts)
    assert len(cuts) == parts + 1
    assert cuts[0] == start and cuts[-1] == len(data)
    for k in range(1, parts):
        share = start + (len(data) - start) * k // parts
        assert cuts[k] == min(s for s in starts if s >= max(cuts[k - 1], share))


@pytest.mark.parametrize("name", sorted(RANGE_FILES))
@pytest.mark.parametrize("parts", [2, 3, 4])
def test_read_in_ranges_matches_one_process(tmp_path, monkeypatch, name, parts):
    path = tmp_path / "record.csv"
    path.write_bytes(RANGE_FILES[name].encode())
    serial = read_signal_csv(str(path))
    record = _read_split(monkeypatch, str(path), parts)
    assert isinstance(record, tuple) == isinstance(serial, tuple)
    for got, want in zip(_signals(record), _signals(serial)):
        assert _same_floats(got.samples, want.samples)
        assert got.sample_period == want.sample_period


def _read_outcome(monkeypatch, path, parts=1):
    """The ``_outcome`` of a read with ``parts`` usable CPUs."""
    return _outcome(lambda name: _read_split(monkeypatch, name, parts), path)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_a_read_in_a_chunk_of_map_chunks_forks_no_grandchild(tmp_path, monkeypatch):
    # A split read gives the bits of the one-worker read. In the parent's
    # chunk of map_chunks and in a child's, the same read forks nothing.
    u, y = white_record(POLE_HALF, 3000, 2)
    path = tmp_path / "record.csv"
    path.write_text(format_pair_csv(u, y))
    one_range = _read_outcome(monkeypatch, path)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())

    def read(parts):
        before = len(forks)
        return _read_outcome(monkeypatch, path, parts), len(forks) - before

    for parts in (2, 3):
        assert read(parts) == (one_range, parts - 1)
        assert parallel.map_chunks(read, [parts, parts]) == [(one_range, 0)] * 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", sorted({**RANGE_FILES, **REFUSED_RANGE_FILES}))
def test_without_in_memory_files_the_reader_gets_the_lines(tmp_path, monkeypatch, name):
    # Every block goes to the block parser as bytes of whole lines, on every
    # platform: never as a path, and nothing read depends on whether
    # os.memfd_create exists.
    data = {**RANGE_FILES, **REFUSED_RANGE_FILES}[name].encode()
    path = tmp_path / "record.csv"
    path.write_bytes(data)
    want = [_read_outcome(monkeypatch, path, parts) for parts in (1, 2, 3)]
    blocks = _handed_blocks(monkeypatch)
    monkeypatch.delattr(os, "memfd_create", raising=False)
    assert [_read_outcome(monkeypatch, path, parts) for parts in (1, 2, 3)] == want
    # A file without data is refused before any block is parsed.
    head = sigio._data_start(data)[0] if blocks else len(data)
    lines = {head, len(data), *(k + 1 for k, byte in enumerate(data) if byte in b"\r\n")}
    for block in blocks:
        starts = [k for k in lines if k >= head and data.startswith(block, k)]
        assert any(k + len(block) in lines for k in starts), block
    refused = isinstance(_table_outcome(sigio._read_table, data), str)
    assert refused == (name in REFUSED_RANGE_FILES)


# Faults in the last rows, so in the last run of blocks: each must give the
# one-process read's outcome. The block parser refuses all but the time
# step, which is checked on the joined rows, the bare carriage return,
# which ends a line for both reads, and the quoted cell, which it reads.
RANGE_FAULTS = {
    "quoted-cell": ('58,"1.5"\n', None),
    "non-finite-cell": ("58,inf\n", "row 60: 'inf' is not a finite number"),
    "bad-cell": ("58,1.5x\n", "row 60: '1.5x' is not a number"),
    "row-width": ("58,1,2\n", "row 60: expected 2 cells, got 3"),
    "time-step": ("58.5,1\n", "row 60: non-uniform time step 1.5 (expected 1.0)"),
    "inner-bom": ("\ufeff58,1\n", "row 60: '\\ufeff58' is not a number"),
    "bare-cr": ("58,1\r59,2\n", None),
}


@pytest.mark.parametrize("fault", sorted(RANGE_FAULTS))
@pytest.mark.parametrize("parts", [2, 3, 4])
def test_a_fault_in_the_last_range_gives_the_one_process_outcome(
    tmp_path, monkeypatch, fault, parts
):
    line, message = RANGE_FAULTS[fault]
    rows = [f"{k},{k % 7 - 3.5}\n" for k in range(59)]
    rows[58] = line
    path = tmp_path / "record.csv"
    path.write_bytes(("t,value\n" + "".join(rows)).encode())
    data = path.read_bytes()
    # Blocks of 64 bytes, so that the file has a run of blocks per worker.
    monkeypatch.setattr(sigio, "PARSE_BLOCK_BYTES", 64)
    head = sigio._data_start(data)
    cuts = sigio._line_cuts(data, head[0], -(-(len(data) - head[0]) // 64))
    last_run = parallel.ranges(len(cuts) - 1, parts)[-1]
    assert last_run[0] > 0 and cuts[last_run[0]] < data.index(line.encode())
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "FORK_MIN_BYTES", 0)
        patch.setattr(parallel, "usable_cpus", lambda: parts)
        parsed = _table_outcome(sigio._read_table, data)
    assert isinstance(parsed, str) == (fault not in ("time-step", "bare-cr", "quoted-cell"))
    outcomes = []
    for count in (1, parts):
        try:
            signal = _read_split(monkeypatch, str(path), count)
            outcomes.append((signal.samples.tobytes(), signal.sample_period))
        except ValidationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if message is not None:
        assert outcomes[0] == f"{path}: {message}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "start,stop,period,time_format",
    [
        (0, 1, 1.0, "%d"),
        (0, 2, 1.0, "%d"),
        (999999999998, 1000000000000, 1.0, "%d"),
        # 1e12 is where "%.12g" switches to an exponent.
        (999999999999, 1000000000001, 1.0, "%.12g"),
        (1000000000000, 1000000000001, 1.0, "%.12g"),
        (0, 1, 0.5, "%d"),
        (2, 3, 0.5, "%d"),
        (0, 4, 0.5, "%.12g"),
        (0, 1, 0.1, "%d"),
        # 10 * 0.1 is exactly 1.0, the rows around it are not integers.
        (10, 11, 0.1, "%d"),
        (9, 12, 0.1, "%.12g"),
        (5, 5, 1.0, "%.12g"),
    ],
)
def test_integral_times_are_written_as_integers_with_the_same_text(
    start, stop, period, time_format
):
    got_format, times = sigio._time_column(start, stop, period)
    assert got_format == time_format
    floats = (np.arange(start, stop) * period).tolist()
    assert [got_format % t for t in times.tolist()] == ["%.12g" % t for t in floats]
    if got_format == "%d":
        assert all(isinstance(t, int) for t in times.tolist())
    assert "%.12g" % 1e12 == "1e+12" != "%d" % 10**12


MATRIX_IDS = ["a", "b,c", 'q"uote', "per%cent", "%s", "new\nline", "cr\rret", "", " pad ",
              "nan", "x,nan,y"]


@pytest.mark.parametrize("chunk", [1, 2, 5, CSV_CHUNK_ROWS])
@pytest.mark.parametrize("seed", range(4))
def test_matrix_csv_matches_the_reference(monkeypatch, chunk, seed):
    monkeypatch.setattr("cepdist.sigio.CSV_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, len(MATRIX_IDS) + 1))
    ids = tuple(rng.permutation(MATRIX_IDS)[:size].tolist())
    values = _raw_values(rng, size * size).reshape(size, size)
    values[rng.random((size, size)) < 0.2] = np.nan
    values[rng.random((size, size)) < 0.05] = np.inf
    values[rng.random((size, size)) < 0.05] = -np.inf
    assert format_matrix_csv(ids, values) == _reference_format_matrix_csv(ids, values)


def _mirror_upper_triangle(values):
    rows, cols = np.tril_indices(len(values), -1)
    values[rows, cols] = values[cols, rows]


def _count_formatted(monkeypatch):
    """A list that gets every number the matrix formatter formats."""
    formatted = []
    real = sigio._format_numbers
    monkeypatch.setattr(
        sigio, "_format_numbers", lambda numbers: formatted.extend(numbers) or real(numbers)
    )
    return formatted


def _upper_numbers(values):
    """The numbers of the upper triangle, diagonal included, in row order."""
    upper = values[np.triu_indices(len(values))]
    return upper[~np.isnan(upper)].tolist()


@pytest.mark.parametrize("seed", range(6))
def test_symmetric_matrix_csv_formats_each_cell_once(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, len(MATRIX_IDS) + 1))
    ids = tuple(rng.permutation(MATRIX_IDS)[:size].tolist())
    values = _raw_values(rng, size * size).reshape(size, size)
    values[rng.random((size, size)) < 0.2] = np.nan
    values[rng.random((size, size)) < 0.05] = np.inf
    _mirror_upper_triangle(values)
    formatted = _count_formatted(monkeypatch)
    assert format_matrix_csv(ids, values) == _reference_format_matrix_csv(ids, values)
    assert formatted == _upper_numbers(values)


@pytest.mark.parametrize("seed", range(4))
def test_nearly_symmetric_matrix_csv_keeps_the_digits_of_each_cell(monkeypatch, seed):
    # The library accepts matrices symmetric up to 1e-10; in such a matrix,
    # or one whose mirrored zeros differ in sign, the lower cell that
    # differs from its mirror is formatted on its own, and only that one.
    rng = np.random.default_rng(seed)
    size = 6
    ids = tuple(MATRIX_IDS[:size])
    values = rng.random((size, size))
    values[rng.random((size, size)) < 0.2] = np.nan
    _mirror_upper_triangle(values)
    off = [(i, j) for i in range(size) for j in range(i + 1, size) if not np.isnan(values[i, j])]
    i, j = off[int(rng.integers(len(off)))]
    nudged = values.copy()
    nudged[i, j] = np.nextafter(nudged[i, j], 2.0)
    signed = values.copy()
    signed[i, j], signed[j, i] = -0.0, 0.0
    for matrix in (nudged, signed, values):
        formatted = _count_formatted(monkeypatch)
        assert format_matrix_csv(ids, matrix) == _reference_format_matrix_csv(ids, matrix)
        extra = [] if matrix is values else [float(matrix[j, i])]
        assert sorted(formatted) == sorted(_upper_numbers(matrix) + extra)


# Every character that CSV quoting must protect, and the %-format marker.
AWKWARD_IDS = ("cr\rret", "new\nline", "b,c", 'q"uote', "per%cent", "\r\n", "plain")


@pytest.mark.parametrize("mirrored", [True, False])
def test_matrix_csv_reads_back_through_the_csv_reader(mirrored):
    rng = np.random.default_rng(3)
    size = len(AWKWARD_IDS)
    values = rng.standard_normal((size, size))
    values[1, 4] = np.nan
    if mirrored:
        _mirror_upper_triangle(values)
    text = format_matrix_csv(AWKWARD_IDS, values)
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert header == ["id", *AWKWARD_IDS]
    assert [row[0] for row in rows] == list(AWKWARD_IDS)
    cells = np.array([[float(cell) if cell else np.nan for cell in row[1:]] for row in rows])
    assert np.array_equal(cells, values, equal_nan=True)


def test_state_space_model_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[0.5]], "B": [1.0], "C": [1.0], "D": 0.0}))
    model = read_model_json(str(path))
    assert isinstance(model, StateSpaceModel)
    assert model.order == 1
    assert model.A[0, 0] == 0.5


def test_root_form_model_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({"poles": [[0.4, 0.3], [0.4, -0.3]], "zeros": [0.5], "gain": 2.0})
    )
    model = read_model_json(str(path))
    assert isinstance(model, ZeroPoleGain)
    assert sorted(model.stable_poles, key=lambda z: z.imag) == [0.4 - 0.3j, 0.4 + 0.3j]
    assert model.min_zeros == (0.5,)
    assert model.gain == 2.0


# The refusal of each model file below, after the file's name.
MODEL_REFUSALS = {
    "not json": "invalid JSON: Expecting value: line 1 column 1 (char 0)",
    "[1, 2, 3]": "model file must hold a JSON object",
    '{"poles": [0.5]}': "model needs keys A,B,C,D (state space) or poles,zeros,gain (root form)",
    '{"poles": [0.5], "zeros": ["x"], "gain": 1.0}': "zeros must hold only numbers, got 'x'",
    '{"poles": [[1.0, 0.0, 0.0]], "zeros": [], "gain": 1.0}':
        "roots must be numbers or [re, im] pairs, got [1.0, 0.0, 0.0]",
    '{"poles": [1.0], "zeros": [], "gain": 1.0}':
        "pole (1+0j) lies within 1e-06 of the unit circle",
    '{"poles": [0.5], "zeros": [], "gain": 1' + "0" * 400 + "}":
        "malformed model: int too large to convert to float",
}


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        "[1, 2, 3]",
        '{"poles": [0.5]}',
        '{"poles": [0.5], "zeros": ["x"], "gain": 1.0}',
        '{"poles": [[1.0, 0.0, 0.0]], "zeros": [], "gain": 1.0}',
        '{"poles": [1.0], "zeros": [], "gain": 1.0}',
        pytest.param(
            '{"poles": [0.5], "zeros": [], "gain": 1' + "0" * 400 + "}",
            id="integer-beyond-the-float-range",
        ),
    ],
)
def test_model_json_validation(tmp_path, content):
    # The file is named once, before the whole message.
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(CepdistError) as caught:
        read_model_json(str(path))
    assert str(caught.value) == f"{path}: {MODEL_REFUSALS[content]}"


def test_canonical_json_shape():
    text = canonical_json({"b": np.float64(1.5), "a": {"nested": np.arange(3)}})
    assert text == '{\n  "a": {\n    "nested": [\n      0,\n      1,\n      2\n    ]\n  },\n  "b": 1.5\n}\n'
    assert canonical_json({"b": 1.5, "a": {"nested": [0, 1, 2]}}) == text


def test_canonical_json_special_values():
    data = json.loads(canonical_json({"x": float("nan"), "flag": np.bool_(True)}))
    assert data["x"] is None
    assert data["flag"] is True
    with pytest.raises(ValidationError):
        canonical_json({"x": {1, 2}})
    for value in (float("inf"), -np.inf):
        with pytest.raises(ValidationError, match=f"non-finite value {value}"):
            canonical_json({"x": [value]})


def test_cepstrum_csv_layouts():
    power_rows = format_cepstrum_csv(power_cepstrum_from_zpk(POLE_HALF, 4)).splitlines()
    assert power_rows[0] == "k,value"
    assert [row.split(",")[0] for row in power_rows[1:]] == ["0", "1", "2", "3", "4"]
    complex_rows = format_cepstrum_csv(complex_cepstrum_from_zpk(POLE_HALF, 4)).splitlines()
    assert [row.split(",")[0] for row in complex_rows[1:]] == [
        "-4", "-3", "-2", "-1", "0", "1", "2", "3", "4",
    ]
    assert float(complex_rows[6].split(",")[1]) == pytest.approx(0.5)


def test_matrix_csv_blanks_out_nan():
    text = format_matrix_csv(("a", "b"), np.array([[0.0, np.nan], [np.nan, 0.0]]))
    lines = text.splitlines()
    assert lines[0] == "id,a,b"
    assert lines[1] == "a,0,"
    assert lines[2] == "b,,0"
