"""Configuration resolution and the CSV/JSON file formats."""

import csv
import io
import json
import math

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
    parse_config_value,
    power_cepstrum_from_zpk,
    read_model_json,
    read_signal_csv,
)
from cepdist.cli import main
from cepdist.sigio import CSV_CHUNK_ROWS, TIME_JITTER_RTOL

POLE_HALF = ZeroPoleGain.from_roots([0.5], [], 1.0)

# Record lengths around the reader's and the formatters' chunk size.
CHUNK_LENGTHS = (1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 3 * CSV_CHUNK_ROWS + 5)


# The per-row reader and the per-value formatters that the chunked code in
# cepdist.sigio replaced, kept as the oracles it must match.


def _reference_parse_float(text, where):
    try:
        return float(text)
    except ValueError as exc:
        raise ValidationError(f"{where}: {text!r} is not a number") from exc


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
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
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
        for cidx, cell in enumerate(row):
            columns[cidx].append(_reference_parse_float(cell.strip(), f"{path}: row {offset}"))
    period = _reference_sample_period(columns[0], path)
    if width == 2:
        return "single", Signal(np.asarray(columns[1]), period)
    return "pair", (Signal(np.asarray(columns[1]), period), Signal(np.asarray(columns[2]), period))


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


def _reference_format_matrix_csv(ids, values):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", *ids])
    for idx, name in enumerate(ids):
        row = [name]
        for value in values[idx]:
            row.append("" if math.isnan(value) else f"{value:.17g}")
        writer.writerow(row)
    return out.getvalue()


def _same_floats(a, b):
    """Bit-identical arrays: equal values, equal signs of zero, equal dtypes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _read_both(path):
    """Read with the reader and the oracle; require bit-identical results."""
    kind, payload = read_signal_csv(path)
    ref_kind, ref_payload = _reference_read_signal_csv(path)
    assert kind == ref_kind
    signals = payload if kind == "pair" else (payload,)
    ref_signals = ref_payload if kind == "pair" else (ref_payload,)
    for got, want in zip(signals, ref_signals):
        assert _same_floats(got.samples, want.samples)
        assert got.sample_period == want.sample_period
    return kind, payload


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
    config = RunConfig()
    assert config.validate() is config
    assert config.method == "welch"
    assert config.K == 256
    assert config.K_test == 20
    assert config.seed == 44


@pytest.mark.parametrize(
    "field,value",
    [
        ("method", "burg"),
        ("output_format", "yaml"),
        ("window_len", 4),
        ("overlap", 1.0),
        ("overlap", -0.1),
        ("fft_length", 100),
        ("K", 0),
        ("K_test", 0),
        ("hankel_rows", 0),
        ("vandermonde_cols", 0),
        ("tol_model", 0.0),
        ("tol_estimated", 1.0),
        ("seed", -1),
    ],
)
def test_validate_rejects_bad_values(field, value):
    with pytest.raises(ConfigError):
        RunConfig(**{field: value}).validate()


def test_validate_rejects_test_order_above_truncation_order():
    with pytest.raises(ConfigError):
        RunConfig(K=16, K_test=32).validate()


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
    with pytest.raises(ConfigError):
        load_config(env={}, overrides={"K": 16, "K_test": 32})
    with pytest.raises(ConfigError):
        load_config(env={}, overrides={"bogus": 1})


def test_single_signal_round_trip(tmp_path):
    signal = Signal(np.random.default_rng(0).standard_normal(32), sample_period=0.01)
    path = tmp_path / "sig.csv"
    path.write_text(format_signal_csv(signal))
    kind, back = read_signal_csv(str(path))
    assert kind == "single"
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
    kind, (u_back, y_back) = read_signal_csv(str(path))
    assert kind == "pair"
    assert np.array_equal(u_back.samples, u.samples)
    assert np.array_equal(y_back.samples, y.samples)
    assert u_back.sample_period == 1.0


def test_pair_formatting_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        format_pair_csv(Signal(np.ones(4)), Signal(np.ones(5)))


def test_headerless_numeric_rows_are_accepted(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("0,1.5\n1,2.5\n2,3.5\n")
    kind, signal = read_signal_csv(str(path))
    assert kind == "single"
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
    kind, signal = read_signal_csv(str(path))
    assert kind == "single"
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
# CSV_CHUNK_ROWS + 4, in the reader's second chunk of lines.
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
    kind, _ = _read_both(str(path))
    assert kind == ("pair" if width == 3 else "single")


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


def test_formatted_records_read_back_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    u = Signal(_raw_values(rng, 3 * CSV_CHUNK_ROWS + 5), 0.01)
    y = Signal(_raw_values(rng, 3 * CSV_CHUNK_ROWS + 5), 0.01)
    path = tmp_path / "pair.csv"
    path.write_text(format_pair_csv(u, y))
    _, (u_back, y_back) = _read_both(str(path))
    assert _same_floats(u_back.samples, u.samples)
    assert _same_floats(y_back.samples, y.samples)


@pytest.mark.parametrize("chunk", [1, 2, 5, CSV_CHUNK_ROWS])
@pytest.mark.parametrize("seed", range(4))
def test_matrix_csv_matches_the_reference(monkeypatch, chunk, seed):
    monkeypatch.setattr("cepdist.sigio.CSV_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(seed)
    names = ["a", "b,c", 'q"uote', "per%cent", "%s", "new\nline", "cr\rret", "", " pad ",
             "nan", "x,nan,y"]
    size = int(rng.integers(0, len(names) + 1))
    ids = tuple(rng.permutation(names)[:size].tolist())
    values = _raw_values(rng, size * size).reshape(size, size)
    values[rng.random((size, size)) < 0.2] = np.nan
    values[rng.random((size, size)) < 0.05] = np.inf
    values[rng.random((size, size)) < 0.05] = -np.inf
    assert format_matrix_csv(ids, values) == _reference_format_matrix_csv(ids, values)


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


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        "[1, 2, 3]",
        '{"poles": [0.5]}',
        '{"poles": [0.5], "zeros": ["x"], "gain": 1.0}',
        '{"poles": [[1.0, 0.0, 0.0]], "zeros": [], "gain": 1.0}',
        '{"poles": [1.0], "zeros": [], "gain": 1.0}',
    ],
)
def test_model_json_validation(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(CepdistError, match="bad.json"):
        read_model_json(str(path))


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
