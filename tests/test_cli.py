"""End-to-end CLI behavior through main(), plus one real subprocess run."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cepdist import (
    RunConfig,
    Signal,
    ValidationError,
    ZeroPoleGain,
    complex_cepstrum,
    format_cepstrum_csv,
    format_pair_csv,
    format_signal_csv,
    make_example_signals,
    power_cepstrum_of_signal,
    read_model_json,
    read_signal_csv,
    simulate,
    state_space_from_roots,
    transfer_cepstrum_from_io,
    transfer_complex_cepstrum_from_io,
)
from cepdist import cli, parallel, sigio
from cepdist.cli import main
from cepdist.sigio import CSV_CHUNK_ROWS
from conftest import good_and_broken, white_record

MIN_PHASE_MODEL = {"poles": [0.9, 0.7, 0.4], "zeros": [0.8, 0.6, 0.0], "gain": 1.0}
MAX_PHASE_MODEL = {
    "poles": [1 / 0.9, 1 / 0.7, 1 / 0.4],
    "zeros": [1 / 0.8, 1 / 0.6],
    "gain": 1.0,
}
MIXED_MODEL = {"poles": [0.9], "zeros": [2.5], "gain": 1.0}
IDENTITY_MODEL = {"A": [[0.0]], "B": [0.0], "C": [0.0], "D": 1.0}
# The all-pole AR(3) model with poles 0.5, 0.3 and 0.2, in root form and as
# its companion realization, whose zeros are a triple zero at the origin.
AR3_ROOT_MODEL = {"poles": [0.5, 0.3, 0.2], "zeros": [], "gain": 1.0}
_AR3 = state_space_from_roots(ZeroPoleGain([0.5, 0.3, 0.2], [], 1.0))
AR3_STATE_MODEL = {"A": _AR3.A.tolist(), "B": _AR3.B.tolist(), "C": _AR3.C.tolist(), "D": _AR3.D}
DOUBLE_POLE_MODEL = {"poles": [0.9, 0.9], "zeros": [0.2], "gain": 1}

# Small-window Welch setup used by the demo-signal comparisons.
DEMO_FLAGS = ["--method", "welch", "--window-len", "64", "--fft-length", "512", "--K", "128"]


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_signal(tmp_path, name, samples, sample_period=1.0):
    path = tmp_path / name
    path.write_text(format_signal_csv(Signal(np.asarray(samples, dtype=float), sample_period)))
    return str(path)


def read_rows(text):
    lines = text.strip().splitlines()
    assert lines[0] == "k,value"
    return {int(row.split(",")[0]): float(row.split(",")[1]) for row in lines[1:]}


def test_simulate_identity_model_echoes_the_input(tmp_path, capsys):
    model = write_json(tmp_path, "identity.json", IDENTITY_MODEL)
    assert main(["simulate", "--model", model, "--input", "white", "--length", "64"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,u,y"
    assert len(lines) == 65
    for line in lines[1:]:
        _, u_cell, y_cell = line.split(",")
        assert u_cell == y_cell


def test_simulate_stable_model_stays_bounded(tmp_path):
    model = write_json(tmp_path, "min.json", MIN_PHASE_MODEL)
    out = tmp_path / "record.csv"
    rc = main(
        ["simulate", "--model", model, "--input", "white", "--length", "16384", "-o", str(out)]
    )
    assert rc == 0
    body = out.read_text().splitlines()
    assert len(body) == 16385
    peak = max(abs(float(line.split(",")[2])) for line in body[1:])
    assert peak < 100.0


def test_simulate_refuses_unstable_models(tmp_path, capsys):
    model = write_json(tmp_path, "unstable.json", {"poles": [2.5], "zeros": [], "gain": 1.0})
    assert main(["simulate", "--model", model]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "frequency-domain" in err


def test_distance_of_a_file_with_itself_is_zero(tmp_path, capsys):
    path = write_signal(tmp_path, "sig.csv", np.random.default_rng(3).standard_normal(512))
    assert main(["distance", path, path, "--metric", "cepstral"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "cepstral"
    assert abs(report["value"]) <= 1e-10
    assert report["order"] >= 1
    assert "tail_bound" not in report


def test_demo_signals_are_close_in_dynamics_but_orthogonal_in_samples(tmp_path, capsys):
    sine, cosine, _ = make_example_signals(0.995, 44)
    sine_path = write_signal(tmp_path, "sine.csv", sine.samples, sine.sample_period)
    cosine_path = write_signal(tmp_path, "cosine.csv", cosine.samples, cosine.sample_period)

    assert main(["distance", sine_path, cosine_path, "--metric", "cepstral", *DEMO_FLAGS]) == 0
    cepstral = json.loads(capsys.readouterr().out)
    assert cepstral["value"] < 5.0

    assert main(["distance", sine_path, cosine_path, "--metric", "cosine-derived"]) == 0
    cosine_report = json.loads(capsys.readouterr().out)
    assert cosine_report["metric"] == "cosine"
    assert abs(cosine_report["similarity"]) <= 0.05
    assert cosine_report["value"] == pytest.approx(1.0 - cosine_report["similarity"])


@pytest.mark.parametrize("verb", ["distance", "distmat"])
def test_infinite_distance_is_refused_in_json_reports(tmp_path, capsys, verb):
    # The distance 2e308 is beyond the floating-point range: the pair verb
    # refuses, and the matrix records a failed cell.
    a = write_signal(tmp_path, "a.csv", [1e308])
    b = write_signal(tmp_path, "b.csv", [-1e308])
    refusal = "the euclidean distance exceeds the floating-point range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([verb, a, b, "--metric", "euclidean"])
    captured = capsys.readouterr()
    if verb == "distance":
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {refusal}\n"
    else:
        assert code == 0
        report = json.loads(captured.out)
        assert report["values"] == [[0.0, None], [None, 0.0]]
        assert report["failures"] == [["a", "b", refusal]]
        assert captured.err == f"warning: a vs b: {refusal}\n"


def test_infinite_distance_is_an_empty_cell_in_csv_matrices(tmp_path, capsys):
    a = write_signal(tmp_path, "a.csv", [1e308])
    b = write_signal(tmp_path, "b.csv", [-1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distmat", a, b, "--metric", "euclidean", "--output-format", "csv"]) == 0
    assert capsys.readouterr().out == "id,a,b\na,0,\nb,,0\n"


def test_representable_euclidean_distance_of_large_records_is_reported(tmp_path, capsys):
    # The squared norm of the difference overflows, the distance 2e200 does
    # not; every form used to give inf or refuse.
    a = write_signal(tmp_path, "a.csv", [1e200])
    b = write_signal(tmp_path, "b.csv", [-1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distance", a, b, "--metric", "euclidean"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 2e200
        assert main(["distmat", a, b, "--metric", "euclidean"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"] == [[0.0, 2e200], [2e200, 0.0]]
        assert report["failures"] == []
        assert main(["distmat", a, b, "--metric", "euclidean", "--output-format", "csv"]) == 0
        _, csv_values = capsys.readouterr().out.splitlines()[1].split(",", 1)
        assert [float(v) for v in csv_values.split(",")] == [0.0, 2e200]


def test_cosine_of_overflowing_records_is_reported(tmp_path, capsys):
    # The norms and the inner product of these records overflow; the
    # reports used to carry null with exit 0.
    a = write_signal(tmp_path, "a.csv", [1e308])
    b = write_signal(tmp_path, "b.csv", [-1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distance", a, b, "--metric", "cosine"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["similarity"], report["value"]) == (-1.0, 2.0)
        assert main(["distmat", a, b, "--metric", "cosine"]) == 0
        assert json.loads(capsys.readouterr().out)["values"] == [[0.0, 2.0], [2.0, 0.0]]


def test_distance_rejects_length_mismatch(tmp_path, capsys):
    a = write_signal(tmp_path, "a.csv", np.ones(8))
    b = write_signal(tmp_path, "b.csv", np.ones(9))
    assert main(["distance", a, b, "--metric", "euclidean"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_subspace_distance_gate_names_the_refused_file(tmp_path, capsys):
    good = tmp_path / "good.csv"
    bad = tmp_path / "bad.csv"
    minimum = ZeroPoleGain([0.5], [], 1.0)
    mixed = ZeroPoleGain([0.9], [2.5], 1.0)
    good.write_text(format_pair_csv(*white_record(minimum, 4096, 0)))
    bad.write_text(format_pair_csv(*white_record(mixed, 4096, 1)))
    assert main(["distance", str(good), str(bad), "--metric", "subspace"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: record classified as ")
    assert "the subspace metric needs minimum phase records" in err


def test_classify_models_and_records(tmp_path, capsys):
    cases = [
        ("min.json", MIN_PHASE_MODEL, "MinimumPhaseStable"),
        ("max.json", MAX_PHASE_MODEL, "MaximumPhaseUnstable"),
        ("mixed.json", MIXED_MODEL, "Mixed"),
    ]
    for name, payload, expected in cases:
        model = write_json(tmp_path, name, payload)
        assert main(["classify", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == expected
        assert report["order_tested"] == 20

    u = Signal(np.random.default_rng(0).standard_normal(256))
    pair = tmp_path / "pair.csv"
    pair.write_text(format_pair_csv(u, u))
    assert main(["classify", str(pair)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Indeterminate"


def test_classify_two_single_files(tmp_path, capsys):
    samples = np.random.default_rng(1).standard_normal(256)
    u_path = write_signal(tmp_path, "u.csv", samples)
    y_path = write_signal(tmp_path, "y.csv", samples * 2.0)
    assert main(["classify", u_path, y_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Indeterminate"
    assert report["input"] == "u.csv,y.csv"


def test_classify_refuses_two_single_files_of_different_sample_periods(tmp_path, capsys):
    samples = np.random.default_rng(1).standard_normal(256)
    u_path = write_signal(tmp_path, "u.csv", samples)
    y_path = write_signal(tmp_path, "y.csv", samples * 2.0, sample_period=0.5)
    assert main(["classify", u_path, y_path]) == 2
    assert capsys.readouterr() == ("", "error: input and output sample periods differ\n")


def test_classify_accepts_two_single_files_whose_periods_differ_by_rounding(tmp_path, capsys):
    samples = np.random.default_rng(1).standard_normal(256)
    u_path = write_signal(tmp_path, "u.csv", samples, sample_period=0.01)
    # Times from 0.02 on: the first step reads back as 0.009999999999999998.
    times = 0.02 + 0.01 * np.arange(samples.size)
    y_path = tmp_path / "y.csv"
    rows = zip(times.tolist(), (2.0 * samples).tolist())
    y_path.write_text("t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
    assert main(["classify", u_path, str(y_path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Indeterminate"


def test_classify_needs_exactly_one_source(tmp_path, capsys):
    model = write_json(tmp_path, "min.json", MIN_PHASE_MODEL)
    path = write_signal(tmp_path, "sig.csv", np.ones(16))
    assert main(["classify", path, "--model", model]) == 2
    assert main(["classify"]) == 2
    capsys.readouterr()


def test_model_cepstrum_layouts(tmp_path, capsys):
    model = write_json(tmp_path, "min.json", MIN_PHASE_MODEL)
    assert main(
        ["cepstrum", "--model", model, "--kind", "complex", "--K", "8", "--K-test", "4"]
    ) == 0
    rows = read_rows(capsys.readouterr().out)
    assert sorted(rows) == list(range(-8, 9))
    assert rows[1] == pytest.approx(0.6, abs=1e-12)
    assert rows[-1] == pytest.approx(0.0, abs=1e-12)

    assert main(["cepstrum", "--model", model, "--K", "16", "--K-test", "4"]) == 0
    power_rows = read_rows(capsys.readouterr().out)
    assert sorted(power_rows) == list(range(0, 17))
    assert power_rows[1] == pytest.approx(0.6, abs=1e-12)


def test_model_cepstrum_takes_an_order_below_the_tested_lags(tmp_path, capsys):
    # K_test (20 by default) is the classifier's own order, not a number
    # of lags read from the order-K cepstrum.
    model = write_json(tmp_path, "min.json", MIN_PHASE_MODEL)
    assert main(["cepstrum", "--model", model, "--K", "3"]) == 0
    assert sorted(read_rows(capsys.readouterr().out)) == [0, 1, 2, 3]


@pytest.mark.parametrize("kind", ["power", "complex"])
def test_model_cepstrum_of_a_state_space_file_with_a_triple_origin_zero(tmp_path, capsys, kind):
    state = write_json(tmp_path, "ar3_state.json", AR3_STATE_MODEL)
    roots = write_json(tmp_path, "ar3_roots.json", AR3_ROOT_MODEL)
    assert main(["cepstrum", "--model", state, "--kind", kind, "--K", "16", "--K-test", "4"]) == 0
    from_state = read_rows(capsys.readouterr().out)
    assert main(["cepstrum", "--model", roots, "--kind", kind, "--K", "16", "--K-test", "4"]) == 0
    from_roots = read_rows(capsys.readouterr().out)
    assert from_state.keys() == from_roots.keys()
    for lag, value in from_roots.items():
        assert from_state[lag] == pytest.approx(value, abs=1e-12)


def test_classify_a_state_space_file_with_a_triple_origin_zero(tmp_path, capsys):
    model = write_json(tmp_path, "ar3_state.json", AR3_STATE_MODEL)
    assert main(["classify", "--model", model]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "MinimumPhaseStable"


def test_simulate_and_classify_a_double_pole_model(tmp_path, capsys):
    model = write_json(tmp_path, "double.json", DOUBLE_POLE_MODEL)
    record = tmp_path / "record.csv"
    assert main(["simulate", "--model", model, "--length", "4096", "-o", str(record)]) == 0
    assert main(["classify", str(record)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "MinimumPhaseStable"


@pytest.mark.parametrize("verb", [["cepstrum"], ["classify"]])
@pytest.mark.parametrize(
    "payload, message",
    [
        ({"A": [[0.5]], "B": [1.0], "C": [1.0], "D": 0.0}, "|D| = 0.0 is below 1e-12"),
        ({"A": [[1.0]], "B": [1.0], "C": [1.0], "D": 1.0}, "lies within 1e-06 of the unit circle"),
    ],
    ids=["no-feedthrough", "unit-circle-pole"],
)
def test_state_space_model_refusals_name_the_file(tmp_path, capsys, verb, payload, message):
    model = write_json(tmp_path, "state.json", payload)
    assert main([*verb, "--model", model]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {model}: ")
    assert message in err


@pytest.mark.parametrize("verb", [["cepstrum"], ["classify"], ["simulate", "--length", "16"]])
@pytest.mark.parametrize(
    "payload, message",
    [
        ({"poles": [np.nan, 0.5], "zeros": [0.2], "gain": 1}, "poles must contain only finite roots"),
        ({"poles": [0.5], "zeros": [0.2], "gain": np.inf}, "gain must be finite, got inf"),
        ({"poles": [0.5], "zeros": [0.2], "gain": "2"}, "gain must hold only numbers, got '2'"),
        ({"poles": [0.5], "zeros": [0.2], "gain": True}, "gain must hold only numbers, got True"),
        ({"poles": [True], "zeros": [], "gain": 1}, "poles must hold only numbers, got True"),
        ({"A": [[0.5]], "B": ["1"], "C": [1], "D": 1}, "B must hold only numbers, got '1'"),
        (
            {"poles": [[0.5, 1, 2]], "zeros": [], "gain": 1},
            "roots must be numbers or [re, im] pairs, got [0.5, 1, 2]",
        ),
        ({"poles": [0.5], "zeros": [0.2], "gain": [1.0]}, "gain has [1.0] where a number belongs"),
        ({"A": [[0.5]], "B": [1], "C": [1], "D": [1.0]}, "D has [1.0] where a number belongs"),
        ({"A": [0.5], "B": [1], "C": [1], "D": 1}, "A has 0.5 where a list belongs"),
        (
            {"A": [[0.5], [0.1, 0.2]], "B": [1, 1], "C": [1, 1], "D": 1},
            "A has rows of unequal lengths [1, 2]",
        ),
        ({"poles": 0.5, "zeros": [0.2], "gain": 1}, "poles has 0.5 where a list belongs"),
    ],
    ids=[
        "nan-pole", "infinite-gain", "string-gain", "boolean-gain", "boolean-root", "string-B",
        "three-part-root", "list-gain", "list-D", "flat-A", "ragged-A", "number-poles",
    ],
)
def test_model_file_refusals_name_the_file(tmp_path, capsys, verb, payload, message):
    # json writes NaN and Infinity literals for the floats, and reads them back.
    model = write_json(tmp_path, "model.json", payload)
    assert main([*verb, "--model", model]) == 2
    assert capsys.readouterr() == ("", f"error: {model}: {message}\n")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["distance", "{good}", "{zero_out}"], "{zero_out}"),
        (["distance", "{zero_out}", "{good}", "--metric", "subspace"], "{zero_out}"),
        (["classify", "{zero_out}"], "{zero_out}"),
        (["classify", "{u}", "{zero}"], "{u},{zero}"),
        (["cepstrum", "{zero_out}", "--kind", "complex"], "{zero_out}"),
        (["cepstrum", "{zero}", "--kind", "complex"], "{zero}"),
        (["cepstrum", "{zero_out}"], "{zero_out}"),
    ],
    ids=["distance", "distance-subspace", "classify-pair", "classify-two-files",
         "cepstrum-complex-pair", "cepstrum-complex-signal", "cepstrum-power"],
)
def test_record_refusals_name_their_file(tmp_path, capsys, argv, named):
    # good.csv is y = u + 0.5 u(t-1); zero_out.csv and zero.csv hold an
    # all-zero output, whose spectrum every route refuses.
    u, y = white_record(ZeroPoleGain([0.0], [-0.5], 1.0), 1024, 0)
    zero_y = Signal(np.zeros(len(u)))
    paths = {"good": tmp_path / "good.csv", "zero_out": tmp_path / "zero_out.csv"}
    paths["good"].write_text(format_pair_csv(u, y))
    paths["zero_out"].write_text(format_pair_csv(u, zero_y))
    paths["u"] = write_signal(tmp_path, "u.csv", u.samples)
    paths["zero"] = write_signal(tmp_path, "zero.csv", zero_y.samples)
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {named.format(**paths)}: ")
    assert err.count(str(tmp_path)) == named.count("{")


def test_signal_cepstrum_rows(tmp_path, capsys):
    path = write_signal(tmp_path, "sig.csv", np.random.default_rng(4).standard_normal(512))
    assert main(["cepstrum", path, "--K", "16", "--K-test", "4"]) == 0
    rows = read_rows(capsys.readouterr().out)
    assert sorted(rows) == list(range(0, 17))


@pytest.mark.parametrize("kind", ["power", "complex"])
@pytest.mark.parametrize("paired", [True, False])
def test_signal_cepstrum_matches_the_library_routes(tmp_path, capsys, paired, kind):
    config = RunConfig(K=32)
    minimum = ZeroPoleGain([0.9, 0.5], [0.3, -0.4], 1.0)
    u, y = white_record(minimum, 1024, 2)
    path = tmp_path / "record.csv"
    path.write_text(format_pair_csv(u, y) if paired else format_signal_csv(y))
    record = read_signal_csv(str(path))
    u, y = record if paired else (None, record)
    if paired and kind == "power":
        expected = transfer_cepstrum_from_io(u, y, config)
    elif paired:
        expected = transfer_complex_cepstrum_from_io(u, y, config)
    elif kind == "power":
        expected = power_cepstrum_of_signal(y, config)
    else:
        expected = complex_cepstrum(y, config.fft_length, config.K)
    assert main(["cepstrum", str(path), "--kind", kind, "--K", "32"]) == 0
    assert capsys.readouterr().out == format_cepstrum_csv(expected)


def test_cepstrum_rejects_two_sources(tmp_path, capsys):
    model = write_json(tmp_path, "min.json", MIN_PHASE_MODEL)
    path = write_signal(tmp_path, "sig.csv", np.ones(16))
    assert main(["cepstrum", path, "--model", model]) == 2
    assert main(["cepstrum"]) == 2
    capsys.readouterr()


def _two_records(tmp_path, paired):
    """Records of two minimum phase systems, as t,u,y pair files or t,value output files."""
    paths = []
    for seed, poles in enumerate(([0.5], [0.8, -0.3])):
        u, y = white_record(ZeroPoleGain(poles, [0.2], 1.0), 2048, seed)
        path = tmp_path / f"record{seed}.csv"
        path.write_text(format_pair_csv(u, y) if paired else format_signal_csv(y))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "metric,paired",
    [
        ("cepstral", False),
        ("cepstral", True),
        ("euclidean", False),
        ("euclidean", True),
        ("cosine", False),
        ("cosine", True),
        ("subspace", True),
    ],
)
def test_distance_value_is_the_distmat_cell(tmp_path, capsys, metric, paired):
    paths = _two_records(tmp_path, paired)
    assert main(["distance", *paths, "--metric", metric]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert main(["distmat", *paths, "--metric", metric]) == 0
    matrix = json.loads(capsys.readouterr().out)
    assert matrix["failures"] == []
    assert repr(value) == repr(matrix["values"][0][1]) == repr(matrix["values"][1][0])


def test_cepstral_distance_is_its_cell_of_a_larger_distmat(tmp_path, capsys):
    # distance and distmat take record distances from one kernel, whose
    # cells do not depend on the other records of the matrix.
    paths = _two_records(tmp_path, paired=False)
    for seed, length in ((2, 1024), (3, 4096)):
        u, y = white_record(ZeroPoleGain([0.6], [-0.4], 1.0), length, seed)
        paths.append(str(tmp_path / f"record{seed}.csv"))
        Path(paths[-1]).write_text(format_signal_csv(y))
    assert main(["distmat", *paths, "--metric", "cepstral"]) == 0
    matrix = json.loads(capsys.readouterr().out)["values"]
    for i in range(len(paths)):
        for j in range(len(paths)):
            assert main(["distance", paths[i], paths[j], "--metric", "cepstral"]) == 0
            report = json.loads(capsys.readouterr().out)
            fields = ["command", "inputs", "metric", "order", "schema_version", "value"]
            assert sorted(report) == fields
            assert report["value"].hex() == float(matrix[i][j]).hex()


def test_distance_refuses_a_signal_with_a_pair_as_distmat_does(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.csv" for name in ("signal", "other", "pair")}
    for name, pole, seed in (("signal", 0.6, 0), ("other", 0.2, 2)):
        _, output = white_record(ZeroPoleGain([pole], [], 1.0), 2048, seed)
        paths[name].write_text(format_signal_csv(output))
    paths["pair"].write_text(
        format_pair_csv(*white_record(ZeroPoleGain([-0.4], [0.3], 1.0), 2048, 1))
    )
    mixed = "error: items must be all signals or all (input, output) pairs\n"
    for metric in ("cepstral", "euclidean", "cosine", "subspace"):
        for verb in ("distance", "distmat"):
            assert main([verb, str(paths["signal"]), str(paths["pair"]), "--metric", metric]) == 2
            assert capsys.readouterr() == ("", mixed)
    # Two signals are one kind, but the subspace metric needs pairs.
    signals = [str(paths["signal"]), str(paths["other"])]
    for verb in ("distance", "distmat"):
        assert main([verb, *signals, "--metric", "subspace"]) == 2
        assert capsys.readouterr() == ("", "error: the subspace metric needs (input, output) pairs\n")


def _records_of_two_periods(tmp_path):
    """Files a and c of one sample period (c's times read back a rounding
    apart), and b of the same samples at half that period."""
    samples = np.random.default_rng(4).standard_normal(256)
    a_path = write_signal(tmp_path, "a.csv", samples, sample_period=0.01)
    b_path = write_signal(tmp_path, "b.csv", samples, sample_period=0.005)
    # Times from 0.02 on: the first step reads back as 0.009999999999999998.
    times = 0.02 + 0.01 * np.arange(samples.size)
    c_path = tmp_path / "c.csv"
    rows = zip(times.tolist(), samples.tolist())
    c_path.write_text("t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
    return a_path, b_path, str(c_path)


@pytest.mark.parametrize("verb", ["distance", "distmat", "cluster"])
def test_collection_of_two_sample_periods_is_refused(tmp_path, capsys, monkeypatch, verb):
    a_path, b_path, c_path = _records_of_two_periods(tmp_path)
    if verb == "distance":
        runs = [([a_path, c_path], None), ([a_path, b_path], (a_path, b_path))]
    else:
        runs = [([a_path, c_path], None), ([a_path, c_path, b_path], ("a", "b"))]
    extra = ["--k", "1"] if verb == "cluster" else []
    for metric in ("cepstral", "euclidean", "cosine"):
        for paths, refused in runs:
            argv = [verb, *paths, "--metric", metric, *extra]
            if verb == "distance":
                code, out, err = main(argv), *capsys.readouterr()
            else:
                code, out, err, _ = _serial_and_forked(monkeypatch, capsys, argv)
            if refused is None:
                assert (code, err) == (0, "")
            else:
                first, second = refused
                assert (code, out) == (2, "")
                assert err == (
                    f"error: records {first} and {second} differ in sample period: 0.01 and 0.005\n"
                )


def test_cosine_of_a_file_with_itself_is_exactly_one(tmp_path, capsys):
    # Rounding puts the ratio of this signal's inner product to its squared
    # norm one ulp above 1; the similarity is clipped to [-1, 1].
    samples = np.random.default_rng(0).standard_normal(5)
    path = write_signal(tmp_path, "sig.csv", samples)
    flipped = write_signal(tmp_path, "flipped.csv", -samples)
    assert main(["distance", path, path, "--metric", "cosine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["similarity"], report["value"]) == (1.0, 0.0)
    assert main(["distance", path, flipped, "--metric", "cosine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["similarity"], report["value"]) == (-1.0, 2.0)


def _records_with_a_scaled_input(directory, scale):
    """Two ordinary t,u,y records, ok0 of the system of huge.csv and ok1 of
    another, and huge.csv, whose input is scaled by ``scale``; returns the
    path of huge.csv."""
    directory.mkdir(exist_ok=True)
    system = ZeroPoleGain([0.5], [0.2], 1.0)
    other = ZeroPoleGain([-0.6], [], 1.0)
    for seed, model in enumerate((system, other)):
        (directory / f"ok{seed}.csv").write_text(format_pair_csv(*white_record(model, 2048, seed)))
    u, y = white_record(system, 2048, 2)
    huge = directory / "huge.csv"
    huge.write_text(format_pair_csv(Signal(scale * u.samples), y))
    return str(huge)


def _main_without_warnings(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


def _scaled_and_plain(tmp_path, capsys, scale, argv_of):
    """The stdout of ``argv_of(huge)`` on the records with the input of
    huge.csv scaled by ``scale``, then on the same records unscaled. Each
    run must succeed with an empty stderr and without any warning."""
    outputs = []
    for name, gain in (("scaled", scale), ("plain", 1.0)):
        huge = _records_with_a_scaled_input(tmp_path / name, gain)
        assert _main_without_warnings(argv_of(huge)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    return outputs


def _assert_same_matrix(scaled, plain):
    """Two distmat reports that differ only in the last digits of values,
    within 1e-12 of the largest distance."""
    scaled, plain = json.loads(scaled), json.loads(plain)
    assert scaled["failures"] == plain["failures"] == []
    values = plain.pop("values")
    _assert_relatively_close(scaled.pop("values"), values, np.max(values))
    assert scaled == plain


def _assert_relatively_close(got, want, scale=None):
    """Each value within 1e-12 of its reference, relative to the reference,
    or to ``scale`` when given."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bound = 1e-12 * (np.abs(want) if scale is None else scale)
    assert np.all(np.abs(got - want) <= bound), (got, want)


def _assert_cepstrum_of_the_gain(scaled, plain, c0_shift):
    """Cepstrum CSV of a record whose gain changed: c(0) moves by
    ``c0_shift`` and every other lag stays, within 1e-12 relative."""
    got, want = read_rows(scaled), read_rows(plain)
    assert got.keys() == want.keys()
    shifted = want.pop(0) + c0_shift
    _assert_relatively_close(got.pop(0), shifted, max(1.0, abs(shifted)))
    lags = sorted(want)
    values = [want[k] for k in lags]
    _assert_relatively_close([got[k] for k in lags], values, np.max(np.abs(values)))


# Near 1e200 the squared FFT magnitudes of the record overflow, and near
# 1e307 the FFT itself does. The cepstral routes scale the record by a
# power of two first, so it gives the distances of the unscaled record,
# with c(0) shifted by the log gain and no NumPy warning.
@pytest.mark.parametrize("scale", [1e200, 1e307])
def test_overflowing_power_spectrum_is_refused_without_warnings(tmp_path, capsys, scale):
    scaled, plain = _scaled_and_plain(
        tmp_path, capsys, scale, lambda huge: ["distance", huge, os.path.join(os.path.dirname(huge), "ok1.csv")]
    )
    _assert_relatively_close(json.loads(scaled)["value"], json.loads(plain)["value"])
    scaled, plain = _scaled_and_plain(
        tmp_path, capsys, scale, lambda huge: ["distmat", os.path.dirname(huge)]
    )
    _assert_same_matrix(scaled, plain)
    # The input's gain divides the transfer spectrum: c(0) = 2 log|gain| moves down.
    scaled, plain = _scaled_and_plain(
        tmp_path, capsys, scale, lambda huge: ["cepstrum", huge, "--kind", "power"]
    )
    _assert_cepstrum_of_the_gain(scaled, plain, -2.0 * np.log(scale))


@pytest.mark.parametrize(
    "argv", [["classify"], ["cepstrum", "--kind", "complex"]], ids=["classify", "cepstrum"]
)
def test_overflowing_complex_spectrum_is_refused_without_warnings(tmp_path, capsys, argv):
    scaled, plain = _scaled_and_plain(tmp_path, capsys, 1e307, lambda huge: [*argv, huge])
    if argv == ["classify"]:
        scaled, plain = json.loads(scaled), json.loads(plain)
        # The energies are compared on the scale of their total, the scale
        # that the verdict reads them on.
        total = plain["positive_energy"] + plain["negative_energy"]
        for key in ("positive_energy", "negative_energy"):
            _assert_relatively_close(scaled.pop(key), plain.pop(key), total)
        assert scaled == plain
        assert scaled["verdict"] == "MinimumPhaseStable"
    else:
        # The complex cepstrum's c(0) is log|gain|, half the power one.
        _assert_cepstrum_of_the_gain(scaled, plain, -np.log(1e307))


def test_overflowing_record_fails_only_its_subspace_cells(tmp_path, capsys):
    # The phase gate of the subspace metric takes a complex cepstrum of the
    # record; both it and the projected bases scale the record first.
    scaled, plain = _scaled_and_plain(
        tmp_path, capsys, 1e307, lambda huge: ["distmat", os.path.dirname(huge), "--metric", "subspace"]
    )
    _assert_same_matrix(scaled, plain)


def test_distmat_json_and_csv(tmp_path, capsys):
    rng = np.random.default_rng(5)
    paths = [
        write_signal(tmp_path, f"s{i}.csv", rng.standard_normal(32)) for i in range(3)
    ]
    assert main(["distmat", *paths, "--metric", "euclidean"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ids"] == ["s0", "s1", "s2"]
    values = np.array(report["values"])
    assert values.shape == (3, 3)
    assert np.allclose(values, values.T)
    assert np.array_equal(np.diag(values), np.zeros(3))

    assert main(
        ["distmat", str(tmp_path), "--metric", "euclidean", "--output-format", "csv"]
    ) == 0
    text = capsys.readouterr().out
    assert text.startswith("id,s0,s1,s2")


def test_cluster_verb_reports_labels(tmp_path, capsys):
    rng = np.random.default_rng(6)
    for i in range(3):
        write_signal(tmp_path, f"s{i}.csv", rng.standard_normal(32))
    matrix_out = tmp_path / "matrix.csv"
    rc = main(
        [
            "cluster",
            str(tmp_path),
            "--metric",
            "euclidean",
            "--k",
            "3",
            "--matrix-out",
            str(matrix_out),
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report["labels"]) == [0, 1, 2]
    assert report["excluded"] == []
    assert report["merge_heights"] == []
    assert matrix_out.read_text().startswith("id,")


@pytest.mark.parametrize("flag", ["--matrix-out", "-o"])
def test_an_empty_output_path_fails_to_open(tmp_path, capsys, flag):
    # An empty path is a path like any other: it fails to open, with exit
    # code 2, rather than dropping the matrix or writing to stdout.
    rng = np.random.default_rng(6)
    for i in range(3):
        write_signal(tmp_path, f"s{i}.csv", rng.standard_normal(32))
    argv = ["cluster", str(tmp_path), "--metric", "euclidean", "--k", "2", flag, ""]
    # Both outputs are opened before either is written, so a report that
    # fails to open leaves no matrix file behind.
    matrix_out = tmp_path / "m.csv"
    if flag == "-o":
        argv += ["--matrix-out", str(matrix_out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert not matrix_out.exists()


def test_cluster_refuses_one_file_for_both_outputs(tmp_path, capsys):
    rng = np.random.default_rng(6)
    for i in range(3):
        write_signal(tmp_path, f"s{i}.csv", rng.standard_normal(32))
    out = tmp_path / "out" / "both.csv"
    out.parent.mkdir()
    # Both outputs are opened before either is written, so one file cannot
    # take both, however its two paths are spelled.
    other = out.parent / ".." / "out" / out.name
    argv = ["cluster", str(tmp_path), "--metric", "euclidean", "--k", "2"]
    assert main([*argv, "-o", str(out), "--matrix-out", str(other)]) == 2
    assert capsys.readouterr().err == f"error: -o and --matrix-out name the same file: {out}\n"
    assert not out.exists()


def _write_good_and_broken(tmp_path, names):
    """The t,u,y files of ``conftest.good_and_broken``, a name that starts
    with "b" marking a record with an all-zero output."""
    records = good_and_broken([name.startswith("b") for name in names])
    paths = [tmp_path / f"{name}.csv" for name in names]
    for path, (u, y) in zip(paths, records):
        path.write_text(format_pair_csv(u, y))
    return [str(path) for path in paths]


def test_cluster_excludes_the_broken_record_and_keeps_the_good_one(tmp_path, capsys):
    paths = _write_good_and_broken(tmp_path, ["a_good", "b_bad"])
    assert main(["cluster", *paths, "--k", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["labels"] == [0, -1]
    assert report["excluded"] == ["b_bad"]
    assert [failure[:2] for failure in report["failures"]] == [["a_good", "b_bad"]]

    assert main(["distmat", *paths]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [[0.0, None], [None, None]]
    assert main(["distmat", *paths, "--output-format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["id,a_good,b_bad", "a_good,0,", "b_bad,,"]


def test_cluster_of_broken_records_only_is_refused(tmp_path, capsys):
    _write_good_and_broken(tmp_path, ["b1", "b2", "b3"])
    assert main(["cluster", str(tmp_path), "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: k must lie in [1, 0] (usable items), got 1" in captured.err


def test_verify_case_is_deterministic(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify", "--case", "cascade", "-o", str(first)]) == 0
    assert main(["verify", "--case", "cascade", "-o", str(second)]) == 0
    err = capsys.readouterr().err
    assert "PASS cascade" in err
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["pass"] is True


def test_flag_beats_environment(tmp_path, capsys, monkeypatch):
    model = write_json(tmp_path, "min.json", MIN_PHASE_MODEL)
    monkeypatch.setenv("CEPDIST_K", "32")
    assert main(["cepstrum", "--model", model, "--K", "16", "--K-test", "4"]) == 0
    assert sorted(read_rows(capsys.readouterr().out)) == list(range(0, 17))
    assert main(["cepstrum", "--model", model]) == 0
    assert sorted(read_rows(capsys.readouterr().out)) == list(range(0, 33))


def test_invalid_flag_value_exits_with_validation_code(tmp_path, capsys):
    model = write_json(tmp_path, "min.json", MIN_PHASE_MODEL)
    assert main(["cepstrum", "--model", model, "--K", "abc"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_removed_vandermonde_depth_is_refused(tmp_path, capsys):
    # The model angle route truncates nothing, so it has no depth to set.
    model = write_json(tmp_path, "min.json", MIN_PHASE_MODEL)
    with pytest.raises(SystemExit) as exc:
        main(["cepstrum", "--model", model, "--vandermonde-cols", "400"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --vandermonde-cols" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("vandermonde_cols = 400\n")
    assert main(["cepstrum", "--model", model, "--config", str(config)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: {config}:1: unknown configuration key 'vandermonde_cols'\n",
    )


def test_missing_file_exits_with_validation_code(capsys):
    assert main(["classify", "/nonexistent/record.csv"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs_verify():
    proc = subprocess.run(
        [sys.executable, "-m", "cepdist", "verify", "--case", "cascade"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS cascade" in proc.stderr


# distmat and cluster read and featurize their files in forked worker
# processes, one contiguous chunk of files per usable CPU, and simulate
# formats its output rows in one contiguous range per usable CPU. Every call
# below runs once in one process and once with the fork path forced, and
# the two runs must agree byte for byte: exit code, stdout, stderr, the
# warnings raised, and every file written.


def _corpus(directory, lengths, paired=True, prefix="r"):
    """Records named prefix0, prefix1, ... of two alternating systems, one per length."""
    directory.mkdir(exist_ok=True)
    systems = [ZeroPoleGain([0.5], [0.2], 1.0), ZeroPoleGain([-0.6], [], 1.0)]
    for idx, length in enumerate(lengths):
        u, y = white_record(systems[idx % 2], length, idx)
        text = format_pair_csv(u, y) if paired else format_signal_csv(y)
        (directory / f"{prefix}{idx}.csv").write_text(text)
    return str(directory)


def _serial_and_forked(monkeypatch, capsys, argv, files=(), workers=2, chunks=None):
    """One run of argv in one process and one down the fork path with
    ``workers`` usable CPUs; asserts they agree, that the forked run made
    ``chunks`` chunks (more than one if not given) and that no child is left,
    and returns the exit code, stdout, stderr and warnings of the runs.
    ``map_runs`` makes one chunk per worker of ``parallel.worker_count``
    (tests/test_cluster.py), so that count is the count of chunks."""
    runs = []
    real_map_runs = cli.map_runs
    for forked in (False, True):
        chunk_counts = []

        def spy(func, items, size, min_size):
            chunk_counts.append(parallel.worker_count(size, min_size, len(items)))
            return real_map_runs(func, items, size, min_size)

        monkeypatch.setattr(cli, "map_runs", spy)
        monkeypatch.setattr(parallel, "FORK_MIN_BYTES", 0 if forked else 1 << 62)
        monkeypatch.setattr(parallel, "FORK_MIN_ROWS", 0 if forked else 1 << 62)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        for path in files:
            if os.path.exists(path):
                os.remove(path)
        # Entering catch_warnings resets the "default" once-per-location
        # registries, so each run shows its warnings as a fresh process would.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code = main(argv)
        captured = capsys.readouterr()
        shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        written = [Path(p).read_bytes() if os.path.exists(p) else None for p in files]
        runs.append((code, captured.out, captured.err, shown, written))
        if forked and chunks is not None:
            assert chunk_counts == [chunks]
        else:
            assert (chunk_counts[0] > 1) == forked
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert runs[0] == runs[1]
    return runs[0][:4]


@pytest.mark.parametrize("metric", ["cepstral", "subspace", "euclidean", "cosine"])
@pytest.mark.parametrize("verb", ["distmat", "cluster"])
def test_forked_collection_matches_one_process(tmp_path, capsys, monkeypatch, verb, metric):
    records = _corpus(tmp_path / "records", [512] * 6)
    outputs = [str(tmp_path / "report.txt"), str(tmp_path / "matrix.csv")]
    argv = [verb, records, "--metric", metric, "-o", outputs[0]]
    if verb == "cluster":
        argv += ["--k", "2", "--matrix-out", outputs[1]]
    else:
        argv += ["--output-format", "csv"]
    for workers in (2, 4):
        code, out, err, shown = _serial_and_forked(monkeypatch, capsys, argv, outputs, workers)
        assert (code, out, err, shown) == (0, "", "", [])
    if verb == "cluster" and metric in ("cepstral", "subspace"):
        report = json.loads(Path(outputs[0]).read_text())
        assert report["labels"] == [0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize(
    "bad, workers, named",
    [
        ([1], 2, 1),  # in the parent's chunk
        ([4], 2, 4),  # in a worker's chunk
        ([1, 4], 2, 1),  # the parent's chunk comes first
        ([4, 5], 2, 4),
        ([3, 5], 3, 3),  # the first of two workers' chunks wins
        ([5, 2], 3, 2),
    ],
)
def test_forked_collection_refuses_the_first_unreadable_file(
    tmp_path, capsys, monkeypatch, bad, workers, named
):
    records = tmp_path / "records"
    _corpus(records, [512] * 6)
    for idx in bad:
        (records / f"r{idx}.csv").write_text("t,value\n0,1\n1,oops\n")
    code, out, err, _ = _serial_and_forked(
        monkeypatch, capsys, ["distmat", str(records)], workers=workers
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {records / f'r{named}.csv'}:")


def test_forked_collection_refuses_a_missing_file(tmp_path, capsys, monkeypatch):
    paths = [str(tmp_path / f"r{idx}.csv") for idx in range(4)]
    _corpus(tmp_path, [512] * 3)
    code, _, err, _ = _serial_and_forked(monkeypatch, capsys, ["cluster", "--k", "1", *paths])
    assert code == 2
    assert err.startswith(f"error: cannot read signal file {paths[3]}:")


def test_forked_collection_keeps_the_order_of_refusals(tmp_path, capsys, monkeypatch):
    first = _corpus(tmp_path / "first", [512] * 2)
    second = _corpus(tmp_path / "second", [512] * 2)
    signals = _corpus(tmp_path / "signals", [512] * 2, paired=False, prefix="s")
    duplicates = [f"{first}/r0.csv", f"{first}/r1.csv", f"{second}/r0.csv", f"{second}/r1.csv"]
    cases = [
        (duplicates, "signal file names must be unique after dropping directories"),
        # A file that cannot be read wins over duplicate names.
        (duplicates + [f"{first}/none.csv"], f"cannot read signal file {first}/none.csv"),
        # Signals in the parent's chunk and pairs in the worker's; duplicate
        # names win over the mix, and the mix over the subspace refusal.
        ([f"{signals}/s0.csv", f"{signals}/s1.csv", f"{first}/r0.csv", f"{second}/r0.csv"],
         "signal file names must be unique after dropping directories"),
        ([f"{signals}/s0.csv", f"{signals}/s1.csv", f"{first}/r0.csv", f"{first}/r1.csv"],
         "items must be all signals or all (input, output) pairs"),
        ([f"{first}/r0.csv", f"{first}/r1.csv", f"{signals}/s0.csv", f"{signals}/s1.csv"],
         "items must be all signals or all (input, output) pairs"),
        ([f"{first}/r0.csv", f"{signals}/s0.csv", f"{first}/r1.csv", f"{signals}/s1.csv"],
         "items must be all signals or all (input, output) pairs"),
    ]
    for paths, refusal in cases:
        for metric in ("cepstral", "subspace"):
            argv = ["distmat", *paths, "--metric", metric]
            code, out, err, _ = _serial_and_forked(monkeypatch, capsys, argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {refusal}")


@pytest.mark.parametrize("verb", ["distmat", "cluster"])
def test_forked_subspace_collection_of_signals_is_refused(tmp_path, capsys, monkeypatch, verb):
    signals = _corpus(tmp_path / "signals", [512] * 4, paired=False)
    argv = [verb, signals, "--metric", "subspace"] + (["--k", "1"] if verb == "cluster" else [])
    code, out, err, _ = _serial_and_forked(monkeypatch, capsys, argv)
    assert (code, out, err) == (2, "", "error: the subspace metric needs (input, output) pairs\n")


@pytest.mark.parametrize("metric", ["cepstral", "subspace"])
def test_refused_collection_warns_alike_at_any_worker_count(
    tmp_path, capsys, monkeypatch, metric
):
    # Pairs in the parent's chunk and signals in the worker's: each chunk
    # holds one kind, and every record is featurized before the collection
    # rule refuses the mix, so both runs show the short records' warnings.
    # Twenty Hankel rows let a 64-sample pair past the subspace size rule
    # to the phase gate, whose periodogram fallback warns.
    records = tmp_path / "records"
    _corpus(records, [64] * 2)
    _corpus(records, [64] * 2, paired=False, prefix="s")
    argv = ["distmat", str(records), "--metric", metric, "--hankel-rows", "20"]
    code, out, err, shown = _serial_and_forked(monkeypatch, capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: items must be all signals or all (input, output) pairs\n"
    assert "signal too short for segment averaging; falling back to a periodogram" in [
        text for text, *_ in shown
    ]


@pytest.mark.parametrize(
    "lengths", [[512, 512, 512, 64, 64, 96], [64, 512, 512, 512, 96, 512]], ids=["worker", "both"]
)
@pytest.mark.parametrize("metric", ["cepstral", "euclidean"])
def test_forked_collection_issues_worker_warnings_in_file_order(
    tmp_path, capsys, monkeypatch, lengths, metric
):
    records = _corpus(tmp_path / "records", lengths, paired=False)
    argv = ["distmat", records, "--metric", metric]
    code, _, err, shown = _serial_and_forked(monkeypatch, capsys, argv)
    assert code == 0
    if metric == "cepstral":
        # The periodogram fallback of the short records, shown once.
        assert [text for text, *_ in shown] == [
            "signal too short for segment averaging; falling back to a periodogram"
        ]
    else:
        # Pointwise metrics need equal lengths: the other cells fail.
        unequal = sum(a != b for i, a in enumerate(lengths) for b in lengths[i + 1 :])
        assert shown == []
        assert err.count("warning: ") == unequal


@pytest.mark.parametrize("metric", ["cepstral", "subspace"])
@pytest.mark.parametrize("verb", ["distmat", "cluster"])
def test_forked_collection_fails_the_cells_of_a_broken_record(
    tmp_path, capsys, monkeypatch, verb, metric
):
    # The broken record has an all-zero input, which both metrics refuse by
    # type, and sorts last, into the worker's chunk.
    zero = _records_with_a_scaled_input(tmp_path, 0.0)
    os.rename(zero, tmp_path / "s_zero.csv")
    _corpus(tmp_path, [2048] * 3)
    argv = [verb, str(tmp_path), "--metric", metric] + (["--k", "2"] if verb == "cluster" else [])
    code, out, err, shown = _serial_and_forked(monkeypatch, capsys, argv)
    refusal = {
        "cepstral": "input spectrum has a nonpositive bin; cannot take its log",
        "subspace": "input spectrum touches zero on the grid",
    }[metric]
    others = ("ok0", "ok1", "r0", "r1", "r2")
    assert (code, shown) == (0, [])
    report = json.loads(out)
    assert report["failures"] == [[other, "s_zero", refusal] for other in others]
    if verb == "distmat":
        assert err == "".join(f"warning: {other} vs s_zero: {refusal}\n" for other in others)
        assert [row[5] for row in report["values"][:5]] == [None] * 5
    else:
        assert (err, report["excluded"]) == ("", ["s_zero"])


NOT_UTF8_RECORD = b"t,value\n0,1\n1,\xff2\n"


def test_verbs_refuse_files_that_are_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(NOT_UTF8_RECORD)
    ok = write_signal(tmp_path, "ok.csv", np.arange(64.0) % 5)
    sound_model = write_json(tmp_path, "sound.json", SIMULATE_MODEL)
    refusal = f"error: {bad}: row 3: not UTF-8 text (byte 0xff)\n"
    for argv in (
        ["classify", str(bad), str(bad)],
        ["cepstrum", str(bad)],
        ["distmat", str(bad), ok],
        ["simulate", "--model", sound_model, "--input", str(bad)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", refusal)
    model = tmp_path / "model.json"
    model.write_bytes(b'{"poles": [0.5], "zeros": [], "gain": 1.0, "note": "\xff"}')
    assert main(["simulate", "--model", str(model)]) == 2
    assert capsys.readouterr() == ("", f"error: {model}: not UTF-8 text (byte 0xff)\n")
    config = tmp_path / "run.cfg"
    config.write_bytes(b"K = 32\n# a comment \xff\n")
    assert main(["cepstrum", ok, "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", f"error: {config}: not UTF-8 text (byte 0xff)\n")


def test_output_files_take_file_names_that_are_not_utf8(tmp_path, capsys):
    # os.listdir gives the name with a lone surrogate; the matrix CSV holds
    # the name's own bytes, in a file as on stdout. Stdout escapes surrogates
    # in a C or UTF-8 locale; the run pins that, whatever the test's locale.
    records = tmp_path / "records"
    records.mkdir()
    for name, seed in ((b"r\xff.csv", 1), (b"ok.csv", 2)):
        samples = np.random.default_rng(seed).standard_normal(256)
        (records / os.fsdecode(name)).write_text(format_signal_csv(Signal(samples)))
    proc = subprocess.run(
        [sys.executable, "-m", "cepdist", "distmat", str(records), "--output-format", "csv"],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:surrogateescape"},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    expected = proc.stdout
    assert expected.startswith(b"id,ok,r\xff\n")
    matrix = tmp_path / "matrix.csv"
    for argv in (
        ["distmat", str(records), "--output-format", "csv", "-o", str(matrix)],
        ["cluster", str(records), "--k", "1", "--matrix-out", str(matrix)],
    ):
        matrix.unlink(missing_ok=True)
        assert main(argv) == 0
        capsys.readouterr()
        assert matrix.read_bytes() == expected


def test_forked_collection_refuses_a_file_that_is_not_utf8_as_one_process(
    tmp_path, capsys, monkeypatch
):
    # The bad file sorts last, into the worker's chunk.
    records = _corpus(tmp_path / "records", [512] * 3, paired=False)
    bad = tmp_path / "records" / "z_bad.csv"
    bad.write_bytes(NOT_UTF8_RECORD)
    code, out, err, shown = _serial_and_forked(monkeypatch, capsys, ["distmat", records])
    assert (code, out, shown) == (2, "", [])
    assert err == f"error: {bad}: row 3: not UTF-8 text (byte 0xff)\n"


def test_forked_collection_writes_the_stderr_of_one_process(tmp_path):
    # Fresh processes, so the warnings reach stderr through Python's own
    # filters and formatting. The short records sit in the worker's chunk.
    records = _corpus(tmp_path / "records", [512, 512, 512, 64, 96, 64], paired=False)
    program = (
        "import sys; from cepdist import cli, parallel; "
        "parallel.FORK_MIN_BYTES = int(sys.argv[1]); parallel.usable_cpus = lambda: 2; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    for metric in ("cepstral", "euclidean"):
        runs = [
            subprocess.run(
                [sys.executable, "-c", program, str(threshold), "distmat", records,
                 "--metric", metric],
                capture_output=True,
                timeout=120,
            )
            for threshold in (1 << 62, 0)
        ]
        assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
            (runs[0].returncode, runs[0].stdout, runs[0].stderr)
        ]
        assert runs[0].returncode == 0
        text = runs[0].stderr.decode()
        if metric == "cepstral":
            assert text.count("falling back to a periodogram") == 1
        else:
            assert text.count("warning: ") == 11


SIMULATE_MODEL = {"poles": [0.9, [0.5, 0.4], [0.5, -0.4]], "zeros": [-0.3], "gain": 2.0}
# Row counts of one and two, around the formatter's chunk, and odd counts above it.
SIMULATE_LENGTHS = [1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3, 9001]


def _forked_simulate(monkeypatch, capsys, argv, output, length):
    """``_serial_and_forked`` of simulate, with 2, 3 and 4 usable CPUs, to
    ``output`` or to stdout; returns the rows of the last run."""
    for workers in (2, 3, 4):
        for path in (output, None):
            code, out, err, shown = _serial_and_forked(
                monkeypatch,
                capsys,
                argv + (["-o", path] if path else []),
                [output],
                workers,
                chunks=min(workers, length),
            )
            assert (code, err, shown) == (0, "", [])
            if path:
                assert out == ""
                text = Path(output).read_text()
            else:
                assert out == text
                assert not os.path.exists(output)
    return text


@pytest.mark.parametrize("period", [1.0, 0.1, 1e-3])
@pytest.mark.parametrize("length", SIMULATE_LENGTHS)
def test_forked_simulate_of_a_stored_input_matches_one_process(
    tmp_path, capsys, monkeypatch, length, period
):
    model = write_json(tmp_path, "model.json", SIMULATE_MODEL)
    samples = np.random.default_rng(length).standard_normal(length)
    stored = write_signal(tmp_path, "u.csv", samples, period)
    argv = ["simulate", "--model", model, "--input", stored]
    text = _forked_simulate(monkeypatch, capsys, argv, str(tmp_path / "y.csv"), length)
    u = read_signal_csv(stored)
    y = simulate(state_space_from_roots(read_model_json(model)), u)
    assert text == format_pair_csv(u, y)


@pytest.mark.parametrize("kind", ["white", "impulse", "step"])
@pytest.mark.parametrize("length", SIMULATE_LENGTHS)
def test_forked_simulate_of_a_generated_input_matches_one_process(
    tmp_path, capsys, monkeypatch, length, kind
):
    model = write_json(tmp_path, "model.json", SIMULATE_MODEL)
    argv = ["simulate", "--model", model, "--input", kind, "--length", str(length), "--seed", "3"]
    text = _forked_simulate(monkeypatch, capsys, argv, str(tmp_path / "y.csv"), length)
    assert text.count("\n") == length + 1


@pytest.mark.parametrize("failing", ["parent", "worker", "both"])
def test_forked_simulate_failure_writes_nothing(tmp_path, capsys, monkeypatch, failing):
    model = write_json(tmp_path, "model.json", SIMULATE_MODEL)
    length = 2 * CSV_CHUNK_ROWS + 3
    bad_rows = {"parent": [10], "worker": [length - 10], "both": [10, length - 10]}[failing]
    real = cli.pair_csv_rows

    def failing_rows(u, y, start, stop):
        for row in bad_rows:
            if start <= row < stop:
                raise ValidationError(f"cannot format row {row}")
        return real(u, y, start, stop)

    monkeypatch.setattr(cli, "pair_csv_rows", failing_rows)
    output = str(tmp_path / "y.csv")
    argv = ["simulate", "--model", model, "--input", "white", "--length", str(length)]
    for path in (output, None):
        for workers in (2, 4):
            code, out, err, shown = _serial_and_forked(
                monkeypatch,
                capsys,
                argv + (["-o", path] if path else []),
                [output],
                workers,
            )
            assert (code, out, err, shown) == (2, "", f"error: cannot format row {bad_rows[0]}\n", [])
            assert not os.path.exists(output)


def test_forked_simulate_writes_the_bytes_of_one_process(tmp_path):
    model = write_json(tmp_path, "model.json", SIMULATE_MODEL)
    program = (
        "import sys; from cepdist import cli, parallel; "
        "parallel.FORK_MIN_ROWS = int(sys.argv[1]); parallel.usable_cpus = lambda: 2; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", program, str(threshold), "simulate", "--model", model,
             "--input", "white", "--length", "20001"],
            capture_output=True,
            timeout=120,
        )
        for threshold in (1 << 62, 0)
    ]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
        (runs[0].returncode, runs[0].stdout, runs[0].stderr)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout.count(b"\n") == 20002


# A verb that reads one record file parses its blocks in one run per usable
# CPU once the file holds FORK_MIN_BYTES. Each call below runs once in one
# process and once with that read forced down the split path, in blocks of
# 1 KiB so that a small file has a block for each worker, and the runs must
# agree byte for byte.


def _serial_and_range_read(monkeypatch, capsys, argv, files=(), workers=2):
    """One run of argv reading in one process and one reading in runs of
    blocks with ``workers`` usable CPUs; asserts they agree, that no child
    is left and that each read of the second run was split into ``workers``
    runs (the count of ``parallel.worker_count``, one run each, as
    tests/test_cluster.py checks of ``map_runs``), and returns the exit
    code, stdout and stderr, and whether the block parser took every row of
    every read."""
    runs = []
    real_map_runs = sigio.map_runs
    real_read_table = sigio._read_table
    monkeypatch.setattr(sigio, "PARSE_BLOCK_BYTES", 1024)
    for forked in (False, True):
        splits, parsed = [], []

        def split_spy(func, items, size, min_size):
            splits.append(parallel.worker_count(size, min_size, len(items)))
            return real_map_runs(func, items, size, min_size)

        def parsed_spy(*args):
            parsed.append(None)  # left for a read that refuses the file
            parsed[-1] = real_read_table(*args)
            return parsed[-1]

        monkeypatch.setattr(sigio, "map_runs", split_spy)
        monkeypatch.setattr(sigio, "_read_table", parsed_spy)
        monkeypatch.setattr(parallel, "FORK_MIN_BYTES", 0 if forked else 1 << 62)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        for path in files:
            if os.path.exists(path):
                os.remove(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code = main(argv)
        captured = capsys.readouterr()
        shown = [(str(w.message), w.category) for w in caught]
        written = [Path(p).read_bytes() if os.path.exists(p) else None for p in files]
        runs.append((code, captured.out, captured.err, shown, written))
        assert splits == [workers if forked else 1] * len(splits)
        assert len(splits) == len(parsed)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert runs[0] == runs[1]
    assert splits
    return runs[0][:3], all(table is not None for table in parsed)


def _stored_input(tmp_path, fault=None, newline="\n", bom=""):
    """A t,value input of 300 rows; ``fault`` replaces its 298th row."""
    samples = np.random.default_rng(11).standard_normal(300)
    rows = format_signal_csv(Signal(samples)).splitlines()
    if fault is not None:
        rows[298] = fault
    path = tmp_path / "u.csv"
    path.write_bytes((bom + newline.join(rows) + newline).encode())
    return str(path)


# Faults in the last run of blocks, and the one-process error each must give.
READ_FAULTS = {
    "quoted-cell": ('297,"0.5"', None),
    "non-finite-cell": ("297,nan", "row 299: 'nan' is not a finite number"),
    "row-width": ("297,1,2", "row 299: expected 2 cells, got 3"),
    "time-step": ("297.5,1", "row 299: non-uniform time step 1.5 (expected 1.0)"),
}


@pytest.mark.parametrize("fault", sorted(READ_FAULTS))
@pytest.mark.parametrize("workers", [2, 3])
def test_simulate_reads_a_faulty_input_in_ranges_as_one_process(
    tmp_path, capsys, monkeypatch, fault, workers
):
    model = write_json(tmp_path, "model.json", SIMULATE_MODEL)
    line, message = READ_FAULTS[fault]
    stored = _stored_input(tmp_path, line)
    output = str(tmp_path / "y.csv")
    argv = ["simulate", "--model", model, "--input", stored, "-o", output]
    (code, out, err), by_blocks = _serial_and_range_read(
        monkeypatch, capsys, argv, [output], workers
    )
    # The block parser takes every row of the quoted cell; the time step is
    # checked on the joined rows.
    assert by_blocks == (fault in ("quoted-cell", "time-step"))
    if message is None:
        assert (code, out, err) == (0, "", "")
    else:
        assert (code, out, err) == (2, "", f"error: {stored}: {message}\n")
        assert not os.path.exists(output)


@pytest.mark.parametrize("newline,bom", [("\n", ""), ("\r\n", "\ufeff")], ids=["lf", "crlf-bom"])
@pytest.mark.parametrize("workers", [2, 3])
def test_simulate_reads_a_stored_input_in_ranges_as_one_process(
    tmp_path, capsys, monkeypatch, newline, bom, workers
):
    model = write_json(tmp_path, "model.json", SIMULATE_MODEL)
    stored = _stored_input(tmp_path, newline=newline, bom=bom)
    argv = ["simulate", "--model", model, "--input", stored]
    for output in (str(tmp_path / "y.csv"), None):
        files = [output] if output else []
        (code, out, err), by_blocks = _serial_and_range_read(
            monkeypatch, capsys, argv + (["-o", output] if output else []), files, workers
        )
        assert (code, err, by_blocks) == (0, "", True)
    u = read_signal_csv(stored)
    assert out == format_pair_csv(u, simulate(state_space_from_roots(read_model_json(model)), u))


@pytest.mark.parametrize(
    "verb", ["cepstrum", "cepstrum-complex", "classify", "classify-two", "distance"]
)
def test_single_file_verbs_read_in_ranges_as_one_process(tmp_path, capsys, monkeypatch, verb):
    u, y = white_record(ZeroPoleGain([0.5], [0.2], 1.0), 2048, 4)
    pair = tmp_path / "pair.csv"
    pair.write_text(format_pair_csv(u, y))
    other = tmp_path / "other.csv"
    other_system = ZeroPoleGain([-0.6], [], 1.0)
    other.write_text(format_pair_csv(*white_record(other_system, 2048, 5)))
    argv = {
        "cepstrum": ["cepstrum", str(pair)],
        "cepstrum-complex": ["cepstrum", str(pair), "--kind", "complex"],
        "classify": ["classify", str(pair)],
        "classify-two": ["classify", write_signal(tmp_path, "u.csv", u.samples),
                         write_signal(tmp_path, "y.csv", y.samples)],
        "distance": ["distance", str(pair), str(other)],
    }[verb]
    (code, out, err), by_blocks = _serial_and_range_read(monkeypatch, capsys, argv, workers=2)
    assert (code, err, by_blocks) == (0, "", True)
    assert out


def test_simulate_reads_in_ranges_the_bytes_of_one_process(tmp_path):
    # Fresh processes: the read of a faulty input gives the bytes of one
    # process's read on stderr, and a sound one the same output. Blocks of
    # 1 KiB give the small input a block for each worker.
    model = write_json(tmp_path, "model.json", SIMULATE_MODEL)
    program = (
        "import sys; from cepdist import cli, parallel, sigio; sigio.PARSE_BLOCK_BYTES = 1024; "
        "parallel.FORK_MIN_BYTES = int(sys.argv[1]); parallel.usable_cpus = lambda: 2; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    for fault, code in ((None, 0), ("297,oops", 2)):
        stored = _stored_input(tmp_path, fault)
        runs = [
            subprocess.run(
                [sys.executable, "-c", program, str(threshold), "simulate", "--model", model,
                 "--input", stored],
                capture_output=True,
                timeout=120,
            )
            for threshold in (1 << 62, 0)
        ]
        assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
            (runs[0].returncode, runs[0].stdout, runs[0].stderr)
        ]
        assert runs[0].returncode == code
