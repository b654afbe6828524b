"""End-to-end CLI behavior through main(), plus one real subprocess run."""

import json
import subprocess
import sys

import numpy as np
import pytest

from cepdist import (
    RunConfig,
    Signal,
    ZeroPoleGain,
    complex_cepstrum,
    format_cepstrum_csv,
    format_pair_csv,
    format_signal_csv,
    make_example_signals,
    power_cepstrum_of_signal,
    read_signal_csv,
    transfer_cepstrum_from_io,
    transfer_complex_cepstrum_from_io,
)
from cepdist.cli import main
from conftest import white_record

MIN_PHASE_MODEL = {"poles": [0.9, 0.7, 0.4], "zeros": [0.8, 0.6, 0.0], "gain": 1.0}
MAX_PHASE_MODEL = {
    "poles": [1 / 0.9, 1 / 0.7, 1 / 0.4],
    "zeros": [1 / 0.8, 1 / 0.6],
    "gain": 1.0,
}
MIXED_MODEL = {"poles": [0.9], "zeros": [2.5], "gain": 1.0}
IDENTITY_MODEL = {"A": [[0.0]], "B": [0.0], "C": [0.0], "D": 1.0}

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
    assert report["tail_bound"] >= 0.0


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
    a = write_signal(tmp_path, "a.csv", [1e308])
    b = write_signal(tmp_path, "b.csv", [-1e308])
    with np.errstate(over="ignore"):
        assert main([verb, a, b, "--metric", "euclidean"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write the non-finite value inf into a report\n"


def test_distance_rejects_length_mismatch(tmp_path, capsys):
    a = write_signal(tmp_path, "a.csv", np.ones(8))
    b = write_signal(tmp_path, "b.csv", np.ones(9))
    assert main(["distance", a, b, "--metric", "euclidean"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_subspace_distance_gate_names_the_refused_file(tmp_path, capsys):
    good = tmp_path / "good.csv"
    bad = tmp_path / "bad.csv"
    minimum = ZeroPoleGain.from_roots([0.5], [], 1.0)
    mixed = ZeroPoleGain.from_roots([0.9], [2.5], 1.0)
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


def test_signal_cepstrum_rows(tmp_path, capsys):
    path = write_signal(tmp_path, "sig.csv", np.random.default_rng(4).standard_normal(512))
    assert main(["cepstrum", path, "--K", "16", "--K-test", "4"]) == 0
    rows = read_rows(capsys.readouterr().out)
    assert sorted(rows) == list(range(0, 17))


@pytest.mark.parametrize("kind", ["power", "complex"])
@pytest.mark.parametrize("paired", [True, False])
def test_signal_cepstrum_matches_the_library_routes(tmp_path, capsys, paired, kind):
    config = RunConfig(K=32)
    minimum = ZeroPoleGain.from_roots([0.9, 0.5], [0.3, -0.4], 1.0)
    u, y = white_record(minimum, 1024, 2)
    path = tmp_path / "record.csv"
    path.write_text(format_pair_csv(u, y) if paired else format_signal_csv(y))
    _, payload = read_signal_csv(str(path))
    u, y = payload if paired else (None, payload)
    if paired and kind == "power":
        expected = transfer_cepstrum_from_io(u, y, config)
    elif paired:
        expected = transfer_complex_cepstrum_from_io(u, y, config.K, config.fft_length)
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
