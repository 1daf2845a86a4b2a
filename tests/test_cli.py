"""Command-line behavior: outputs, determinism, config merging, exit codes."""

import json
import pathlib

import numpy as np
import pytest

from thermalecho import cli, echo


def _run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(args)


def _read_config_comment(path):
    first = pathlib.Path(path).read_text().splitlines()[0]
    assert first.startswith("# config = ")
    return json.loads(first[len("# config = "):])


def _data_rows(path):
    lines = pathlib.Path(path).read_text().splitlines()
    return [ln.split(",") for ln in lines[2:]]


TS_ARGS = ["timeseries", "--length", "24", "--tpoints", "9", "--tmax", "3",
           "--beta", "2"]


def test_timeseries_outputs(tmp_path, monkeypatch):
    assert _run(TS_ARGS, tmp_path, monkeypatch) == 0
    csv = tmp_path / "timeseries.csv"
    sidecar = tmp_path / "timeseries.json"
    assert csv.exists() and sidecar.exists()

    cfg = _read_config_comment(csv)
    assert cfg["length"] == 24 and cfg["beta"] == 2.0 and cfg["seed"] == cli.DEFAULT_SEED

    lines = csv.read_text().splitlines()
    assert lines[1] == "t,le,lef,lower,upper"
    rows = _data_rows(csv)
    assert len(rows) == 9
    first = rows[0]
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    summary = json.loads(sidecar.read_text())["summary"]
    assert {"d_eff", "purity", "mean_le", "mean_lef", "var_le",
            "smallquench_var"} <= set(summary)
    assert 0.0 < summary["mean_le"] <= 1.0


def test_float_cells_round_trip(tmp_path, monkeypatch):
    _run(TS_ARGS, tmp_path, monkeypatch)
    for row in _data_rows(tmp_path / "timeseries.csv")[1:4]:
        for cell in row:
            assert f"{float(cell):.17g}" == cell


def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["distribution", "--length", "30", "--samples", "5000",
            "--temperatures", "0.05,0.2", "--h0", "0.9", "--h1", "1.1",
            "--gamma0", "1", "--gamma1", "1"]
    assert _run(args, a, monkeypatch) == 0
    assert _run(args, b, monkeypatch) == 0
    produced = sorted(p.name for p in a.iterdir())
    assert produced == sorted(p.name for p in b.iterdir())
    for name in produced:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    # both runs span at least three kernel chunks, so the pool is used:
    # 40000 samples over 100 modes, and 1600 times over 1000 modes
    dist_args = ["distribution", "--length", "200", "--samples", "40000",
                 "--h0", "0.8", "--h1", "1.2", "--gamma0", "1", "--gamma1", "1"]
    ts_args = ["timeseries", "--length", "2000", "--tpoints", "1600", "--tmax", "400"]
    assert 40000 > 3 * (echo._CHUNK_BYTES // (8 * 100))
    assert 1600 > 3 * (echo._CHUNK_BYTES // (8 * 1000))
    for threads, out in (("1", a), ("4", b)):
        monkeypatch.setenv("THERMALECHO_THREADS", threads)
        assert _run(dist_args, out, monkeypatch) == 0
        assert _run(ts_args, out, monkeypatch) == 0
    names = sorted(p.name for p in a.iterdir())
    assert "timeseries.csv" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_malformed_thread_count_exits_one(tmp_path, monkeypatch):
    monkeypatch.setenv("THERMALECHO_THREADS", "abc")
    assert _run(TS_ARGS, tmp_path, monkeypatch) == 1


def test_config_file_merge_and_flag_override(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"length": 26, "beta": 3.0, "tpoints": 4}))
    args = ["timeseries", "--config", str(cfg_file), "--tpoints", "6"]
    assert _run(args, tmp_path, monkeypatch) == 0
    cfg = _read_config_comment(tmp_path / "timeseries.csv")
    assert cfg["length"] == 26          # from the file
    assert cfg["tpoints"] == 6          # flag wins
    assert cfg["beta"] == 3.0
    assert len(_data_rows(tmp_path / "timeseries.csv")) == 6


def test_cli_temperature_supersedes_file_beta(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"beta": 3.0, "tpoints": 3}))
    args = ["timeseries", "--config", str(cfg_file), "--temperature", "0.5"]
    assert _run(args, tmp_path, monkeypatch) == 0
    cfg = _read_config_comment(tmp_path / "timeseries.csv")
    assert cfg["beta"] is None and cfg["temperature"] == 0.5


def test_default_beta_when_neither_given(tmp_path, monkeypatch):
    assert _run(["timeseries", "--tpoints", "3", "--length", "10"],
                tmp_path, monkeypatch) == 0
    cfg = _read_config_comment(tmp_path / "timeseries.csv")
    assert cfg["beta"] == 10.0 and cfg["temperature"] is None


def test_zero_temperature_flag(tmp_path, monkeypatch):
    args = ["timeseries", "--temperature", "0", "--tpoints", "3", "--length", "10"]
    assert _run(args, tmp_path, monkeypatch) == 0
    rows = _data_rows(tmp_path / "timeseries.csv")
    assert float(rows[0][1]) == 1.0


@pytest.mark.parametrize(
    "args",
    [
        ["timeseries", "--beta", "2", "--temperature", "0.5"],
        ["timeseries", "--length", "7"],
        ["timeseries", "--tpoints", "1"],
        ["timeseries", "--bins", "0"],
        ["distribution", "--temperatures", "0.1,warm"],
        ["scan"],
        ["scan", "--sweep", "beta=1:2"],
        ["scan", "--sweep", "nothing=1:2:3"],
        ["scan", "--sweep", "beta=1:2:3", "--sweep", "beta=2:3:2"],
        ["scan", "--sweep", "length=3:5:2"],
    ],
)
def test_validation_failures_exit_one(args, tmp_path, monkeypatch):
    assert _run(args, tmp_path, monkeypatch) == 1


def test_unknown_config_key_exits_one(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"lenght": 10}))
    assert _run(["timeseries", "--config", str(cfg_file)], tmp_path, monkeypatch) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_conflicting_file_layer_exits_one(tmp_path, monkeypatch):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"beta": 2.0, "temperature": 0.1}))
    assert _run(["timeseries", "--config", str(cfg_file)], tmp_path, monkeypatch) == 1


def test_missing_config_exits_three(tmp_path, monkeypatch, capsys):
    code = _run(["timeseries", "--config", str(tmp_path / "nope.json")],
                tmp_path, monkeypatch)
    assert code == 3
    assert "I/O error" in capsys.readouterr().err


def test_unwritable_output_exits_three(tmp_path, monkeypatch):
    args = TS_ARGS + ["--output", "no_such_dir/run"]
    assert _run(args, tmp_path, monkeypatch) == 3


def test_malformed_config_exits_one(tmp_path, monkeypatch):
    cfg_file = tmp_path / "broken.json"
    cfg_file.write_text("{not json")
    assert _run(["timeseries", "--config", str(cfg_file)], tmp_path, monkeypatch) == 1


def test_unknown_command_exits_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_zero_quench_distribution_warns_but_succeeds(tmp_path, monkeypatch, capsys):
    args = ["distribution", "--length", "10", "--samples", "50",
            "--h0", "0.5", "--h1", "0.5", "--gamma0", "0.3", "--gamma1", "0.3"]
    assert _run(args, tmp_path, monkeypatch) == 0
    assert "zero variance" in capsys.readouterr().err
    payload = json.loads((tmp_path / "distribution.json").read_text())
    entry = payload["results"][0]
    assert entry["degenerate"] is True
    assert entry["label"] == "Indeterminate"


def test_distribution_ladder_files_and_labels(tmp_path, monkeypatch):
    args = ["distribution", "--length", "50", "--samples", "100000",
            "--temperatures", "0.02,0.18", "--h0", "0.99", "--h1", "1.01",
            "--gamma0", "1", "--gamma1", "1"]
    assert _run(args, tmp_path, monkeypatch) == 0
    for tag in ("T0.02", "T0.18"):
        assert (tmp_path / f"distribution_{tag}_samples.csv").exists()
        assert (tmp_path / f"distribution_{tag}_hist.csv").exists()
    payload = json.loads((tmp_path / "distribution.json").read_text())
    labels = [entry["label"] for entry in payload["results"]]
    assert labels == ["DoublePeaked", "Gaussian"]
    counts = [row for row in _data_rows(tmp_path / "distribution_T0.02_hist.csv")]
    assert sum(int(row[2]) for row in counts) == 100000


def test_weights_bell_columns(tmp_path, monkeypatch):
    args = ["weights", "--length", "16", "--h0", "0.9", "--h1", "1.0",
            "--gamma0", "1", "--gamma1", "1", "--beta", "20", "--bell", "ising"]
    assert _run(args, tmp_path, monkeypatch) == 0
    lines = (tmp_path / "weights.csv").read_text().splitlines()
    assert lines[1] == "k,a,a_f,omega,damping,damping_f,bell,bell_width"
    assert len(lines) == 2 + 8
    summary = json.loads((tmp_path / "weights.json").read_text())["summary"]
    assert summary["bell"]["kind"] == "ising"
    assert summary["bell"]["width"] == pytest.approx(0.18232, abs=1e-4)


def test_weights_second_order_flag(tmp_path, monkeypatch):
    args = ["weights", "--length", "12", "--gamma1", "0.2495", "--second-order"]
    assert _run(args, tmp_path, monkeypatch) == 0
    summary = json.loads((tmp_path / "weights.json").read_text())["summary"]
    assert summary["second_order"] is True


def test_json_format_embeds_rows(tmp_path, monkeypatch):
    args = TS_ARGS + ["--format", "json"]
    assert _run(args, tmp_path, monkeypatch) == 0
    assert not (tmp_path / "timeseries.csv").exists()
    payload = json.loads((tmp_path / "timeseries.json").read_text())
    assert payload["columns"] == ["t", "le", "lef", "lower", "upper"]
    assert len(payload["rows"]) == 9
    assert payload["rows"][0][1] == 1.0
    assert "summary" in payload


def test_scan_cartesian_product(tmp_path, monkeypatch):
    args = ["scan", "--length", "12", "--sweep", "beta=1:5:3",
            "--sweep", "h1=0.4:0.6:2"]
    assert _run(args, tmp_path, monkeypatch) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[:2] == ["beta", "h1"]
    assert header[-1] == "label"
    rows = _data_rows(tmp_path / "scan.csv")
    assert len(rows) == 6
    assert all(row[-1] in {"DoublePeaked", "MergedSinglePeak", "Gaussian",
                           "Indeterminate"} for row in rows)


def test_scan_temperature_axis(tmp_path, monkeypatch):
    args = ["scan", "--length", "50", "--h0", "0.99", "--h1", "1.01",
            "--gamma0", "1", "--gamma1", "1",
            "--sweep", "temperature=0.02:0.18:5"]
    assert _run(args, tmp_path, monkeypatch) == 0
    rows = _data_rows(tmp_path / "scan.csv")
    labels = [row[-1] for row in rows]
    assert labels == ["DoublePeaked", "DoublePeaked", "MergedSinglePeak",
                      "MergedSinglePeak", "Gaussian"]
    dominance = [float(row[-2]) for row in rows]
    assert dominance == sorted(dominance, reverse=True)


def test_verify_passes_and_reports(tmp_path, monkeypatch):
    assert _run(["verify"], tmp_path, monkeypatch) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is True
    assert set(payload["suites"]) == {
        "oracle_equivalence", "bounds", "qubit_inequality",
        "q_function_scan", "perturbation_scaling", "bures_relation",
    }
    assert all(entry["passed"] for entry in payload["suites"].values())


def test_verify_inject_failure_trips_gate(tmp_path, monkeypatch, capsys):
    assert _run(["verify", "--inject-failure"], tmp_path, monkeypatch) == 2
    out = capsys.readouterr().out
    assert "bounds: FAIL" in out
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is False
    assert payload["suites"]["bounds"]["passed"] is False
    assert payload["suites"]["oracle_equivalence"]["passed"] is True


def test_output_base_override(tmp_path, monkeypatch):
    assert _run(TS_ARGS + ["--output", "custom_name"], tmp_path, monkeypatch) == 0
    assert (tmp_path / "custom_name.csv").exists()
    assert (tmp_path / "custom_name.json").exists()


def test_beta_tag_used_without_temperature(tmp_path, monkeypatch):
    args = ["distribution", "--length", "10", "--samples", "100", "--beta", "4",
            "--h0", "0.9", "--h1", "1.1", "--gamma0", "1", "--gamma1", "1"]
    assert _run(args, tmp_path, monkeypatch) == 0
    assert (tmp_path / "distribution_beta4_samples.csv").exists()


def test_line_endings_are_unix(tmp_path, monkeypatch):
    _run(TS_ARGS, tmp_path, monkeypatch)
    raw = (tmp_path / "timeseries.csv").read_bytes()
    assert b"\r" not in raw
