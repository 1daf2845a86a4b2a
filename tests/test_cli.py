"""Command-line behavior: outputs, determinism, config merging, exit codes."""

import ast
import contextlib
import dataclasses
import fractions
import io
import itertools
import json
import math
import pathlib
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalecho import _csvfile, averages, cli, echo, model, stats, verify


def _run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(args)


def _fmt(value) -> str:
    """Per-cell reference formatting of a CSV value."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _reference_csv(path, cfg, header, rows):
    """Row-by-row reference route for ``_csvfile._save_csv``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config = {_csvfile._config_json(cfg)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _read_config_comment(path):
    first = pathlib.Path(path).read_text().splitlines()[0]
    assert first.startswith("# config = ")
    return json.loads(first[len("# config = "):])


def _data_rows(path):
    lines = pathlib.Path(path).read_text().splitlines()
    return [ln.split(",") for ln in lines[2:]]


TS_ARGS = ["timeseries", "--length", "24", "--tpoints", "9", "--tmax", "3",
           "--beta", "2"]

# a hot, long chain whose purity underflows and whose d_eff overflows
HOT_TS_ARGS = ["timeseries", "--length", "4000", "--beta", "0.01", "--tpoints", "3"]

# a strong quench where a variance series failed at beta=2 (a mode with
# m = 0.903); the closed-form branch of the phase moments covers it
SCAN_FAILING_ARGS = ["scan", "--length", "100", "--h0", "0.2", "--h1", "3.0",
                     "--gamma0", "1", "--gamma1", "1", "--sweep", "beta=0.5:2:2"]

# a hot scan whose d_eff is finite at L=4 and overflows at L=4000
SCAN_OVERFLOW_ARGS = ["scan", "--beta", "0.01", "--sweep", "length=4:4000:2"]


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


# the README's strong quench, whose small-rotation term is far above 1/4
STRONG_TS_ARGS = ["timeseries", "--length", "20000", "--h0", "0.2", "--h1", "3", "--gamma0", "1",
                  "--gamma1", "1", "--beta", "10", "--tpoints", "3"]


def test_timeseries_writes_null_for_a_smallquench_term_above_a_quarter(tmp_path, monkeypatch):
    assert _run(STRONG_TS_ARGS, tmp_path, monkeypatch) == 0
    summary = json.loads((tmp_path / "timeseries.json").read_text())["summary"]
    assert summary["smallquench_var"] is None
    assert 0.0 < summary["purity"] < 1.0


@pytest.mark.parametrize("args", [
    TS_ARGS,
    HOT_TS_ARGS,
    ["timeseries", "--length", "24", "--tpoints", "3", "--temperature", "0"],
], ids=["csv", "hot", "zero-temperature"])
def test_timeseries_summary_is_long_time(args, tmp_path, monkeypatch):
    assert _run(args, tmp_path, monkeypatch) == 0
    payload = json.loads((tmp_path / "timeseries.json").read_text())
    table = model.mode_table(cli._params_for(cli.RunConfig(**payload["config"])))
    want = {name: cli._json_cell(value)
            for name, value in dataclasses.asdict(averages.long_time(table)).items()}
    assert payload["summary"] == want


def test_scan_columns_are_long_time_fields(tmp_path, monkeypatch):
    args = ["scan", "--length", "12", "--sweep", "beta=1:5:3", "--sweep", "h1=0.4:0.6:2",
            "--format", "json"]
    assert _run(args, tmp_path, monkeypatch) == 0
    payload = json.loads((tmp_path / "scan.json").read_text())
    cfg = cli.RunConfig(**payload["config"])
    names = ["d_eff", "purity", "mean_le", "mean_lef", "var_le"]
    assert len(payload["rows"]) == 6
    for row in payload["rows"]:
        point = dict(zip(payload["columns"], row))
        params = cli._params_for(dataclasses.replace(cfg, beta=point["beta"], h1=point["h1"]))
        stat = averages.long_time(model.mode_table(params))
        assert [point[name] for name in names] == [
            cli._json_cell(getattr(stat, name)) for name in names]


def _scan_reference_rows(cfg):
    """The rows of ``scan``, one mode table and one long-time pass per point."""
    axes = [cli._parse_sweep(spec) for spec in cfg.sweep]
    names = [name for name, _ in axes]
    rows = []
    for point in itertools.product(*(values for _, values in axes)):
        swept = dict(zip(names, point))
        beta = (cli._beta_of(swept.pop("beta", None), swept.pop("temperature", None))
                if {"beta", "temperature"} & set(names) else None)
        table = model.mode_table(cli._params_for(dataclasses.replace(cfg, **swept), beta))
        stat = averages.long_time(table)
        spectrum = stats.weights(table)
        verdict = stats.classify(spectrum)
        rows.append([*point, stat.d_eff, stat.purity, stat.mean_le, stat.mean_lef,
                     stat.var_le, spectrum.kappa2, verdict.dominance, verdict.label.value])
    return [[cli._json_cell(value) for value in row] for row in rows]


NEAR_CRITICAL_ARGS = ["--h0", "0.99", "--h1", "1.01", "--gamma0", "1", "--gamma1", "1"]

# several lengths, T = 0 and h1 = 0
GRID_SCAN = ["--sweep", "length=10:40:4", "--sweep", "h1=0:1.4:3",
             "--sweep", "temperature=0:1:3"]


# one mode at L = 2, whose second weight is 0, and a zero quench at h1 = 0.7,
# whose rows are degenerate
SMALL_SCAN = ["--h0", "0.7", "--gamma0", "0.3", "--gamma1", "0.3", "--sweep", "length=2:6:3",
              "--sweep", "h1=0.7:1.3:2", "--sweep", "temperature=0:1:2"]


# blocks of 24 modes split the chains of each length; the last case is a
# cold strong quench whose variance takes the log-space branch
@pytest.mark.parametrize("args, group_modes", [
    (GRID_SCAN, None),
    (GRID_SCAN, 24),
    (SMALL_SCAN, None),
    (["--length", "2600", "--h0", "0.2", "--gamma0", "1", "--gamma1", "1",
      "--beta", "10", "--sweep", "h1=2.5:3:3"], None),
    # one point, and twenty lengths of one point each: blocks of one chain,
    # whose thermal columns hold its one row
    (["--length", "50", *NEAR_CRITICAL_ARGS, "--sweep", "temperature=0.1:0.1:1"], None),
    (["--sweep", "length=2:40:20"], None),
    # repeated points: blocks of identical chains, still one row per chain
    (["--sweep", "h1=0.5:0.5:3"], None),
    (["--sweep", "length=8:8:2"], None),
])
def test_scan_matches_per_point_reference(tmp_path, monkeypatch, args, group_modes):
    if group_modes is not None:
        monkeypatch.setattr(model, "_GROUP_MODES", group_modes)
    assert _run(["scan", *args, "--format", "json"], tmp_path, monkeypatch) == 0
    payload = json.loads((tmp_path / "scan.json").read_text())
    want = _scan_reference_rows(cli.RunConfig(**payload["config"]))
    # repr keeps every bit of a float, and the sign of a zero
    assert json.dumps(payload["rows"]) == json.dumps(want)
    if args is SMALL_SCAN:
        labels = {tuple(row[:3]): row[-1] for row in payload["rows"]}
        assert labels[2.0, 0.7, 1.0] == "Indeterminate"
        assert labels[2.0, 1.3, 1.0] == "DoublePeaked"
    if "2600" in args:
        point = dict(zip(payload["columns"], payload["rows"][-1]))
        assert point["h1"] == 3.0
        assert 2.0 * math.log(point["mean_le"]) < averages._LOG_TINY
        assert point["var_le"] > 0.0


def test_scan_takes_its_verdicts_per_block(tmp_path, monkeypatch):
    calls = {"classify": 0, "blocks": 0}
    real_classify, real_blocks = stats.classify, model._blocks

    def counted_classify(spectrum, histogram=None):
        calls["classify"] += 1
        return real_classify(spectrum, histogram)

    def counted_blocks(columns):
        for block in real_blocks(columns):
            calls["blocks"] += 1
            yield block

    monkeypatch.setattr(stats, "classify", counted_classify)
    monkeypatch.setattr(model, "_blocks", counted_blocks)
    monkeypatch.setattr(model, "_GROUP_MODES", 24)
    assert _run(["scan", *GRID_SCAN], tmp_path, monkeypatch) == 0
    # four lengths, the longer ones in several blocks
    assert calls["classify"] == calls["blocks"] > 4


def test_commands_reach_no_private_statistic_route():
    # the statistics have one public route each, which takes a block too
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in ("averages", "stats") and node.attr.startswith("_")]
    assert private == []


def test_phase_moments_are_taken_once_per_table(tmp_path, monkeypatch):
    calls = []
    original = averages._mean_factors

    def counted(m, *columns):
        calls.append(m.shape)
        return original(m, *columns)

    monkeypatch.setattr(averages, "_mean_factors", counted)
    assert _run(TS_ARGS, tmp_path, monkeypatch) == 0
    assert calls == [(1, 12)]
    calls.clear()
    # the scan's six points take theirs in one block
    args = ["scan", "--length", "12", "--sweep", "beta=1:5:3", "--sweep", "h1=0.4:0.6:2"]
    assert _run(args, tmp_path, monkeypatch) == 0
    assert calls == [(6, 6)]


def test_overflowing_phase_exits_one_naming_it(tmp_path, monkeypatch, capsys):
    # a finite --tmax whose phase t * lam1 overflows used to reach the
    # kernel, warn from numpy and be blamed on the mode table
    args = ["timeseries", "--length", "8", "--tmax", "1.7e308", "--tpoints", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(args, tmp_path, monkeypatch) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("thermalecho: the phase t * lam1 overflows: max |t| = 1.7e+308 ")
    assert err.endswith(" exceeds the float64 range\n")
    assert not list(tmp_path.iterdir())


def test_float_cells_round_trip(tmp_path, monkeypatch):
    _run(TS_ARGS, tmp_path, monkeypatch)
    for row in _data_rows(tmp_path / "timeseries.csv")[1:4]:
        for cell in row:
            assert f"{float(cell):.17g}" == cell


@pytest.mark.parametrize("n_rows", [0, 1, _csvfile._BLOCK_ROWS + 7])
def test_writer_matches_per_cell_reference(n_rows, tmp_path, capsys):
    rng = np.random.default_rng(n_rows)
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300,
               # rounding ties and both edges of the fixed-notation band
               123456789012345.625, 9.9999999999999999e-5, 99999999999999999.0,
               *(np.nextafter(p, towards) for p in (1e-4, 1e16, 1e17)
                 for towards in (0.0, math.inf)),
               np.nextafter(2.2250738585072014e-308, 0.0), -0.0]
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    # the special values at both ends and across the first block boundary
    for at in (0, _csvfile._BLOCK_ROWS - 3, n_rows - len(special)):
        if 0 <= at <= n_rows - len(special):
            floats[at:at + len(special)] = special
    counts = rng.integers(-2**62, 2**62, n_rows)  # int64
    lengths = [int(v) for v in rng.integers(2, 10**6, n_rows)]  # Python ints
    labels = [("Gaussian", "DoublePeaked", "nan")[i % 3] for i in range(n_rows)]
    # Python and numpy floats mixed, as in a scan column
    mixed = tuple(float(v) if i % 2 else np.float64(v) for i, v in enumerate(floats))
    header = ["x", "count", "length", "label", "mixed"]
    columns = [floats, counts, lengths, labels, mixed]
    cfg = cli.RunConfig()
    _csvfile._save_csv(str(tmp_path / "columnar.csv"), cfg, header, columns)
    _reference_csv(tmp_path / "reference.csv", cfg, header, zip(*columns))
    written = (tmp_path / "columnar.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert len(written.splitlines()) == 2 + n_rows
    # the table writers, not the CSV writer, report the files they write
    assert capsys.readouterr().out == ""


def test_writer_matches_printf_on_a_million_floats(tmp_path, capsys):
    rng = np.random.default_rng(20260)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    n = 800_000
    log_uniform = 10.0 ** rng.uniform(-6.0, 18.0, n) * rng.choice([-1.0, 1.0], n)
    floats = np.concatenate([bits, log_uniform])
    cfg = cli.RunConfig()
    _csvfile._save_csv(str(tmp_path / "floats.csv"), cfg, ["x"], [floats])
    want = (f"# config = {_csvfile._config_json(cfg)}\nx\n"
            + ("%.17g\n" * floats.size) % tuple(floats.tolist()))
    assert (tmp_path / "floats.csv").read_bytes() == want.encode()


@given(st.floats())
@settings(max_examples=500, deadline=None)
def test_writer_matches_printf_on_any_float(x):
    assert _csvfile._csv_rows([np.array([x])]).tobytes() == ("%.17g\n" % x).encode()


def _printf_rows(floats) -> bytes:
    return (("%.17g\n" * len(floats)) % tuple(float(v) for v in floats)).encode()


def _exact_ties() -> list[float]:
    """The doubles m * 2**j, odd m in [33, 63], whose exact decimal value has
    18 significant digits ending in 5: ties of ``%.17g`` rounding."""
    ties = []
    for m, j in itertools.product(range(33, 64, 2), range(-1074, 972)):
        # the significant digits of m * 2**j; for j < 0 those of m * 5**-j
        digits = str(m * 2**j if j >= 0 else m * 5**-j).rstrip("0")
        if len(digits) == 18 and digits.endswith("5"):
            ties.append(math.ldexp(m, j))
    return ties


def test_exponent_cells_at_powers_of_ten_and_band_edges():
    # every power of ten in the band and two doubles either side of it, so
    # the largest double below each 10**E, whose digits may carry to 10**17,
    # both signs; then the band edges and values outside it
    powers = np.array([float(f"1e{n}") for n in range(-280, 280)])
    steps = np.arange(-2, 3)
    floats = (powers.view(np.int64)[:, None] + steps).ravel().view(np.float64)
    # log10 misses next to a power of ten are redone, not sent to printf;
    # only the exact doubles 1e17 to 1e22 go there, since their scaled
    # product is 1e16 itself, within the error bound of the edge
    sure = _csvfile._decimal(floats)[2]
    assert sorted(floats[~sure]) == [float(f"1e{n}") for n in range(17, 23)]
    edges = [np.nextafter(edge, towards) for edge in (1e-280, 1e280)
             for towards in (0.0, math.inf)]
    special = [1e-280, 1e280, *edges, 5e-324, 2.2250738585072014e-308,
               np.nextafter(2.2250738585072014e-308, 0.0), 0.0, -0.0,
               math.inf, -math.inf, math.nan, 1.7976931348623157e308]
    floats = np.concatenate([floats, -floats, special, np.negative(special)])
    assert _csvfile._csv_rows([floats]).tobytes() == _printf_rows(floats)


def test_exponent_cells_at_exact_ties_take_printf():
    ties = np.array(_exact_ties())
    assert len(ties) == 27
    assert "%.17g" % ties[0] == "3.9339065551757812e-06"
    for floats in (ties, -ties):
        assert _csvfile._csv_rows([floats]).tobytes() == _printf_rows(floats)
    # the error bound cannot round a tie, so every one goes to printf
    assert not _csvfile._decimal(ties)[2].any()


def test_powers_of_ten_are_exact_double_doubles():
    hi, p_hi, p_lo, lo = _csvfile._decimal_tables()[:4]
    for e in range(_csvfile._E_MIN, _csvfile._E_MAX + 1):
        power = fractions.Fraction(10) ** (16 - e)
        j = e - _csvfile._E_MIN
        assert hi[j] == float(power) and lo[j] == float(power - fractions.Fraction(hi[j])), e
        assert p_hi[j] + p_lo[j] == hi[j], e
    assert np.count_nonzero(lo == 0.0) == 23  # 10**0 to 10**22


_EXPONENT_BAND = (st.floats(min_value=1e-280, max_value=1e-4, exclude_max=True)
                  | st.floats(min_value=1e17, max_value=1e280, exclude_max=True))


@given(_EXPONENT_BAND, st.booleans())
@settings(max_examples=500, deadline=None)
def test_writer_matches_printf_in_the_exponent_bands(x, negative):
    x = -x if negative else x
    assert _csvfile._csv_rows([np.array([x])]).tobytes() == ("%.17g\n" % x).encode()


def test_timeseries_exponent_cells_skip_printf(tmp_path, monkeypatch):
    # timeseries-long's quench at 2001 points: le, lef and lower fall to
    # about 1e-8 and below, so about 60% of the cells are in exponent notation
    args = ["timeseries", "--length", "2000", "--h0", "0.5", "--h1", "0.5",
            "--gamma0", "0.25", "--gamma1", "0.1", "--beta", "10",
            "--tpoints", "2001", "--tmax", "500"]
    printed, printf_cells = [], _csvfile._printf_cells

    def counting(values, fmt, width):
        printed.extend(v for v in values if isinstance(v, float))
        return printf_cells(values, fmt, width)

    monkeypatch.setattr(_csvfile, "_printf_cells", counting)
    assert _run(args, tmp_path, monkeypatch) == 0
    rows = _data_rows(tmp_path / "timeseries.csv")
    assert len(rows) == 2001
    assert sum("e-" in cell for row in rows for cell in row) > 5000
    # only the t = 0 cell, 0, reaches printf
    assert printed == [0.0]


def test_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        _csvfile._save_csv(str(tmp_path / "x.csv"), cli.RunConfig(), ["a", "b"],
                       [np.zeros(3), np.zeros(4)])


def _run_failing_scan(out, monkeypatch, capsys):
    """Run ``SCAN_FAILING_ARGS`` as CSV and JSON; check both variances are finite."""
    capsys.readouterr()
    assert _run(SCAN_FAILING_ARGS, out, monkeypatch) == 0
    assert _run(SCAN_FAILING_ARGS + ["--format", "json", "--output", "scan_json"],
                out, monkeypatch) == 0
    assert "did not converge" not in capsys.readouterr().err
    var_le = [float(row[5]) for row in _data_rows(out / "scan.csv")]
    assert all(math.isfinite(v) and v > 0.0 for v in var_le)
    rows = json.loads((out / "scan_json.json").read_text())["rows"]
    assert [row[5] for row in rows] == var_le


def test_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["distribution", "--length", "30", "--samples", "5000",
            "--temperatures", "0.05,0.2", "--h0", "0.9", "--h1", "1.1",
            "--gamma0", "1", "--gamma1", "1"]
    json_args = args + ["--format", "json", "--output", "distribution_json"]
    for out in (a, b):
        assert _run(args, out, monkeypatch) == 0
        assert _run(json_args, out, monkeypatch) == 0
        _run_failing_scan(out, monkeypatch, capsys)
    produced = sorted(p.name for p in a.iterdir())
    assert {"distribution_json.json", "scan.csv", "scan_json.json"} <= set(produced)
    assert produced == sorted(p.name for p in b.iterdir())
    for name in produced:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    # both runs span at least three kernel chunks, so the pool is used:
    # 40000 samples over 100 modes, and 1600 times over 1000 modes
    dist_args = ["distribution", "--length", "200", "--samples", "40000",
                 "--h0", "0.8", "--h1", "1.2", "--gamma0", "1", "--gamma1", "1"]
    ts_args = ["timeseries", "--length", "2000", "--tpoints", "1600", "--tmax", "400"]
    assert 40000 > 3 * (echo._CHUNK_BYTES // (8 * 100))
    assert 1600 > 3 * (echo._CHUNK_BYTES // (8 * 1000))
    # a ladder shares its sines over chunks of 5 rungs x 100 modes, and its
    # five rungs run on at most 4 workers, so one worker runs two
    ladder_args = dist_args + ["--temperatures", "0,0.1,0.3,0.7,2", "--output", "ladder"]
    assert 40000 > 3 * (echo._CHUNK_BYTES // (8 * 5 * 100))
    json_args = dist_args + ["--format", "json", "--output", "distribution_json"]
    for threads, out in (("1", a), ("4", b)):
        monkeypatch.setenv("THERMALECHO_THREADS", threads)
        assert _run(dist_args, out, monkeypatch) == 0
        assert _run(json_args, out, monkeypatch) == 0
        assert _run(ladder_args, out, monkeypatch) == 0
        assert _run(ts_args, out, monkeypatch) == 0
        _run_failing_scan(out, monkeypatch, capsys)
    names = sorted(p.name for p in a.iterdir())
    assert {"timeseries.csv", "distribution_json.json", "scan.csv",
            "scan_json.json"} <= set(names)
    assert {"ladder.json", "ladder_T0_samples.csv", "ladder_T2_samples.csv"} <= set(names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


LADDER_ARGS = ["distribution", "--length", "20", "--samples", "20000",
               "--h0", "0.9", "--h1", "1.1", "--gamma0", "1", "--gamma1", "1",
               "--temperatures", "0.05,0.1,0.2,0.4,0.8"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ladder_formats_each_time_block_once(threads, tmp_path, monkeypatch):
    # the five samples files share their time column; its cells are made
    # once per block, not once per rung
    monkeypatch.setenv("THERMALECHO_THREADS", threads)
    drawn, formatted = [], []
    sample_logle, cells = stats.sample_logle, _csvfile._cells

    def drawing(*args):
        drawn.append(sample_logle(*args))
        return drawn[-1]

    def formatting(column):
        if np.shares_memory(column, drawn[0].times):
            formatted.append(len(column))
        return cells(column)

    monkeypatch.setattr(stats, "sample_logle", drawing)
    monkeypatch.setattr(_csvfile, "_cells", formatting)
    assert 20000 > _csvfile._BLOCK_ROWS
    assert _run(LADDER_ARGS, tmp_path, monkeypatch) == 0
    assert formatted == [_csvfile._BLOCK_ROWS, 20000 - _csvfile._BLOCK_ROWS]
    times = [row[0] for row in _data_rows(tmp_path / "distribution_T0.05_samples.csv")]
    assert times == [f"{t:.17g}" for t in drawn[0].times]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ladder_to_missing_directory_exits_three(threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THERMALECHO_THREADS", threads)
    args = LADDER_ARGS + ["--output", "no_such_dir/ladder"]
    assert _run(args, tmp_path, monkeypatch) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("thermalecho: I/O error (no_such_dir/ladder_T0.05_samples.csv)")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("threads", ["1", "3"])
def test_zero_variance_ladder_warns_before_each_rungs_files(threads, tmp_path, monkeypatch):
    monkeypatch.setenv("THERMALECHO_THREADS", threads)
    args = ["distribution", "--length", "10", "--samples", "50", "--h0", "0.5", "--h1", "0.5",
            "--gamma0", "0.3", "--gamma1", "0.3", "--temperatures", "0.1,0.2,0.3,0.4"]
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert _run(args, tmp_path, monkeypatch) == 0
    lines = []
    for T in ("0.1", "0.2", "0.3", "0.4"):
        lines += ["warning: quench has zero variance; no distribution to classify",
                  f"wrote distribution_T{T}_samples.csv", f"wrote distribution_T{T}_hist.csv"]
    assert both.getvalue().splitlines() == lines + ["wrote distribution.json"]


def test_malformed_thread_count_exits_one(tmp_path, monkeypatch):
    for raw in ("abc", "0", "-2"):
        monkeypatch.setenv("THERMALECHO_THREADS", raw)
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


@pytest.mark.parametrize(
    "args, message",
    [
        (["scan", "--length", "8", "--tmax", "nan", "--sweep", "beta=1:2:2"],
         "tmax must be finite, got nan"),
        (["distribution", "--length", "8", "--tmax", "inf"], "tmax must be finite, got inf"),
        (["distribution", "--length", "8", "--tau-factor", "nan"],
         "tau-factor must be positive and finite, got nan"),
        (["timeseries", "--length", "8", "--tau-factor", "inf"],
         "tau-factor must be positive and finite, got inf"),
        (["distribution", "--length", "8", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["verify", "--seed", "-3"], "seed must be >= 0, got -3"),
        # QuenchParams takes beta = inf as the ground state; the CLI does not
        (["timeseries", "--length", "8", "--beta", "inf"],
         "beta must be positive and finite, got inf"),
        (["weights", "--length", "8", "--temperature", "1e-310"],
         "temperature must be 0 or large enough that 1 / temperature is finite, got 1e-310"),
        (["scan", "--length", "8", "--sweep", "beta=1:inf:2"],
         "sweep start and stop must be finite in 'beta=1:inf:2'"),
        (["scan", "--length", "8", "--sweep", "length=10:inf:2"],
         "sweep start and stop must be finite in 'length=10:inf:2'"),
        # the swept lengths are not rounded to L = 10 and 12
        (["scan", "--length", "8", "--sweep", "length=9.6:12.4:2"],
         "swept length 9.6 is not a whole number in 'length=9.6:12.4:2'"),
        # a scan names the first point that fails, or the config's own beta
        (["scan", "--length", "8", "--beta", "-1", "--sweep", "h1=0.5:1.5:3"],
         "beta must be positive and finite, got -1.0"),
        (["scan", "--length", "8", "--sweep", "h1=0.5:1.5:2",
          "--sweep", "temperature=1:-1:3"],
         "temperature must be >= 0 and finite, got -1.0"),
        (["scan", "--length", "8", "--h0", "nan", "--sweep", "h1=0.5:1.5:2"],
         "h0 must be finite, got nan"),
        # a config value is checked also where every point overrides it
        (["scan", "--beta", "inf", "--length", "8", "--sweep", "temperature=0.1:0.2:2"],
         "beta must be positive and finite, got inf"),
        (["scan", "--beta", "inf", "--length", "8", "--sweep", "temperature=0.1:0.2:2",
          "--format", "json"],
         "beta must be positive and finite, got inf"),
        (["scan", "--length", "8", "--h0", "inf", "--sweep", "h0=0.5:1.5:2"],
         "h0 must be finite, got inf"),
        (["scan", "--length", "8", "--h0", "inf", "--sweep", "h0=0.5:1.5:2", "--format", "json"],
         "h0 must be finite, got inf"),
    ],
)
def test_non_finite_or_negative_run_values_exit_one(args, message, tmp_path, monkeypatch,
                                                     capsys):
    # NaN and Infinity would be written into the config comment and the JSON
    # files, which strict JSON does not allow
    assert _run(args, tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err == f"thermalecho: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["distribution", "--temperatures", "1e-320"],
    ["timeseries", "--temperature", "1e-320"],
    ["scan", "--sweep", "temperature=1e-320:1e-320:1"],
])
def test_temperature_whose_inverse_overflows_is_named(args, tmp_path, monkeypatch, capsys):
    # 1 / 1e-320 overflows to inf; the user gave a temperature, not a beta
    assert _run([*args, "--length", "8"], tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err == (
        "thermalecho: temperature must be 0 or large enough that 1 / temperature "
        "is finite, got 1e-320\n")
    assert not list(tmp_path.iterdir())


def test_whole_number_length_sweeps_stay_exact():
    assert cli._parse_sweep("length=10:40:4") == ("length", [10, 20, 30, 40])
    assert cli._parse_sweep("length=4:4000:2") == ("length", [4, 4000])
    assert cli._parse_sweep("length=2:100:50")[1] == list(range(2, 101, 2))


def test_non_finite_config_file_values_exit_one(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "run.json"
    for text, message in (('{"tmax": Infinity}', "tmax must be finite"),
                          ('{"tau_factor": Infinity}',
                           "tau-factor must be positive and finite"),
                          ('{"beta": 1e309}', "beta must be positive and finite, got inf")):
        cfg_file.write_text(text)
        assert _run(["weights", "--config", str(cfg_file)], tmp_path, monkeypatch) == 1
        assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_empty_config_ladder_exits_one(tmp_path, monkeypatch, capsys):
    # an empty list once ran at the default beta and wrote its files
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text('{"temperatures": []}')
    args = ["distribution", "--config", str(cfg_file), "--length", "8", "--samples", "100"]
    assert _run(args, tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err == (
        "thermalecho: temperatures must list at least one temperature\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_unknown_config_key_exits_one(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"lenght": 10}))
    assert _run(["timeseries", "--config", str(cfg_file)], tmp_path, monkeypatch) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command, values, unused", [
    ("timeseries", {"temperatures": [0.1, 0.2]}, ["temperatures"]),
    ("timeseries", {"inject_failure": True, "sweep": []}, ["inject_failure", "sweep"]),
    ("distribution", {"bell": "ising"}, ["bell"]),
    ("weights", {"sweep": ["h1=0.1:0.2:2"]}, ["sweep"]),
    ("scan", {"second_order": True, "sweep": ["h1=0.1:0.2:2"]}, ["second_order"]),
])
def test_config_keys_the_subcommand_does_not_take_exit_one(command, values, unused, tmp_path,
                                                            monkeypatch, capsys):
    # the key would be recorded in the run's config but never used
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(values))
    assert _run([command, "--length", "8", "--config", str(cfg_file)],
                tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err == (
        f"thermalecho: config keys not taken by {command}: {unused}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_conflicting_file_layer_exits_one(tmp_path, monkeypatch):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"beta": 2.0, "temperature": 0.1}))
    assert _run(["timeseries", "--config", str(cfg_file)], tmp_path, monkeypatch) == 1



@pytest.mark.parametrize("args, names", [
    (["--beta", "5", "--temperatures", "0.1,0.2"], "beta and temperatures"),
    (["--temperatures", "0.1", "--temperature", "0.5"], "temperature and temperatures"),
])
def test_ladder_and_single_temperature_flags_exit_one(args, names, tmp_path, monkeypatch,
                                                      capsys):
    # every rung runs at its ladder temperature, so a beta or temperature
    # beside a ladder would be recorded in the config but never used
    assert _run(["distribution", "--length", "10", "--samples", "100", *args],
                tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err == (
        f"thermalecho: give at most one of {names} on the command line\n")
    assert not list(tmp_path.iterdir())


def test_ladder_and_beta_in_one_config_file_exit_one(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"beta": 5.0, "temperatures": [0.1, 0.2]}))
    args = ["distribution", "--length", "10", "--samples", "100", "--config", str(cfg_file)]
    assert _run(args, tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err == (
        "thermalecho: give at most one of beta and temperatures on the config file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_cli_ladder_supersedes_file_beta(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"beta": 5.0}))
    args = ["distribution", "--length", "10", "--samples", "100", "--config", str(cfg_file),
            "--temperatures", "0.1,0.2"]
    assert _run(args, tmp_path, monkeypatch) == 0
    cfg = json.loads((tmp_path / "distribution.json").read_text())["config"]
    assert cfg["temperatures"] == [0.1, 0.2]
    assert cfg["beta"] == 10.0 and cfg["temperature"] is None

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


@pytest.mark.parametrize(
    "values, message",
    [
        ({"h0": "0.5"}, "'h0' must be a number"),
        ({"length": True}, "'length' must be a number"),
        ({"length": None}, "'length' may not be null"),
        ({"length": 80.5}, "'length' must be an integer"),
        ({"tmax": [5.0]}, "'tmax' must be a number"),
        ({"temperatures": 0.1}, "'temperatures' must be a list of numbers"),
        ({"temperatures": [0.1, "warm"]}, "'temperatures' must be a list of numbers"),
        ({"sweep": "beta=1:2:3"}, "'sweep' must be a list of strings"),
        ({"format": "xml"}, "'format' must be one of"),
        ({"bell": "foo"}, "'bell' must be one of"),
        ({"second_order": 1}, "'second_order' must be true or false"),
        ({"output": 7}, "'output' must be a string"),
    ],
)
def test_bad_config_values_exit_one(values, message, tmp_path, monkeypatch, capsys):
    # every file value meets the check its flag would get, and the error names the key
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps(values))
    code = _run(["weights", "--length", "8", "--config", str(cfg_file)], tmp_path, monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("thermalecho: config key ") and message in err
    assert not list(tmp_path.glob("weights*"))


def test_every_config_field_type_has_a_check():
    for name, annotation in cli._FIELD_TYPES.items():
        assert annotation.removesuffix(" | None") in cli._VALUE_CHECKS, name


def test_good_config_values_pass_the_checks(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"length": 16.0, "h0": 0.9, "h1": 1, "gamma0": 1,
                                    "gamma1": 1, "beta": 20, "format": "json",
                                    "bell": "ising", "output": None}))
    assert _run(["weights", "--config", str(cfg_file)], tmp_path, monkeypatch) == 0
    payload = json.loads((tmp_path / "weights.json").read_text())
    assert payload["config"]["length"] == 16 and payload["summary"]["bell"]["kind"] == "ising"


def test_distribution_ladder_builds_each_table_once(tmp_path, monkeypatch):
    # every mode table, one chain's or a block's, comes from model._table, so
    # this counts each build of mode columns, the sampler's included
    built = []
    real_table = model._table

    def counted(k, *quench):
        # a block's beta is a (chains, 1) column, one chain's a scalar
        built.append("table" if np.ndim(quench[-1]) == 0 else np.shape(quench[-1])[0])
        return real_table(k, *quench)

    monkeypatch.setattr(model, "_table", counted)
    args = ["distribution", "--length", "12", "--samples", "500",
            "--temperatures", "0.1,0.5,2"]
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir(), two.mkdir()
    assert _run(args, one, monkeypatch) == 0
    assert built == [3]
    # blocks of 12 modes hold two 6-mode rungs: the ladder spans two blocks,
    # each built once, and writes the same bytes
    built.clear()
    monkeypatch.setattr(model, "_GROUP_MODES", 12)
    assert _run(args, two, monkeypatch) == 0
    assert built == [2, 1]
    names = sorted(path.name for path in one.iterdir())
    assert names == sorted(path.name for path in two.iterdir()) and len(names) == 7
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


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


def test_zero_temperature_distribution_is_tagged_t0(tmp_path, monkeypatch):
    args = ["distribution", "--length", "30", "--h0", "0.5", "--h1", "1.5",
            "--gamma0", "1", "--gamma1", "1", "--temperature", "0", "--samples", "2000"]
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    csv_dir.mkdir(), json_dir.mkdir()
    assert _run(args, csv_dir, monkeypatch) == 0
    assert sorted(p.name for p in csv_dir.iterdir()) == [
        "distribution.json", "distribution_T0_hist.csv", "distribution_T0_samples.csv",
    ]
    assert len(_data_rows(csv_dir / "distribution_T0_samples.csv")) == 2000
    assert _run(args + ["--format", "json"], json_dir, monkeypatch) == 0
    assert [p.name for p in json_dir.iterdir()] == ["distribution.json"]
    entry = json.loads((json_dir / "distribution.json").read_text())["results"][0]
    assert entry["zero_temperature"] is True and entry["beta"] is None
    assert len(entry["samples"]["z"]) == 2000
    assert sum(entry["histogram"]["counts"]) == 2000


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



def test_distribution_peaks_are_centres_of_the_written_bins(tmp_path, monkeypatch):
    args = ["distribution", "--length", "30", "--samples", "20000", "--temperatures", "0.02",
            "--h0", "0.99", "--h1", "1.01", "--gamma0", "1", "--gamma1", "1", "--bins", "150"]
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    csv_dir.mkdir(), json_dir.mkdir()
    assert _run(args, csv_dir, monkeypatch) == 0
    assert _run(args + ["--format", "json"], json_dir, monkeypatch) == 0
    rows = np.array(_data_rows(csv_dir / "distribution_T0.02_hist.csv"), dtype=float)
    entry = json.loads((json_dir / "distribution.json").read_text())["results"][0]
    edges = np.array(entry["histogram"]["edges"])
    assert np.array_equal(rows[:, 0], edges[:-1]) and np.array_equal(rows[:, 1], edges[1:])
    centres = 0.5 * (edges[:-1] + edges[1:])
    csv_entry = json.loads((csv_dir / "distribution.json").read_text())["results"][0]
    for written in (csv_entry, entry):
        peaks = written["histogram_peaks"]
        assert len(peaks) == written["histogram_peak_count"] >= 1
        assert set(peaks) <= set(centres.tolist())

@pytest.mark.parametrize("ladder, fmt", [
    ("0.1000001,0.1000002", "csv"),
    ("0.1,0.1", "csv"),
    ("0.1,0.1", "json"),
])
def test_distribution_rejects_rungs_that_share_a_tag(ladder, fmt, tmp_path, monkeypatch,
                                                     capsys):
    # each rung's CSV files are named by T{temperature:g}, so these two rungs
    # would both write distribution_T0.1_*.csv, the second over the first
    calls = []
    monkeypatch.setattr(stats, "sample_logle", lambda *args: calls.append(args))
    args = ["distribution", "--length", "20", "--samples", "2000",
            "--temperatures", ladder, "--format", fmt]
    assert _run(args, tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    first, second = ladder.split(",")
    assert f"temperatures {first} and {second} share the file tag T0.1" in err
    assert not calls and not list(tmp_path.iterdir())


def test_distribution_checks_every_rung_before_sampling(tmp_path, monkeypatch):
    args = ["distribution", "--length", "20", "--samples", "200", "--temperatures", "0.1,-1"]
    assert _run(args, tmp_path, monkeypatch) == 1
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("args, condition", [
    (["--h0", "0.9", "--h1", "1.0", "--gamma0", "1", "--gamma1", "0.5", "--bell", "ising"],
     "gamma0 = gamma1 = 1"),
    (["--h0", "0", "--h1", "0.3", "--gamma0", "0.3", "--gamma1", "0.35", "--bell", "aniso"],
     "h0 = h1 = 0"),
], ids=["ising", "aniso"])
def test_weights_bell_rejects_mixed_quench(args, condition, tmp_path, monkeypatch, capsys):
    # each bell describes one single-parameter quench; a second change is an error
    assert _run(["weights", *args], tmp_path, monkeypatch) == 1
    assert condition in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("args, name", [
    (SCAN_OVERFLOW_ARGS + ["--format", "json"], "scan.json"),
    (HOT_TS_ARGS + ["--format", "json"], "timeseries.json"),
    (HOT_TS_ARGS, "timeseries.json"),
], ids=["scan", "timeseries", "timeseries-sidecar"])
def test_json_is_strict(args, name, tmp_path, monkeypatch, capsys):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    assert _run(args, tmp_path, monkeypatch) == 0
    payload = json.loads((tmp_path / name).read_text(), parse_constant=reject)
    if name == "scan.json":
        assert payload["columns"][1] == "d_eff"
        assert [row[1] is None for row in payload["rows"]] == [False, True]
        for row in payload["rows"]:
            assert row[-1] in {"DoublePeaked", "MergedSinglePeak", "Gaussian",
                               "Indeterminate"}
            assert all(math.isfinite(v) for v in row[:-1] if v is not None)
    else:
        # purity underflows and d_eff overflows; the log purity stays finite
        summary = payload["summary"]
        assert summary["purity"] == 0.0 and summary["d_eff"] is None
        assert -3000.0 < summary["log_purity"] < -2000.0


def test_verify_fails_on_nan_and_writes_strict_json(tmp_path, monkeypatch, capsys):
    real = echo.echo_point

    def nan_point(table, t):
        pt = real(table, t)
        # the oracle suite's tables only; the bound suite passes blocks
        if table.cinv.ndim == 2:
            return pt
        return dataclasses.replace(pt, le=np.full_like(pt.le, math.nan))

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    monkeypatch.setattr(echo, "echo_point", nan_point)
    assert _run(["verify"], tmp_path, monkeypatch) == 2
    assert "oracle_equivalence: FAIL" in capsys.readouterr().out
    payload = json.loads((tmp_path / "verify.json").read_text(), parse_constant=reject)
    report = payload["suites"]["oracle_equivalence"]
    assert payload["passed"] is False and report["passed"] is False
    assert report["worst_abs_error"] is None
    assert payload["suites"]["bounds"]["passed"] is True


def test_config_comment_refuses_non_finite_values(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="JSON compliant"):
        _csvfile._save_csv(str(path), cli.RunConfig(tmax=math.inf), ["a"], [np.zeros(2)])
    assert not path.exists()


def test_write_json_refuses_non_finite_numbers(tmp_path, capsys):
    path = tmp_path / "x.json"
    for value in (math.nan, math.inf, [1.0, -math.inf]):
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_json(str(path), {"ok": 1.0, "value": value})
        assert not path.exists()
    assert capsys.readouterr().out == ""


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
    assert payload["config"] == {"seed": cli.DEFAULT_SEED, "output": None,
                                 "inject_failure": False}
    assert set(payload["suites"]) == {
        "oracle_equivalence", "bounds", "qubit_inequality",
        "q_function_scan", "perturbation_scaling", "bures_relation",
    }
    assert all(entry["passed"] for entry in payload["suites"].values())
    # the CLI's suite sizes, which the benchmark counts as the verify items
    data = {name: kwargs for name, (_, _, kwargs) in cli._VERIFY_DATA.items()}
    oracle, scan, scaling = (data[name] for name in (
        "oracle_equivalence", "q_function_scan", "perturbation_scaling"))
    assert (len(oracle["lengths"]) * oracle["n_param_sets"], oracle["n_times"]) == (12, 5)
    assert data["bounds"]["n_trials"] == 10_000
    assert data["qubit_inequality"]["n_trials"] == 100_000
    assert (scan["nx"], scan["nv"]) == (1000, 1000)
    assert (scaling["halvings"] + 1, len(scaling["times"])) == (4, 3)


def test_verify_inject_failure_trips_gate(tmp_path, monkeypatch, capsys):
    assert _run(["verify", "--inject-failure"], tmp_path, monkeypatch) == 2
    out = capsys.readouterr().out
    assert "bounds: FAIL" in out
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is False
    assert payload["config"]["inject_failure"] is True
    assert payload["suites"]["bounds"]["passed"] is False
    assert payload["suites"]["oracle_equivalence"]["passed"] is True


def test_verify_thread_count_does_not_change_bytes(tmp_path, monkeypatch, capsys):
    runs = []
    for threads in ("1", "4"):
        out = tmp_path / threads
        out.mkdir()
        monkeypatch.setenv("THERMALECHO_THREADS", threads)
        assert _run(["verify"], out, monkeypatch) == 0
        runs.append((capsys.readouterr().out, (out / "verify.json").read_bytes()))
    assert runs[0] == runs[1]


def _wrap_suite(monkeypatch, suite, before=None):
    """Run ``before(name)`` ahead of verify's ``suite`` whenever it is called."""
    real = getattr(verify, suite)

    def wrapped(**kwargs):
        if before is not None:
            before(suite)
        return real(**kwargs)

    monkeypatch.setattr(verify, suite, wrapped)


def test_verify_suites_overlap_on_two_threads(tmp_path, monkeypatch, capsys):
    # the first suite waits for the second, which only another worker can run
    started, waited = threading.Event(), []
    _wrap_suite(monkeypatch, "oracle_equivalence",
                lambda _: waited.append(started.wait(timeout=10.0)))
    _wrap_suite(monkeypatch, "bound_suite", lambda _: started.set())
    monkeypatch.setenv("THERMALECHO_THREADS", "2")
    assert _run(["verify"], tmp_path, monkeypatch) == 0
    assert waited == [True]
    assert capsys.readouterr().out.splitlines()[:2] == ["oracle_equivalence: pass",
                                                         "bounds: pass"]


def test_verify_runs_in_order_on_the_calling_thread_at_one_thread(tmp_path, monkeypatch):
    threads = threading.enumerate()
    seen = []
    for suite, _, _ in cli._VERIFY_DATA.values():
        _wrap_suite(monkeypatch, suite, lambda suite: seen.append(
            (suite, threading.current_thread(), threading.enumerate())))
    monkeypatch.setenv("THERMALECHO_THREADS", "1")
    assert _run(["verify"], tmp_path, monkeypatch) == 0
    assert [suite for suite, _, _ in seen] == [suite for suite, _, _ in cli._VERIFY_DATA.values()]
    assert all(thread is threading.current_thread() and during == threads
               for _, thread, during in seen)
    assert threading.enumerate() == threads


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_verify_suite_that_raises_stops_the_run(threads, tmp_path, monkeypatch, capsys):
    # the suites before it report in order, the error is the exit message,
    # no report is written and no worker is left running
    def boom(_):
        raise ValueError("qubit suite broke")

    _wrap_suite(monkeypatch, "qubit_inequality", boom)
    monkeypatch.setenv("THERMALECHO_THREADS", threads)
    before = threading.enumerate()
    assert _run(["verify"], tmp_path, monkeypatch) == 1
    out, err = capsys.readouterr()
    assert out == "oracle_equivalence: pass\nbounds: pass\n"
    assert err == "thermalecho: qubit suite broke\n"
    assert not (tmp_path / "verify.json").exists()
    assert threading.enumerate() == before


@pytest.mark.parametrize("flag", [
    ["--length", "7"], ["--h0", "0.5"], ["--beta", "2"], ["--samples", "5"],
    ["--format", "csv"], ["--config", "run.json"],
])
def test_verify_rejects_flags_it_does_not_use(flag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *flag])
    assert exc.value.code == 1
    assert not (tmp_path / "verify.json").exists()


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
