"""Fresh-interpreter checks: the ``scripts/`` drivers at tiny sizes, and the
runtime package's imports and exports; the README's library and command-line
examples, run as written; and the committed ``BENCH_*.json`` benchmark records."""

import ast
import importlib.util
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import thermalecho
from thermalecho import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

LADDER = ("0.02", "0.06", "0.1", "0.14", "0.18")

DRIVERS = {
    "run_decay_timeseries.py": (
        ["--tpoints", "11", "--tmax", "5"],
        ["decay.csv", "decay.json"],
    ),
    "run_distribution_ladder.py": (
        ["--samples", "2000"],
        ["distribution.json"]
        + [f"distribution_T{T}_{kind}.csv" for T in LADDER for kind in ("samples", "hist")],
    ),
    "run_finite_size_pair.py": (
        ["--samples", "2000"],
        [f"L{n}{suffix}" for n in (78, 70)
         for suffix in (".json", "_beta40_samples.csv", "_beta40_hist.csv")],
    ),
    "run_spectral_weights.py": (
        ["--length", "20"],
        ["weights.csv", "weights.json"],
    ),
}


@pytest.mark.parametrize("script", sorted(DRIVERS))
def test_driver_runs_and_writes_its_files(script, tmp_path):
    args, expected = DRIVERS[script]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)


def test_runtime_imports_need_only_numpy():
    code = ("import sys, thermalecho, thermalecho.cli, thermalecho.verify; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'hypothesis', 'pytest'}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# what a fresh interpreter must not have imported after importing the CLI, and
# after a small run of a command that needs none of these modules
UNUSED_MODULES = {
    "import": ([], ["thermalecho.averages", "thermalecho.echo", "thermalecho.stats",
                    "thermalecho.special", "thermalecho.oracle", "thermalecho.verify",
                    "thermalecho._csvfile", "concurrent.futures"]),
    "scan": (["scan", "--length", "8", "--sweep", "h1=0.5:1.5:3"],
             ["thermalecho.echo", "concurrent.futures", "numpy.char"]),
    "timeseries": (["timeseries", "--length", "8", "--tpoints", "5"], ["thermalecho.stats"]),
    # runs that write no CSV never load the CSV writer
    "timeseries-json": (["timeseries", "--length", "8", "--tpoints", "5", "--format", "json"],
                        ["thermalecho.stats", "thermalecho._csvfile"]),
    "verify": (["verify"], ["thermalecho._csvfile"]),
    # the thread pool runs on plain threads: a grid of 4 kernel chunks and a
    # ladder of 2 rungs, each on 2 workers
    "timeseries-pooled": (["timeseries", "--length", "2000", "--tpoints", "400"],
                          ["concurrent.futures", "logging"]),
    "distribution-pooled": (["distribution", "--length", "8", "--samples", "1000",
                             "--temperatures", "0.1,0.2"], ["concurrent.futures", "logging"]),
}

# runs whose child has THERMALECHO_THREADS=2, so that it starts a pool
POOLED = {"timeseries-pooled", "distribution-pooled"}


@pytest.mark.parametrize("run", sorted(UNUSED_MODULES))
def test_commands_import_only_their_layers(run, tmp_path):
    argv, unused = UNUSED_MODULES[run]
    code = ("import json, sys\n"
            "import numpy\n"
            "numpy_only = set(sys.modules)\n"
            "from thermalecho import cli\n"
            "if sys.argv[1:]:\n"
            "    assert cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(set(sys.modules) - numpy_only)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if run in POOLED:
        env["THERMALECHO_THREADS"] = "2"
    result = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    assert "thermalecho.cli" in loaded
    assert sorted(loaded.intersection(unused)) == []
    # numpy 1.x imports numpy.ma with numpy; 2.x on first use, as np.unique does
    assert "numpy.ma" not in loaded


def test_package_exports_resolve_to_their_layers(monkeypatch):
    for name in thermalecho.__all__:
        value = getattr(thermalecho, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("thermalecho.") and name in home.__all__, name
        assert getattr(home, name) is value, name
        # looked up on each access, never stored in the package
        assert name not in vars(thermalecho), name
    assert set(thermalecho.__all__) <= set(dir(thermalecho))
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        thermalecho.nothing
    star: dict = {}
    exec("from thermalecho import *", star)
    assert all(star[name] is getattr(thermalecho, name) for name in thermalecho.__all__)
    from thermalecho import echo, stats
    assert (echo, stats) == (sys.modules["thermalecho.echo"], sys.modules["thermalecho.stats"])
    # a name rebound in its layer, as a tracer does, is what the package gives
    monkeypatch.setattr(echo, "echo_point", star)
    assert thermalecho.echo_point is star


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


# the files the README's command-line examples write, by subcommand
README_FILES = {
    "timeseries": ["timeseries.csv", "timeseries.json"],
    "distribution": ["distribution.json"]
    + [f"distribution_T{T}_{kind}.csv" for T in LADDER for kind in ("samples", "hist")],
    "weights": ["weights.csv", "weights.json"],
    "scan": ["scan.csv"],
    "verify": ["verify.json"],
}


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    # a command continues over lines that end in a backslash
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("thermalecho ")]
    assert [argv[1] for argv in commands] == list(README_FILES)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        before = set(os.listdir(tmp_path))
        assert cli.main(argv[1:]) == 0, argv
        written = sorted(set(os.listdir(tmp_path)) - before)
        assert written == sorted(README_FILES[argv[1]]), argv
        out = capsys.readouterr().out
        assert all(f"wrote {name}" in out for name in written), argv


def test_benchmark_imports_resolve():
    # perfbench's output checks import names from the package; a removed or
    # renamed one would make every check of its workload raise ImportError
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                pairs = []
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
                pairs = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module in modules:
                if module.split(".")[0] == "thermalecho":
                    importlib.import_module(module)
                    found.append(f"{path.name}:{node.lineno} {module}")
            for module, name in pairs:
                if module.split(".")[0] != "thermalecho":
                    continue
                owner = importlib.import_module(module)
                assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}"), (
                    f"perfbench/{path.name}:{node.lineno} imports {name} from {module}, "
                    f"which has no such name")
    assert any("thermalecho.averages" in entry for entry in found)


def test_committed_bench_files_name_every_workload_and_metric():
    # each BENCH_<n>.json holds the last JSON line of `perfbench/run.py
    # --trace 0` per workload, for the parent commit and for the change
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(bench["seed"], int) and bench["seconds"] > 0, path.name
        for side in ("parent", "change"):
            runs = bench[side]["workloads"]
            assert set(runs) == workloads, (path.name, side)
            for name, run in runs.items():
                assert run["correct"] is True, (path.name, side, name)
                assert set(run["metrics"]) == metrics, (path.name, side, name)
                for metric in run["metrics"].values():
                    assert isinstance(metric["value"], (int, float)), (path.name, side, name)
        # every workload has as many wall times on each side, at least 5
        pairs = bench["wall_s_runs"]
        assert set(pairs) == workloads, path.name
        for name, runs in pairs.items():
            assert len(runs["parent"]) == len(runs["change"]) >= 5, (path.name, name)
        # a change that claims no gain has a null claim; a claim, of a gain
        # or of a stated cost, names one workload and one end-to-end
        # metric, and its workload has at least 10 pairs
        claim = bench["claim"]
        if claim is not None:
            assert claim["workload"] in workloads, path.name
            assert claim["metric"] in metrics, path.name
            assert len(pairs[claim["workload"]]["parent"]) >= 10, path.name
