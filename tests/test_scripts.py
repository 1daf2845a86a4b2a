"""Fresh-interpreter checks: the ``scripts/`` drivers at tiny sizes, and the
runtime package's imports."""

import os
import pathlib
import subprocess
import sys

import pytest

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
