"""The benchmark workloads: CLI arguments, work size and output checks.

Each workload is one ``thermalecho`` invocation.  Its check splits the
output into operations (a time point, a temperature rung, a grid point, a
verification suite) and counts those that failed.  The checks test ranges,
identities and agreement between independent routes, never byte hashes, so
an optimisation that keeps the numerics still passes them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# slack allowed on the echo's range and bound identities; the same
# tolerance the CLI's own bound suite uses
TOL = 1e-12


@dataclass(frozen=True)
class Check:
    """Outcome of one workload run's output check.

    ``wrong`` counts the failed operations that the program did not report
    itself: a missing, malformed or out-of-range result.  A failure the
    program announces (a NaN scan point with its convergence warning) is
    failed but not wrong.
    """

    attempted: int
    failed: int
    wrong: int

    @classmethod
    def all_failed(cls, n: int) -> "Check":
        return cls(n, n, n)


def _load_csv(path: Path, columns: int) -> np.ndarray:
    """Rows of a CLI CSV: a ``# config`` comment, a header, then numbers."""
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"{path.name}: expected {columns} columns, got {rows.shape[1]}")
    return rows


class TimeseriesLong:
    """Echo, overlap echo and bounds of the README quench on a long grid."""

    name = "timeseries-long"
    TPOINTS = 20001
    items = TPOINTS  # time points

    def argv(self, out: Path, seed: int) -> list[str]:
        return [
            "timeseries", "--length", "2000", "--h0", "0.5", "--h1", "0.5",
            "--gamma0", "0.25", "--gamma1", "0.1", "--beta", "10",
            "--tpoints", str(self.TPOINTS), "--tmax", "500",
            "--output", str(out / "timeseries"),
        ]

    def check(self, out: Path, returncode: int, stderr: str) -> Check:
        n = self.TPOINTS
        if returncode != 0:
            return Check.all_failed(n)
        try:
            rows = _load_csv(out / "timeseries.csv", 5)
        except (OSError, ValueError):
            return Check.all_failed(n)
        if rows.shape[0] != n:
            return Check.all_failed(n)
        t, le, _, lower, upper = rows.T
        with np.errstate(invalid="ignore"):
            bad = ~np.all(np.isfinite(rows), axis=1)
            bad |= (le < 0.0) | (le > 1.0)
            bad |= (lower - le > TOL) | (le - upper > TOL)
            bad |= (t == 0.0) & (np.abs(le - 1.0) > TOL)
        failed = int(np.count_nonzero(bad))
        return Check(n, failed, failed)


class DistributionLadder:
    """The near-critical temperature ladder of ``scripts/run_distribution_ladder.py``."""

    name = "distribution-ladder"
    LENGTH = 50
    TEMPERATURES = (0.02, 0.06, 0.10, 0.14, 0.18)
    SAMPLES = 100_000
    items = len(TEMPERATURES) * SAMPLES  # samples

    def argv(self, out: Path, seed: int) -> list[str]:
        return [
            "distribution", "--length", str(self.LENGTH), "--h0", "0.99", "--h1", "1.01",
            "--gamma0", "1", "--gamma1", "1",
            "--temperatures", ",".join(f"{T:g}" for T in self.TEMPERATURES),
            "--samples", str(self.SAMPLES), "--seed", str(seed),
            "--output", str(out / "distribution"),
        ]

    def check(self, out: Path, returncode: int, stderr: str) -> Check:
        n = len(self.TEMPERATURES)
        if returncode != 0:
            return Check.all_failed(n)
        failed = sum(not self._rung_ok(out, T) for T in self.TEMPERATURES)
        return Check(n, failed, failed)

    def _rung_ok(self, out: Path, temperature: float) -> bool:
        from thermalecho.averages import avg_loschmidt
        from thermalecho.model import QuenchParams, mode_table

        stem = f"distribution_T{temperature:g}"
        try:
            z = _load_csv(out / f"{stem}_samples.csv", 2)[:, 1]
            counts = _load_csv(out / f"{stem}_hist.csv", 3)[:, 2]
        except (OSError, ValueError):
            return False
        if z.size != self.SAMPLES or counts.sum() != self.SAMPLES:
            return False
        params = QuenchParams(h0=0.99, h1=1.01, gamma0=1.0, gamma1=1.0,
                              beta=1.0 / temperature, length=self.LENGTH)
        echo = np.exp(z)
        standard_error = float(np.std(echo, ddof=1)) / math.sqrt(echo.size)
        deviation = abs(float(np.mean(echo)) - avg_loschmidt(mode_table(params)))
        return deviation <= 5.0 * standard_error


class ScanStrong:
    """Temperature x field grid that includes strong quenches."""

    name = "scan-strong"
    POINTS = 20 * 5
    items = POINTS  # grid points
    WARNING = "variance series did not converge"

    def argv(self, out: Path, seed: int) -> list[str]:
        return [
            "scan", "--length", "1000", "--h0", "0.99", "--gamma0", "1", "--gamma1", "1",
            "--sweep", "temperature=0.05:0.5:20", "--sweep", "h1=0.5:1.5:5",
            "--output", str(out / "scan"),
        ]

    def check(self, out: Path, returncode: int, stderr: str) -> Check:
        n = self.POINTS
        if returncode != 0:
            return Check.all_failed(n)
        try:
            with open(out / "scan.csv", encoding="utf-8", newline="") as fh:
                lines = [line for line in fh if not line.startswith("#")]
        except OSError:
            return Check.all_failed(n)
        reader = csv.reader(lines)
        header = next(reader, [])
        numeric = [i for i, name in enumerate(header) if name != "label"]
        rows = nonfinite = malformed = 0
        for row in reader:
            rows += 1
            try:
                values = [float(row[i]) for i in numeric]
            except (IndexError, ValueError):
                malformed += 1
                continue
            nonfinite += not all(math.isfinite(v) for v in values)
        missing = abs(n - rows)
        failed = min(n, nonfinite + malformed + missing)
        unreported = max(0, nonfinite - stderr.count(self.WARNING))
        return Check(n, failed, min(n, malformed + missing + unreported))


class Verify:
    """The CLI's own self-check, the only workload that runs the dense oracle."""

    name = "verify"
    SUITES = (
        "oracle_equivalence", "bounds", "qubit_inequality",
        "q_function_scan", "perturbation_scaling", "bures_relation",
    )
    # cases the suites draw or scan: 4 lengths x 3 oracle quenches, 10000
    # bound chains, 100000 qubit trials, a 1000 x 1000 kernel grid, 4
    # perturbation scales x 3 times, and one Bures residual
    items = 12 + 10_000 + 100_000 + 1000 * 1000 + 12 + 1

    def argv(self, out: Path, seed: int) -> list[str]:
        return ["verify", "--seed", str(seed), "--output", str(out / "verify")]

    def check(self, out: Path, returncode: int, stderr: str) -> Check:
        n = len(self.SUITES)
        # exit code 2 is a failed suite, which the report below names
        if returncode not in (0, 2):
            return Check.all_failed(n)
        try:
            with open(out / "verify.json", encoding="utf-8") as fh:
                suites = json.load(fh)["suites"]
        except (OSError, ValueError, KeyError, TypeError):
            return Check.all_failed(n)
        failed = sum(suites.get(name, {}).get("passed") is not True for name in self.SUITES)
        return Check(n, failed, failed)


WORKLOADS = {w.name: w for w in (TimeseriesLong(), DistributionLadder(), ScanStrong(), Verify())}
