"""Command-line front end: time series, distributions, weights, sweeps, checks.

Every run is reproducible: the resolved configuration (seed included) is
embedded as a '#' comment in each CSV and echoed into each JSON file, CSV
floats are printed with ``%.17g``, and sampling is seeded, so a rerun with
the same inputs produces byte-identical files under any thread count (set
``THERMALECHO_THREADS`` to control parallel echo evaluation).

Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import averages, echo, stats, verify
from .model import QuenchParams, mode_table

__all__ = ["DEFAULT_SEED", "RunConfig", "build_parser", "main"]

DEFAULT_SEED = 987654321

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3

_COMMANDS = ("timeseries", "distribution", "weights", "scan", "verify")


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation.

    Exactly these field names are accepted in a JSON config file; CLI flags
    override file values.  ``beta`` and ``temperature`` are alternatives
    (``temperature = 0`` selects the ground state); at most one may be
    given per layer.
    """

    length: int = 80
    h0: float = 0.5
    h1: float = 0.5
    gamma0: float = 0.25
    gamma1: float = 0.1
    beta: float | None = None
    temperature: float | None = None
    tmax: float = 50.0
    tpoints: int = 1001
    tau_factor: float = 100.0
    samples: int = 100_000
    seed: int = DEFAULT_SEED
    bins: int = 200
    output: str | None = None
    format: str = "csv"
    temperatures: list[float] | None = None
    second_order: bool = False
    bell: str | None = None
    sweep: list[str] | None = None
    inject_failure: bool = False


_INT_FIELDS = {"length", "tpoints", "samples", "seed", "bins"}
_DEFAULT_BETA = 10.0
# rows the CSV writer formats in one go, which bounds its memory
_BLOCK_ROWS = 65_536


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; our contract reserves 2
    # for verification failures, so remap to the validation code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    phys = common.add_argument_group("quench parameters")
    phys.add_argument("--length", type=int, help="chain length (even, >= 2)")
    phys.add_argument("--h0", type=float, help="transverse field before the quench")
    phys.add_argument("--h1", type=float, help="transverse field after the quench")
    phys.add_argument("--gamma0", type=float, help="anisotropy before the quench")
    phys.add_argument("--gamma1", type=float, help="anisotropy after the quench")
    phys.add_argument("--beta", type=float, help="inverse temperature of the initial state")
    phys.add_argument(
        "--temperature",
        type=float,
        help="temperature of the initial state (alternative to --beta; 0 = ground state)",
    )
    run = common.add_argument_group("run options")
    run.add_argument("--tmax", type=float, help="end of the time grid")
    run.add_argument("--tpoints", type=int, help="number of points on the time grid")
    run.add_argument("--tau-factor", dest="tau_factor", type=float,
                     help="observation horizon tau = tau_factor * length**2")
    run.add_argument("--samples", type=int, help="number of random time samples")
    run.add_argument("--seed", type=int, help=f"pseudorandom seed (default {DEFAULT_SEED})")
    run.add_argument("--bins", type=int, help="histogram bin count")
    run.add_argument("--output", help="output base path (files get .csv/.json suffixes)")
    run.add_argument("--format", choices=("csv", "json"), help="output format")
    run.add_argument("--config", help="JSON config file; flags override its values")

    parser = _Parser(
        prog="thermalecho",
        description="Finite-temperature Loschmidt-echo dynamics of quenched "
        "quasi-free fermion chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "timeseries",
        parents=[common],
        help="echo, linear overlap echo, and both bounds on a time grid",
    )
    dist = sub.add_parser(
        "distribution",
        parents=[common],
        help="sample the log-echo at random times, histogram and classify it",
    )
    dist.add_argument(
        "--temperatures",
        help="comma-separated temperature ladder handled in one invocation",
    )
    wts = sub.add_parser(
        "weights",
        parents=[common],
        help="per-mode oscillation weights of the log-echo",
    )
    wts.add_argument(
        "--second-order", dest="second_order", action="store_true", default=None,
        help="use the leading-order dtheta**2 weights instead of sin(dtheta)**2",
    )
    wts.add_argument(
        "--bell", choices=("ising", "aniso"),
        help="add the continuum bell-curve column and its inflection width",
    )
    scan = sub.add_parser(
        "scan",
        parents=[common],
        help="Cartesian parameter sweep, one summary row per point",
    )
    scan.add_argument(
        "--sweep", action="append",
        help="axis spec name=start:stop:count (repeatable)",
    )
    ver = sub.add_parser(
        "verify",
        help="run the oracle and property suites and report pass/fail",
    )
    ver.add_argument("--seed", type=int,
                     help=f"base seed of the suites (default {DEFAULT_SEED})")
    ver.add_argument("--output", help="output base path (the report gets a .json suffix)")
    ver.add_argument(
        "--inject-failure", dest="inject_failure", action="store_true", default=None,
        help="self-test: corrupt the bound suite to prove the gate trips",
    )
    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _coerce(name: str, value):
    if value is None:
        return None
    if name in _INT_FIELDS:
        if isinstance(value, bool):
            raise ValueError(f"{name} must be an integer")
        if isinstance(value, float):
            if not value.is_integer():
                raise ValueError(f"{name} must be an integer, got {value}")
            return int(value)
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an integer")
    return value


def _pick_thermal(cli: dict, file_vals: dict) -> tuple[float | None, float | None]:
    """Resolve the beta/temperature alternative layer by layer."""
    for layer_name, layer in (("command line", cli), ("config file", file_vals)):
        beta = layer.get("beta")
        temperature = layer.get("temperature")
        if beta is not None and temperature is not None:
            raise ValueError(f"give at most one of beta and temperature on the {layer_name}")
        if beta is not None or temperature is not None:
            return beta, temperature
    return _DEFAULT_BETA, None


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_vals = _load_config_file(args.config) if getattr(args, "config", None) else {}
    merged = dataclasses.asdict(RunConfig())
    cli_vals = {
        name: getattr(args, name)
        for name in merged
        if getattr(args, name, None) is not None
    }
    if isinstance(cli_vals.get("temperatures"), str):
        try:
            cli_vals["temperatures"] = [float(x) for x in cli_vals["temperatures"].split(",")]
        except ValueError:
            raise ValueError("--temperatures must be a comma-separated list of numbers") from None
    for name, value in file_vals.items():
        if name in ("beta", "temperature"):
            continue
        merged[name] = _coerce(name, value)
    for name, value in cli_vals.items():
        if name in ("beta", "temperature"):
            continue
        merged[name] = _coerce(name, value)
    merged["beta"], merged["temperature"] = _pick_thermal(cli_vals, file_vals)
    cfg = RunConfig(**merged)
    if cfg.bins < 1:
        raise ValueError(f"bins must be >= 1, got {cfg.bins}")
    if cfg.tpoints < 2:
        raise ValueError(f"tpoints must be >= 2, got {cfg.tpoints}")
    if cfg.tau_factor <= 0:
        raise ValueError(f"tau-factor must be positive, got {cfg.tau_factor}")
    return cfg


def _params_for(cfg: RunConfig, temperature: float | None = None) -> QuenchParams:
    """Quench parameters at the configured or an explicitly given temperature."""
    if temperature is None:
        temperature = cfg.temperature
        beta = cfg.beta
    else:
        beta = None
    if temperature is not None:
        if temperature < 0.0 or not math.isfinite(temperature):
            raise ValueError(f"temperature must be >= 0 and finite, got {temperature}")
        if temperature == 0.0:
            return QuenchParams(
                h0=cfg.h0, h1=cfg.h1, gamma0=cfg.gamma0, gamma1=cfg.gamma1,
                beta=None, length=cfg.length, zero_temperature=True,
            )
        beta = 1.0 / temperature
    return QuenchParams(
        h0=cfg.h0, h1=cfg.h1, gamma0=cfg.gamma0, gamma1=cfg.gamma1,
        beta=beta, length=cfg.length,
    )


def _config_json(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True)


def _cell_format(column: np.ndarray) -> str:
    if column.dtype.kind in "iu":
        return "%d"
    if column.dtype.kind == "U":
        return "%s"
    return "%.17g"


def _write_csv(path: str, cfg: RunConfig, header: list[str], columns) -> None:
    """Write equal-length 1-D columns under a config comment and a header.

    Integer columns are written with ``%d``, string columns with ``%s`` and
    everything else with ``%.17g`` (so ``nan``, ``inf`` and ``-inf`` are
    spelled that way).  Rows go out in blocks of ``_BLOCK_ROWS``, each
    formatted by one ``%`` operation, which bounds memory for any row count.
    """
    arrays = [np.asarray(column) for column in columns]
    n_rows = len(arrays[0])
    if any(a.ndim != 1 or len(a) != n_rows for a in arrays):
        raise ValueError("CSV columns must be 1-D and of equal length")
    width = len(arrays)
    row_fmt = ",".join(_cell_format(a) for a in arrays) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config = {_config_json(cfg)}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            cells = [None] * ((stop - start) * width)
            for j, a in enumerate(arrays):
                cells[j::width] = a[start:stop].tolist()
            fh.write((row_fmt * (stop - start)) % tuple(cells))
    print(f"wrote {path}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _write_table(cfg: RunConfig, command: str, header: list[str], columns,
                 summary: dict) -> None:
    """Write a table and its summary: one JSON file, or a CSV and a JSON sidecar."""
    base = _base(cfg, command)
    if cfg.format == "json":
        _write_json(
            base + ".json",
            {
                "config": dataclasses.asdict(cfg),
                "columns": header,
                "rows": np.column_stack(columns).tolist(),
                "summary": summary,
            },
        )
    else:
        _write_csv(base + ".csv", cfg, header, columns)
        _write_json(base + ".json", {"config": dataclasses.asdict(cfg), "summary": summary})


def _json_cell(value):
    """A number as strict JSON: strings as they are, non-finite numbers as null."""
    if isinstance(value, str):
        return value
    value = float(value)
    return value if math.isfinite(value) else None


def _base(cfg: RunConfig, command: str) -> str:
    return cfg.output if cfg.output else command


def cmd_timeseries(cfg: RunConfig) -> int:
    params = _params_for(cfg)
    table = mode_table(params)
    t = np.linspace(0.0, cfg.tmax, cfg.tpoints)
    pt = echo.echo_point(table, t)
    dim = echo.effective_dimension(table)
    summary = {
        "d_eff": dim.d_eff,
        "purity": dim.purity,
        "log_purity": dim.log_purity,
        "mean_le": averages.avg_loschmidt(table),
        "mean_lef": averages.avg_linearized(table),
        "smallquench_var": averages.smallquench_variance(table),
    }
    try:
        summary["var_le"] = averages.variance_le(table)
    except averages.SeriesConvergenceError as exc:
        summary["var_le"] = math.nan
        print(f"warning: variance series did not converge: {exc}", file=sys.stderr)
    _write_table(
        cfg, "timeseries", ["t", "le", "lef", "lower", "upper"],
        [t, pt.le, pt.lef, pt.lower, pt.upper],
        {name: _json_cell(value) for name, value in summary.items()},
    )
    return EXIT_OK


def _temperature_tag(temperature: float | None, params: QuenchParams) -> str:
    if temperature is not None:
        return f"T{temperature:g}"
    if params.zero_temperature:
        return "T0"
    return f"beta{params.beta:g}"


def cmd_distribution(cfg: RunConfig) -> int:
    ladder: list[float | None] = (
        [float(T) for T in cfg.temperatures] if cfg.temperatures else [None]
    )
    base = _base(cfg, "distribution")
    entries = []
    for temperature in ladder:
        params = _params_for(cfg, temperature)
        tau = cfg.tau_factor * params.length**2
        sample = stats.sample_logle(params, tau, cfg.samples, cfg.seed)
        spectrum = stats.weights(mode_table(params))
        verdict = stats.classify(spectrum, sample, bins=cfg.bins)
        if verdict.degenerate:
            print(
                "warning: quench has zero variance; no distribution to classify",
                file=sys.stderr,
            )
        tag = _temperature_tag(temperature, params)
        hist, edges = np.histogram(sample.z, bins=cfg.bins)
        entry = {
            "temperature": temperature,
            "beta": params.beta,
            "zero_temperature": params.zero_temperature,
            "tau": sample.tau,
            "seed": sample.seed,
            "label": verdict.label.value,
            "dominance": verdict.dominance,
            "kappa2": verdict.kappa2,
            "zbar": verdict.zbar,
            "predicted_peaks": list(verdict.predicted_peaks),
            "histogram_peaks": list(verdict.histogram_peaks),
            "histogram_peak_count": verdict.histogram_peak_count,
            "degenerate": verdict.degenerate,
            "empirical": {
                "mean_z": sample.z_mean,
                "var_z": sample.z_var,
                "mean_le": float(np.mean(np.exp(sample.z))),
            },
        }
        if cfg.format == "json":
            entry["samples"] = {"t": sample.times.tolist(), "z": sample.z.tolist()}
            entry["histogram"] = {"edges": edges.tolist(), "counts": hist.tolist()}
        else:
            _write_csv(
                f"{base}_{tag}_samples.csv", cfg, ["t", "z"], [sample.times, sample.z],
            )
            _write_csv(
                f"{base}_{tag}_hist.csv", cfg, ["bin_left", "bin_right", "count"],
                [edges[:-1], edges[1:], hist],
            )
        entries.append(entry)
    _write_json(
        base + ".json",
        {"config": dataclasses.asdict(cfg), "results": entries},
    )
    return EXIT_OK


def cmd_weights(cfg: RunConfig) -> int:
    params = _params_for(cfg)
    table = mode_table(params)
    spectrum = stats.weights(table, use_second_order=cfg.second_order)
    header = ["k", "a", "a_f", "omega", "damping", "damping_f"]
    columns = [spectrum.k, spectrum.a, spectrum.a_f, spectrum.omega,
               spectrum.damping, spectrum.damping_f]
    summary: dict = {
        "zbar": spectrum.zbar,
        "kappa2": spectrum.kappa2,
        "second_order": spectrum.second_order,
    }
    verdict = stats.classify(spectrum)
    summary["label"] = verdict.label.value
    summary["dominance"] = verdict.dominance
    if cfg.bell == "ising":
        dh = cfg.h1 - cfg.h0
        bell = stats.bell_ising(table.lam0, cfg.h0, dh)
        width = stats.bell_width_ising(cfg.h0, dh if dh != 0.0 else 1.0)
        header += ["bell", "bell_width"]
        columns += [bell, np.full_like(spectrum.k, width)]
        summary["bell"] = {"kind": "ising", "width": width}
    elif cfg.bell == "aniso":
        dgamma = cfg.gamma1 - cfg.gamma0
        bell = stats.bell_aniso(table.lam0, cfg.gamma0, dgamma)
        width = stats.bell_width_aniso(cfg.gamma0, dgamma if dgamma != 0.0 else 1.0)
        header += ["bell", "bell_width"]
        columns += [bell, np.full_like(spectrum.k, width)]
        summary["bell"] = {"kind": "aniso", "width": width}
    _write_table(cfg, "weights", header, columns, summary)
    return EXIT_OK


_SWEEPABLE = ("h0", "h1", "gamma0", "gamma1", "beta", "temperature", "length")


def _parse_sweep(spec: str) -> tuple[str, list]:
    try:
        name, rng = spec.split("=", 1)
        start_s, stop_s, count_s = rng.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ValueError(f"bad sweep spec {spec!r}; expected name=start:stop:count") from None
    name = name.strip()
    if name not in _SWEEPABLE:
        raise ValueError(f"cannot sweep {name!r}; choose from {_SWEEPABLE}")
    if count < 1:
        raise ValueError(f"sweep count must be >= 1 in {spec!r}")
    values = np.linspace(start, stop, count)
    if name == "length":
        out = []
        for v in values:
            iv = int(round(v))
            if iv % 2 or iv < 2:
                raise ValueError(f"swept length {iv} is not an even number >= 2")
            out.append(iv)
        return name, out
    return name, [float(v) for v in values]


def cmd_scan(cfg: RunConfig) -> int:
    if not cfg.sweep:
        raise ValueError("scan requires at least one --sweep axis")
    axes = [_parse_sweep(spec) for spec in cfg.sweep]
    names = [name for name, _ in axes]
    if len(set(names)) != len(names):
        raise ValueError("sweep axes must be distinct")
    header = names + [
        "d_eff", "purity", "mean_le", "mean_lef", "var_le", "kappa2", "dominance", "label",
    ]
    rows = []
    for point in itertools.product(*(vals for _, vals in axes)):
        overrides = dict(zip(names, point))
        point_cfg = dataclasses.replace(cfg, **{
            k: v for k, v in overrides.items() if k not in ("beta", "temperature")
        })
        if "beta" in overrides:
            point_cfg.beta, point_cfg.temperature = overrides["beta"], None
        if "temperature" in overrides:
            point_cfg.beta, point_cfg.temperature = None, overrides["temperature"]
        params = _params_for(point_cfg)
        table = mode_table(params)
        dim = echo.effective_dimension(table)
        try:
            var_le = averages.variance_le(table)
        except averages.SeriesConvergenceError as exc:
            var_le = math.nan
            print(f"warning: variance series did not converge at {overrides}: {exc}",
                  file=sys.stderr)
        spectrum = stats.weights(table)
        verdict = stats.classify(spectrum)
        rows.append(
            list(point)
            + [
                dim.d_eff,
                dim.purity,
                averages.avg_loschmidt(table),
                averages.avg_linearized(table),
                var_le,
                spectrum.kappa2,
                verdict.dominance,
                verdict.label.value,
            ]
        )
    base = _base(cfg, "scan")
    if cfg.format == "json":
        _write_json(
            base + ".json",
            {
                "config": dataclasses.asdict(cfg),
                "columns": header,
                "rows": [[_json_cell(v) for v in row] for row in rows],
            },
        )
    else:
        _write_csv(base + ".csv", cfg, header, list(zip(*rows)))
    return EXIT_OK


# what `verify` runs, in report order: the suite, the offset added to --seed
# (None for the seedless kernel scan) and the suite's data
_VERIFY_DATA = {
    "oracle_equivalence": (verify.oracle_equivalence, 0, {
        "lengths": (2, 4, 6, 8), "n_param_sets": 3, "n_times": 5,
        "field_range": (-2.0, 2.0), "anisotropy_range": (-1.5, 1.5),
        "beta_range": (0.1, 8.0), "time_range": (0.0, 20.0),
        "max_abs_residual": 1e-9,
    }),
    "bounds": (verify.bound_suite, 1, {
        "n_trials": 10_000, "max_length": 200,
        "field_range": (-2.0, 2.0), "anisotropy_range": (-1.5, 1.5),
        "beta_range": (0.01, 50.0), "time_range": (-20.0, 50.0),
        "slack_floor": -1e-12, "t0_tolerance": 1e-12,
    }),
    "qubit_inequality": (verify.qubit_inequality, 2, {
        "n_trials": 100_000, "slack_floor": -1e-12,
        "closed_form_tolerance": 1e-12, "route_tolerance": 1e-10,
    }),
    "q_function_scan": (verify.q_function_scan, None,
                        {"x_max": 20.0, "v_max": 2.0, "nx": 1000, "nv": 1000}),
    "perturbation_scaling": (verify.perturbation_scaling, 3, {
        "dim": 8, "beta": 1.0, "times": (0.7, 1.3, 2.6), "base_scale": 1e-3,
        "halvings": 3, "ratio_low": 5.6, "ratio_high": 10.4,
    }),
    "bures_relation": (verify.bures_relation, 4,
                       {"dim": 8, "beta": 1.0, "scale": 1e-3, "max_residual": 1e-8}),
}


# the options `verify` takes, and all that its report records as its config
_VERIFY_FLAGS = ("seed", "output", "inject_failure")


def cmd_verify(cfg: RunConfig) -> int:
    results = {}
    for name, (suite, offset, data) in _VERIFY_DATA.items():
        kwargs = dict(data) if offset is None else {**data, "seed": cfg.seed + offset}
        if suite is verify.bound_suite:
            kwargs["inject_failure"] = cfg.inject_failure
        results[name] = outcome = suite(**kwargs)
        print(f"{name}: {'pass' if outcome['passed'] else 'FAIL'}")
    all_passed = all(outcome["passed"] for outcome in results.values())
    base = _base(cfg, "verify")
    _write_json(
        base + ".json",
        {"config": {name: getattr(cfg, name) for name in _VERIFY_FLAGS},
         "passed": all_passed, "suites": results},
    )
    return EXIT_OK if all_passed else EXIT_VERIFICATION


_HANDLERS = {
    "timeseries": cmd_timeseries,
    "distribution": cmd_distribution,
    "weights": cmd_weights,
    "scan": cmd_scan,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _HANDLERS[args.command](cfg)
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"thermalecho: I/O error{where}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"thermalecho: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
