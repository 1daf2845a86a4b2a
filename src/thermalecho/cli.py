"""Command-line front end: time series, distributions, weights, sweeps, checks.

Every run is reproducible: the resolved configuration (seed included) is
embedded as a '#' comment in each CSV and echoed into each JSON file, all
floats are printed with 17 significant digits, and sampling is seeded, so a
rerun with the same inputs produces byte-identical files under any thread
count (set ``THERMALECHO_THREADS`` to control parallel echo evaluation).

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

from . import averages, echo, oracle, stats
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
        parents=[common],
        help="run the oracle and property suites and report pass/fail",
    )
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


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _config_json(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True)


def _write_csv(path: str, cfg: RunConfig, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config = {_config_json(cfg)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {path}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


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
        "mean_le": averages.avg_loschmidt(table),
        "mean_lef": averages.avg_linearized(table),
        "smallquench_var": averages.smallquench_variance(table),
    }
    try:
        summary["var_le"] = averages.variance_le(table)
    except averages.SeriesConvergenceError as exc:
        summary["var_le"] = None
        print(f"warning: variance series did not converge: {exc}", file=sys.stderr)
    base = _base(cfg, "timeseries")
    header = ["t", "le", "lef", "lower", "upper"]
    rows = list(zip(t, pt.le, pt.lef, pt.lower, pt.upper))
    if cfg.format == "json":
        _write_json(
            base + ".json",
            {
                "config": dataclasses.asdict(cfg),
                "columns": header,
                "rows": [[float(v) for v in row] for row in rows],
                "summary": summary,
            },
        )
    else:
        _write_csv(base + ".csv", cfg, header, rows)
        _write_json(base + ".json", {"config": dataclasses.asdict(cfg), "summary": summary})
    return EXIT_OK


def _temperature_tag(temperature: float | None, params: QuenchParams) -> str:
    if temperature is not None:
        return f"T{temperature:g}"
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
            entry["samples"] = {
                "t": [float(v) for v in sample.times],
                "z": [float(v) for v in sample.z],
            }
            entry["histogram"] = {
                "edges": [float(v) for v in edges],
                "counts": [int(v) for v in hist],
            }
        else:
            _write_csv(
                f"{base}_{tag}_samples.csv", cfg, ["t", "z"],
                zip(sample.times, sample.z),
            )
            _write_csv(
                f"{base}_{tag}_hist.csv", cfg, ["bin_left", "bin_right", "count"],
                zip(edges[:-1], edges[1:], hist),
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
    base = _base(cfg, "weights")
    rows = list(zip(*columns))
    if cfg.format == "json":
        _write_json(
            base + ".json",
            {
                "config": dataclasses.asdict(cfg),
                "columns": header,
                "rows": [[float(v) for v in row] for row in rows],
                "summary": summary,
            },
        )
    else:
        _write_csv(base + ".csv", cfg, header, rows)
        _write_json(base + ".json", {"config": dataclasses.asdict(cfg), "summary": summary})
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
                "rows": [
                    [v if isinstance(v, str) else float(v) for v in row] for row in rows
                ],
            },
        )
    else:
        _write_csv(base + ".csv", cfg, header, rows)
    return EXIT_OK


def _suite_oracle_equivalence(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for length in (2, 4, 6, 8):
        for _ in range(3):
            h0, h1 = rng.uniform(-2.0, 2.0, 2)
            g0, g1 = rng.uniform(-1.5, 1.5, 2)
            beta = rng.uniform(0.1, 8.0)
            params = QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                  beta=beta, length=length)
            table = mode_table(params)
            ham0 = oracle.build_quasifree(h0, g0, length)
            ham1 = oracle.build_quasifree(h1, g1, length)
            times = rng.uniform(0.0, 20.0, 5)
            le_err = np.max(np.abs(
                np.atleast_1d(echo.loschmidt(table, times))
                - oracle.exact_le(ham0, ham1, beta, times)
            ))
            lef_err = np.max(np.abs(
                np.atleast_1d(echo.linearized(table, times))
                - oracle.exact_linearized(ham0, ham1, beta, times)
            ))
            p = oracle.spectral(ham0, beta=beta).gibbs_weights
            purity_err = abs(echo.effective_dimension(table).purity - float(np.sum(p**2)))
            avg_err = abs(
                averages.avg_linearized(table)
                - oracle.dephased_purity(ham0, ham1, beta)
            )
            worst = max(worst, float(le_err), float(lef_err), purity_err, avg_err)
    return {"passed": worst < 1e-9, "worst_abs_error": worst, "tolerance": 1e-9}


def _suite_bounds(seed: int, inject_failure: bool) -> dict:
    rng = np.random.default_rng(seed)
    worst = math.inf
    t0_worst = 0.0
    for _ in range(10_000):
        length = 2 * int(rng.integers(1, 101))
        params = QuenchParams(
            h0=float(rng.uniform(-2, 2)), h1=float(rng.uniform(-2, 2)),
            gamma0=float(rng.uniform(-1.5, 1.5)), gamma1=float(rng.uniform(-1.5, 1.5)),
            beta=float(rng.uniform(0.01, 50.0)), length=length,
        )
        table = mode_table(params)
        t = float(rng.uniform(-20.0, 50.0))
        # one kernel pass covers both the random time and t = 0
        pt = echo.echo_point(table, np.array([t, 0.0]))
        le = float(pt.le[0])
        (lower, lo0), (upper, up0) = pt.lower.tolist(), pt.upper.tolist()
        if inject_failure:
            lower = lower * (1.0 + 1e-6) + 1e-9
        worst = min(worst, le - lower, upper - le)
        t0_worst = max(t0_worst, abs(lo0 - 1.0), abs(up0 - 1.0))
    return {
        "passed": worst >= -1e-12 and t0_worst <= 1e-12,
        "worst_slack": worst,
        "worst_t0_deviation": t0_worst,
        "tolerance": -1e-12,
    }


def _suite_qubit(seed: int) -> dict:
    report = oracle.qubit_inequality_check(100_000, seed)
    return {
        "passed": report.violations == 0
        and report.max_closed_form_dev < 1e-12
        and report.max_route_dev < 1e-10,
        "violations": report.violations,
        "min_slack": report.min_slack,
        "max_closed_form_dev": report.max_closed_form_dev,
        "max_route_dev": report.max_route_dev,
    }


def _suite_q_scan() -> dict:
    scan = oracle.q_function_scan(x_max=20.0, v_max=2.0, nx=1000, nv=1000)
    return {
        "passed": scan.min_value >= -1e-12
        and scan.max_abs_at_v_zero <= 1e-11
        and scan.max_v_curvature <= 1e-10,
        "min_value": scan.min_value,
        "max_abs_at_v_zero": scan.max_abs_at_v_zero,
        "max_v_curvature": scan.max_v_curvature,
    }


def _suite_perturbation(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dim = 8
    ham0 = oracle.random_hermitian(dim, rng)
    pert = oracle.random_hermitian(dim, rng)
    beta = 1.0
    times = (0.7, 1.3, 2.6)
    scales = [1e-3 * 0.5**i for i in range(4)]
    errors = []
    for scale in scales:
        v = scale * pert
        err = max(
            abs(
                oracle.exact_le(ham0, ham0 + v, beta, t)
                - oracle.perturbative_le(ham0, v, beta, t)
            )
            for t in times
        )
        errors.append(err)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    passed = all(5.6 <= r <= 10.4 for r in ratios)
    return {"passed": passed, "error_ratios": ratios, "expected": 8.0, "tolerance_pct": 30}


def _suite_bures(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dim = 8
    ham0 = oracle.random_hermitian(dim, rng)
    v = 1e-3 * oracle.random_hermitian(dim, rng)
    beta = 1.0
    rho0 = oracle.gibbs(ham0, beta)
    rho1 = oracle.gibbs(ham0 + v, beta)
    fid = oracle.uhlmann(rho0, rho1)
    metric = oracle.bures_decomposition(ham0, v, beta)
    lbar = oracle.perturbative_le_average(ham0, v, beta)
    # fid**2 - (lbar - ds2_fr/2) cancels at second order in the perturbation
    residual = abs(fid**2 - (lbar - metric.ds2_fr / 2.0))
    return {"passed": residual < 1e-8, "residual": residual, "tolerance": 1e-8}


def cmd_verify(cfg: RunConfig) -> int:
    suites = {
        "oracle_equivalence": lambda: _suite_oracle_equivalence(cfg.seed),
        "bounds": lambda: _suite_bounds(cfg.seed + 1, cfg.inject_failure),
        "qubit_inequality": lambda: _suite_qubit(cfg.seed + 2),
        "q_function_scan": _suite_q_scan,
        "perturbation_scaling": lambda: _suite_perturbation(cfg.seed + 3),
        "bures_relation": lambda: _suite_bures(cfg.seed + 4),
    }
    results = {}
    all_passed = True
    for name, run in suites.items():
        outcome = run()
        results[name] = outcome
        all_passed = all_passed and outcome["passed"]
        print(f"{name}: {'pass' if outcome['passed'] else 'FAIL'}")
    base = _base(cfg, "verify")
    _write_json(
        base + ".json",
        {"config": dataclasses.asdict(cfg), "passed": all_passed, "suites": results},
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
