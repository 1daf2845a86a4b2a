"""Command-line front end: time series, distributions, weights, sweeps, checks.

Every run is reproducible: the resolved configuration (seed included) is
embedded as a '#' comment in each CSV and echoed into each JSON file, CSV
float cells are byte-identical to printf ``%.17g`` (vectorised in numpy for
1e-280 <= |x| < 1e280 in both notations, printf elsewhere), and sampling
is seeded, so a rerun with the same inputs produces byte-identical files
under any thread count.  JSON is strict: non-finite numbers are null.
``scan`` and a ``distribution`` ladder build their mode columns once per
block of chains (a ``ModeTable``), which every layer they call takes.
``THERMALECHO_THREADS`` sets the threads of the echo evaluation
and of a temperature ladder's rungs, whose statistics and files are made
on a pool and reported in rung order; neither the files nor the printed
lines depend on it.  Only ``model`` is imported with this module; each
command imports the layers it runs when it runs, and the CSV writer
(``_csvfile``) only when it writes CSV.  Every configuration
value is checked, also one that a ``scan`` axis overrides.

Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import model
from .model import QuenchParams, mode_table

__all__ = ["DEFAULT_SEED", "RunConfig", "build_parser", "main"]

DEFAULT_SEED = 987654321

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3

@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation.

    A JSON config file may hold those of these field names that the
    subcommand takes as options; CLI flags override file values.  ``beta``,
    ``temperature`` (``0`` selects the ground state) and a ``temperatures``
    ladder are alternatives; at most one may be given per layer.  The
    ground state is ``beta = inf`` in :class:`QuenchParams`; the JSON files
    keep their keys for it, ``"beta": null`` with ``"zero_temperature":
    true`` in each ``distribution`` entry.
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


# the values of the choice options, shared by their flags and config-file keys
_CHOICES = {"format": ("csv", "json"), "bell": ("ising", "aniso")}
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
    run.add_argument("--format", choices=_CHOICES["format"], help="output format")
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
        "--bell", choices=_CHOICES["bell"],
        help="add the continuum bell-curve column and its inflection width "
             "(ising: gamma0 = gamma1 = 1; aniso: h0 = h1 = 0)",
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
    unknown = set(raw) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {name: _file_value(name, value) for name, value in raw.items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# RunConfig annotations without their "| None", and what a file value of each
# must be
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_VALUE_CHECKS = {
    "int": (_is_number, "a number"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[float]": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                    "a list of numbers"),
    "list[str]": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                  "a list of strings"),
}


def _file_value(name: str, value):
    """A config-file value, checked as its flag's parser would check it.

    Integer fields accept integral floats such as ``80.0`` and return ints.
    """
    annotation = _FIELD_TYPES[name]
    if value is None:
        if not annotation.endswith(" | None"):
            raise ValueError(f"config key {name!r} may not be null")
        return None
    check, expected = _VALUE_CHECKS[annotation.removesuffix(" | None")]
    if not check(value):
        raise ValueError(f"config key {name!r} must be {expected}, got {value!r}")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise ValueError(f"config key {name!r} must be one of {_CHOICES[name]}, got {value!r}")
    if annotation == "int":
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"config key {name!r} must be an integer, got {value}")
        return int(value)
    return value


def _pick_thermal(cli: dict, file_vals: dict) -> dict:
    """Resolve the beta/temperature/ladder alternative layer by layer.

    A ladder keeps the default beta in the config, which no rung uses.
    """
    picked = {"beta": _DEFAULT_BETA, "temperature": None, "temperatures": None}
    for layer_name, layer in (("command line", cli), ("config file", file_vals)):
        given = [name for name in picked if layer.get(name) is not None]
        if len(given) > 1:
            names = ", ".join(given[:-1]) + " and " + given[-1]
            raise ValueError(f"give at most one of {names} on the {layer_name}")
        if given:
            if given[0] != "temperatures":
                picked["beta"] = None
            picked[given[0]] = layer[given[0]]
            break
    return picked


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_vals = _load_config_file(args.config) if getattr(args, "config", None) else {}
    # the subcommand's parser leaves a default in ``args`` for each option it
    # takes, so a file key without one would be recorded but never used
    unused = sorted(set(file_vals) - set(vars(args)))
    if unused:
        raise ValueError(f"config keys not taken by {args.command}: {unused}")
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
    merged.update({**file_vals, **cli_vals})
    merged.update(_pick_thermal(cli_vals, file_vals))
    cfg = RunConfig(**merged)
    if cfg.temperatures == []:
        raise ValueError("temperatures must list at least one temperature")
    if cfg.bins < 1:
        raise ValueError(f"bins must be >= 1, got {cfg.bins}")
    if cfg.tpoints < 2:
        raise ValueError(f"tpoints must be >= 2, got {cfg.tpoints}")
    if not (cfg.tau_factor > 0 and math.isfinite(cfg.tau_factor)):
        raise ValueError(f"tau-factor must be positive and finite, got {cfg.tau_factor}")
    if not math.isfinite(cfg.tmax):
        raise ValueError(f"tmax must be finite, got {cfg.tmax}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    return cfg


def _beta_of(beta: float | None, temperature: float | None) -> float:
    """The inverse temperature a user gave as ``beta`` or, if not None, ``temperature``.

    Temperature 0 is the ground state, ``inf``; a given ``beta``, and
    ``1 / temperature`` for any other temperature, must be finite, so that
    no config comment or JSON file holds ``Infinity``.  An error names the
    value the user gave: a temperature whose inverse overflows is named as
    the temperature.
    """
    if temperature is not None:
        if temperature < 0.0 or not math.isfinite(temperature):
            raise ValueError(f"temperature must be >= 0 and finite, got {temperature}")
        if temperature == 0.0:
            return math.inf
        beta = 1.0 / temperature
        if beta == math.inf:
            raise ValueError("temperature must be 0 or large enough that 1 / temperature "
                             f"is finite, got {temperature}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return beta


def _params_for(cfg: RunConfig, beta: float | None = None) -> QuenchParams:
    """The configured quench at ``beta``, by default the configured one."""
    if beta is None:
        beta = _beta_of(cfg.beta, cfg.temperature)
    return QuenchParams(h0=cfg.h0, h1=cfg.h1, gamma0=cfg.gamma0, gamma1=cfg.gamma1,
                        beta=beta, length=cfg.length)


def _write_json(path: str, payload: dict) -> None:
    """Write strict JSON; a non-finite number raises before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")


def _write_table(cfg: RunConfig, command: str, header: list[str], columns,
                 summary: dict | None = None) -> None:
    """Write equal-length numpy columns: one JSON file, or a CSV and, with a
    summary, a JSON sidecar."""
    base = _base(cfg, command)
    config = dataclasses.asdict(cfg)
    tail = {} if summary is None else {"summary": summary}
    if cfg.format == "json":
        rows = list(zip(*map(_json_column, columns)))
        _write_json(base + ".json", {"config": config, "columns": header, "rows": rows, **tail})
        return
    from . import _csvfile

    _csvfile._save_csv(base + ".csv", cfg, header, columns)
    print(f"wrote {base}.csv")
    if tail:
        _write_json(base + ".json", {"config": config, **tail})


def _json_column(column: np.ndarray) -> list:
    """A numpy column as strict JSON cells: strings as they are, numbers as
    floats and non-finite numbers as null, converted at once."""
    if column.dtype.kind == "U":
        return column.tolist()
    cells = column.astype(float, copy=False).tolist()
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[i] = None
    return cells


def _json_cell(value):
    """One value as :func:`_json_column` writes a cell."""
    return _json_column(np.array([value]))[0]


def _base(cfg: RunConfig, command: str) -> str:
    return cfg.output if cfg.output else command


def cmd_timeseries(cfg: RunConfig) -> int:
    from . import averages, echo

    params = _params_for(cfg)
    table = mode_table(params)
    t = np.linspace(0.0, cfg.tmax, cfg.tpoints)
    pt = echo.echo_point(table, t)
    summary = dataclasses.asdict(averages.long_time(table))
    _write_table(
        cfg, "timeseries", ["t", "le", "lef", "lower", "upper"],
        [t, pt.le, pt.lef, pt.lower, pt.upper],
        {name: _json_cell(value) for name, value in summary.items()},
    )
    return EXIT_OK


def _temperature_tag(temperature: float | None, params: QuenchParams) -> str:
    if temperature is not None:
        return f"T{temperature:g}"
    if params.beta == math.inf:
        return "T0"
    return f"beta{params.beta:g}"


def cmd_distribution(cfg: RunConfig) -> int:
    from . import echo, stats

    ladder: list[float | None] = (
        [float(T) for T in cfg.temperatures] if cfg.temperatures else [None]
    )
    base = _base(cfg, "distribution")
    # each rung's CSV files are named by its tag, so no two rungs may share one
    rungs = [(temperature, _params_for(cfg, None if temperature is None
                                       else _beta_of(None, temperature)))
             for temperature in ladder]
    tags = [_temperature_tag(temperature, params) for temperature, params in rungs]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(
                f"temperatures {ladder[tags.index(tag)]!r} and {ladder[i]!r} share the "
                f"file tag {tag}; rungs must differ in their first 6 significant digits")
    # the rungs share one length, so their blocks hold them in rung order
    blocks = list(model._blocks({name: [getattr(params, name) for _, params in rungs]
                                 for name in model._FIELDS}))
    # and one draw of times, so the sampler takes each sine once per block
    ladder_sample = stats.sample_logle([block for _, block in blocks],
                                       cfg.tau_factor * cfg.length**2, cfg.samples, cfg.seed)
    # each rung's weights are its row of its block's
    spectra = []
    for _, block in blocks:
        weights = stats.weights(block)
        spectra += [stats.WeightSpectrum(a, a_f, False) for a, a_f in zip(weights.a, weights.a_f)]
    # and every rung's file holds the same time column, formatted once
    if cfg.format == "json":
        times = ladder_sample.times.tolist()
    else:
        from . import _csvfile

        times = _csvfile._column_cells(ladder_sample.times)

    def rung(i: int) -> tuple[dict, list[str]]:
        """Rung ``i``'s entry and the files it wrote."""
        (temperature, params), spectrum, z = rungs[i], spectra[i], ladder_sample.z[i]
        hist, edges = np.histogram(z, bins=cfg.bins)
        verdict = stats.classify(spectrum, (hist, edges))
        entry = {
            "temperature": temperature,
            # strict JSON has no Infinity: the ground state is null, flagged
            "beta": None if params.beta == math.inf else params.beta,
            "zero_temperature": params.beta == math.inf,
            "tau": ladder_sample.tau,
            "seed": ladder_sample.seed,
            "label": verdict.label.value,
            "dominance": verdict.dominance,
            "kappa2": spectrum.kappa2,
            "zbar": spectrum.zbar,
            "predicted_peaks": list(verdict.predicted_peaks),
            "histogram_peaks": list(verdict.histogram_peaks),
            "histogram_peak_count": verdict.histogram_peak_count,
            "degenerate": verdict.degenerate,
            "empirical": {
                "mean_z": _json_cell(np.mean(z)),
                "var_z": _json_cell(np.var(z)),
                "mean_le": _json_cell(np.mean(np.exp(z))),
            },
        }
        if cfg.format == "json":
            entry["samples"] = {"t": times, "z": _json_column(z)}
            entry["histogram"] = {"edges": edges.tolist(), "counts": hist.tolist()}
            return entry, []
        paths = [f"{base}_{tags[i]}_samples.csv", f"{base}_{tags[i]}_hist.csv"]
        _csvfile._save_csv(paths[0], cfg, ["t", "z"], [times, z])
        _csvfile._save_csv(paths[1], cfg, ["bin_left", "bin_right", "count"],
                           [edges[:-1], edges[1:], hist])
        return entry, paths

    # the rungs run on the pool, and report here in rung order
    entries = []
    for entry, paths in echo._in_order(rung, range(len(rungs))):
        if entry["degenerate"]:
            print(
                "warning: quench has zero variance; no distribution to classify",
                file=sys.stderr,
            )
        for path in paths:
            print(f"wrote {path}")
        entries.append(entry)
    _write_json(
        base + ".json",
        {"config": dataclasses.asdict(cfg), "results": entries},
    )
    return EXIT_OK


def cmd_weights(cfg: RunConfig) -> int:
    from . import stats

    # each bell is the continuum limit of one single-parameter quench only
    if cfg.bell == "ising" and not cfg.gamma0 == cfg.gamma1 == 1.0:
        raise ValueError("--bell ising needs a field quench at gamma0 = gamma1 = 1, "
                         f"got gamma0={cfg.gamma0}, gamma1={cfg.gamma1}")
    if cfg.bell == "aniso" and not cfg.h0 == cfg.h1 == 0.0:
        raise ValueError("--bell aniso needs an anisotropy quench at h0 = h1 = 0, "
                         f"got h0={cfg.h0}, h1={cfg.h1}")
    params = _params_for(cfg)
    table = mode_table(params)
    spectrum = stats.weights(table, use_second_order=cfg.second_order)
    header = ["k", "a", "a_f", "omega", "damping", "damping_f"]
    columns = [table.k, spectrum.a, spectrum.a_f, table.omega,
               table.one_minus_cinv, table.one_minus_cinv2]
    summary: dict = {
        "zbar": spectrum.zbar,
        "kappa2": spectrum.kappa2,
        "second_order": spectrum.second_order,
    }
    verdict = stats.classify(spectrum)
    summary["label"] = verdict.label.value
    summary["dominance"] = verdict.dominance
    if cfg.bell is not None:
        if cfg.bell == "ising":
            bell = stats.bell_ising(table.lam0, cfg.h0, cfg.h1 - cfg.h0)
            width = stats.bell_width_ising(cfg.h0)
        else:
            bell = stats.bell_aniso(table.lam0, cfg.gamma0, cfg.gamma1 - cfg.gamma0)
            width = stats.bell_width_aniso(cfg.gamma0)
        header += ["bell", "bell_width"]
        columns += [bell, np.full_like(table.k, width)]
        summary["bell"] = {"kind": cfg.bell, "width": width}
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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep start and stop must be finite in {spec!r}")
    values = np.linspace(start, stop, count)
    if name == "length":
        out = []
        for v in values.tolist():
            if v != round(v):
                raise ValueError(f"swept length {v!r} is not a whole number in {spec!r}")
            iv = int(v)
            if iv % 2 or iv < 2:
                raise ValueError(f"swept length {iv} is not an even number >= 2")
            out.append(iv)
        return name, out
    return name, [float(v) for v in values]


def cmd_scan(cfg: RunConfig) -> int:
    from . import averages, stats

    if not cfg.sweep:
        raise ValueError("scan requires at least one --sweep axis")
    axes = [_parse_sweep(spec) for spec in cfg.sweep]
    names = [name for name, _ in axes]
    if len(set(names)) != len(names):
        raise ValueError("sweep axes must be distinct")
    found_names = ["d_eff", "purity", "mean_le", "mean_lef", "var_le", "kappa2", "dominance",
                   "label"]
    thermal = {"beta", "temperature"} & set(names)
    # the grid's columns, one row per point in itertools.product order
    grid = [g.ravel() for g in np.meshgrid(*(np.asarray(vals) for _, vals in axes),
                                           indexing="ij")]
    # every config value is checked, also one that a swept axis overrides
    config = dataclasses.asdict(_params_for(cfg))
    n_points = grid[0].size
    swept = {name: g.tolist() for name, g in zip(names, grid)}
    if thermal:
        # a swept temperature wins over a swept beta, which wins over the config
        swept["beta"] = [_beta_of(beta, temperature) for beta, temperature in zip(
            swept.pop("beta", [None] * n_points), swept.pop("temperature", [None] * n_points))]
    columns = {name: swept.get(name, [value] * n_points) for name, value in config.items()}
    # the long-time statistics and the shape verdicts, one pass per block of chains
    found: dict[str, np.ndarray] = {}
    for indices, block in model._blocks(columns):
        spectrum = stats.weights(block)
        verdict = stats.classify(spectrum)
        rows = {**vars(averages.long_time(block)), "kappa2": spectrum.kappa2,
                "dominance": verdict.dominance, "label": verdict.label}
        for name in found_names:
            found.setdefault(name, np.empty(n_points, rows[name].dtype))[indices] = rows[name]
    _write_table(cfg, "scan", names + found_names, grid + [found[name] for name in found_names])
    return EXIT_OK


# what `verify` runs, in report order: the name of the suite in `verify`,
# the offset added to --seed (None for the seedless kernel scan) and the
# suite's data
_VERIFY_DATA = {
    "oracle_equivalence": ("oracle_equivalence", 0, {
        "lengths": (2, 4, 6, 8), "n_param_sets": 3, "n_times": 5,
        "field_range": (-2.0, 2.0), "anisotropy_range": (-1.5, 1.5),
        "beta_range": (0.1, 8.0), "time_range": (0.0, 20.0),
        "max_abs_residual": 1e-9,
    }),
    "bounds": ("bound_suite", 1, {
        "n_trials": 10_000, "max_length": 200,
        "field_range": (-2.0, 2.0), "anisotropy_range": (-1.5, 1.5),
        "beta_range": (0.01, 50.0), "time_range": (-20.0, 50.0),
        "slack_floor": -1e-12, "t0_tolerance": 1e-12,
    }),
    "qubit_inequality": ("qubit_inequality", 2, {
        "n_trials": 100_000, "slack_floor": -1e-12,
        "closed_form_tolerance": 1e-12, "route_tolerance": 1e-10,
    }),
    "q_function_scan": ("q_function_scan", None,
                        {"x_max": 20.0, "v_max": 2.0, "nx": 1000, "nv": 1000}),
    "perturbation_scaling": ("perturbation_scaling", 3, {
        "dim": 8, "beta": 1.0, "times": (0.7, 1.3, 2.6), "base_scale": 1e-3,
        "halvings": 3, "ratio_low": 5.6, "ratio_high": 10.4,
    }),
    "bures_relation": ("bures_relation", 4,
                       {"dim": 8, "beta": 1.0, "scale": 1e-3, "max_residual": 1e-8}),
}


# the options `verify` takes, and all that its report records as its config
_VERIFY_FLAGS = ("seed", "output", "inject_failure")


def cmd_verify(cfg: RunConfig) -> int:
    from . import echo, verify

    def run(name: str) -> tuple[str, dict]:
        suite, offset, data = _VERIFY_DATA[name]
        kwargs = dict(data) if offset is None else {**data, "seed": cfg.seed + offset}
        if suite == "bound_suite":
            kwargs["inject_failure"] = cfg.inject_failure
        return name, getattr(verify, suite)(**kwargs)

    # the suites share no state: they run on the pool, and report here in order
    results = {}
    for name, outcome in echo._in_order(run, _VERIFY_DATA):
        # strict JSON: a failing suite's non-finite numbers become null
        results[name] = json.loads(json.dumps(outcome), parse_constant=lambda _: None)
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
