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
command imports the layers it runs when it runs.  Every configuration
value is checked, also one that a ``scan`` axis overrides.

Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
# rows the CSV writer formats in one go: few enough that each block's numpy
# temporaries are reused heap memory, not pages freshly mapped and faulted in,
# and many enough that a ladder's files, written on threads, gain from them
# (short numpy ops spend much of their time holding the interpreter lock).
# Warm 5-rung ladder on 2 cores, median of 12 interleaved runs: 231 ms at
# 8192 rows, 224 ms at 16384, 277 ms at 32768; timeseries-long, written
# serially, took 216 and 212 ms at 8192 and 16384
_BLOCK_ROWS = 16384


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

    Temperature 0 is the ground state, ``inf``; a given ``beta``, and one
    that ``1 / temperature`` overflows to, must be finite, so that no
    config comment or JSON file holds ``Infinity``.
    """
    if temperature is not None:
        if temperature < 0.0 or not math.isfinite(temperature):
            raise ValueError(f"temperature must be >= 0 and finite, got {temperature}")
        if temperature == 0.0:
            return math.inf
        beta = 1.0 / temperature
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return beta


def _params_for(cfg: RunConfig, beta: float | None = None) -> QuenchParams:
    """The configured quench at ``beta``, by default the configured one."""
    if beta is None:
        beta = _beta_of(cfg.beta, cfg.temperature)
    return QuenchParams(h0=cfg.h0, h1=cfg.h1, gamma0=cfg.gamma0, gamma1=cfg.gamma1,
                        beta=beta, length=cfg.length)


def _config_json(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, allow_nan=False)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into two halves of at most 26 bits each."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


def _packed(text: bytes) -> np.ndarray:
    """Up to 24 bytes as three uint64 words, byte j at bits 8j to 8j + 7."""
    return np.frombuffer(text.ljust(24, b"\0"), "<u8").astype(np.uint64)


def _group_table() -> np.ndarray:
    """The four ASCII digits of each g < 10**4, packed into a uint64.

    Entry ``10**4 + g`` is the same group with its trailing zeros as NUL
    bytes, for the last nonzero group of a number and those after it.
    """
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    tails = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    table = np.zeros((2, 10_000, 8), np.uint8)
    table[:, :, :4] = digits + ord("0")
    table[1, :, :4][tails] = 0
    return table.view("<u8").ravel().astype(np.uint64)


_GROUPS = _group_table()
_ASCII_ZEROS = np.uint64(0x3030_3030_3030_3030)


def _layout_table(text) -> np.ndarray:
    """``text(e, neg)`` packed for each index ``2 * (e + 4) + neg``, e = -4..16."""
    return np.stack([_packed(text(e, neg)) for e in range(-4, 17) for neg in (0, 1)], axis=1)


# by decimal exponent E and sign: the bytes of the integer part; the '.'
# after them, or "0.000" in front of the digits when E < 0; and the number
# of bits the fraction digits move to make room for either
_INT_BYTES = _layout_table(lambda e, neg: b"\0" * neg + b"\xff" * (e + 1))
_POINT = _layout_table(lambda e, neg: b"\0" * (neg + e + 1) + b"." if e >= 0
                       else b"\0" * neg + b"0." + b"0" * (-e - 1))
_FRAC_MOVE = np.repeat([8 * max(1, 1 - e) for e in range(-4, 17)], 2).astype(np.uint64)

# the digit route takes every double with 1e-280 <= |x| < 1e280 (beyond, the
# Veltkamp split of |x| or of 10**(16 - E) can overflow); its decimal
# exponents E, one wider on each side for a log10 miss or a carry
_BAND = (1e-280, 1e280)
_E_MIN, _E_MAX = -281, 280
# where 10**(16 - E) is not a double, the product below is within 5e-15 of
# exact; a cell this close to a rounding boundary goes to printf
_MARGIN = 1e-9


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, ...]:
    """Per decimal exponent E (index ``E - _E_MIN``): ``hi``, its Veltkamp
    halves and ``lo``, the margin, the layout index and the exponent suffix.

    ``hi = RN(10**k)`` and ``lo = RN(10**k - hi)`` for k = 16 - E, both
    from exact integers, so ``hi + lo`` is 10**k to a relative 2**-106;
    ``lo`` is 0 for 0 <= k <= 22.  The margin is 0 in the fixed-notation
    band E = -4..16, where 10**k is a double and the digits are exact.
    Exponent notation is laid out as E = 0 (one digit, then the fraction),
    and its suffix ("e-05", "e+17", "e-100") fills bytes 19 to 23 of the
    cell; the NULs before it go with the padding.
    """
    exponents = range(_E_MIN, _E_MAX + 1)
    hi, lo = [], []
    for e in exponents:
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        h = num / den
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    hi, lo = np.array(hi), np.array(lo)
    fixed = [-4 <= e <= 16 for e in exponents]
    margin = np.where(fixed, 0.0, _MARGIN)
    row = np.array([2 * (e + 4) if f else 8 for e, f in zip(exponents, fixed)])
    suffix = b"".join(b"\0" * 8 if f else b"\0\0\0" + (b"e%+03d" % e).ljust(5, b"\0")
                      for e, f in zip(exponents, fixed))
    return (hi, *_split(hi), lo, margin, row,
            np.frombuffer(suffix, "<u8").astype(np.uint64))


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - e)`` as ``ph + t``: ``ph = RN(a * hi)`` and ``t`` the
    rest, exact where ``lo`` is 0 and within 5e-15 elsewhere.

    Dekker's two-product gives ``a * hi - ph`` exactly; ``t`` adds ``a * lo``.
    """
    j = e - _E_MIN
    hi, p_hi, p_lo, lo = (table.take(j) for table in _decimal_tables()[:4])
    ph = a * hi
    a_hi, a_lo = _split(a)
    err = a_lo * p_lo - (((ph - a_hi * p_hi) - a_lo * p_hi) - a_hi * p_lo)
    return ph, err + a * lo


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = floor(log10 a), the 17 significant digits D = round(a * 10**(16 - E)),
    rounded half to even, and whether D is sure, for each a in the band.

    With ``ph + t`` from :func:`_scaled` in [1e16, 1e17), ``ph`` >= 2**53 is
    an even integer and D = ph + rint(t).  D is not sure where ``t`` lies
    within the margin of a half or the product within it of 1e16 or 1e17.
    """
    e = np.floor(np.log10(a)).astype(np.int64)
    ph, t = _scaled(a, e)
    # log10 can miss by one next to a power of ten: test the product
    miss = np.flatnonzero(((ph - 1e16) + t < 0) | ((ph - 1e17) + t >= 0))
    if miss.size:
        e[miss] += np.where(ph[miss] > 3e16, np.int64(1), np.int64(-1))
        ph[miss], t[miss] = _scaled(a[miss], e[miss])
    r = np.rint(t)
    margin = _decimal_tables()[4].take(e - _E_MIN)
    sure = ((np.abs(t - r) <= 0.5 - margin) & ((ph - 1e16) + t >= margin)
            & ((1e17 - ph) - t >= margin))
    digits = ph.astype(np.int64) + r.astype(np.int64)
    # a product just below 1e17 rounds up to 10**17 = 10**16 * 10
    carry = digits == np.int64(10**17)
    digits[carry] = np.int64(10**16)
    e += carry
    return e, digits, sure


def _text_cells(x: np.ndarray, e: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each v with decimal exponent ``e`` and 17 digits
    ``digits``, as (n, 24) ASCII bytes with NULs where no text is.

    The text is built in three little-endian uint64 words per cell with
    integer operations only.
    """
    # D is a leading digit and four groups of four: g1 g2 g3 g4; a group
    # loses its trailing zeros when every group after it is zero
    ten4, ten8, ten16 = np.int64(10**4), np.int64(10**8), np.int64(10**16)
    lead = digits // ten16
    tail = digits - lead * ten16
    upper = tail // ten8
    lower = tail - upper * ten8
    g1 = upper // ten4
    g2 = upper - g1 * ten4
    g3 = lower // ten4
    g4 = lower - g3 * ten4
    t1 = _GROUPS.take(g1 + ten4 * ((g2 == 0) & (lower == 0)))
    t2 = _GROUPS.take(g2 + ten4 * (lower == 0))
    t3 = _GROUPS.take(g3 + ten4 * (g4 == 0))
    t4 = _GROUPS.take(g4 + ten4)
    # the 17 digit bytes, one byte further right after a minus sign
    u = np.uint64
    neg = np.signbit(x)
    sign = neg.astype(u)
    pad = sign << u(3)
    down = u(24) - pad
    w0 = ((lead.astype(u) + u(ord("0"))) << pad) | (t1 << (pad + u(8))) | (t2 << (pad + u(40)))
    w1 = (t2 >> down) | (t3 << (pad + u(8))) | (t4 << (pad + u(40)))
    w2 = t4 >> down

    # the integer part stays, NULs back to '0'; the fraction moves right
    # past the '.' (or the "0.000"), which goes when no fraction is left
    j = e - _E_MIN
    row, suffix = _decimal_tables()[5:]
    i = row.take(j) + neg
    m0, m1, m2 = _INT_BYTES[0].take(i), _INT_BYTES[1].take(i), _INT_BYTES[2].take(i)
    f0, f1, f2 = w0 & ~m0, w1 & ~m1, w2 & ~m2
    point = (f0 | f1 | f2) != u(0)
    move = _FRAC_MOVE.take(i)
    back = u(64) - move
    cells = np.empty((len(x), 3), np.uint64)
    cells[:, 0] = (((w0 | _ASCII_ZEROS) & m0) | (_POINT[0].take(i) * point) | (f0 << move)
                   | (sign * u(ord("-"))))
    cells[:, 1] = (((w1 | _ASCII_ZEROS) & m1) | (_POINT[1].take(i) * point) | (f1 << move)
                   | (f0 >> back))
    cells[:, 2] = (((w2 | _ASCII_ZEROS) & m2) | (_POINT[2].take(i) * point) | (f2 << move)
                   | (f1 >> back) | suffix.take(j))
    return cells.astype("<u8", copy=False).view(np.uint8)


def _printf_cells(values: list, fmt: str, width: int) -> np.ndarray:
    """Cells formatted by one ``%`` operation, as rows of ``width`` NUL-padded bytes.

    ``fmt`` is a conversion without its ``%``, whose text never holds a
    space and never exceeds ``width`` characters.
    """
    text = (f"%-{width}{fmt}" * len(values)) % tuple(values)
    padded = text.encode().replace(b" ", b"\0")
    return np.frombuffer(padded, np.uint8).reshape(len(values), width)


def _cells(column: np.ndarray) -> np.ndarray:
    """The text of one column's cells, one row of bytes each, NULs not text.

    Integers print with ``%d``, strings as they are (UTF-8), floats up to
    float64 in the band 1e-280 <= |x| < 1e280 from :func:`_decimal` and
    :func:`_text_cells`, and everything else, and the cells those leave
    unsure, with ``%.17g``.
    """
    kind = column.dtype.kind
    if kind == "U":
        cells = [cell.encode() for cell in column.tolist()]
        if b"\0" in b"".join(cells):
            raise ValueError("CSV string cells may not contain NUL characters")
        return np.array(cells, bytes).view(np.uint8).reshape(len(column), -1)
    if kind != "f" or column.dtype.itemsize > 8:
        # %d of a 64-bit integer is at most 20 characters, %.17g at most 24
        if kind in "iu":
            return _printf_cells(column.tolist(), "d", 20)
        return _printf_cells(column.tolist(), ".17g", 24)
    x = column.astype(np.float64, copy=False)
    a = np.abs(x)
    band = (a >= _BAND[0]) & (a < _BAND[1])
    e, digits, sure = _decimal(np.where(band, a, 1.0))
    cells = _text_cells(x, e, digits)
    rest = np.flatnonzero(~(band & sure))
    if rest.size:
        cells[rest] = _printf_cells(x[rest].tolist(), ".17g", 24)
    return cells


def _is_cells(column: np.ndarray) -> bool:
    """Whether a column holds ``(rows, width)`` cells that :func:`_cells` made."""
    return column.ndim == 2 and column.dtype == np.uint8


def _column_cells(column: np.ndarray) -> np.ndarray:
    """The cells of a whole, non-empty float column, formatted ``_BLOCK_ROWS``
    rows at a time."""
    return np.concatenate([_cells(column[start:start + _BLOCK_ROWS])
                           for start in range(0, len(column), _BLOCK_ROWS)])


def _csv_rows(columns: list[np.ndarray]) -> np.ndarray:
    """The bytes of a block of rows: cells joined by ',', each row ended by a newline.

    A column holds either values or the cells :func:`_cells` made of them.
    """
    cells = [column if _is_cells(column) else _cells(column) for column in columns]
    rows = np.empty((len(columns[0]), sum(c.shape[1] + 1 for c in cells)), np.uint8)
    at = 0
    for c in cells:
        rows[:, at:at + c.shape[1]] = c
        at += c.shape[1]
        rows[:, at] = ord(",")
        at += 1
    rows[:, -1] = ord("\n")
    return rows[rows != 0]


def _save_csv(path: str, cfg: RunConfig, header: list[str], columns) -> None:
    """Write equal-length 1-D columns under a config comment and a header.

    Integer columns are written with ``%d``, string columns as they are
    (UTF-8, no NUL characters) and everything else as printf ``%.17g`` would
    write it, byte for byte, so ``nan``, ``inf`` and ``-inf`` are spelled
    that way.  Float cells with 1e-280 <= |x| < 1e280 are vectorised, in
    fixed and exponent notation (:func:`_decimal`, :func:`_text_cells`);
    zero, subnormals, the rest of the range, non-finite values and the cells
    within the margin of a rounding boundary go through one ``%`` operation
    per block and column.  Rows go out in blocks of
    ``_BLOCK_ROWS``, which bounds memory for any row count.  A column that
    several files share may come as the ``(rows, width)`` cells that
    :func:`_column_cells` made of it, so it is formatted once.
    """
    arrays = [np.asarray(column) for column in columns]
    n_rows = len(arrays[0])
    if any((a.ndim != 1 and not _is_cells(a)) or len(a) != n_rows for a in arrays):
        raise ValueError("CSV columns must be 1-D and of equal length")
    head = f"# config = {_config_json(cfg)}\n" + ",".join(header) + "\n"
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for start in range(0, n_rows, _BLOCK_ROWS):
            fh.write(_csv_rows([a[start:start + _BLOCK_ROWS] for a in arrays]))


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
    _save_csv(base + ".csv", cfg, header, columns)
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
    blocks = list(model._blocks([params for _, params in rungs]))
    # and one draw of times, so the sampler takes each sine once per block
    ladder_sample = stats.sample_logle([block for _, block in blocks],
                                       cfg.tau_factor * cfg.length**2, cfg.samples, cfg.seed)
    # each rung's weights are its row of its block's
    spectra = []
    for indices, block in blocks:
        shape = (indices.size, block.n_modes)
        weights = stats.weights(block)
        spectra += [stats.WeightSpectrum(a, a_f, False) for a, a_f in
                    zip(np.broadcast_to(weights.a, shape), np.broadcast_to(weights.a_f, shape))]
    # and every rung's file holds the same time column, formatted once
    if cfg.format == "json":
        times = ladder_sample.times.tolist()
    else:
        times = _column_cells(ladder_sample.times)

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
        _save_csv(paths[0], cfg, ["t", "z"], [times, z])
        _save_csv(paths[1], cfg, ["bin_left", "bin_right", "count"],
                  [edges[:-1], edges[1:], hist])
        return entry, paths

    # the rungs run on the pool, and report here in rung order
    entries = []
    workers = min(echo._thread_count(), len(rungs))
    for entry, paths in echo._in_order(rung, range(len(rungs)), workers):
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
    chains = []
    for point in zip(*(g.tolist() for g in grid)):
        swept = dict(zip(names, point))
        if thermal:
            # a swept temperature wins over a swept beta, which wins over the config
            swept["beta"] = _beta_of(swept.pop("beta", None), swept.pop("temperature", None))
        chains.append(QuenchParams(**{**config, **swept}))
    # the long-time statistics and the shape verdicts, one pass per block of chains
    found: dict[str, np.ndarray] = {}
    for indices, block in model._blocks(chains):
        rows = {**averages._long_time_rows(block), **stats._shape_rows(stats.weights(block).a)}
        for name in found_names:
            found.setdefault(name, np.empty(len(chains), rows[name].dtype))[indices] = rows[name]
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
    from . import verify

    results = {}
    for name, (suite, offset, data) in _VERIFY_DATA.items():
        kwargs = dict(data) if offset is None else {**data, "seed": cfg.seed + offset}
        if suite == "bound_suite":
            kwargs["inject_failure"] = cfg.inject_failure
        outcome = getattr(verify, suite)(**kwargs)
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
