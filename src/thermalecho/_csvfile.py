"""The CSV writer: a config comment, a header, then rows of cells.

Cells are byte-identical to printf: ``%d`` for integers, the text itself
for strings and ``%.17g`` for floats.  Floats with 1e-280 <= |x| < 1e280
are formatted in numpy, in fixed and exponent notation, from exact
17-digit decimals (:func:`_decimal`, :func:`_text_cells`); the rest go
through printf.  The command line imports this module only when it writes
a CSV file.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cli import RunConfig

# rows the CSV writer formats in one go: few enough that each block's numpy
# temporaries are reused heap memory, not pages freshly mapped and faulted in,
# and many enough that a ladder's files, written on threads, gain from them
# (short numpy ops spend much of their time holding the interpreter lock).
# Warm 5-rung ladder on 2 cores, median of 12 interleaved runs: 231 ms at
# 8192 rows, 224 ms at 16384, 277 ms at 32768; timeseries-long, written
# serially, took 216 and 212 ms at 8192 and 16384
_BLOCK_ROWS = 16384


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
