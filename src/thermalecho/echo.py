"""Finite-temperature Loschmidt echo of a quenched quasi-free chain.

The echo factorizes over momentum modes.  Every quantity here (the echo,
the linear overlap echo and both bounds) is a product over modes of the
same factors ``1 - (1 - cinv**2) * alpha * sin(lam1 t)**2``, so one private
kernel evaluates them all, and :func:`echo_point` returns them all, with
the log of the echo, from one pass over a table.  The kernel always works
in log space, since products of many sub-unit factors underflow for long
chains, and it walks the times in chunks of fixed byte size, so memory
does not grow with the number of times.  When there is more than one chunk
the chunks are spread over one thread pool of ``THERMALECHO_THREADS``
workers (default: the CPU count); chunk boundaries do not depend on the
thread count, so neither do the results.  Many short chains are evaluated
as one stack of modes (:func:`echo_chains`) by the same factor arithmetic.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ModeTable, QuenchParams, _stacked_columns

__all__ = [
    "EchoPoint",
    "EffectiveDimension",
    "echo_chains",
    "echo_point",
    "effective_dimension",
]

# the clamped quantity may dip below its analytic floor only by rounding dust
_CLAMP_SLACK = 1e-15

# float64 scratch per (chunk x n_modes) buffer; the value only affects speed
_CHUNK_BYTES = 4 << 20

# modes per group of stacked chains: 64 KiB per column, so the group's
# twenty-odd per-mode columns stay well inside one chunk
_GROUP_MODES = _CHUNK_BYTES // (8 * 64)

# worker count when THERMALECHO_THREADS is unset; looked up once, not per call
_CPU_COUNT = os.cpu_count() or 1


@dataclass(frozen=True)
class EffectiveDimension:
    """Purity of the initial Gibbs state and the dimension it corresponds to.

    ``d_eff`` is ``1 / purity``, the number of states an equally mixed state
    with the same purity would occupy.  ``log_purity`` is kept alongside
    because ``d_eff`` itself overflows for long chains at high temperature.
    """

    d_eff: float
    purity: float
    log_purity: float


@dataclass(frozen=True)
class EchoPoint:
    """Echo quantities at one time, or at each time of an array.

    ``le`` is the Loschmidt echo, the Uhlmann fidelity squared between the
    initial Gibbs state and its evolved image: it lies in ``[0, 1]``, is 1
    at ``t = 0`` and reaches 0 only in the ground state.  ``log_le`` is its
    natural log straight from the kernel, finite where ``le`` underflows to
    0.0 for long chains (``-inf`` only where the ground-state echo is
    exactly 0).  ``lef`` is the linear overlap echo ``Tr[rho(t) rho]``, at
    most ``le``.  ``lower = d_eff * lef`` and ``upper = lef + 1 - purity``
    bound the echo from both sides.  Fields are floats for a scalar time and
    arrays shaped like the times otherwise.
    """

    t: float | np.ndarray
    le: float | np.ndarray
    log_le: float | np.ndarray
    lef: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray


def _thread_count() -> int:
    raw = os.environ.get("THERMALECHO_THREADS", "")
    if not raw:
        return _CPU_COUNT
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"THERMALECHO_THREADS must be an integer, got {raw!r}") from None


def _factor_consts(cinv: np.ndarray, one_minus_cinv2: np.ndarray, alpha: np.ndarray):
    """Per-mode ``(cinv, coef, floor, lowest, norm)`` for :func:`_log_factors`."""
    floor = cinv**2
    return cinv, one_minus_cinv2 * alpha, floor, floor - _CLAMP_SLACK, 1.0 + cinv


def _log_factors(a: np.ndarray, logs: np.ndarray, consts) -> None:
    """Turn the phases ``a = t * lam1`` into per-mode log factors, in place.

    The columns of ``a`` are modes, and each of ``consts`` (from
    :func:`_factor_consts`) holds one value per column.  On return ``logs`` holds
    ``log(arg)`` with ``arg = 1 - coef * sin(a)**2`` clamped to its analytic
    floor ``cinv**2``, and ``a`` holds ``log((cinv + sqrt(arg)) / norm)``.
    An excursion of ``arg`` below the floor beyond rounding dust means the
    table is inconsistent and raises ``FloatingPointError``.  ``arg``
    cannot exceed 1, since the term it subtracts is a product of squares.
    """
    cinv, coef, floor, lowest, norm = consts
    np.sin(a, out=a)
    np.square(a, out=a)
    np.multiply(a, coef, out=a)
    np.subtract(1.0, a, out=a)
    if not (a.min(axis=0) > lowest).all():
        raise FloatingPointError(
            "echo factor fell below its floor cinv**2; the mode table is inconsistent"
        )
    np.maximum(a, floor, out=a)
    with np.errstate(divide="ignore"):
        np.log(a, out=logs)
        np.sqrt(a, out=a)
        np.add(a, cinv, out=a)
        np.divide(a, norm, out=a)
        np.log(a, out=a)


def _kernel(table: ModeTable, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-time ``(log_le, log_core)`` over a 1-D time array.

    ``log_core`` is the sum over modes of ``log(arg)`` and ``log_le`` twice
    the sum of ``log((cinv + sqrt(arg)) / (1 + cinv))``; see
    :func:`_log_factors`.
    """
    n_modes = table.n_modes
    rows = max(1, _CHUNK_BYTES // (8 * n_modes))
    starts = range(0, t.size, rows)
    n_workers = min(_thread_count(), len(starts))
    consts = _factor_consts(table.cinv, table.one_minus_cinv2, table.alpha)
    log_le = np.empty(t.size)
    log_core = np.empty(t.size)

    def work(first: int) -> None:
        arg = np.empty((min(rows, t.size), n_modes))
        logs = np.empty_like(arg)
        for start in starts[first::n_workers]:
            stop = min(start + rows, t.size)
            a = arg[: stop - start]
            b = logs[: stop - start]
            np.multiply.outer(t[start:stop], table.lam1, out=a)
            _log_factors(a, b, consts)
            np.add.reduce(b, axis=1, out=log_core[start:stop])
            np.add.reduce(a, axis=1, out=log_le[start:stop])

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(work, range(n_workers)))
    elif n_workers == 1:
        work(0)
    log_le *= 2.0
    return log_le, log_core


def effective_dimension(table: ModeTable) -> EffectiveDimension:
    """Purity of the initial Gibbs state and the effective dimension ``1 / purity``.

    The purity factorizes as ``prod (1 + cinv)**-2`` over modes; both it and
    its log are returned since either end can overflow or underflow alone.
    """
    log_purity = -2.0 * float(np.sum(np.log1p(table.cinv)))
    purity = float(np.exp(log_purity))
    with np.errstate(over="ignore"):
        d_eff = float(np.exp(-log_purity))
    return EffectiveDimension(d_eff=d_eff, purity=purity, log_purity=log_purity)


def _point(t, log_le, log_core, purity, shaped=np.asarray) -> EchoPoint:
    """Assemble an :class:`EchoPoint` from the kernel sums and the purity."""
    core = np.exp(log_core)
    lef = purity * core
    return EchoPoint(
        t=shaped(t),
        le=shaped(np.exp(log_le)),
        log_le=shaped(log_le),
        lef=shaped(lef),
        lower=shaped(core),
        upper=shaped(lef + (1.0 - purity)),
    )


def echo_point(table: ModeTable, t) -> EchoPoint:
    """Echo, its log, the linear overlap echo and both bounds from one kernel pass.

    ``t`` is a time, negative values allowed, or an array of them; it must
    be finite.  A scalar gives Python floats and an array gives arrays
    shaped like it; see :class:`EchoPoint`.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError("times must be finite")
    log_le, log_core = _kernel(table, t_arr.reshape(-1))

    def shaped(values: np.ndarray):
        out = values.reshape(t_arr.shape)
        return float(out) if t_arr.ndim == 0 else out

    return _point(t_arr, log_le, log_core, effective_dimension(table).purity, shaped)


def _chain_groups(counts):
    """``(first, stop)`` runs of consecutive chains with at most ``_GROUP_MODES``
    modes in all; a longer chain is a group of its own."""
    first = total = 0
    for i, n in enumerate(counts):
        if total and total + n > _GROUP_MODES:
            yield first, i
            first, total = i, 0
        total += n
    if total:
        yield first, len(counts)


def echo_chains(chains: Sequence[QuenchParams], t) -> EchoPoint:
    """Echo quantities of many chains, each at its own times, in one stacked pass.

    ``t`` has shape ``(len(chains), n_times)``: row ``i`` holds the times of
    ``chains[i]``, and every field of the result has that shape.  Entry
    ``[i, j]`` is ``echo_point(mode_table(chains[i]), t[i, j])`` up to the
    order of the sums over modes, so the two agree to the last bits.

    Consecutive chains are stacked into groups of at most about 8k modes,
    whose per-mode arrays are built and evaluated at once and summed per
    chain with ``np.add.reduceat``.  The scratch memory does not grow with
    the number of chains, and the groups depend only on the chain lengths,
    so the results do not depend on the thread count.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim != 2 or t_arr.shape[0] != len(chains):
        raise ValueError(
            f"times must have shape ({len(chains)}, n_times), got {t_arr.shape}")
    if not np.isfinite(t_arr).all():
        raise ValueError("times must be finite")
    log_le = np.empty(t_arr.shape)
    log_core = np.empty(t_arr.shape)
    log_purity = np.empty(len(chains))
    for first, stop in _chain_groups([p.length // 2 for p in chains]):
        starts, cols = _stacked_columns(chains[first:stop])
        consts = _factor_consts(cols["cinv"], cols["one_minus_cinv2"], cols["alpha"])
        n_modes = cols["lam1"].size
        owner = np.repeat(np.arange(stop - first), np.diff(starts, append=n_modes))
        times = np.ascontiguousarray(t_arr[first:stop].T)
        rows = max(1, _CHUNK_BYTES // (8 * n_modes))
        for row in range(0, t_arr.shape[1], rows):
            a = times[row : row + rows][:, owner]
            np.multiply(a, cols["lam1"], out=a)
            logs = np.empty_like(a)
            _log_factors(a, logs, consts)
            cells = (slice(first, stop), slice(row, row + rows))
            log_core[cells] = np.add.reduceat(logs, starts, axis=1).T
            log_le[cells] = np.add.reduceat(a, starts, axis=1).T
        log_purity[first:stop] = -2.0 * np.add.reduceat(np.log1p(cols["cinv"]), starts)
    log_le *= 2.0
    return _point(t_arr, log_le, log_core, np.exp(log_purity)[:, None])
