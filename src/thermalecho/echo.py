"""Finite-temperature Loschmidt echo of a quenched quasi-free chain.

The echo factorizes over momentum modes.  Every quantity here (the echo,
the linear overlap echo and both bounds) is a product over modes of the
same factors ``1 - (1 - cinv**2) * alpha * sin(lam1 t)**2``, so one private
kernel evaluates them all.  It takes a :class:`model.ModeTable`, one
chain's table or a block of equal-length chains (see
:func:`model._blocks`) with one row of mode columns per chain, and one
column of times per chain, so :func:`echo_point` of a block gives each
chain the bits of its table alone.
A block whose chains share their times and their post-quench frequencies
``lam1`` (a temperature ladder) passes one time column and one ``lam1``
row, and the kernel takes each sine once for all of them.  One column of
evenly spaced times, such as a ``timeseries`` grid, takes its sines by
angle addition, which agrees with ``np.sin`` to a few ulps of the phase,
not bit for bit.  The kernel always works in log space, since products of
many sub-unit factors underflow for long chains, and it walks the times in
chunks of (times x chains x modes) work of a fixed byte size, 1 MiB per
buffer, so memory does not grow with the number of times and a worker's
buffers stay in its core's L2 cache.  When there is more than one chunk the chunks are spread
over one thread pool of ``THERMALECHO_THREADS`` workers (default: the CPU
count); chunk and block boundaries do not depend on the thread count, so
neither do the results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .model import ModeTable

__all__ = ["EchoPoint", "echo_point"]

# the clamped quantity may dip below its analytic floor only by rounding dust
_CLAMP_SLACK = 1e-15

# float64 scratch per (chunk x n_modes) buffer; the value only affects speed.
# A worker streams its two buffers about 14 times per chunk, so both should
# fit in its core's L2 (2 MiB on a 2-core Xeon VM).  There, at 2 threads,
# median of 25 interleaved runs: a 20001-time grid of 999 modes took 197 ms
# at 4 MiB, 163 ms at 1 MiB and 168 ms at 256 KiB; a 5-rung ladder's 1e5
# samples of 25 modes took 143, 132 and 151 ms
_CHUNK_BYTES = 1 << 20

# worker count when THERMALECHO_THREADS is unset; looked up once, not per call
_CPU_COUNT = os.cpu_count() or 1

# times per angle-addition block; a grid of fewer than two blocks keeps np.sin
_GRID_BLOCK = 64


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
    bound the echo from both sides.  Fields are floats for a scalar time,
    arrays shaped like the times otherwise, and ``(chains, n_times)`` for a
    block of chains.
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
        count = int(raw)
    except ValueError:
        count = 0  # rejected below, with the values under 1
    if count < 1:
        raise ValueError(f"THERMALECHO_THREADS must be an integer >= 1, got {raw!r}")
    return count


def _in_order(fn, items, n_workers: int):
    """Yield ``fn(item)`` for each item, in order.

    With more than one worker the items run on a pool of ``n_workers``
    threads, and an exception is raised when its item's turn comes, after
    the results before it; with one worker each item runs on the calling
    thread when its result is asked for, and no pool is imported.
    """
    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            yield from pool.map(fn, items)
    else:
        yield from map(fn, items)


def _log_factors(a: np.ndarray, logs: np.ndarray | None, cinv) -> None:
    """Turn ``a = coef * sin(t * lam1)**2`` into per-mode log factors, in place.

    The last axes of ``a`` are chains and modes, and ``cinv`` holds one
    value per chain and mode.  On return ``logs`` (if not None) holds
    ``log(arg)`` with ``arg = 1 - a`` clamped to its floor ``cinv**2``, and ``a``
    holds ``log((cinv + sqrt(arg)) / (1 + cinv))``.  An excursion of ``arg``
    below the floor beyond rounding dust means the table is inconsistent and
    raises ``FloatingPointError``.  ``arg`` cannot exceed 1, since the term
    it subtracts is a product of squares.
    """
    floor = cinv**2
    np.subtract(1.0, a, out=a)
    if not (a.min(axis=0) > floor - _CLAMP_SLACK).all():
        raise FloatingPointError(
            "echo factor fell below its floor cinv**2; the mode table is inconsistent"
        )
    np.maximum(a, floor, out=a)
    with np.errstate(divide="ignore"):
        if logs is not None:
            np.log(a, out=logs)
        np.sqrt(a, out=a)
        np.add(a, cinv, out=a)
        np.divide(a, 1.0 + cinv, out=a)
        np.log(a, out=a)


def _grid_step(t: np.ndarray):
    """The step of a single column ``t`` of at least ``2 * _GRID_BLOCK`` times
    that miss ``t[0] + j * step`` by a few ulps at most, as ``np.linspace``
    output does, else None."""
    if t.shape[1] != 1 or t.shape[0] < 2 * _GRID_BLOCK:
        return None
    col = t[:, 0]
    step = (col[-1] - col[0]) / (col.size - 1)
    miss = np.abs(col - (np.arange(col.size) * step + col[0])).max()
    return step if miss <= 4.0 * np.finfo(float).eps * max(abs(col[0]), abs(col[-1])) else None


def _kernel(table: ModeTable, t: np.ndarray, core: bool = True):
    """``(log_le, log_core, log_purity)`` of a table or a block of equal-length chains.

    The table's columns are ``(chains, modes)`` arrays, or ``(modes,)`` rows
    that every chain of the block shares (see :class:`model.ModeTable`),
    and ``t`` is ``(times, chains)``: column ``i`` holds the times of chain
    ``i``, and a single column holds times that every chain shares.  The
    phases ``t * lam1`` and their ``sin**2`` are taken at the broadcast
    shape of the time columns and the ``lam1`` rows, so chains that share
    both share each sine; only ``coef * sin**2`` onward, with ``coef = (1 -
    cinv**2) * alpha``, runs at the full (times, chains, modes) shape.
    A grid (see :func:`_grid_step`) takes ``sqrt(coef) * sin`` by angle
    addition instead, from ``np.sin`` and ``np.cos`` at the first time of each
    block of ``_GRID_BLOCK`` rows and one table of the offsets in a block.
    ``log_core`` is the sum over a chain's modes of ``log(arg)`` and
    ``log_le`` twice the sum of ``log((cinv + sqrt(arg)) / (1 + cinv))``
    (see :func:`_log_factors`), both ``(times, chains)`` with a single
    column when nothing in the block differs between chains; with ``core``
    false ``log_core`` is None and never formed.  ``log_purity`` is ``-2``
    times the sum of ``log1p(cinv)``, one per chain or one shared.
    """
    lam1, cinv = table.lam1, table.cinv
    # an infinite phase would turn its sine, and every factor after it, into nan
    t_peak = float(np.abs(t).max()) if t.size else 0.0
    lam1_peak = float(np.abs(lam1).max())
    if not math.isfinite(t_peak * lam1_peak):
        raise ValueError(f"the phase t * lam1 overflows: max |t| = {t_peak:g} times "
                         f"max lam1 = {lam1_peak:g} exceeds the float64 range")
    coef = table.one_minus_cinv2 * table.alpha
    n_times = t.shape[0]
    n_phases, n_modes = np.broadcast_shapes(t.shape[1:] + (1,), lam1.shape)
    n_chains = np.broadcast_shapes((n_phases, n_modes), coef.shape, cinv.shape)[0]
    rows = max(1, _CHUNK_BYTES // (8 * n_chains * n_modes))
    span = n_times
    step = _grid_step(t)
    if step is not None:
        # whole blocks per chunk, so neither the chunks nor the threads move a bit
        rows = max(_GRID_BLOCK, rows - rows % _GRID_BLOCK)
        span = -(-n_times // _GRID_BLOCK) * _GRID_BLOCK
        offset = np.arange(_GRID_BLOCK)[:, None, None] * step * lam1
        root = np.sqrt(coef)
        cos_offset, sin_offset = root * np.cos(offset), root * np.sin(offset)
    starts = range(0, n_times, rows)
    n_workers = min(_thread_count(), len(starts))
    log_le = np.empty((n_times, n_chains))
    log_core = np.empty((n_times, n_chains)) if core else None

    def work(first: int) -> None:
        arg = np.empty((min(rows, span), n_chains, n_modes))
        logs = np.empty_like(arg)
        # the full-shape buffer takes the phases in place unless they are shared
        phase = arg if n_phases == n_chains else np.empty((arg.shape[0], n_phases, n_modes))
        for start in starts[first::n_workers]:
            stop = min(start + rows, n_times)
            a = arg[: stop - start]
            b = logs[: stop - start]
            if step is None:
                s = phase[: stop - start]
                np.multiply(t[start:stop, :, None], lam1, out=s)
                np.sin(s, out=s)
                np.square(s, out=s)
                np.multiply(s, coef, out=a)
            else:
                head = t[start:stop:_GRID_BLOCK, :, None] * lam1
                shape = (head.shape[0], _GRID_BLOCK, n_chains, n_modes)
                s = arg[: shape[0] * _GRID_BLOCK].reshape(shape)
                c = logs[: shape[0] * _GRID_BLOCK].reshape(shape)
                np.multiply(np.sin(head)[:, None], cos_offset, out=s)
                np.multiply(np.cos(head)[:, None], sin_offset, out=c)
                np.add(s, c, out=s)
                np.square(a, out=a)
            _log_factors(a, b if core else None, cinv)
            if core:
                np.add.reduce(b, axis=-1, out=log_core[start:stop])
            np.add.reduce(a, axis=-1, out=log_le[start:stop])

    list(_in_order(work, range(n_workers), n_workers))
    log_le *= 2.0
    return log_le, log_core, -2.0 * np.add.reduce(np.log1p(cinv), axis=-1)


def echo_point(table: ModeTable, t) -> EchoPoint:
    """Echo, its log, the linear overlap echo and both bounds from one kernel pass.

    ``t`` is a time, negative values allowed, or an array of them; it must
    be finite.  For one chain's table a scalar gives Python floats and an
    array gives arrays shaped like it.  For a block of chains (see
    :func:`model._blocks`) ``t`` is ``(n_times,)``, times that every chain
    shares, or ``(chains, n_times)``, row ``i`` the times of chain ``i``,
    and every field is ``(chains, n_times)``, also when the chains are
    identical (``t`` and ``log_le`` as read-only views).  Row ``i`` is bit
    for bit ``echo_point(mode_table(table.params[i]), t[i])`` (``t`` for
    shared times), except that a block of several chains takes a grid row
    of their own times by ``np.sin``, to a few ulps of the phase.  See
    :class:`EchoPoint`.
    """
    t_arr = np.asarray(t, dtype=float)
    n_chains = table.n_chains
    block = isinstance(table.params, tuple)
    if block and (t_arr.ndim not in (1, 2) or t_arr.ndim == 2 and t_arr.shape[0] != n_chains):
        raise ValueError(f"times of a block of {n_chains} chains must have shape (n_times,) "
                         f"or ({n_chains}, n_times), got {t_arr.shape}")
    if not np.isfinite(t_arr).all():
        raise ValueError("times must be finite")
    log_le, log_core, log_purity = _kernel(
        table, t_arr.T if t_arr.ndim == 2 and block else t_arr.reshape(-1, 1))
    if block:
        # a column that every chain shares is repeated, so a block keeps its chain axis
        shape = (n_chains, t_arr.shape[-1])
        t_arr, log_le, log_core = (np.broadcast_to(x, shape) for x in (t_arr, log_le.T, log_core.T))
        log_purity = np.reshape(log_purity, (-1, 1))
    else:
        log_le, log_core = log_le.reshape(t_arr.shape), log_core.reshape(t_arr.shape)
    purity = np.exp(log_purity)
    core = np.exp(log_core)
    lef = purity * core
    fields = dict(t=t_arr, le=np.exp(log_le), log_le=log_le, lef=lef, lower=core,
                  upper=lef + (1.0 - purity))
    if t_arr.ndim == 0:
        fields = {name: float(value) for name, value in fields.items()}
    return EchoPoint(**fields)
