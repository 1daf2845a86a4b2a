"""Finite-temperature Loschmidt echo of a quenched quasi-free chain.

The echo factorizes over momentum modes.  Every quantity here (the echo,
the linear overlap echo and both bounds) is a product over modes of the
same factors ``1 - (1 - cinv**2) * alpha * sin(lam1 t)**2``, so one private
kernel evaluates them all.  It always works in log space, since products of
many sub-unit factors underflow for long chains, and it walks the times in
chunks of fixed byte size, so memory does not grow with the number of
times.  When there is more than one chunk the chunks are spread over one
thread pool of ``THERMALECHO_THREADS`` workers (default: the CPU count);
chunk boundaries do not depend on the thread count, so neither do the
results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ModeTable

__all__ = [
    "EchoPoint",
    "EffectiveDimension",
    "bounds",
    "echo_point",
    "effective_dimension",
    "linearized",
    "log_loschmidt",
    "loschmidt",
]

# the clamped quantity may dip below its analytic floor only by rounding dust
_CLAMP_SLACK = 1e-15

# float64 scratch per (chunk x n_modes) buffer; the value only affects speed
_CHUNK_BYTES = 4 << 20

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

    Fields are floats for a scalar time and arrays shaped like the times
    otherwise.
    """

    t: float | np.ndarray
    le: float | np.ndarray
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


def _kernel(table: ModeTable, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-time ``(log_le, log_core)`` over a 1-D time array.

    ``log_core`` is the sum over modes of ``log(arg)`` with
    ``arg = 1 - (1 - cinv**2) * alpha * sin(lam1 t)**2``, clamped to its
    analytic floor ``cinv**2``, and ``log_le`` twice the sum of
    ``log((cinv + sqrt(arg)) / (1 + cinv))``.  An excursion of ``arg`` below
    the floor beyond rounding dust means the table is inconsistent and
    raises ``FloatingPointError``.  ``arg`` cannot exceed 1, since the term
    it subtracts is a product of squares.
    """
    n_modes = table.n_modes
    rows = max(1, _CHUNK_BYTES // (8 * n_modes))
    starts = range(0, t.size, rows)
    n_workers = min(_thread_count(), len(starts))
    coef = table.one_minus_cinv2 * table.alpha
    floor = table.cinv**2
    lowest = floor - _CLAMP_SLACK
    norm = 1.0 + table.cinv
    log_le = np.empty(t.size)
    log_core = np.empty(t.size)

    def work(first: int) -> None:
        arg = np.empty((min(rows, t.size), n_modes))
        logs = np.empty_like(arg)
        with np.errstate(divide="ignore"):
            for start in starts[first::n_workers]:
                stop = min(start + rows, t.size)
                a = arg[: stop - start]
                b = logs[: stop - start]
                np.multiply.outer(t[start:stop], table.lam1, out=a)
                np.sin(a, out=a)
                np.square(a, out=a)
                np.multiply(a, coef, out=a)
                np.subtract(1.0, a, out=a)
                if not (a.min(axis=0) > lowest).all():
                    raise FloatingPointError(
                        "echo factor fell below its floor cinv**2; the mode table is inconsistent"
                    )
                np.maximum(a, floor, out=a)
                np.log(a, out=b)
                np.add.reduce(b, axis=1, out=log_core[start:stop])
                np.sqrt(a, out=a)
                np.add(a, table.cinv, out=a)
                np.divide(a, norm, out=a)
                np.log(a, out=a)
                np.add.reduce(a, axis=1, out=log_le[start:stop])

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(work, range(n_workers)))
    elif n_workers == 1:
        work(0)
    log_le *= 2.0
    return log_le, log_core


def _evaluate(table: ModeTable, t):
    """Kernel output at ``t`` plus a function that gives a result ``t``'s shape.

    A scalar time gives Python floats; an array gives arrays shaped like it.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError("times must be finite")
    log_le, log_core = _kernel(table, t_arr.reshape(-1))

    def shaped(values: np.ndarray):
        out = values.reshape(t_arr.shape)
        return float(out) if t_arr.ndim == 0 else out

    return log_le, log_core, shaped


def log_loschmidt(table: ModeTable, t) -> np.ndarray | float:
    """Natural log of the Loschmidt echo, accurate for any chain length.

    Parameters
    ----------
    table
        Mode table of the quench.
    t
        Time, scalar or array; negative values are allowed.

    Returns
    -------
    ``ln L(t)`` with the same shape as ``t``.  At zero temperature the echo
    can touch zero exactly, in which case the log is ``-inf``.
    """
    log_le, _, shaped = _evaluate(table, t)
    return shaped(log_le)


def loschmidt(table: ModeTable, t) -> np.ndarray | float:
    """Loschmidt echo ``L(t)``, the Uhlmann fidelity squared between the
    initial Gibbs state and its evolved image under the post-quench chain.

    Values lie in ``[0, 1]`` with ``L(0) = 1``; zero is reachable only in
    the ground state.
    """
    log_le, _, shaped = _evaluate(table, t)
    return shaped(np.exp(log_le))


def linearized(table: ModeTable, t) -> np.ndarray | float:
    """Linear overlap echo ``Tr[rho(t) rho]``.

    The product of the initial purity and the per-mode linear factors.  It
    never exceeds the echo itself and coincides with it in the ground state.
    """
    _, log_core, shaped = _evaluate(table, t)
    return shaped(effective_dimension(table).purity * np.exp(log_core))


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


def bounds(table: ModeTable, t) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Two-sided bounds on the echo from the overlap echo alone.

    The lower bound is ``d_eff * Tr[rho(t) rho]``, which reduces to the bare
    product of the per-mode linear factors, and the upper bound adds the
    mixedness gap ``1 - Tr[rho**2]`` on top of ``Tr[rho(t) rho]``.  Both
    equal 1 at ``t = 0``.
    """
    _, log_core, shaped = _evaluate(table, t)
    purity = effective_dimension(table).purity
    core = np.exp(log_core)
    return shaped(core), shaped(purity * core + (1.0 - purity))


def echo_point(table: ModeTable, t) -> EchoPoint:
    """Echo, linear overlap echo and both bounds from one kernel pass.

    ``t`` is a scalar or an array; see :class:`EchoPoint`.
    """
    log_le, log_core, shaped = _evaluate(table, t)
    purity = effective_dimension(table).purity
    core = np.exp(log_core)
    lef = purity * core
    return EchoPoint(
        t=shaped(np.asarray(t, dtype=float)),
        le=shaped(np.exp(log_le)),
        lef=shaped(lef),
        lower=shaped(core),
        upper=shaped(lef + (1.0 - purity)),
    )
