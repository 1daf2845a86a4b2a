"""Finite-temperature Loschmidt echo of a quenched quasi-free chain.

The echo factorizes over momentum modes.  Every quantity here (the echo,
the linear overlap echo and both bounds) is a product over modes of the
same factors ``1 - (1 - cinv**2) * alpha * sin(lam1 t)**2``, so one private
kernel evaluates them all.  It takes a :class:`model.ModeTable`, one
chain's table or a block of equal-length chains (see
:func:`model._blocks`) whose thermal columns hold one row per chain, and
one column of times per chain, so :func:`echo_point` of a block gives each
chain the bits of its table alone.
A block whose chains share their times and their post-quench frequencies
``lam1`` (a temperature ladder) passes one time column and one ``lam1``
row, and the kernel takes each sine once for all of them.  Every time
column (a ``timeseries`` grid, the sampler's random times, a block's
per-chain times) takes ``sin**2`` of each phase as ``tan**2 / (1 +
tan**2)``, which is as accurate as ``np.sin(phase)**2`` and faster, since
numpy vectorises ``tan``.  The kernel checks a table against the factors'
floor once, before any chunk, and always works in log space, since
products of many sub-unit factors underflow for long chains.  It walks
the times in chunks of (times x chains x modes) work of a fixed byte
size, 1 MiB per buffer, so memory does not grow with the number of times
and a worker's buffers stay in its core's L2 cache.  When there is more than one chunk they run
on ``THERMALECHO_THREADS`` plain threads (default: the CPUs the process may
run on), each of which claims the next chunk when it finishes one; chunk
and block boundaries do not depend on the thread count or on which thread
takes a chunk, so neither do the results.  Each thread first pins itself
to one of the process's CPUs, in turn, and the calling thread stays as it
was: new threads start on the CPU of the thread that made them, and in a
young process Linux left them there, taking turns on one CPU, through a
whole 0.2 to 0.3 s kernel pass (a 20001-time grid of 999 modes, 2 CPUs).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import ModeTable

__all__ = ["EchoPoint", "echo_point"]

# the clamped quantity may dip below its analytic floor only by rounding dust
_CLAMP_SLACK = 1e-15

# float64 scratch per (chunk x n_modes) buffer; the value only affects speed.
# A worker streams its two buffers about 14 times per chunk, so both should
# fit in its core's L2 (2 MiB on a 2-core Xeon VM).  There, at 2 threads,
# median of 25 interleaved runs: a 20001-time grid of 999 modes took 129 ms
# at 4 MiB, 122 ms at 1 MiB and 140 ms at 256 KiB; a 5-rung ladder's 1e5
# samples of 25 modes took 143, 132 and 151 ms
_CHUNK_BYTES = 1 << 20

# the CPUs this process may run on (a cpuset or taskset may allow fewer
# than the host has), in order, looked up once at import: the pool's
# workers pin themselves to them in turn (see _in_order), and their count is
# the worker count when THERMALECHO_THREADS is unset.  Empty where os cannot
# tell, and then the count is os.cpu_count()
_CPUS = tuple(sorted(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else ()
_CPU_COUNT = len(_CPUS) or os.cpu_count() or 1


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


def _in_order(fn, items):
    """Yield ``fn(item)`` for each item of the sized ``items``, in order.

    The pool has ``min(_thread_count(), len(items))`` workers.  With more
    than one the items run on that many plain threads, and each worker
    claims the next unclaimed item from one shared, locked counter when it
    finishes one, so a worker that is held up holds back no share of the
    others' work.  Before its first claim, worker ``k`` pins itself to CPU
    ``_CPUS[k % len(_CPUS)]`` with ``os.sched_setaffinity(0, ...)``, which
    on Linux acts on the calling thread alone: new threads start on the CPU
    of the thread that made them, and in a young process Linux left both
    workers there through a whole 0.2 to 0.3 s kernel pass while the other
    CPU sat idle.  Where ``os`` has no ``sched_setaffinity``, or it raises
    ``OSError`` (say, for a CPU taken from the process's cpuset since
    import), the worker runs unpinned.  Pinning moves no item and no result,
    and since workers claim their items, one whose CPU is busy just claims
    fewer.  The calling thread is never pinned.  An exception is raised when
    its item's turn comes, after the results before it.  When the caller
    stops early, by an exception or by closing the generator, no further
    item is claimed and every worker is joined before control returns.  With
    one worker each item runs on the calling thread when its result is asked
    for, and no thread is started.
    """
    n_workers = min(_thread_count(), len(items))
    if n_workers <= 1:
        yield from map(fn, items)
        return
    items = list(items)
    finished = [threading.Event() for _ in items]
    outcome: list = [None] * len(items)
    lock = threading.Lock()
    claimed = 0

    def claim():
        nonlocal claimed
        with lock:
            if claimed == len(items):
                return None
            claimed += 1
            return claimed - 1

    def run(worker: int) -> None:
        setaffinity = getattr(os, "sched_setaffinity", None)
        if setaffinity is not None and _CPUS:
            try:
                setaffinity(0, {_CPUS[worker % len(_CPUS)]})
            except OSError:
                pass
        while (i := claim()) is not None:
            try:
                outcome[i] = (fn(items[i]), None)
            except BaseException as exc:  # raised again on the calling thread, at item i
                outcome[i] = (None, exc)
            finished[i].set()

    workers = [threading.Thread(target=run, args=(k,)) for k in range(n_workers)]
    for worker in workers:
        worker.start()
    try:
        for i, done in enumerate(finished):
            done.wait()
            result, exc = outcome[i]
            outcome[i] = None
            if exc is not None:
                raise exc
            yield result
    finally:
        with lock:
            claimed = len(items)
        for worker in workers:
            worker.join()


def _log_factors(a: np.ndarray, logs: np.ndarray | None, cinv) -> None:
    """Turn ``a = coef * sin(t * lam1)**2`` into per-mode log factors, in place.

    The last axes of ``a`` are chains and modes, and ``cinv`` holds one
    value per chain and mode.  On return ``logs`` (if not None) holds
    ``log(arg)`` with ``arg = 1 - a`` clamped to its floor ``cinv**2``, and ``a``
    holds ``log((cinv + sqrt(arg)) / (1 + cinv))``.  ``arg`` cannot exceed
    1, since the term it subtracts is a product of squares; the clamp only
    removes rounding dust, since :func:`_kernel` has checked the table
    against the floor before any chunk.
    """
    floor = cinv**2
    np.subtract(1.0, a, out=a)
    np.maximum(a, floor, out=a)
    with np.errstate(divide="ignore"):
        if logs is not None:
            np.log(a, out=logs)
        np.sqrt(a, out=a)
        np.add(a, cinv, out=a)
        np.divide(a, 1.0 + cinv, out=a)
        np.log(a, out=a)


def _sin_squared(s: np.ndarray, scratch: np.ndarray) -> None:
    """Turn phases ``s`` into ``sin(s)**2``, in place, as ``tan**2 / (1 + tan**2)``.

    numpy vectorises float64 ``tan`` but not ``sin``: on a 2-core AVX-512
    Xeon VM with numpy 2.4, ``np.sin`` took 21 ns and ``np.tan`` 6.5 ns per
    phase for phases up to 5e5.  The quotient is within 5e-16 of the exact
    ``sin**2``, relative, where ``np.sin(s)**2`` is within 3.3e-16, for
    phases up to 1e300; it is 0 at a phase of +-0, never leaves [0, 1], and
    stays finite at the double nearest an odd multiple of pi/2, where
    ``tan`` is about -2e18.
    ``scratch`` is a buffer of the shape of ``s`` for ``1 + tan**2``.
    """
    np.tan(s, out=s)
    np.square(s, out=s)
    np.add(s, 1.0, out=scratch)
    np.divide(s, scratch, out=s)


def _kernel(table: ModeTable, t: np.ndarray, core: bool = True):
    """``(log_le, log_core, log_purity)`` of a table or a block of equal-length chains.

    A block's thermal columns are ``(chains, modes)``, one row per chain,
    and its other columns are too, or are ``(modes,)`` rows that every
    chain shares (see :class:`model.ModeTable`); ``t`` is ``(times,
    chains)``: column ``i`` holds the times of chain ``i``, and a single
    column holds times that every chain shares.  The
    phases ``t * lam1`` and their ``sin**2`` are taken at the broadcast
    shape of the time columns and the ``lam1`` rows, so chains that share
    both share each sine; only ``coef * sin**2`` onward, with ``coef = (1 -
    cinv**2) * alpha``, runs at the full (times, chains, modes) shape.
    Every time column takes ``sin**2`` from the tangent (see
    :func:`_sin_squared`).
    Before any chunk the table is checked against the floor of ``arg``
    (see :func:`_log_factors`): ``1 - coef``, the least ``arg`` at any
    time, must not fall below ``cinv**2`` by more than ``_CLAMP_SLACK``,
    else ``FloatingPointError`` is raised, also where no time reaches it.
    The chunks run through :func:`_in_order`, each worker with buffers of
    its own.
    ``log_core`` is the sum over a chain's modes of ``log(arg)`` and
    ``log_le`` twice the sum of ``log((cinv + sqrt(arg)) / (1 + cinv))``
    (see :func:`_log_factors`), both ``(times, chains)``, one column per
    row of the block's ``cinv`` (a single column for one chain's table);
    with ``core`` false ``log_core`` is None and never formed.
    ``log_purity`` is ``-2`` times the sum of ``log1p(cinv)``, one per
    chain.
    """
    lam1, cinv = table.lam1, table.cinv
    # an infinite phase would turn its sine, and every factor after it, into nan
    t_peak = float(np.abs(t).max()) if t.size else 0.0
    lam1_peak = float(np.abs(lam1).max())
    if not math.isfinite(t_peak * lam1_peak):
        raise ValueError(f"the phase t * lam1 overflows: max |t| = {t_peak:g} times "
                         f"max lam1 = {lam1_peak:g} exceeds the float64 range")
    coef = table.one_minus_cinv2 * table.alpha
    # arg = 1 - coef * sin**2 is least where sin**2 = 1, so one check of the
    # table bounds every chunk's arg from below; a nan fails it too
    if not ((1.0 - coef) > cinv**2 - _CLAMP_SLACK).all():
        raise FloatingPointError(
            "echo factor fell below its floor cinv**2; the mode table is inconsistent"
        )
    n_times = t.shape[0]
    n_phases, n_modes = np.broadcast_shapes(t.shape[1:] + (1,), lam1.shape)
    n_chains = table.n_chains
    rows = max(1, _CHUNK_BYTES // (8 * n_chains * n_modes))
    starts = range(0, n_times, rows)
    log_le = np.empty((n_times, n_chains))
    log_core = np.empty((n_times, n_chains)) if core else None
    # each thread's chunk buffers, made for its first chunk
    own = threading.local()

    def buffers():
        if not hasattr(own, "buffers"):
            arg = np.empty((min(rows, n_times), n_chains, n_modes))
            logs = np.empty_like(arg)
            # the full-shape buffer takes the phases in place unless they are shared
            phase = arg if n_phases == n_chains else np.empty((arg.shape[0], n_phases, n_modes))
            # 1 + tan**2 goes to the head of the logs buffer, free until _log_factors
            denom = logs.reshape(-1)[: phase.size].reshape(phase.shape)
            own.buffers = arg, logs, phase, denom
        return own.buffers

    def work(start: int) -> None:
        arg, logs, phase, denom = buffers()
        stop = min(start + rows, n_times)
        a = arg[: stop - start]
        b = logs[: stop - start]
        s = phase[: stop - start]
        np.multiply(t[start:stop, :, None], lam1, out=s)
        _sin_squared(s, denom[: stop - start])
        np.multiply(s, coef, out=a)
        _log_factors(a, b if core else None, cinv)
        if core:
            np.add.reduce(b, axis=-1, out=log_core[start:stop])
        np.add.reduce(a, axis=-1, out=log_le[start:stop])

    for _ in _in_order(work, starts):
        pass
    log_le *= 2.0
    return log_le, log_core, -2.0 * np.add.reduce(np.log1p(cinv), axis=-1)


def echo_point(table: ModeTable, t) -> EchoPoint:
    """Echo, its log, the linear overlap echo and both bounds from one kernel pass.

    ``t`` is a time, negative values allowed, or an array of them; it must
    be finite.  For one chain's table a scalar gives Python floats and an
    array gives arrays shaped like it.  For a block of chains (see
    :func:`model._blocks`) ``t`` is ``(n_times,)``, times that every chain
    shares, or ``(chains, n_times)``, row ``j`` the times of the block's
    ``j``-th chain, and every field is ``(chains, n_times)``, also when the
    chains are identical (shared times ``t`` as a read-only view).  For the
    block that ``_blocks(columns)`` yields with ``indices``, row ``j`` is
    bit for bit ``echo_point(mode_table(p), t[j])`` (``t`` for shared
    times), where ``p`` is the :class:`model.QuenchParams` of the values that
    ``columns`` hold at ``indices[j]``.  Every time takes ``sin**2`` from
    ``np.tan``.  See :class:`EchoPoint`.
    """
    t_arr = np.asarray(t, dtype=float)
    n_chains = table.n_chains
    block = table.cinv.ndim == 2
    if block and (t_arr.ndim not in (1, 2) or t_arr.ndim == 2 and t_arr.shape[0] != n_chains):
        raise ValueError(f"times of a block of {n_chains} chains must have shape (n_times,) "
                         f"or ({n_chains}, n_times), got {t_arr.shape}")
    if not np.isfinite(t_arr).all():
        raise ValueError("times must be finite")
    log_le, log_core, log_purity = _kernel(
        table, t_arr.T if t_arr.ndim == 2 and block else t_arr.reshape(-1, 1))
    if block:
        # shared times are repeated, so every field keeps the block's chain axis
        t_arr = np.broadcast_to(t_arr, (n_chains, t_arr.shape[-1]))
        log_le, log_core, log_purity = log_le.T, log_core.T, log_purity[:, None]
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
