"""Infinite-time averages and variance of the echo, from per-mode phase moments.

The echo is a product of per-mode factors, each a function of one phase
``phi = lam1 * t`` only.  With incommensurate frequencies the phases of a
long time average are independent and uniform, so every long-time moment
of the echo is a product of single-mode phase averages.  One factor is

    f(phi) = ((c + r) / (1 + c))**2,   r = sqrt(1 - m sin(phi)**2),

with ``c = cinv`` and ``m = -b``.  Its mean ``<f>`` has a closed form
through the complete elliptic integral ``E(m)``.  The variance also needs
each mode's centred moment ``v = <(f - <f>)**2>``: a midpoint rule in the
phase where ``m <= 0.5`` and the closed form in ``E(m)`` and ``K(m)``
above it.  Either way every mode costs a fixed number of operations, over
the whole domain ``0 <= m <= 1``.  :func:`long_time` takes these moments
once per table and returns them with the initial purity, the three numbers
the bound connects.

All of that is elementwise per mode, and each sum runs over the modes of
one chain.  So one private route, :func:`_long_time_rows`, takes the
statistics of a :class:`model.ModeTable`, one chain's table or a block of
many equal-length chains with ``(chains, modes)`` columns, as ``scan``
builds for its grid points, and :func:`long_time` is its one-chain view
with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModeTable
from .special import _elliptic_ek

__all__ = ["LongTime", "long_time"]

# modes with m at most this take the midpoint rule, the others the closed
# form, which cancels as m -> 0
_MIDPOINT_MAX_M = 0.5
# the 64-point midpoint rule on [0, pi): f is symmetric about pi/2, so its
# nodes on [0, pi/2) suffice.  f is analytic in a strip of half-width
# acosh(1/sqrt(m)) >= 0.88, so the rule is exact to rounding.
_MIDPOINT_NODES = 32
# logs of the smallest normal and the largest float64: the variance's direct
# product exp(2 s1) * expm1(S) is kept only while both factors stay in range
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class LongTime:
    """Long-time statistics of one mode table, as the ``timeseries`` summary writes them.

    ``purity`` is that of the initial Gibbs state, ``prod (1 + cinv)**-2``,
    and ``d_eff = 1 / purity`` the number of states an equally mixed state
    with the same purity would occupy; ``log_purity`` is kept alongside
    because ``d_eff`` overflows for long chains at high temperature.
    ``mean_le`` and ``var_le`` are the infinite-time mean and variance of
    the echo, and ``mean_lef`` is that of the linear overlap echo, which is
    the purity of the dephased state: ``purity * prod (1 - (1 - cinv**2) *
    alpha / 2)``.  ``smallquench_var`` is the small-rotation term only: the
    leading variance, quartic in the angle differences, which holds for
    small quenches and is no bound elsewhere (a strong quench can put it
    far above 1/4, the largest variance of a quantity in [0, 1]).
    ``var_le`` is the variance at any quench strength.
    """

    d_eff: float
    purity: float
    log_purity: float
    mean_le: float
    mean_lef: float
    smallquench_var: float
    var_le: float


def _mean_factors(m: np.ndarray, cinv: np.ndarray, one_minus_cinv: np.ndarray,
                  alpha: np.ndarray) -> np.ndarray:
    """Per-mode phase average ``<f>``, the time average of each echo factor.

    ``m = (1 - cinv**2) * alpha`` is ``-b``, and every argument has the
    shape of ``m``.  Each mode contributes ``1 - (1 - cinv) * alpha / 2 +
    g`` where ``g`` collects the square-root part of the factor through
    ``E(m)``.  Modes with ``m = 0`` or in the ground state contribute no
    ``g`` term.
    """
    pref = 2.0 * cinv / (1.0 + cinv) ** 2
    g = np.zeros_like(m)
    active = (pref > 0.0) & (m > 0.0)
    if np.any(active):
        mb = m[active]
        g[active] = pref[active] * ((2.0 / np.pi) * _elliptic_ek(mb)[0] + mb / 4.0 - 1.0)
    return 1.0 - one_minus_cinv * alpha / 2.0 + g


def _centred_midpoint(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``v`` by the midpoint rule, on ``g = f - 1`` so that nothing cancels.

    ``g = -m s (r + 1 + 2c) / ((1 + r) (1 + c)**2)`` with ``s = sin(phi)**2``
    is O(m) with no O(1) part, where ``f`` itself would lose ``eps / m``.
    The moments are taken about ``g`` at ``s = 1/2``, which is within O(m**2)
    of the mean, so ``<d**2> - <d>**2`` of ``d = g - g(1/2)`` loses nothing
    either.  The loop runs over the nodes, so memory stays one array per mode.
    """
    scale = -m / (1.0 + c) ** 2
    shift = 1.0 + 2.0 * c

    def g(s):
        r = np.sqrt(1.0 - m * s)
        return s * scale * (r + shift) / (1.0 + r)

    centre = g(0.5)
    sum1 = np.zeros_like(m)
    sum2 = np.zeros_like(m)
    for node in range(_MIDPOINT_NODES):
        d = g(math.sin((node + 0.5) * (0.5 * math.pi / _MIDPOINT_NODES)) ** 2) - centre
        sum1 += d
        sum2 += d * d
    return sum2 / _MIDPOINT_NODES - (sum1 / _MIDPOINT_NODES) ** 2


def _centred_closed_form(m: np.ndarray, c: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``v = <(c + r)**4> / (1 + c)**4 - <f>**2`` from the moments of ``r``.

    ``<r> = 2E/pi``, ``<r**2> = 1 - m/2``,
    ``<r**3> = (2/pi) (2 (2 - m) E - (1 - m) K) / 3`` and
    ``<r**4> = 1 - m + 3 m**2 / 8``; at ``m = 1``, ``(1 - m) K`` is 0.
    """
    e, k = _elliptic_ek(m)
    km = np.zeros_like(m)
    np.multiply(1.0 - m, k, out=km, where=m < 1.0)
    r1 = (2.0 / math.pi) * e
    r2 = 1.0 - m / 2.0
    r3 = (2.0 / math.pi) * (2.0 * (2.0 - m) * e - km) / 3.0
    r4 = 1.0 - m + 0.375 * m * m
    fourth = c**4 + 4.0 * c**3 * r1 + 6.0 * c**2 * r2 + 4.0 * c * r3 + r4
    return fourth / (1.0 + c) ** 4 - mean**2


def _centred(m: np.ndarray, c: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per-mode centred moment ``v``, each mode on its branch of ``m``;
    ``c = cinv`` and ``mean = <f>`` have the shape of ``m``."""
    v = np.empty_like(m)
    weak = m <= _MIDPOINT_MAX_M
    v[weak] = _centred_midpoint(m[weak], c[weak])
    v[~weak] = _centred_closed_form(m[~weak], c[~weak], mean[~weak])
    return v


def _long_time_rows(table: ModeTable) -> dict:
    """Every :class:`LongTime` field of a table or a block of equal-length chains.

    The table's columns are ``(chains, modes)`` arrays, or ``(modes,)`` rows
    that every chain shares (see :class:`model.ModeTable`).  Each field
    comes back as an array of one value per chain (one shared value when
    every column is a row), and row ``i`` holds the bits of
    :func:`long_time` of chain ``i`` alone: the per-mode work is elementwise
    and each sum runs over one chain's modes.
    """
    alpha, cinv, one_minus_cinv, one_minus_cinv2, dtheta = np.broadcast_arrays(*np.atleast_2d(
        table.alpha, table.cinv, table.one_minus_cinv, table.one_minus_cinv2, table.dtheta))
    log_purity = -2.0 * np.add.reduce(np.log1p(cinv), axis=-1)
    with np.errstate(over="ignore"):
        d_eff = np.exp(-log_purity)
    m = one_minus_cinv2 * alpha
    mean = _mean_factors(m, cinv, one_minus_cinv, alpha)
    s1 = np.add.reduce(np.log(mean), axis=-1)
    spread = np.add.reduce(np.log1p(_centred(m, cinv, mean) / mean**2), axis=-1)
    var_le = np.empty_like(s1)
    logs = (2.0 * s1 < _LOG_TINY) | (spread > _LOG_MAX)
    s = spread[logs]
    var_le[logs] = np.exp(2.0 * s1[logs] + s + np.log(-np.expm1(-s)))
    var_le[~logs] = np.exp(2.0 * s1[~logs]) * np.expm1(spread[~logs])
    purity = np.exp(log_purity)
    core = np.exp(np.add.reduce(np.log(1.0 - m / 2.0), axis=-1))
    return dict(
        d_eff=d_eff,
        purity=purity,
        log_purity=log_purity,
        mean_le=np.exp(s1),
        mean_lef=purity * core,
        smallquench_var=0.125 * np.add.reduce(one_minus_cinv**2 * dtheta**4, axis=-1),
        var_le=var_le,
    )


def long_time(table: ModeTable) -> LongTime:
    """Initial purity, infinite-time means and variance of one mode table.

    The phase averages ``<f>`` and the centred moments ``v`` are taken once.
    The averaged square and the squared average of the echo are both
    exponentially small in the chain length, so the variance is taken as
    ``exp(2 s1) * expm1(S)`` with ``S = sum log1p(v / <f>**2)``, where
    ``s1 = sum log <f>`` is also the log of ``mean_le``.  Where ``exp(2 s1)``
    would underflow or ``expm1(S)`` overflow, the product is taken in log
    space instead, as ``exp(2 s1 + S + log(-expm1(-S)))``, which is finite
    or an underflowed 0.  This is the one-chain view of the block route
    that ``scan`` runs on many chains at once.
    """
    rows = _long_time_rows(table)
    return LongTime(**{name: float(values[0]) for name, values in rows.items()})


# Not public: perfbench's ladder check imports this name, so it stays until
# perfbench reads ``long_time(table).mean_le`` itself.
def avg_loschmidt(table: ModeTable) -> float:
    """Infinite-time mean of the echo, ``long_time(table).mean_le``."""
    return long_time(table).mean_le
