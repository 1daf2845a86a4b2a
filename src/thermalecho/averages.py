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
the whole domain ``0 <= m <= 1``.
"""

from __future__ import annotations

import math

import numpy as np

from .echo import effective_dimension
from .model import ModeTable
from .special import _elliptic_ek

__all__ = [
    "avg_linearized",
    "avg_loschmidt",
    "smallquench_variance",
    "variance_le",
]

# modes with m at most this take the midpoint rule, the others the closed
# form, which cancels as m -> 0
_MIDPOINT_MAX_M = 0.5
# the 64-point midpoint rule on [0, pi): f is symmetric about pi/2, so its
# nodes on [0, pi/2) suffice.  f is analytic in a strip of half-width
# acosh(1/sqrt(m)) >= 0.88, so the rule is exact to rounding.
_MIDPOINT_NODES = 32


def _mean_factors(table: ModeTable) -> np.ndarray:
    """Per-mode phase average ``<f>``, the time average of each echo factor.

    Each mode contributes ``1 - (1 - cinv) * alpha / 2 + g`` where ``g``
    collects the square-root part of the factor through ``E(-b)``.  Modes
    with ``b = 0`` or in the ground state contribute no ``g`` term.
    """
    b = table.b
    pref = 2.0 * table.cinv / (1.0 + table.cinv) ** 2
    g = np.zeros_like(b)
    active = (pref > 0.0) & (b < 0.0)
    if np.any(active):
        mb = -b[active]
        g[active] = pref[active] * ((2.0 / np.pi) * _elliptic_ek(mb)[0] + mb / 4.0 - 1.0)
    return 1.0 - table.one_minus_cinv * table.alpha / 2.0 + g


def avg_loschmidt(table: ModeTable) -> float:
    """Infinite-time average of the echo, the product of the ``<f>``."""
    return float(np.exp(np.sum(np.log(_mean_factors(table)))))


def avg_linearized(table: ModeTable) -> float:
    """Infinite-time average of the linear overlap echo.

    Equals the purity of the dephased state: the initial purity times
    ``prod (1 - (1 - cinv**2) * alpha / 2)``.
    """
    factors = 1.0 - table.one_minus_cinv2 * table.alpha / 2.0
    core = np.exp(np.sum(np.log(factors)))
    return float(np.exp(effective_dimension(table).log_purity) * core)


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


def _phase_moments(table: ModeTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode phase mean ``<f>`` and centred moment ``v``."""
    m = -table.b
    c = table.cinv
    mean = _mean_factors(table)
    v = np.empty_like(m)
    weak = m <= _MIDPOINT_MAX_M
    v[weak] = _centred_midpoint(m[weak], c[weak])
    v[~weak] = _centred_closed_form(m[~weak], c[~weak], mean[~weak])
    return mean, v


def variance_le(table: ModeTable) -> float:
    """Infinite-time variance of the echo.

    The averaged square and the squared average are both exponentially
    small in the chain length, so the difference is taken as
    ``exp(2 s1) * expm1(sum log1p(v / <f>**2))`` with ``s1 = sum log <f>``.
    """
    mean, v = _phase_moments(table)
    s1 = float(np.sum(np.log(mean)))
    return float(np.exp(2.0 * s1) * np.expm1(np.sum(np.log1p(v / mean**2))))


def smallquench_variance(table: ModeTable) -> float:
    """Leading small-rotation variance, quartic in the angle differences."""
    return float(0.125 * np.sum(table.one_minus_cinv**2 * table.dtheta**4))
