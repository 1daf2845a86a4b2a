"""Infinite-time averages and variance of the echo, in closed form.

Time-averaging the mode product turns each factor into a dc term plus a
series in the per-mode coefficient ``b = -(1 - cinv**2) * alpha``.  The
average of the echo itself has a closed form through the complete elliptic
integral; the average of its square only has the series.  Both are summed
by multiplicative recurrences, so no factorials or Gamma functions appear
and the terms stay well scaled out to hundreds of orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .echo import effective_dimension
from .model import ModeTable
from .special import elliptic_e

__all__ = [
    "AverageReport",
    "SeriesConvergenceError",
    "average_report",
    "avg_linearized",
    "avg_loschmidt",
    "avg_loschmidt_series",
    "smallquench_variance",
    "variance_le",
]

_SERIES_MAX_TERMS = 200
_SERIES_RTOL = 1e-15


class SeriesConvergenceError(ArithmeticError):
    """Raised when the time-average series does not settle within 200 terms.

    The per-mode terms scale like ``|b|**m / m**1.5``, so convergence to a
    relative 1e-15 within 200 terms requires roughly ``|b| < 0.84``.  Modes
    quenched nearly orthogonally at low temperature can exceed that; the
    error reports the offending mode instead of returning a truncated sum.
    """


@dataclass(frozen=True)
class AverageReport:
    """Long-time statistics of one quench.

    ``mean_le`` and ``mean_lef`` are the infinite-time averages of the echo
    and of the linear overlap echo, ``var_le`` the variance of the echo,
    ``smallquench_var`` its leading small-rotation approximation, and
    ``equilibrium_purity`` the purity of the time-averaged (dephased) state,
    which coincides with ``mean_lef``.
    """

    mean_le: float
    mean_lef: float
    var_le: float
    smallquench_var: float
    equilibrium_purity: float


def avg_loschmidt(table: ModeTable) -> float:
    """Infinite-time average of the echo, elliptic-integral closed form.

    Each mode contributes ``1 - (1 - cinv) * alpha / 2 + g`` where ``g``
    collects the square-root part of the factor through ``E(-b)``.  Modes
    with ``b = 0`` or in the ground state contribute no ``g`` term; they are
    masked out so the elliptic integral only sees arguments in ``[0, 1)``.
    """
    b = table.b
    pref = 2.0 * table.cinv / (1.0 + table.cinv) ** 2
    g = np.zeros_like(b)
    active = (pref > 0.0) & (b < 0.0)
    if np.any(active):
        mb = -b[active]
        g[active] = pref[active] * ((2.0 / np.pi) * elliptic_e(mb) + mb / 4.0 - 1.0)
    factors = 1.0 - table.one_minus_cinv * table.alpha / 2.0 + g
    return float(np.exp(np.sum(np.log(factors))))


def _series_factors(table: ModeTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode series sums ``(G1, G2)`` for the averaged echo and its square.

    ``1 + G1`` is the time average of one echo factor and ``1 + G2`` the
    average of its square.  ``h[m]`` are the coefficients of the half-power
    expansion of the square root; ``g[m]`` its square by Cauchy product; the
    time average weights each power ``m`` by ``4**-m * binom(2m, m)``,
    generated as a running product.
    """
    n = table.n_modes
    b_arr = table.b
    g1_arr = np.zeros(n)
    g2_arr = np.zeros(n)
    for i in range(n):
        b = b_arr[i]
        if b == 0.0:
            continue
        cinv = table.cinv[i]
        pref = 2.0 * cinv / (1.0 + cinv) ** 2
        h = np.zeros(_SERIES_MAX_TERMS + 1)
        g1 = 0.0
        g2 = 0.0
        w = 1.0
        binom_half = 1.0
        b_pow = 1.0
        converged = False
        for m in range(1, _SERIES_MAX_TERMS + 1):
            w *= (2.0 * m - 1.0) / (2.0 * m)
            binom_half *= (1.5 - m) / m
            b_pow *= b
            h[m] = b / (1.0 + cinv) if m == 1 else pref * b_pow * binom_half
            gm = 2.0 * h[m] + float(np.dot(h[1:m], h[m - 1 : 0 : -1]))
            t1 = h[m] * w
            t2 = gm * w
            g1 += t1
            g2 += t2
            if abs(t1) <= _SERIES_RTOL * abs(1.0 + g1) and abs(t2) <= _SERIES_RTOL * abs(1.0 + g2):
                converged = True
                break
        if not converged:
            raise SeriesConvergenceError(
                f"mode k={table.k[i]:.6f} with b={b:.6f} did not converge "
                f"in {_SERIES_MAX_TERMS} terms"
            )
        g1_arr[i] = g1
        g2_arr[i] = g2
    return g1_arr, g2_arr


def avg_loschmidt_series(table: ModeTable) -> float:
    """Infinite-time average of the echo summed term by term.

    Agrees with :func:`avg_loschmidt` to better than 1e-10; kept as an
    independent route.
    """
    g1, _ = _series_factors(table)
    return float(np.exp(np.sum(np.log1p(g1))))


def avg_linearized(table: ModeTable) -> float:
    """Infinite-time average of the linear overlap echo.

    Equals the purity of the dephased state: the initial purity times
    ``prod (1 - (1 - cinv**2) * alpha / 2)``.
    """
    factors = 1.0 - table.one_minus_cinv2 * table.alpha / 2.0
    core = np.exp(np.sum(np.log(factors)))
    return float(np.exp(effective_dimension(table).log_purity) * core)


def variance_le(table: ModeTable) -> float:
    """Infinite-time variance of the echo.

    Both the averaged square and the squared average are exponentially small
    in the chain length, so the difference is taken as
    ``exp(2 s1) * expm1(s2 - 2 s1)`` with ``s1 = sum log(1 + G1)`` and
    ``s2 = sum log(1 + G2)``.

    Raises
    ------
    SeriesConvergenceError
        If a mode coefficient is too close to -1 for the 200-term cap.
    """
    g1, g2 = _series_factors(table)
    s1 = float(np.sum(np.log1p(g1)))
    s2 = float(np.sum(np.log1p(g2)))
    return float(np.exp(2.0 * s1) * np.expm1(s2 - 2.0 * s1))


def smallquench_variance(table: ModeTable) -> float:
    """Leading small-rotation variance, quartic in the angle differences."""
    return float(0.125 * np.sum(table.one_minus_cinv**2 * table.dtheta**4))


def average_report(table: ModeTable) -> AverageReport:
    """All long-time statistics of a quench in one pass."""
    mean_lef = avg_linearized(table)
    return AverageReport(
        mean_le=avg_loschmidt(table),
        mean_lef=mean_lef,
        var_le=variance_le(table),
        smallquench_var=smallquench_variance(table),
        equilibrium_purity=mean_lef,
    )
