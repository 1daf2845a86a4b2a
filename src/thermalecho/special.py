"""Self-contained special functions used by the closed-form averages.

Both routines are written against absolute-error targets well below the
tolerances of the formulas that consume them: the elliptic integral is good
to about 1e-14 over ``[0, 1)`` and the Bessel function to about 1e-11 over
``|x| <= 1e4``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bessel_j0", "elliptic_e"]

_J0_SERIES_CUTOFF = 13.0
_J0_ASYMPTOTIC_TERMS = 18
_AGM_MAX_ITER = 60


def elliptic_e(m) -> np.ndarray | float:
    """Complete elliptic integral of the second kind, parameter convention.

    ``E(m) = integral_0^{pi/2} sqrt(1 - m sin(t)**2) dt`` evaluated with the
    arithmetic-geometric mean, which converges quadratically; a few dozen
    iterations reach full double precision even for ``m`` within 1e-12 of 1.

    Parameters
    ----------
    m
        Parameter (the squared modulus), scalar or array, each in ``[0, 1)``.

    Raises
    ------
    ValueError
        If any entry lies outside ``[0, 1)``.
    """
    m_arr = np.asarray(m, dtype=float)
    scalar = m_arr.ndim == 0
    m_arr = np.atleast_1d(m_arr)
    if np.any(~np.isfinite(m_arr)) or np.any(m_arr < 0.0) or np.any(m_arr >= 1.0):
        raise ValueError("elliptic_e requires 0 <= m < 1")
    out = _elliptic_ek(m_arr)[0]
    return float(out[0]) if scalar else out


def _elliptic_ek(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``E(m)`` and ``K(m)`` of an unchecked array ``m`` in ``[0, 1]``.

    One AGM loop gives both: ``K = pi / (2 a)`` with ``a`` the limit of the
    means (DLMF 19.8.5) and ``E = K (1 - csum)``.  At ``m = 1`` the
    geometric mean is 0 and the loop would not converge, so those entries
    run as ``m = 0`` and take the limits ``E(1) = 1`` and ``K(1) = inf``.
    """
    edge = m == 1.0
    m = np.where(edge, 0.0, m)
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    csum = 0.5 * m
    pow2 = 1.0
    for _ in range(_AGM_MAX_ITER):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        pow2 *= 2.0
        csum = csum + 0.5 * pow2 * c * c
        if np.all(c <= np.finfo(float).eps * a):
            break
    k = math.pi / (2.0 * a)
    return np.where(edge, 1.0, k * (1.0 - csum)), np.where(edge, math.inf, k)


def _j0_series(x: np.ndarray) -> np.ndarray:
    # power series in q = x^2/4; at |x| <= 13 the largest term is ~1e4,
    # so cancellation costs at most ~1e-12 absolute
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for mm in range(1, 60):
        term = term * (-q) / (mm * mm)
        total = total + term
        if np.all(np.abs(term) <= 1e-18):
            break
    return total


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    # Hankel expansion: J0 = sqrt(2/(pi x)) (P cos(x - pi/4) - Q sin(x - pi/4));
    # truncated before the divergent tail matters (terms ~ (m/x)^m, x > 13)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    am = np.ones_like(x)
    for mm in range(1, _J0_ASYMPTOTIC_TERMS):
        am = am * (-((2 * mm - 1) ** 2)) / (8.0 * mm * x)
        contrib = am if (mm // 2) % 2 == 0 else -am
        if mm % 2:
            q = q + contrib
        else:
            p = p + contrib
    chi = x - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j0(x) -> np.ndarray | float:
    """Bessel function of the first kind of order zero.

    Power series below ``|x| = 13``, Hankel asymptotics above; the two
    branches agree to ~1e-12 at the crossover.

    Parameters
    ----------
    x
        Argument, scalar or array, any finite real value.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.abs(np.atleast_1d(x_arr))
    if np.any(~np.isfinite(x_arr)):
        raise ValueError("bessel_j0 requires finite arguments")
    out = np.empty_like(x_arr)
    small = x_arr <= _J0_SERIES_CUTOFF
    if np.any(small):
        out[small] = _j0_series(x_arr[small])
    if np.any(~small):
        out[~small] = _j0_asymptotic(x_arr[~small])
    return float(out[0]) if scalar else out
