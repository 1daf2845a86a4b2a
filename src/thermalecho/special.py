"""The complete elliptic integrals E and K, used by the closed-form averages.

One arithmetic-geometric-mean loop gives both, good to about 1e-14 over
``[0, 1)``, so the runtime package needs nothing beyond numpy.  The loop is
private: :mod:`thermalecho.averages` is its only caller.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []

_AGM_MAX_ITER = 60


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
