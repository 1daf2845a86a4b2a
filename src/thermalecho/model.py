"""Quench setup and per-mode spectral data for the quantum XY chain.

The chain is diagonal in momentum space, so everything downstream is built
from a table of single-mode quantities: the Bogoliubov dispersion before and
after the quench, the rotation angle between the two quasiparticle bases,
and thermal occupation ratios at the initial inverse temperature.  All
thermal factors are evaluated through ``exp(-x)`` and ``tanh`` so that large
``beta * lambda`` never overflows and the zero-temperature limit is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateModeError",
    "ModeTable",
    "QuenchParams",
    "mode_table",
    "momenta",
]

# beta*lambda beyond this would overflow cosh; all code paths below use
# exp(-x)/tanh forms that stay finite for arbitrarily large arguments.
OVERFLOW_GUARD = 350.0


class DegenerateModeError(ValueError):
    """Raised when a mode is gapless and its Bogoliubov angle is undefined."""


@dataclass(frozen=True)
class QuenchParams:
    """Parameters of a sudden quench of the XY chain in a transverse field.

    The pre-quench Hamiltonian has field ``h0`` and anisotropy ``gamma0``,
    the post-quench one ``h1`` and ``gamma1``.  The initial state is the
    Gibbs state of the pre-quench Hamiltonian at inverse temperature
    ``beta``; the ground state is selected with ``zero_temperature=True``
    (in which case ``beta`` must be omitted).
    """

    h0: float
    h1: float
    gamma0: float
    gamma1: float
    beta: float | None
    length: int
    zero_temperature: bool = False

    def __post_init__(self) -> None:
        for name in ("h0", "h1", "gamma0", "gamma1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.length, int) or isinstance(self.length, bool):
            raise ValueError(f"length must be an int, got {self.length!r}")
        if self.length < 2 or self.length % 2:
            raise ValueError(f"length must be even and >= 2, got {self.length}")
        if self.zero_temperature:
            if self.beta is not None:
                raise ValueError("beta must be None when zero_temperature is set")
        else:
            if self.beta is None:
                raise ValueError("beta is required unless zero_temperature is set")
            if not math.isfinite(self.beta) or self.beta <= 0.0:
                raise ValueError(f"beta must be positive and finite, got {self.beta}")


def momenta(length: int) -> np.ndarray:
    """Antiperiodic momenta ``(2n + 1) pi / L`` in ``(0, pi)``.

    Only the ``length / 2`` positive momenta are returned; the negative ones
    carry the same mode data by symmetry.
    """
    if not isinstance(length, int) or isinstance(length, bool):
        raise ValueError(f"length must be an int, got {length!r}")
    if length < 2 or length % 2:
        raise ValueError(f"length must be even and >= 2, got {length}")
    n = np.arange(length // 2)
    return (2.0 * n + 1.0) * math.pi / length


def _components(h: float, gamma: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    eps = np.cos(k) + h
    delta = gamma * np.sin(k)
    lam = np.hypot(eps, delta)
    return eps, delta, lam


def _stable_ratios(beta: float | None, lam: np.ndarray, zero_temperature: bool):
    """Thermal factors ``1/c``, ``1 - 1/c``, ``1 - 1/c**2`` for ``c = cosh(beta*lam)``.

    Evaluated through ``exp(-x)`` and ``tanh`` so the results are accurate
    for any ``beta * lam`` and exact in the ground-state limit.
    """
    if zero_temperature:
        shape = np.shape(lam)
        return np.zeros(shape), np.ones(shape), np.ones(shape)
    x = beta * lam
    e = np.exp(-x)
    cinv = 2.0 * e / (1.0 + e * e)
    one_m_cinv = np.tanh(x) * np.tanh(0.5 * x)
    one_m_cinv2 = np.tanh(x) ** 2
    return cinv, one_m_cinv, one_m_cinv2


@dataclass(frozen=True)
class ModeTable:
    """Per-mode quench data for all positive momenta, as parallel arrays.

    ``cinv`` is ``1 / cosh(beta * lam0)`` and the ``one_minus_*`` arrays are
    the differences ``1 - cinv`` and ``1 - cinv**2`` computed without
    cancellation.  ``alpha = sin(dtheta)**2`` and ``omega = 2 * lam1`` is
    the oscillation frequency of the mode after the quench.
    """

    params: QuenchParams
    k: np.ndarray
    eps0: np.ndarray
    delta0: np.ndarray
    lam0: np.ndarray
    theta0: np.ndarray
    eps1: np.ndarray
    delta1: np.ndarray
    lam1: np.ndarray
    theta1: np.ndarray
    dtheta: np.ndarray
    alpha: np.ndarray
    cinv: np.ndarray
    one_minus_cinv: np.ndarray
    one_minus_cinv2: np.ndarray

    @property
    def length(self) -> int:
        return self.params.length

    @property
    def n_modes(self) -> int:
        return self.k.size

    @property
    def omega(self) -> np.ndarray:
        return 2.0 * self.lam1

    @property
    def c(self) -> np.ndarray:
        """Occupation factor ``cosh(beta * lam0)``; inf where that overflows."""
        with np.errstate(divide="ignore"):
            return 1.0 / self.cinv

    @property
    def b(self) -> np.ndarray:
        """Per-mode coefficient ``-(1 - cinv**2) * alpha``, in ``(-1, 0]``."""
        return -(self.one_minus_cinv2 * self.alpha)


def mode_table(params: QuenchParams) -> ModeTable:
    """Build the full per-mode table for a quench.

    Returns
    -------
    ModeTable
        Arrays over the ``length / 2`` positive momenta.
    """
    k = momenta(params.length)
    eps0, delta0, lam0 = _components(params.h0, params.gamma0, k)
    eps1, delta1, lam1 = _components(params.h1, params.gamma1, k)
    theta0 = np.arctan2(delta0, eps0)
    theta1 = np.arctan2(delta1, eps1)
    dtheta = theta1 - theta0
    alpha = np.sin(dtheta) ** 2
    cinv, one_m_cinv, one_m_cinv2 = _stable_ratios(params.beta, lam0, params.zero_temperature)
    return ModeTable(
        params=params,
        k=k,
        eps0=eps0,
        delta0=delta0,
        lam0=lam0,
        theta0=theta0,
        eps1=eps1,
        delta1=delta1,
        lam1=lam1,
        theta1=theta1,
        dtheta=dtheta,
        alpha=alpha,
        cinv=cinv,
        one_minus_cinv=one_m_cinv,
        one_minus_cinv2=one_m_cinv2,
    )
