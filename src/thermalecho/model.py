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
    "ModeTable",
    "QuenchParams",
    "mode_table",
    "momenta",
]


@dataclass(frozen=True, slots=True)
class QuenchParams:
    """Parameters of a sudden quench of the XY chain in a transverse field.

    The pre-quench Hamiltonian has field ``h0`` and anisotropy ``gamma0``,
    the post-quench one ``h1`` and ``gamma1``.  The initial state is the
    Gibbs state of the pre-quench Hamiltonian at inverse temperature
    ``beta`` in ``(0, inf]``; ``beta = math.inf`` is the ground state.
    """

    h0: float
    h1: float
    gamma0: float
    gamma1: float
    beta: float
    length: int

    def __post_init__(self) -> None:
        for name in ("h0", "h1", "gamma0", "gamma1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.length, int) or isinstance(self.length, bool):
            raise ValueError(f"length must be an int, got {self.length!r}")
        if self.length < 2 or self.length % 2:
            raise ValueError(f"length must be even and >= 2, got {self.length}")
        if self.beta is None or not self.beta > 0.0:
            raise ValueError(f"beta must be positive (inf is the ground state), got {self.beta}")


def momenta(length: int) -> np.ndarray:
    """Antiperiodic momenta ``(2n + 1) pi / L`` in ``(0, pi)``.

    Only the ``length / 2`` positive momenta are returned; the negative ones
    carry the same mode data by symmetry.
    """
    if not isinstance(length, int) or isinstance(length, bool):
        raise ValueError(f"length must be an int, got {length!r}")
    if length < 2 or length % 2:
        raise ValueError(f"length must be even and >= 2, got {length}")
    return (2.0 * np.arange(length // 2) + 1.0) * math.pi / length


def _components(h, gamma, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bogoliubov energy ``lam`` and angle ``theta`` of each mode."""
    eps = np.cos(k) + h
    delta = gamma * np.sin(k)
    return np.hypot(eps, delta), np.arctan2(delta, eps)


def _stable_ratios(beta, lam: np.ndarray):
    """Thermal factors ``1/c``, ``1 - 1/c``, ``1 - 1/c**2`` for ``c = cosh(beta*lam)``.

    Evaluated through ``exp(-x)`` and ``tanh`` so the results are accurate
    for any ``beta * lam``.  ``beta = inf`` is the ground state, where the
    factors are exactly 0, 1 and 1, also for a mode at zero energy.
    """
    with np.errstate(invalid="ignore"):
        x = beta * lam
    # inf * 0 is nan: a zero-energy mode of the ground state stays there
    x = np.where(np.isnan(x), np.inf, x)
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
    cancellation.  ``dtheta`` is the Bogoliubov angle after the quench
    minus the one before, ``alpha = sin(dtheta)**2``, and ``omega = 2 *
    lam1`` is the oscillation frequency of the mode after the quench.
    """

    params: QuenchParams
    k: np.ndarray
    lam0: np.ndarray
    lam1: np.ndarray
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
    def b(self) -> np.ndarray:
        """Per-mode coefficient ``-(1 - cinv**2) * alpha``, in ``[-1, 0]``."""
        return -(self.one_minus_cinv2 * self.alpha)


def _columns(k: np.ndarray, h0, h1, gamma0, gamma1, beta) -> dict:
    """The per-mode arrays of a :class:`ModeTable`, keyed by field name.

    Each quench parameter is a scalar for one chain, or a ``(chains, 1)``
    array that broadcasts against the momenta ``k`` of one chain length, so
    a block of equal-length chains is built at once as ``(chains, modes)``
    columns; ``beta = inf`` is the ground state.
    """
    lam0, theta0 = _components(h0, gamma0, k)
    lam1, theta1 = _components(h1, gamma1, k)
    dtheta = theta1 - theta0
    cinv, one_m_cinv, one_m_cinv2 = _stable_ratios(beta, lam0)
    return dict(
        k=k,
        lam0=lam0,
        lam1=lam1,
        dtheta=dtheta,
        alpha=np.sin(dtheta) ** 2,
        cinv=cinv,
        one_minus_cinv=one_m_cinv,
        one_minus_cinv2=one_m_cinv2,
    )


def mode_table(params: QuenchParams) -> ModeTable:
    """Build the full per-mode table for a quench.

    Returns
    -------
    ModeTable
        Arrays over the ``length / 2`` positive momenta.
    """
    k = momenta(params.length)
    return ModeTable(params=params, **_columns(
        k, params.h0, params.h1, params.gamma0, params.gamma1, params.beta))

