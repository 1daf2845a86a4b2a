"""Quench setup and per-mode spectral data for the quantum XY chain.

The chain is diagonal in momentum space, so everything downstream is built
from a table of single-mode quantities: the Bogoliubov dispersion before and
after the quench, the rotation angle between the two quasiparticle bases,
and thermal occupation ratios at the initial inverse temperature.  All
thermal factors are evaluated through ``exp(-x)`` and ``tanh`` so that large
``beta * lambda`` never overflows and the zero-temperature limit is exact.
Many chains of one length are built at once, as blocks of bounded size:
they come as columns, one array or list of values per field of
:class:`QuenchParams`, and a block is a :class:`ModeTable` without
``params`` whose thermal columns are ``(chains, modes)`` arrays, one row
per chain; a column that depends only on parameters every chain shares,
such as ``k`` or ``lam1`` along a temperature ladder, is one ``(modes,)``
row.  One table is the one-chain case.  Every layer reads a table's
attributes, so the echo, the long-time statistics, the weights and the
sampler take a block as they take one table.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ModeTable",
    "QuenchParams",
    "mode_table",
    "momenta",
]

# modes per block of equal-length chains: 64 KiB per column, so a block's
# per-mode columns stay small however many chains it holds
_GROUP_MODES = 1 << 13


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
    tanh = np.tanh(x)
    one_m_cinv = tanh * np.tanh(0.5 * x)
    one_m_cinv2 = tanh**2
    return cinv, one_m_cinv, one_m_cinv2


@dataclass(frozen=True)
class ModeTable:
    """Per-mode quench data for all positive momenta, as parallel arrays.

    ``cinv`` is ``1 / cosh(beta * lam0)`` and the ``one_minus_*`` arrays are
    the differences ``1 - cinv`` and ``1 - cinv**2`` computed without
    cancellation.  ``dtheta`` is the Bogoliubov angle after the quench
    minus the one before, ``alpha = sin(dtheta)**2``, and ``omega = 2 *
    lam1`` is the oscillation frequency of the mode after the quench.

    One chain's table has its :class:`QuenchParams` as ``params`` and
    ``(modes,)`` columns.  A block of equal-length chains (see
    :func:`_blocks`) has no ``params``, and ``(chains, modes)`` columns
    whose row ``i`` has the bits of its ``i``-th chain's table: always
    ``cinv``, ``one_minus_cinv`` and ``one_minus_cinv2``, so the chain axis
    is in the thermal columns, and the others where the chains differ in
    what they depend on; a column that every chain shares, such as ``k``,
    is a ``(modes,)`` row.
    """

    params: QuenchParams | None
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
        return 2 * self.k.size

    @property
    def n_modes(self) -> int:
        return self.k.size

    @property
    def n_chains(self) -> int:
        return 1 if self.params is not None else self.cinv.shape[0]

    @property
    def omega(self) -> np.ndarray:
        return 2.0 * self.lam1

    @property
    def b(self) -> np.ndarray:
        """Per-mode coefficient ``-(1 - cinv**2) * alpha``, in ``[-1, 0]``."""
        return -(self.one_minus_cinv2 * self.alpha)


def _table(params, k: np.ndarray, h0, h1, gamma0, gamma1, beta) -> ModeTable:
    """The :class:`ModeTable` of ``params`` on the momenta ``k``.

    Each quench parameter is a scalar for one chain, or a ``(chains, 1)``
    array that broadcasts against the momenta ``k`` of one chain length, so
    a block of equal-length chains (``params`` None) is built at once as
    ``(chains, modes)`` columns; ``beta = inf`` is the ground state.
    """
    lam0, theta0 = _components(h0, gamma0, k)
    lam1, theta1 = _components(h1, gamma1, k)
    dtheta = theta1 - theta0
    return ModeTable(params, k, lam0, lam1, dtheta, np.sin(dtheta) ** 2,
                     *_stable_ratios(beta, lam0))


def mode_table(params: QuenchParams) -> ModeTable:
    """Build the full per-mode table for a quench.

    Returns
    -------
    ModeTable
        Arrays over the ``length / 2`` positive momenta.
    """
    return _table(params, momenta(params.length), params.h0, params.h1, params.gamma0,
                  params.gamma1, params.beta)


def _shared(values: np.ndarray):
    """One quench parameter of a block: a scalar when every chain has the
    same bits (so ``-0.0`` and ``0.0``, whose angles differ, stay apart),
    else a ``(chains, 1)`` column."""
    bits = values.view(np.uint64)
    return values[0] if (bits == bits[0]).all() else values[:, None]


# the fields of QuenchParams, in order: the columns that _blocks takes
_FIELDS = tuple(field.name for field in fields(QuenchParams))


def _columns(columns: Mapping[str, Sequence]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(5, chains)`` float parameters and the int lengths of ``columns``.

    :class:`QuenchParams`' checks run on whole columns; where a chain fails
    one, the first such chain is built as a :class:`QuenchParams`, which
    raises its own message, so the error is the one that building every
    chain in order would raise.
    """
    raw = [columns[name] for name in _FIELDS]
    if len({len(column) for column in raw}) > 1:
        raise ValueError("parameter columns must hold one value per chain, got "
                         + ", ".join(f"{len(c)} {name}" for name, c in zip(_FIELDS, raw)))
    values = np.array(raw[:5], dtype=float)
    length = raw[5]
    # a numpy integer column is checked whole, a list value by value
    ints = (length.dtype.kind in "iu" if isinstance(length, np.ndarray)
            else all(isinstance(v, int) and not isinstance(v, bool) for v in length))
    lengths = np.asarray(length, dtype=np.int64) if ints else None
    if not (ints and np.isfinite(values[:4]).all() and (values[4] > 0.0).all()
            and ((lengths >= 2) & (lengths % 2 == 0)).all()):
        for chain in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in raw)):
            QuenchParams(*chain)
    return values, lengths


def _blocks(columns: Mapping[str, Sequence]):
    """Yield ``(indices, block)`` for blocks of equal-length chains.

    ``columns`` maps each field of :class:`QuenchParams` to one value per
    chain, as a list or a numpy array (``length`` as Python ints or an
    integer array); the values pass :class:`QuenchParams`' checks, with its
    messages (see :func:`_columns`).  Chains of one length share blocks of
    at most ``_GROUP_MODES`` modes in all (a longer chain is a block of its
    own); ``indices`` are the positions of a block's chains, ascending, and
    ``block`` is their :class:`ModeTable`, built at once: row ``j`` of a
    ``(chains, modes)`` column belongs to the chain at ``indices[j]``.
    ``beta`` always goes in as a ``(chains, 1)`` column, so the thermal
    columns carry the chain axis even when every chain has the same
    ``beta``, or the block holds one chain.  Any other quench parameter
    that every chain of the block shares is built once, so ``lam1``,
    ``alpha``, ``dtheta`` and ``lam0`` are ``(modes,)`` rows where the
    chains agree on what they depend on.
    """
    values, lengths = _columns(columns)
    # ascending, as np.unique would give them, without its numpy.ma import
    for length in sorted(set(lengths.tolist())):
        k = momenta(length)
        same = np.flatnonzero(lengths == length)
        per_block = max(1, _GROUP_MODES // k.size)
        for first in range(0, same.size, per_block):
            block = same[first : first + per_block]
            rows = values[:, block]
            yield block, _table(None, k, *map(_shared, rows[:4]), rows[4][:, None])
