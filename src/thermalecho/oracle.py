"""Dense exact-diagonalization reference for small chains.

This module holds reference routes only: the dense Hamiltonians and Gibbs
states, the Uhlmann fidelity, the dense echo, the perturbative and Bures
routes and the bound-slack kernel :func:`q_function`.  The checks that
compare them with the product formulas live in :mod:`thermalecho.verify`.
Everything here works on explicit matrices in the Fock space, kept
deliberately simple and capped at dimension 4096: the point is to verify
the product formulas and the perturbative identities on small instances,
not to scale.  The chain is built from its real-space fermion operators,
so no momentum, dispersion or mode formula of :mod:`thermalecho.model`
enters the reference route.  The dense echo splits the space into the
blocks that the two Hamiltonians' nonzero patterns leave uncoupled (for
the chain, the two fermion-parity sectors; without pairing, the number
sectors), found from the matrices alone, and diagonalises each block once
per quench.  Fidelities are evaluated through spectral factorizations that
stay relatively accurate even when Gibbs weights span hundreds of orders
of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DIM_CAP",
    "DegenerateSpectrumError",
    "ExactEcho",
    "InvalidStateError",
    "SpectralData",
    "build_quasifree",
    "bures_decomposition",
    "exact_le",
    "gibbs",
    "perturbative_le",
    "perturbative_le_average",
    "q_function",
    "random_hermitian",
    "spectral",
    "uhlmann",
]

DIM_CAP = 4096
# complex bytes of one group of a block's (times x dim x dim) evolution
# matrices in the dense echo; the value only affects speed and memory
_TIME_GROUP_BYTES = 1 << 23
_GAP_TOL = 1e-10
_HERMITIAN_TOL = 1e-12
_DENSITY_HERMITIAN_TOL = 1e-10
_DENSITY_TRACE_TOL = 1e-8
_DENSITY_NEG_TOL = 1e-8


class DegenerateSpectrumError(ValueError):
    """Raised when a spectrum violates a non-degeneracy precondition."""


class InvalidStateError(ValueError):
    """Raised when a matrix fails the density-operator checks."""


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a Hermitian operator, optionally with Gibbs weights.

    Eigenvalues ascend; eigenvector phases are fixed by making the first
    significant component of each column real and positive, so repeated
    decompositions of the same matrix agree exactly.
    """

    energies: np.ndarray
    states: np.ndarray
    gibbs_weights: np.ndarray | None


def _hermitian_defect(m: np.ndarray) -> float:
    """Largest entry of ``|M - M^dagger|``."""
    return float(np.max(np.abs(m - m.conj().T)))


def _require_hermitian(m, name: str, tol: float = _HERMITIAN_TOL) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    defect = _hermitian_defect(m)
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return m


def _fix_phases(states: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is positive real."""
    mag = np.abs(states)
    first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    lead = states[first, np.arange(states.shape[1])]
    return states / (lead / np.abs(lead))


def _gibbs_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    if not math.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    # shifting by the ground energy keeps every weight relatively accurate
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def spectral(H, beta: float | None = None) -> SpectralData:
    """Eigendecomposition with the fixed ordering and phase convention.

    When ``beta`` is given, the normalized Gibbs weights are attached; they
    are exact relative to each other even when they span many hundreds of
    orders of magnitude.
    """
    H = _require_hermitian(H, "H")
    energies, states = np.linalg.eigh(H)
    states = _fix_phases(states)
    weights = None if beta is None else _gibbs_weights(energies, beta)
    return SpectralData(energies=energies, states=states, gibbs_weights=weights)


def build_quasifree(h: float, gamma: float, length: int) -> np.ndarray:
    """Quasi-free chain Hamiltonian on the full ``2**length`` Fock space.

    ``H = sum_j [(c+_j c_{j+1} + h.c.)/2 + gamma (c+_j c+_{j+1} + h.c.)/2
    + h n_j]`` in the site basis, closed antiperiodically (``c_{L+1} =
    -c_1``).  Bit ``j`` of a basis index is the occupation of site ``j``,
    and each fermion operator carries the Jordan-Wigner sign of the
    occupied sites below it.  The matrix is real.

    Raises
    ------
    ValueError
        If the length is odd, below 2, or the dimension would exceed 4096.
    """
    if not isinstance(length, int) or isinstance(length, bool):
        raise ValueError(f"length must be an int, got {length!r}")
    if length < 2 or length % 2:
        raise ValueError(f"length must be even and >= 2, got {length}")
    if 2**length > DIM_CAP:
        raise ValueError(f"dimension 2**{length} exceeds the cap {DIM_CAP}")
    states = np.arange(2**length)
    occ = (states[:, None] >> np.arange(length)) & 1
    below = np.cumsum(occ, axis=1) - occ
    ham = np.zeros((states.size, states.size))
    np.fill_diagonal(ham, h * occ.sum(axis=1))
    for i in range(length):
        j = (i + 1) % length
        # the wrap bond picks up the antiperiodic sign of c_{L+1} = -c_1
        bond = -0.5 if j == 0 else 0.5
        parity = below[:, i] + below[:, j]
        # hopping c+_j c_i (site i occupied, site j empty) and its conjugate
        src = states[(occ[:, i] == 1) & (occ[:, j] == 0)]
        sign = 1 - 2 * ((parity[src] - (i < j)) & 1)
        tgt = src ^ (1 << i) ^ (1 << j)
        ham[tgt, src] += bond * sign
        ham[src, tgt] += bond * sign
        # pairing c+_i c+_j (both sites empty) and its conjugate
        src = states[(occ[:, i] == 0) & (occ[:, j] == 0)]
        sign = 1 - 2 * ((parity[src] + (j < i)) & 1)
        tgt = src | (1 << i) | (1 << j)
        ham[tgt, src] += gamma * bond * sign
        ham[src, tgt] += gamma * bond * sign
    return ham


def gibbs(H, beta: float) -> np.ndarray:
    """Gibbs state ``exp(-beta H) / Z`` of a Hermitian operator.

    ``beta = 0`` gives the maximally mixed state.
    """
    data = spectral(H, beta=beta)
    return (data.states * data.gibbs_weights) @ data.states.conj().T


def _density_eigh(rho, name: str) -> tuple[np.ndarray, np.ndarray]:
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"{name} must be a square matrix")
    if _hermitian_defect(rho) > _DENSITY_HERMITIAN_TOL:
        raise InvalidStateError(f"{name} is not Hermitian")
    w, v = np.linalg.eigh(rho)
    if w.min() < -_DENSITY_NEG_TOL:
        raise InvalidStateError(f"{name} has negative eigenvalue {w.min():.3e}")
    if abs(w.sum() - 1.0) > _DENSITY_TRACE_TOL:
        raise InvalidStateError(f"{name} has trace {w.sum():.12f}, expected 1")
    return np.clip(w, 0.0, None), v


def uhlmann(rho, sigma) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2``.

    Evaluated as the squared trace norm of ``sqrt(rho) sqrt(sigma)``, which
    is the same quantity without the outer square root of a near-singular
    product; this keeps the result accurate for nearly pure states.
    """
    w1, v1 = _density_eigh(rho, "rho")
    w2, v2 = _density_eigh(sigma, "sigma")
    if v1.shape != v2.shape:
        raise InvalidStateError(
            f"dimension mismatch: rho is {v1.shape[0]}, sigma is {v2.shape[0]}"
        )
    s1 = (v1 * np.sqrt(w1)) @ v1.conj().T
    s2 = (v2 * np.sqrt(w2)) @ v2.conj().T
    singular = np.linalg.svd(s1 @ s2, compute_uv=False)
    return float(singular.sum() ** 2)


@dataclass(frozen=True)
class ExactEcho:
    """Dense echo of one quench, with the purities of the initial state.

    ``le`` (the Uhlmann fidelity) and ``lef`` (the overlap ``Tr[rho(t) rho]``)
    are floats for a scalar time, else arrays over the times.  ``purity`` is
    ``Tr[rho**2]`` of the Gibbs state and ``dephased_purity`` that of its
    infinite-time average under ``H1``, which is the time average of ``lef``.
    """

    le: np.ndarray | float
    lef: np.ndarray | float
    purity: float
    dephased_purity: float


def _blocks(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the joint nonzero pattern.

    Both matrices leave each set's span invariant, so every quantity here
    splits over them.  A generic dense matrix is one block.
    """
    linked = (a != 0) | (b != 0)
    linked |= linked.T
    unseen = np.ones(linked.shape[0], dtype=bool)
    blocks = []
    while unseen.any():
        block = np.zeros_like(unseen)
        frontier = np.zeros_like(unseen)
        frontier[np.argmax(unseen)] = True
        while frontier.any():
            block |= frontier
            frontier = linked[frontier].any(axis=0) & ~block
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def _flat_times(t) -> np.ndarray:
    """``t`` (scalar or any shape) as a 1-D float array, checked finite."""
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError("times must be finite")
    return t_arr.reshape(-1)


def _shaped(values: np.ndarray, t):
    """Per-time ``values`` in the shape of ``t``: a float for a scalar."""
    return float(values[0]) if np.ndim(t) == 0 else values.reshape(np.shape(t))


def exact_le(H0, H1, beta: float, t) -> ExactEcho:
    """Loschmidt echo of the quench ``H0 -> H1`` from the dense operators.

    The echo is the Uhlmann fidelity between the Gibbs state of ``H0`` and
    its image evolved under ``H1`` for time ``t``: a finite time or an
    array of them, giving floats or arrays shaped like ``t``.  Both
    operators are diagonalised once per block of :func:`_blocks`, the Gibbs
    weights are normalised over all blocks together, and per block and time
    ``B(t) = sqrt(p) U(t) sqrt(p)`` in the initial eigenbasis gives the echo
    (the squared sum of the blocks' nuclear norms) and the overlap (the sum
    of their squared Frobenius norms).  A block takes its times in groups of
    at most ``_TIME_GROUP_BYTES`` of matrices (one time where a single
    matrix is larger, as at L = 12), each group as one stacked product and
    one stacked ``np.linalg.svd``; every time gets the bits it gets on its
    own.  Post-quench levels closer than 1e-10 share one projector when
    dephasing.
    """
    H0 = _require_hermitian(H0, "H0")
    H1 = _require_hermitian(H1, "H1")
    if H0.shape != H1.shape:
        raise ValueError(f"H0 is {H0.shape} but H1 is {H1.shape}")
    t_arr = _flat_times(t)
    pairs = [(spectral(H0[np.ix_(b, b)]), spectral(H1[np.ix_(b, b)]))
             for b in _blocks(H0, H1)]
    weights = _gibbs_weights(np.concatenate([s0.energies for s0, _ in pairs]), beta)
    nuclear = np.zeros(t_arr.shape)
    lef = np.zeros(t_arr.shape)
    dephased = 0.0
    start = 0
    for s0, s1 in pairs:
        p = weights[start : start + s0.energies.size]
        start += p.size
        m = s0.states.conj().T @ s1.states
        mh = m.conj().T
        r = (mh * p) @ m
        labels = np.cumsum(np.diff(s1.energies, prepend=s1.energies[0]) > _GAP_TOL)
        dephased += float(np.sum(np.abs(r * (labels[:, None] == labels[None, :])) ** 2))
        sp = np.sqrt(p)
        rate = -1j * s1.energies
        per_group = max(1, _TIME_GROUP_BYTES // (16 * m.size))
        for first in range(0, t_arr.size, per_group):
            group = slice(first, first + per_group)
            u = (m * np.exp(rate * t_arr[group, None, None])) @ mh
            b = (sp[:, None] * u) * sp[None, :]
            nuclear[group] += np.linalg.svd(b, compute_uv=False).sum(axis=-1)
            lef[group] += np.sum(np.abs(b) ** 2, axis=(-2, -1))
    return ExactEcho(le=_shaped(nuclear**2, t), lef=_shaped(lef, t),
                     purity=float(np.sum(weights**2)),
                     dephased_purity=dephased)


def _min_gap(energies: np.ndarray) -> float:
    return float(np.min(np.diff(energies))) if energies.size > 1 else math.inf


def _perturbation_pieces(H0, V, beta: float):
    """Coefficient table and spectral data shared by the perturbative ops."""
    H0 = _require_hermitian(H0, "H0")
    V = _require_hermitian(V, "V")
    s0 = spectral(H0, beta=beta)
    if _min_gap(s0.energies) <= _GAP_TOL:
        raise DegenerateSpectrumError(
            f"H0 spectrum has minimum gap {_min_gap(s0.energies):.3e} <= {_GAP_TOL}"
        )
    p = s0.gibbs_weights
    v_mat = s0.states.conj().T @ V @ s0.states
    de = s0.energies[:, None] - s0.energies[None, :]
    dp = p[:, None] - p[None, :]
    sp = p[:, None] + p[None, :]
    np.fill_diagonal(de, 1.0)
    c = dp**2 / sp * np.abs(v_mat) ** 2 / de**2
    np.fill_diagonal(c, 0.0)
    return s0, v_mat, c


def perturbative_le(H0, V, beta: float, t) -> np.ndarray | float:
    """Loschmidt echo of the quench ``H0 -> H0 + V`` to second order in ``V``.

    Oscillation frequencies are the exact eigenvalue differences of
    ``H0 + V``; only the amplitudes are perturbative.  ``t`` is a finite
    time or an array of them; the result is a float or shaped like ``t``.

    Raises
    ------
    DegenerateSpectrumError
        If the spectrum of ``H0`` has a gap at or below 1e-10.
    ValueError
        If a time is not finite.
    """
    t_arr = _flat_times(t)
    s0, _, c = _perturbation_pieces(H0, V, beta)
    e1 = np.linalg.eigvalsh(np.asarray(H0) + np.asarray(V))
    de1 = e1[:, None] - e1[None, :]
    out = np.empty(t_arr.shape)
    for i, tt in enumerate(t_arr):
        out[i] = 1.0 - float(np.sum(c * (1.0 - np.cos(de1 * tt))))
    return _shaped(out, t)


def perturbative_le_average(H0, V, beta: float) -> float:
    """Infinite-time average of the second-order echo, ``1 - sum C``."""
    _, _, c = _perturbation_pieces(H0, V, beta)
    return 1.0 - float(np.sum(c))


@dataclass(frozen=True)
class BuresMetric:
    """Squared Bures line element and its two contributions.

    ``ds2 = ds2_fr / 4 + nonclassical``: the Fisher-Rao part measures the
    flow of the Gibbs weights, the nonclassical part the rotation of the
    eigenbasis.
    """

    ds2: float
    ds2_fr: float
    nonclassical: float


def bures_decomposition(H, dH, beta: float) -> BuresMetric:
    """Bures metric of the Gibbs state under a Hamiltonian displacement.

    Raises
    ------
    DegenerateSpectrumError
        If the spectrum of ``H`` has a gap at or below 1e-10.
    """
    return _bures_metric(beta, *_perturbation_pieces(H, dH, beta))


def _bures_metric(beta: float, s: SpectralData, dh_mat: np.ndarray, c: np.ndarray) -> BuresMetric:
    """Bures metric from the pieces of :func:`_perturbation_pieces`."""
    p = s.gibbs_weights
    de_diag = np.real(np.diag(dh_mat))
    dp = -beta * p * (de_diag - float(np.dot(p, de_diag)))
    with np.errstate(divide="ignore", invalid="ignore"):
        fr_terms = np.where(p > 0.0, dp**2 / np.where(p > 0.0, p, 1.0), 0.0)
    ds2_fr = float(np.sum(fr_terms))
    nonclassical = 0.5 * float(np.sum(c))
    return BuresMetric(ds2=ds2_fr / 4.0 + nonclassical, ds2_fr=ds2_fr, nonclassical=nonclassical)


def q_function(x, v) -> np.ndarray | float:
    """Bound-slack kernel of the two-sided echo bounds, per mode.

    Non-negative on ``x real, 0 <= v <= 2``; identically zero at ``v = 0``
    and concave in ``v``, so its minimum sits on the boundary of the strip.
    Evaluated in a factored form whose subtraction-free terms keep it exact
    at ``v = 0`` and accurate for large ``x`` (the printed definition loses
    everything to rounding beyond ``x`` around 15).
    """
    x_arr = np.abs(np.asarray(x, dtype=float))
    v_arr = np.asarray(v, dtype=float)
    scalar = x_arr.ndim == 0 and v_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    v_arr = np.atleast_1d(v_arr)
    if np.any(~np.isfinite(x_arr)) or np.any(x_arr > 300.0):
        raise ValueError("q_function requires finite |x| <= 300")
    if np.any(v_arr < 0.0) or np.any(v_arr > 2.0):
        raise ValueError("q_function requires 0 <= v <= 2")
    # the factors of x alone are taken on x's own shape, before broadcasting
    c = np.cosh(x_arr)
    one_c = 1.0 + c
    q1 = c / one_c
    u = 0.5 * v_arr * np.tanh(x_arr) ** 2
    root = np.sqrt(1.0 - u)
    s = 2.0 * c * root
    delta = u / (1.0 + root)
    out = 2.0 * delta * q1 * (2.0 * s * q1 + 2.0 * q1 + s / one_c)
    return float(out.reshape(-1)[0]) if scalar else out


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix with entries of typical size 1."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)
