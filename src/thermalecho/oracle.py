"""Dense exact-diagonalization reference for small chains.

Everything here works on explicit matrices in the full Fock space, kept
deliberately simple and capped at dimension 4096: the point is to verify
the product formulas and the perturbative identities on small instances,
not to scale.  The chain is built from its real-space fermion operators,
so no momentum, dispersion or mode formula of :mod:`thermalecho.model`
enters the reference route.  Fidelities are evaluated through spectral
factorizations that stay relatively accurate even when Gibbs weights span
hundreds of orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DIM_CAP",
    "DegenerateSpectrumError",
    "GenericDamping",
    "InvalidStateError",
    "PerturbationReport",
    "QFunctionScan",
    "QubitInequalityReport",
    "SpectralData",
    "build_quasifree",
    "bures_decomposition",
    "damping_generic",
    "dephased_purity",
    "exact_le",
    "exact_linearized",
    "gibbs",
    "perturbation_report",
    "perturbative_le",
    "perturbative_le_average",
    "q_function",
    "q_function_scan",
    "qubit_inequality_check",
    "random_hermitian",
    "spectral",
    "uhlmann",
]

DIM_CAP = 4096
_GAP_TOL = 1e-10
_HERMITIAN_TOL = 1e-12
_DENSITY_HERMITIAN_TOL = 1e-10
_DENSITY_TRACE_TOL = 1e-8
_DENSITY_NEG_TOL = 1e-8
# float64 bytes per block of the kernel scan's grid; the value only affects
# speed and memory, never the scan's results
_SCAN_BLOCK_BYTES = 1 << 20


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
    weights = None
    if beta is not None:
        if not math.isfinite(beta) or beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {beta}")
        weights = _gibbs_weights(energies, beta)
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


def _echo_kernel(H0, H1, beta: float):
    """Shared factor matrix builder for the evolved-state fidelities.

    Returns a function mapping a time to ``B(t) = sqrt(p) U(t) sqrt(p)`` in
    the initial eigenbasis, where ``U(t)`` is the post-quench propagator.
    The echo is the squared nuclear norm of ``B`` and the linear overlap its
    squared Frobenius norm.
    """
    s0 = spectral(H0, beta=beta)
    s1 = spectral(H1)
    m = s0.states.conj().T @ s1.states
    sp = np.sqrt(s0.gibbs_weights)

    def block(t: float) -> np.ndarray:
        u = (m * np.exp(-1j * s1.energies * t)) @ m.conj().T
        return (sp[:, None] * u) * sp[None, :]

    return block


def exact_le(H0, H1, beta: float, t) -> np.ndarray | float:
    """Loschmidt echo from the dense operators.

    The Uhlmann fidelity between the Gibbs state of ``H0`` and its image
    evolved under ``H1`` for time ``t`` (scalar or array).
    """
    block = _echo_kernel(H0, H1, beta)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t_arr.shape)
    for i, tt in enumerate(t_arr):
        singular = np.linalg.svd(block(float(tt)), compute_uv=False)
        out[i] = singular.sum() ** 2
    return float(out[0]) if np.ndim(t) == 0 else out


def exact_linearized(H0, H1, beta: float, t) -> np.ndarray | float:
    """Linear overlap echo ``Tr[rho(t) rho]`` from the dense operators."""
    block = _echo_kernel(H0, H1, beta)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t_arr.shape)
    for i, tt in enumerate(t_arr):
        b = block(float(tt))
        out[i] = float(np.sum(np.abs(b) ** 2))
    return float(out[0]) if np.ndim(t) == 0 else out


def _cluster_labels(energies: np.ndarray, gap_tol: float) -> np.ndarray:
    labels = np.zeros(energies.size, dtype=int)
    labels[1:] = np.cumsum(np.diff(energies) > gap_tol)
    return labels


def dephased_purity(H0, H1, beta: float, gap_tol: float = _GAP_TOL) -> float:
    """Purity of the dephased Gibbs state, ``Tr[rho_bar**2]``.

    Computed in the post-quench eigenbasis directly from the Gibbs weights,
    so no full density matrix in the original basis is needed.
    """
    s0 = spectral(H0, beta=beta)
    s1 = spectral(H1)
    m = s0.states.conj().T @ s1.states
    r = (m.conj().T * s0.gibbs_weights) @ m
    labels = _cluster_labels(s1.energies, gap_tol)
    mask = labels[:, None] == labels[None, :]
    return float(np.sum(np.abs(r * mask) ** 2))


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
    ``H0 + V``; only the amplitudes are perturbative.

    Raises
    ------
    DegenerateSpectrumError
        If the spectrum of ``H0`` has a gap at or below 1e-10.
    """
    s0, _, c = _perturbation_pieces(H0, V, beta)
    e1 = np.linalg.eigvalsh(np.asarray(H0) + np.asarray(V))
    de1 = e1[:, None] - e1[None, :]
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t_arr.shape)
    for i, tt in enumerate(t_arr):
        out[i] = 1.0 - float(np.sum(c * (1.0 - np.cos(de1 * tt))))
    return float(out[0]) if np.ndim(t) == 0 else out


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


@dataclass(frozen=True)
class GenericDamping:
    """Thermal damping of the ground-state transition weights.

    ``d_factors[n]`` multiplies the zero-temperature weight of the
    transition from the ground state to level ``n``; entry 0 is zero by
    convention.  The weight arrays are None when no couplings were given.
    """

    d_factors: np.ndarray
    w_zero: np.ndarray | None
    w_thermal: np.ndarray | None
    chi_f: float | None


def damping_generic(energies, beta: float, couplings=None) -> GenericDamping:
    """Temperature damping factors for transitions out of the ground state.

    Parameters
    ----------
    energies
        Eigenvalues in ascending order.
    beta
        Inverse temperature, >= 0.
    couplings
        Optional matrix elements ``<n|V|0>`` aligned with the energies; when
        given, the zero-temperature weights ``2 |V_n0|**2 / gap**2``, their
        damped versions, and the fidelity susceptibility are included.

    Raises
    ------
    DegenerateSpectrumError
        If the ground state is degenerate (first gap at or below 1e-10).
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("energies must be a 1-d array with at least 2 levels")
    if np.any(np.diff(e) < 0.0):
        raise ValueError("energies must be ascending")
    gap = e[1] - e[0]
    if gap <= _GAP_TOL:
        raise DegenerateSpectrumError(f"ground state degenerate: first gap {gap:.3e}")
    if not math.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    p = _gibbs_weights(e, beta)
    d = np.zeros_like(e)
    d[1:] = (p[0] - p[1:]) ** 2 / (p[0] + p[1:])
    w_zero = None
    w_thermal = None
    chi_f = None
    if couplings is not None:
        v = np.asarray(couplings)
        if v.shape != e.shape:
            raise ValueError("couplings must align with energies")
        deltas = e[1:] - e[0]
        w_zero = np.zeros_like(e)
        w_zero[1:] = 2.0 * np.abs(v[1:]) ** 2 / deltas**2
        w_thermal = d * w_zero
        chi_f = float(np.sum(w_zero))
    return GenericDamping(d_factors=d, w_zero=w_zero, w_thermal=w_thermal, chi_f=chi_f)


@dataclass(frozen=True)
class PerturbationReport:
    """Everything second order about one small quench ``H0 -> H0 + V``."""

    c_table: np.ndarray
    w_thermal: np.ndarray
    d_factors: np.ndarray
    chi_f: float
    ds2: float
    ds2_fr: float
    nonclassical: float
    lbar_perturbative: float


def perturbation_report(H0, V, beta: float) -> PerturbationReport:
    """Assemble the full second-order picture of a small quench.

    Combines the transition coefficient table, the ground-state weights and
    their damping, the Bures metric split, and the averaged echo.
    """
    s0, v_mat, c = _perturbation_pieces(H0, V, beta)
    metric = _bures_metric(beta, s0, v_mat, c)
    damping = damping_generic(s0.energies, beta, couplings=v_mat[:, 0])
    return PerturbationReport(
        c_table=c,
        w_thermal=2.0 * c[:, 0],
        d_factors=damping.d_factors,
        chi_f=damping.chi_f,
        ds2=metric.ds2,
        ds2_fr=metric.ds2_fr,
        nonclassical=metric.nonclassical,
        lbar_perturbative=1.0 - float(np.sum(c)),
    )


@dataclass(frozen=True)
class QubitInequalityReport:
    """Outcome of the random single-qubit bound sweep.

    ``violations`` counts trials where the rescaled overlap exceeded the
    fidelity by more than 1e-12.  ``max_closed_form_dev`` is the largest
    deviation between the measured bound slack and its closed form, and
    ``max_route_dev`` the largest disagreement between the two-level closed
    form of the fidelity and the general spectral routine on the checked
    subsample.
    """

    n_trials: int
    seed: int
    violations: int
    min_slack: float
    max_closed_form_dev: float
    max_route_dev: float


def _bloch_state(v: np.ndarray) -> np.ndarray:
    return 0.5 * np.array(
        [[1.0 + v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], 1.0 - v[2]]]
    )


def qubit_inequality_check(
    n_trials: int, seed: int, cross_check_stride: int = 997
) -> QubitInequalityReport:
    """Check the overlap-fidelity bound on random single-qubit states.

    Each trial draws a Bloch vector (uniform direction, uniform radius) and
    a random rotation (uniform axis, angle uniform on ``[0, pi]``), then
    verifies ``Tr[U rho U^dag rho] / Tr[rho**2] <= F`` and compares the
    unnormalized slack against its closed form
    ``v**2 (1 - cos angle_between) (1 - v**2) / 4``.  The fidelity uses the
    two-level closed form; every ``cross_check_stride``-th trial is also run
    through the general spectral routine.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(n_trials, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = rng.uniform(0.0, 1.0, n_trials)
    v = direction * radius[:, None]
    axis = rng.normal(size=(n_trials, 3))
    axis /= np.linalg.norm(axis, axis=1)[:, None]
    angle = rng.uniform(0.0, math.pi, n_trials)
    cos_a = np.cos(angle)[:, None]
    sin_a = np.sin(angle)[:, None]
    v_t = (
        v * cos_a
        + np.cross(axis, v) * sin_a
        + axis * np.sum(axis * v, axis=1)[:, None] * (1.0 - cos_a)
    )
    v2 = np.sum(v * v, axis=1)
    dot = np.sum(v * v_t, axis=1)
    purity = 0.5 * (1.0 + v2)
    overlap = 0.5 * (1.0 + dot)
    # two-level fidelity: Tr[rho sigma] + 2 sqrt(det rho det sigma)
    fid = overlap + 0.5 * (1.0 - v2)
    slack = fid - overlap / purity
    closed = (v2 - dot) * (1.0 - v2) / 4.0
    dev = np.abs((purity * fid - overlap) - closed)
    max_route_dev = 0.0
    for i in range(0, n_trials, max(1, int(cross_check_stride))):
        rho = _bloch_state(v[i])
        rho_t = _bloch_state(v_t[i])
        max_route_dev = max(max_route_dev, abs(uhlmann(rho, rho_t) - float(fid[i])))
    return QubitInequalityReport(
        n_trials=int(n_trials),
        seed=int(seed),
        violations=int(np.sum(slack < -1e-12)),
        min_slack=float(np.min(slack)),
        max_closed_form_dev=float(np.max(dev)),
        max_route_dev=float(max_route_dev),
    )


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
    x_arr, v_arr = np.broadcast_arrays(x_arr, v_arr)
    u = 0.5 * v_arr * np.tanh(x_arr) ** 2
    root = np.sqrt(1.0 - u)
    c = np.cosh(x_arr)
    q1 = c / (1.0 + c)
    s = 2.0 * c * root
    delta = u / (1.0 + root)
    out = 2.0 * delta * q1 * (2.0 * s * q1 + 2.0 * q1 + s / (1.0 + c))
    return float(out.reshape(-1)[0]) if scalar else out


@dataclass(frozen=True)
class QFunctionScan:
    """Grid scan of the bound-slack kernel."""

    min_value: float
    max_abs_at_v_zero: float
    max_v_curvature: float
    x_max: float
    v_max: float
    nx: int
    nv: int


def q_function_scan(
    x_max: float = 20.0, v_max: float = 2.0, nx: int = 1001, nv: int = 1001
) -> QFunctionScan:
    """Scan the kernel over ``[0, x_max] x [0, v_max]``.

    Reports the grid minimum, the largest magnitude along the ``v = 0``
    edge (zero analytically), and the largest second difference in ``v``
    (nonpositive when the kernel is concave in ``v``).
    """
    if not (0.0 < v_max <= 2.0):
        raise ValueError(f"v_max must lie in (0, 2], got {v_max}")
    x = np.linspace(0.0, float(x_max), int(nx))
    v = np.linspace(0.0, float(v_max), int(nv))
    # whole x rows per block: each row's curvature needs only that row, so
    # the per-block extrema reduce to exactly the whole-grid ones
    rows = max(1, _SCAN_BLOCK_BYTES // (8 * v.size))
    extrema = []
    for start in range(0, x.size, rows):
        grid = q_function(x[start : start + rows, None], v[None, :])
        curvature = grid[:, 2:] - 2.0 * grid[:, 1:-1] + grid[:, :-2]
        extrema.append((grid.min(), np.max(np.abs(grid[:, 0])), curvature.max()))
    lowest, edge, bend = np.array(extrema).T
    return QFunctionScan(
        min_value=float(lowest.min()),
        max_abs_at_v_zero=float(edge.max()),
        max_v_curvature=float(bend.max()),
        x_max=float(x_max),
        v_max=float(v_max),
        nx=int(nx),
        nv=int(nv),
    )


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix with entries of typical size ``scale``."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)
