"""Dense-matrix reference routes: fidelities, dephasing, perturbation, qubit checks."""

import dataclasses
import math
import os

import numpy as np
import pytest

from thermalecho import QuenchParams, averages, echo, mode_table, oracle, verify
from thermalecho.oracle import (
    DIM_CAP,
    BuresMetric,
    DegenerateSpectrumError,
    InvalidStateError,
    bures_decomposition,
    build_quasifree,
    exact_le,
    gibbs,
    perturbative_le,
    perturbative_le_average,
    q_function,
    random_hermitian,
    spectral,
    uhlmann,
)
from reference import damping_generic, perturbation_report

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def _bloch(v):
    v = np.asarray(v, dtype=float)
    return 0.5 * (np.eye(2, dtype=complex)
                  + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def _random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_unitary(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def sqrtm_psd(m, neg_tol=1e-10):
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``(-neg_tol, 0)`` are rounding dust and clamp to zero;
    anything more negative is an error.
    """
    w, v = np.linalg.eigh(m)
    if w.min() < -neg_tol:
        raise InvalidStateError(f"matrix has negative eigenvalue {w.min():.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def trace_distance(rho, sigma):
    """Trace distance ``||rho - sigma||_1 / 2``."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def dephase(rho0, ham1, gap_tol=1e-10):
    """Infinite-time average of ``rho0`` under ``ham1``: ``sum_E P_E rho0 P_E``.

    Levels of ``ham1`` closer than ``gap_tol`` share one projector ``P_E``.
    """
    energies, states = np.linalg.eigh(ham1)
    out = np.zeros(np.shape(rho0), dtype=complex)
    edges = [0, *(np.flatnonzero(np.diff(energies) > gap_tol) + 1), energies.size]
    for start, stop in zip(edges[:-1], edges[1:]):
        proj = states[:, start:stop] @ states[:, start:stop].conj().T
        out += proj @ rho0 @ proj
    return out


def _pair_block(eps, delta):
    """4x4 Hamiltonian of one ``(k, -k)`` pair in the basis ``00, 01, 10, 11``."""
    block = np.zeros((4, 4), dtype=complex)
    block[1, 1] = block[2, 2] = eps
    block[3, 3] = 2.0 * eps
    block[0, 3] = 1j * delta
    block[3, 0] = -1j * delta
    return block


def _momentum_chain(h, gamma, length):
    """Reference route: the chain as Kronecker-embedded momentum-pair blocks.

    Antiperiodic momenta ``k = (2n + 1) pi / L`` in ``(0, pi)``, with
    ``eps = cos k + h`` and ``delta = gamma sin k``.
    """
    n_pairs = length // 2
    total = np.zeros((2**length, 2**length), dtype=complex)
    for i in range(n_pairs):
        k = (2.0 * i + 1.0) * math.pi / length
        op = _pair_block(math.cos(k) + h, gamma * math.sin(k))
        total += np.kron(np.kron(np.eye(4**i), op), np.eye(4 ** (n_pairs - i - 1)))
    return total


def test_chain_builder_spectrum_structure():
    rng = np.random.default_rng(8)
    for length in (2, 4, 6):
        h = float(rng.uniform(-2, 2))
        gamma = float(rng.uniform(-1.5, 1.5))
        ham = build_quasifree(h, gamma, length)
        assert ham.shape == (2**length, 2**length)
        assert ham.dtype == np.float64
        assert np.array_equal(ham, ham.T)
        table = mode_table(QuenchParams(h0=h, h1=h, gamma0=gamma, gamma1=gamma,
                                        beta=1.0, length=length))
        energies = np.linalg.eigvalsh(ham)
        # total bandwidth is twice the summed single-particle energies
        assert np.ptp(energies) == pytest.approx(2.0 * float(np.sum(table.lam0)),
                                                 rel=1e-12)
        # spectrum is reflection-symmetric about its midpoint
        center = 0.5 * (energies[0] + energies[-1])
        assert np.allclose(energies + energies[::-1], 2.0 * center, atol=1e-9)


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_site_chain_matches_momentum_spectrum(length):
    rng = np.random.default_rng(100 + length)
    for _ in range(3):
        h = float(rng.uniform(-2, 2))
        gamma = float(rng.uniform(-1.5, 1.5))
        site = np.linalg.eigvalsh(build_quasifree(h, gamma, length))
        momentum = np.linalg.eigvalsh(_momentum_chain(h, gamma, length))
        assert np.max(np.abs(site - momentum)) < 1e-12


def test_site_chain_echo_at_length_ten():
    rng = np.random.default_rng(10)
    h0, h1 = rng.uniform(-2, 2, 2)
    g0, g1 = rng.uniform(-1.5, 1.5, 2)
    beta = float(rng.uniform(0.1, 8.0))
    t = float(rng.uniform(0.0, 20.0))
    table = mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                    beta=beta, length=10))
    dense = exact_le(build_quasifree(h0, g0, 10), build_quasifree(h1, g1, 10), beta, t)
    assert abs(echo.echo_point(table, t).le - dense.le) < 1e-9
    stat = averages.long_time(table)
    assert abs(stat.mean_lef - dense.dephased_purity) < 1e-9
    assert abs(stat.purity - dense.purity) < 1e-9


def test_chain_builder_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_quasifree(0.5, 0.25, 3)
    with pytest.raises(ValueError):
        build_quasifree(0.5, 0.25, 0)
    with pytest.raises(ValueError):
        build_quasifree(0.5, 0.25, 14)  # 2**14 exceeds the dimension cap
    assert DIM_CAP == 4096


def test_spectral_orders_and_normalizes():
    rng = np.random.default_rng(21)
    ham = random_hermitian(6, rng)
    data = spectral(ham, beta=2.0)
    assert np.all(np.diff(data.energies) >= 0)
    assert data.gibbs_weights.sum() == pytest.approx(1.0, rel=1e-14)
    recon = (data.states * data.energies) @ data.states.conj().T
    assert np.max(np.abs(recon - ham)) < 1e-12
    # fixed phase convention: first significant component of each state real positive
    for col in data.states.T:
        lead = col[np.abs(col) > 1e-8 * np.abs(col).max()][0]
        assert abs(lead.imag) < 1e-12
        assert lead.real > 0


def _fix_phases_loop(states):
    """Column-by-column reference route for ``oracle._fix_phases``."""
    out = states.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col) > 1e-8 * np.abs(col).max()))
        phase = col[idx] / abs(col[idx])
        out[:, j] = col / phase
    return out


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_fix_phases_matches_column_loop(length):
    rng = np.random.default_rng(length)
    # complex random spectra, and the real, degenerate spectra of the site chain
    _, random_states = np.linalg.eigh(random_hermitian(2 ** min(length, 8), rng))
    _, chain_states = np.linalg.eigh(build_quasifree(*rng.uniform(-1.5, 1.5, 2), length))
    for states in (random_states, chain_states):
        fixed = oracle._fix_phases(states)
        reference = _fix_phases_loop(states)
        assert fixed.dtype == reference.dtype
        assert np.array_equal(fixed, reference)


def test_spectral_rejects_bad_beta():
    ham = np.eye(2)
    with pytest.raises(ValueError):
        spectral(ham, beta=-1.0)
    with pytest.raises(ValueError):
        spectral(ham, beta=math.nan)


def test_gibbs_limits():
    rng = np.random.default_rng(5)
    ham = random_hermitian(5, rng)
    hot = gibbs(ham, 0.0)
    assert np.allclose(hot, np.eye(5) / 5.0, atol=1e-14)
    cold = gibbs(ham, 4000.0)
    energies, states = np.linalg.eigh(ham)
    ground = np.outer(states[:, 0], states[:, 0].conj())
    assert np.max(np.abs(cold - ground)) < 1e-12
    warm = gibbs(ham, 1.3)
    assert np.trace(warm).real == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(warm - warm.conj().T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(warm)) > 0.0


def test_matrix_square_root_round_trip():
    rng = np.random.default_rng(17)
    rho = _random_density(6, rng)
    root = sqrtm_psd(rho)
    assert np.max(np.abs(root @ root - rho)) < 1e-12

    dusty = np.diag([0.6, 0.4, 0.0, -5e-11])
    root2 = sqrtm_psd(dusty)  # slightly negative dust is clamped to zero
    assert np.all(np.isfinite(root2))
    assert root2[3, 3] == 0.0

    with pytest.raises(InvalidStateError):
        sqrtm_psd(np.diag([0.9, 0.101, -1e-3, 0.0]))


def test_uhlmann_basic_properties():
    rng = np.random.default_rng(23)
    for dim in (2, 4, 6):
        rho = _random_density(dim, rng)
        sigma = _random_density(dim, rng)
        f = uhlmann(rho, sigma)
        assert 0.0 <= f <= 1.0 + 1e-13
        assert f == pytest.approx(uhlmann(sigma, rho), abs=1e-12)
        assert uhlmann(rho, rho) == pytest.approx(1.0, abs=1e-12)
        u = _random_unitary(dim, rng)
        f_rot = uhlmann(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert f_rot == pytest.approx(f, abs=1e-11)


def test_uhlmann_pure_state_overlap():
    rng = np.random.default_rng(29)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    rho = np.outer(psi, psi.conj())
    sigma = np.outer(phi, phi.conj())
    assert uhlmann(rho, sigma) == pytest.approx(abs(np.vdot(psi, phi)) ** 2, abs=1e-12)


def test_uhlmann_commuting_closed_form():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.25, 0.55])
    f = uhlmann(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert f == pytest.approx(float(np.sum(np.sqrt(p * q)) ** 2), rel=1e-13)


def test_uhlmann_qubit_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(50):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, 1.0) / np.linalg.norm(w)
        rho, sigma = _bloch(v), _bloch(w)
        closed = (0.5 * (1.0 + float(np.dot(v, w)))
                  + 0.5 * math.sqrt((1.0 - float(np.dot(v, v)))
                                    * (1.0 - float(np.dot(w, w)))))
        assert uhlmann(rho, sigma) == pytest.approx(closed, abs=1e-12)


def test_uhlmann_super_fidelity_bound():
    rng = np.random.default_rng(37)
    for dim in (2, 3, 5):
        for _ in range(20):
            rho = _random_density(dim, rng)
            sigma = _random_density(dim, rng)
            overlap = float(np.trace(rho @ sigma).real)
            pr = float(np.trace(rho @ rho).real)
            ps = float(np.trace(sigma @ sigma).real)
            super_f = overlap + math.sqrt(max(0.0, (1.0 - pr) * (1.0 - ps)))
            assert uhlmann(rho, sigma) <= super_f + 1e-12


def test_uhlmann_input_validation():
    good = np.eye(2) / 2.0
    with pytest.raises(InvalidStateError):
        uhlmann(good, np.diag([0.7, 0.2]))  # trace below one
    with pytest.raises(InvalidStateError):
        uhlmann(good, np.diag([1.5, -0.5]))  # negative weight
    with pytest.raises(InvalidStateError):
        uhlmann(good, np.array([[0.5, 0.4], [0.1, 0.5]]))  # not hermitian
    with pytest.raises(InvalidStateError):
        uhlmann(good, np.eye(3) / 3.0)  # shape mismatch


def test_exact_echo_matches_uhlmann_composition():
    rng = np.random.default_rng(41)
    ham0 = build_quasifree(0.7, 0.4, 4)
    ham1 = build_quasifree(1.2, -0.6, 4)
    beta = 1.5
    rho0 = gibbs(ham0, beta)
    energies, states = np.linalg.eigh(ham1)
    for t in rng.uniform(0.0, 15.0, 4):
        u = (states * np.exp(-1j * energies * t)) @ states.conj().T
        rho_t = u @ rho0 @ u.conj().T
        dense = exact_le(ham0, ham1, beta, float(t))
        assert dense.le == pytest.approx(uhlmann(rho0, rho_t), abs=1e-11)
        assert dense.lef == pytest.approx(float(np.trace(rho0 @ rho_t).real), abs=1e-12)


def test_exact_echo_time_structure():
    ham0 = build_quasifree(0.5, 0.25, 4)
    ham1 = build_quasifree(0.5, 0.1, 4)
    at_zero = exact_le(ham0, ham1, 2.0, 0.0)
    assert at_zero.le == pytest.approx(1.0, abs=1e-12)
    rho0 = gibbs(ham0, 2.0)
    assert at_zero.lef == pytest.approx(float(np.trace(rho0 @ rho0).real), rel=1e-12)
    t = np.linspace(0.5, 9.5, 7)
    assert np.allclose(exact_le(ham0, ham1, 2.0, t).le,
                       exact_le(ham0, ham1, 2.0, -t).le, atol=1e-12)
    out = exact_le(ham0, ham1, 2.0, t).le
    assert out.shape == (7,)
    assert isinstance(exact_le(ham0, ham1, 2.0, 1.0).le, float)


def _perturbative_quench():
    rng = np.random.default_rng(67)
    return random_hermitian(5, rng), 1e-3 * random_hermitian(5, rng)


def test_oracle_times_of_any_shape():
    ham0 = build_quasifree(0.5, 0.25, 4)
    ham1 = build_quasifree(0.5, 0.1, 4)
    t = np.linspace(-3.0, 7.0, 6).reshape(2, 3)
    grid = exact_le(ham0, ham1, 2.0, t)
    flat = exact_le(ham0, ham1, 2.0, t.ravel())
    assert grid.le.shape == grid.lef.shape == (2, 3)
    assert np.array_equal(grid.le, flat.le.reshape(2, 3))
    assert np.array_equal(grid.lef, flat.lef.reshape(2, 3))
    ham, v = _perturbative_quench()
    pert = perturbative_le(ham, v, 1.0, t)
    assert pert.shape == (2, 3)
    assert np.array_equal(pert, perturbative_le(ham, v, 1.0, t.ravel()).reshape(2, 3))
    assert isinstance(perturbative_le(ham, v, 1.0, 0.5), float)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_oracle_rejects_non_finite_times(bad):
    ham0 = build_quasifree(0.5, 0.25, 2)
    ham1 = build_quasifree(0.5, 0.1, 2)
    ham, v = _perturbative_quench()
    for t in (bad, np.array([[0.0, 1.0], [bad, 2.0]])):
        with pytest.raises(ValueError, match="times must be finite"):
            exact_le(ham0, ham1, 2.0, t)
        with pytest.raises(ValueError, match="times must be finite"):
            perturbative_le(ham, v, 1.0, t)


def _full_space_echo(ham0, ham1, beta, t):
    """Reference route for ``oracle.exact_le``: the whole space at once.

    Diagonalises both operators in the full space, with no block split, and
    returns the echo and overlap echo at the times ``t`` (an array), the
    purity and the dephased purity.
    """
    s0 = spectral(ham0, beta=beta)
    s1 = spectral(ham1)
    m = s0.states.conj().T @ s1.states
    sp = np.sqrt(s0.gibbs_weights)
    le = np.empty(len(t))
    lef = np.empty(len(t))
    for i, tt in enumerate(t):
        u = (m * np.exp(-1j * s1.energies * float(tt))) @ m.conj().T
        b = (sp[:, None] * u) * sp[None, :]
        le[i] = np.linalg.svd(b, compute_uv=False).sum() ** 2
        lef[i] = float(np.sum(np.abs(b) ** 2))
    r = (m.conj().T * s0.gibbs_weights) @ m
    labels = np.zeros(s1.energies.size, dtype=int)
    labels[1:] = np.cumsum(np.diff(s1.energies) > 1e-10)
    mask = labels[:, None] == labels[None, :]
    return le, lef, float(np.sum(s0.gibbs_weights**2)), float(np.sum(np.abs(r * mask) ** 2))


def _assert_matches_full_space(ham0, ham1, beta, t, tol):
    dense = exact_le(ham0, ham1, beta, t)
    le, lef, purity, dephased = _full_space_echo(ham0, ham1, beta, t)
    assert np.max(np.abs(dense.le - le)) < tol
    assert np.max(np.abs(dense.lef - lef)) < tol
    assert abs(dense.purity - purity) < tol
    assert abs(dense.dephased_purity - dephased) < tol


@pytest.mark.parametrize("length", [2, 4, 6, 8])
@pytest.mark.parametrize("kind", ["random", "number_conserving", "zero_field"])
def test_block_route_matches_full_space(length, kind):
    rng = np.random.default_rng(7 * length + len(kind))
    for _ in range(2):
        h0, h1 = rng.uniform(-2, 2, 2)
        g0, g1 = rng.uniform(-1.5, 1.5, 2)
        if kind == "number_conserving":  # L + 1 blocks
            g0 = g1 = 0.0
        if kind == "zero_field":  # post-quench levels degenerate across blocks
            h1 = 0.0
        beta = float(rng.uniform(0.1, 8.0))
        _assert_matches_full_space(build_quasifree(h0, g0, length),
                                   build_quasifree(h1, g1, length), beta,
                                   rng.uniform(0.0, 20.0, 4), 1e-13)


def test_blocks_are_the_symmetry_sectors():
    parity = [b.size for b in oracle._blocks(build_quasifree(0.4, 0.3, 8),
                                             build_quasifree(-0.9, -0.7, 8))]
    assert parity == [128, 128]
    number = [b.size for b in oracle._blocks(build_quasifree(0.4, 0.0, 8),
                                             build_quasifree(-0.9, 0.0, 8))]
    assert number == [math.comb(8, n) for n in range(9)]
    rng = np.random.default_rng(79)
    assert len(oracle._blocks(random_hermitian(16, rng), random_hermitian(16, rng))) == 1


def test_block_route_keeps_dense_matrices_bit_identical():
    rng = np.random.default_rng(83)
    ham0 = random_hermitian(12, rng)
    ham1 = ham0 + 0.3 * random_hermitian(12, rng)
    t = rng.uniform(0.0, 10.0, 4)
    dense = exact_le(ham0, ham1, 1.7, t)
    le, lef, purity, dephased = _full_space_echo(ham0, ham1, 1.7, t)
    assert np.array_equal(dense.le, le)
    assert np.array_equal(dense.lef, lef)
    assert dense.purity == purity
    assert dense.dephased_purity == dephased
    scalar = exact_le(ham0, ham1, 1.7, float(t[0]))
    assert isinstance(scalar.lef, float)
    assert scalar.le == le[0] and scalar.lef == lef[0]


def test_gibbs_weights_normalised_over_all_blocks():
    # an odd-parity shift puts the ground state in the odd sector; at large
    # beta the even block then holds almost no weight, so weights normalised
    # within each block would count it as a second whole state
    odd = np.array([bin(i).count("1") % 2 for i in range(2**6)], dtype=float)
    ham0 = build_quasifree(0.6, 0.8, 6) - 3.0 * np.diag(odd)
    ham1 = build_quasifree(-0.4, 0.5, 6)
    assert len(oracle._blocks(ham0, ham1)) == 2
    ground = np.linalg.eigh(ham0)[1][:, 0]
    assert np.sum(np.abs(ground[odd == 0]) ** 2) < 1e-20
    t = np.array([0.0, 0.9, 4.1])
    _assert_matches_full_space(ham0, ham1, 30.0, t, 1e-13)
    assert exact_le(ham0, ham1, 30.0, t).le[0] == pytest.approx(1.0, abs=1e-12)


def test_blas_threads_pinned_for_the_suite():
    # set in conftest.py before numpy loads, so dense SVDs do not slow down
    # when other processes compete for the cores
    assert os.environ.get("OPENBLAS_NUM_THREADS")


def test_dephase_commuting_is_identity_map():
    # same eigenbasis, distinct spacings: time averaging changes nothing
    rng = np.random.default_rng(43)
    basis = _random_unitary(5, rng)
    e0 = np.array([0.0, 0.4, 1.1, 2.3, 3.1])
    e1 = np.array([0.0, 0.9, 2.1, 4.6, 7.9])
    ham0 = (basis * e0) @ basis.conj().T
    ham1 = (basis * e1) @ basis.conj().T
    rho0 = gibbs(ham0, 1.2)
    assert np.max(np.abs(dephase(rho0, ham1) - rho0)) < 1e-12


def test_dephase_keeps_degenerate_blocks():
    ham1 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    rho0 = np.array([
        [0.4, 0.1 + 0.05j, 0.02],
        [0.1 - 0.05j, 0.35, 0.01j],
        [0.02, -0.01j, 0.25],
    ])
    out = dephase(rho0, ham1)
    # coherence inside the degenerate pair survives, across the gap it dies
    assert out[0, 1] == pytest.approx(rho0[0, 1], abs=1e-14)
    assert out[0, 2] == 0.0 and out[1, 2] == 0.0
    assert np.trace(out).real == pytest.approx(1.0, rel=1e-14)


def test_dephase_infinite_temperature_fixed_point():
    ham1 = build_quasifree(0.9, 0.7, 2)
    rho0 = np.eye(4, dtype=complex) / 4.0
    assert np.max(np.abs(dephase(rho0, ham1) - rho0)) < 1e-14


def test_dephased_purity_two_routes():
    rng = np.random.default_rng(47)
    for _ in range(5):
        h0, h1 = rng.uniform(-2, 2, 2)
        g0, g1 = rng.uniform(-1.5, 1.5, 2)
        beta = rng.uniform(0.2, 5.0)
        ham0 = build_quasifree(h0, g0, 4)
        ham1 = build_quasifree(h1, g1, 4)
        direct = exact_le(ham0, ham1, beta, 0.0).dephased_purity
        rho_bar = dephase(gibbs(ham0, beta), ham1)
        assert direct == pytest.approx(float(np.trace(rho_bar @ rho_bar).real),
                                       abs=1e-12)


def test_trace_distance_basics():
    rng = np.random.default_rng(53)
    rho = _random_density(4, rng)
    sigma = _random_density(4, rng)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    d = trace_distance(rho, sigma)
    assert 0.0 <= d <= 1.0 + 1e-13
    assert d == pytest.approx(trace_distance(sigma, rho), abs=1e-14)


def test_evolution_stays_near_initial_state(pinned):
    # max_t ||rho(t) - rho0||_1 scales linearly with the perturbation size
    cfg = pinned["trace_distance_stability"]
    rng = np.random.default_rng(cfg["seed"])
    ham0 = random_hermitian(cfg["dim"], rng)
    pert = random_hermitian(cfg["dim"], rng)
    beta = cfg["beta"]
    rho0 = gibbs(ham0, beta)
    t_grid = np.linspace(0.0, 40.0, 161)

    def max_excursion(scale):
        ham1 = ham0 + scale * pert
        energies, states = np.linalg.eigh(ham1)
        worst = 0.0
        for t in t_grid:
            u = (states * np.exp(-1j * energies * t)) @ states.conj().T
            worst = max(worst, trace_distance(u @ rho0 @ u.conj().T, rho0))
        return worst

    big = max_excursion(cfg["scale"])
    small = max_excursion(cfg["scale"] / 2.0)
    lo, hi = cfg["halving_ratio_window"]
    assert lo <= big / small <= hi


def test_perturbative_echo_diagonal_quench_is_flat():
    rng = np.random.default_rng(59)
    ham0 = random_hermitian(6, rng)
    energies, states = np.linalg.eigh(ham0)
    v = (states * rng.normal(size=6)) @ states.conj().T
    t = np.linspace(0.0, 10.0, 11)
    assert np.allclose(perturbative_le(ham0, 1e-2 * v, 1.0, t), 1.0, atol=1e-12)
    assert perturbative_le_average(ham0, 1e-2 * v, 1.0) == pytest.approx(1.0,
                                                                         abs=1e-12)


def test_perturbative_echo_tracks_exact_for_small_coupling():
    rng = np.random.default_rng(61)
    ham0 = random_hermitian(8, rng)
    v = 1e-4 * random_hermitian(8, rng)
    for t in (0.8, 2.2):
        exact = exact_le(ham0, ham0 + v, 1.0, t).le
        pert = perturbative_le(ham0, v, 1.0, t)
        assert pert == pytest.approx(exact, abs=1e-7)


def test_perturbative_echo_rejects_degenerate_base():
    ham0 = np.diag([0.0, 1.0, 1.0 + 1e-12, 2.0]).astype(complex)
    with pytest.raises(DegenerateSpectrumError):
        perturbative_le(ham0, 1e-3 * np.eye(4), 1.0, 1.0)


def test_perturbative_average_approaches_one_when_hot():
    rng = np.random.default_rng(67)
    ham0 = random_hermitian(6, rng)
    v = 1e-2 * random_hermitian(6, rng)
    assert perturbative_le_average(ham0, v, 1e-9) == pytest.approx(1.0, abs=1e-12)


def test_bures_decomposition_structure(pinned):
    cfg = pinned["bures_relation"]
    rng = np.random.default_rng(cfg["seed"])
    ham0 = random_hermitian(cfg["dim"], rng)
    pert = random_hermitian(cfg["dim"], rng)
    v = cfg["scale"] * pert
    metric = bures_decomposition(ham0, v, cfg["beta"])
    assert isinstance(metric, BuresMetric)
    assert metric.ds2 == pytest.approx(metric.ds2_fr / 4.0 + metric.nonclassical,
                                       rel=1e-12)
    assert metric.ds2_fr >= 0.0 and metric.nonclassical >= 0.0


def test_bures_commuting_perturbation_is_classical():
    rng = np.random.default_rng(71)
    ham0 = random_hermitian(5, rng)
    energies, states = np.linalg.eigh(ham0)
    dh = 1e-3 * ((states * rng.normal(size=5)) @ states.conj().T)
    metric = bures_decomposition(ham0, dh, 2.0)
    assert metric.nonclassical == pytest.approx(0.0, abs=1e-18)
    assert metric.ds2 == pytest.approx(metric.ds2_fr / 4.0, rel=1e-12)


def test_generic_damping_exponential_identity():
    energies = np.array([0.0, 0.7, 1.8, 3.2])
    beta = 1.7
    report = damping_generic(energies, beta)
    z = float(np.sum(np.exp(-beta * energies)))
    gaps = energies[1:] - energies[0]
    expected = (math.exp(-beta * energies[0]) / z
                * (np.exp(-beta * gaps) - 1.0) ** 2 / (np.exp(-beta * gaps) + 1.0))
    assert np.allclose(report.d_factors[1:], expected, rtol=1e-12)
    assert report.d_factors[0] == 0.0
    assert np.all((report.d_factors >= 0.0) & (report.d_factors <= 1.0))


def test_generic_damping_limits():
    energies = np.array([0.0, 0.5, 1.4])
    cold = damping_generic(energies, 4000.0)
    assert np.allclose(cold.d_factors[1:], 1.0, atol=1e-12)
    beta = 1e-4
    hot = damping_generic(energies, beta)
    gaps = energies[1:] - energies[0]
    quadratic = (beta * gaps) ** 2 / (2.0 * len(energies))
    assert np.allclose(hot.d_factors[1:], quadratic, rtol=1e-3)


def test_generic_damping_couplings_cross_route():
    rng = np.random.default_rng(73)
    ham0 = random_hermitian(6, rng)
    v = random_hermitian(6, rng)
    beta = 1.1
    report = perturbation_report(ham0, v, beta)
    s0 = spectral(ham0, beta=beta)
    v_mat = s0.states.conj().T @ v @ s0.states
    generic = damping_generic(s0.energies, beta, couplings=v_mat[:, 0])
    assert np.allclose(generic.w_thermal[1:], 2.0 * report.c_table[1:, 0],
                       rtol=1e-11)
    assert generic.chi_f == pytest.approx(
        float(np.sum(generic.w_zero[1:])), rel=1e-13)
    assert np.allclose(report.w_thermal, 2.0 * report.c_table[:, 0], atol=0)


def test_perturbation_report_diagonalises_once(monkeypatch):
    rng = np.random.default_rng(29)
    ham0 = random_hermitian(6, rng)
    v = 1e-2 * random_hermitian(6, rng)
    beta = 0.7
    # the two-call route: the shared pieces, then the metric from scratch
    s0, v_mat, c = oracle._perturbation_pieces(ham0, v, beta)
    metric = bures_decomposition(ham0, v, beta)
    damping = damping_generic(s0.energies, beta, couplings=v_mat[:, 0])
    expected = dict(
        c_table=c, w_thermal=2.0 * c[:, 0], d_factors=damping.d_factors,
        chi_f=damping.chi_f, ds2=metric.ds2, ds2_fr=metric.ds2_fr,
        nonclassical=metric.nonclassical, lbar_perturbative=1.0 - float(np.sum(c)),
    )
    calls = []
    real_spectral = oracle.spectral

    def counting_spectral(*args, **kwargs):
        calls.append(args)
        return real_spectral(*args, **kwargs)

    monkeypatch.setattr(oracle, "spectral", counting_spectral)
    report = perturbation_report(ham0, v, beta)
    assert len(calls) == 1
    fields = {f.name for f in dataclasses.fields(report)}
    assert fields == set(expected)
    for name in fields:
        assert np.array_equal(getattr(report, name), expected[name]), name


def test_generic_damping_rejects_bad_spectra():
    with pytest.raises(ValueError):
        damping_generic(np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        damping_generic(np.array([1.0, 0.5]), 1.0)
    with pytest.raises(DegenerateSpectrumError):
        damping_generic(np.array([0.0, 1e-13, 1.0]), 1.0)


def test_qubit_inequality_sweep(pinned):
    cfg = pinned["qubit_inequality"]
    report = verify.qubit_inequality(**cfg)
    assert set(report) == {"passed", "violations", "min_slack", "max_closed_form_dev",
                           "max_route_dev"}
    assert report["passed"] is True and report["violations"] == 0
    with pytest.raises(ValueError, match="n_trials"):
        verify.qubit_inequality(**{**cfg, "n_trials": 0})


def test_qubit_inequality_edge_cases():
    # maximally mixed: both sides equal one
    mixed = _bloch([0.0, 0.0, 0.0])
    rot = _bloch([0.0, 0.0, 0.0])
    assert uhlmann(mixed, rot) == pytest.approx(1.0, abs=1e-13)
    # pure states: fidelity equals the normalized overlap exactly
    v = np.array([0.0, 0.0, 1.0])
    w = np.array([math.sin(0.7), 0.0, math.cos(0.7)])
    rho, sigma = _bloch(v), _bloch(w)
    overlap = float(np.trace(rho @ sigma).real)
    purity = float(np.trace(rho @ rho).real)
    assert uhlmann(rho, sigma) == pytest.approx(overlap / purity, abs=1e-12)


def test_q_function_zero_line_and_sign():
    x = np.linspace(-20.0, 20.0, 201)
    assert np.all(q_function(x, np.zeros_like(x)) == 0.0)
    grid_x, grid_v = np.meshgrid(np.linspace(-15, 15, 301),
                                 np.linspace(0.0, 2.0, 101))
    vals = q_function(grid_x, grid_v)
    assert np.min(vals) >= -1e-12
    assert np.max(vals) > 0.0


def test_q_function_concave_in_second_argument():
    v = np.linspace(0.0, 2.0, 401)
    for x in (0.3, 1.0, 4.0, 50.0):
        q = q_function(np.full_like(v, x), v)
        second = np.diff(q, 2)
        assert np.max(second) <= 1e-10


def test_q_function_domain_errors():
    with pytest.raises(ValueError):
        q_function(301.0, 1.0)
    with pytest.raises(ValueError):
        q_function(1.0, -0.1)
    with pytest.raises(ValueError):
        q_function(1.0, 2.1)
    with pytest.raises(ValueError):
        q_function(math.nan, 1.0)


def test_q_function_scan_summary():
    scan = verify.q_function_scan(x_max=20.0, v_max=2.0, nx=201, nv=201)
    assert scan["min_value"] >= -1e-12
    assert scan["max_abs_at_v_zero"] <= 1e-11
    assert scan["max_v_curvature"] <= 1e-10
    assert scan["passed"] is True
    with pytest.raises(ValueError, match="v_max"):
        verify.q_function_scan(x_max=20.0, v_max=2.5, nx=201, nv=201)


@pytest.mark.parametrize("block_bytes", [1, 8 * 33 * 3, 8 * 33 * 7])
def test_q_function_scan_blocks_do_not_change_results(block_bytes, monkeypatch):
    # one row, three rows and seven rows per block, the last block ragged
    whole = verify.q_function_scan(x_max=25.0, v_max=1.5, nx=50, nv=33)
    monkeypatch.setattr(verify, "_SCAN_BLOCK_BYTES", block_bytes)
    assert verify.q_function_scan(x_max=25.0, v_max=1.5, nx=50, nv=33) == whole


# every suite of verify.__all__ at a small size; a new suite needs an entry
_SMALL_SUITE_DATA = {
    "oracle_equivalence": {
        "seed": 1, "lengths": (2, 4), "n_param_sets": 1, "n_times": 2,
        "field_range": (-2.0, 2.0), "anisotropy_range": (-1.5, 1.5),
        "beta_range": (0.1, 8.0), "time_range": (0.0, 20.0), "max_abs_residual": 1e-9,
    },
    "bound_suite": {
        "seed": 2, "n_trials": 20, "max_length": 20, "field_range": (-2.0, 2.0),
        "anisotropy_range": (-1.5, 1.5), "beta_range": (0.1, 8.0),
        "time_range": (-20.0, 50.0), "slack_floor": -1e-12, "t0_tolerance": 1e-12,
    },
    "qubit_inequality": {
        "seed": 3, "n_trials": 2000, "slack_floor": -1e-12,
        "closed_form_tolerance": 1e-12, "route_tolerance": 1e-10,
    },
    "q_function_scan": {"x_max": 20.0, "v_max": 2.0, "nx": 40, "nv": 30},
    "perturbation_scaling": {
        "seed": 4, "dim": 8, "beta": 1.0, "times": (0.7, 1.3, 2.6), "base_scale": 1e-3,
        "halvings": 2, "ratio_low": 5.6, "ratio_high": 10.4,
    },
    "bures_relation": {"seed": 5, "dim": 4, "beta": 1.0, "scale": 1e-3, "max_residual": 1e-8},
}


def _plain_json(value) -> bool:
    """Whether ``value`` is built only of Python's own JSON types."""
    if isinstance(value, dict):
        return all(type(k) is str and _plain_json(v) for k, v in value.items())
    if isinstance(value, list):
        return all(map(_plain_json, value))
    return type(value) in (bool, int, float, str, type(None))


def test_every_suite_reports_plain_json_types():
    # a numpy.bool_ verdict makes json.dumps raise, and a numpy float slips
    # through it unnoticed, so the types are checked one by one
    assert set(_SMALL_SUITE_DATA) == set(verify.__all__)
    for name, data in _SMALL_SUITE_DATA.items():
        report = getattr(verify, name)(**data)
        assert type(report["passed"]) is bool, name
        assert _plain_json(report), (name, report)


def _bound_suite_draws(monkeypatch, **overrides):
    """The chains and times ``bound_suite`` hands to ``echo_chains``, and
    the names of the ``Generator`` methods it called."""
    data = {**_SMALL_SUITE_DATA["bound_suite"], **overrides}
    seen, calls = [], []
    real_chains, real_rng = verify.echo.echo_chains, verify.np.random.default_rng

    def capturing_chains(chains, t):
        seen.append((list(chains), np.array(t)))
        return real_chains(chains, t)

    class CountingRng:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return counted

    with monkeypatch.context() as patch:
        patch.setattr(verify.echo, "echo_chains", capturing_chains)
        patch.setattr(verify.np.random, "default_rng",
                      lambda *args: CountingRng(real_rng(*args)))
        report = verify.bound_suite(**data)
    assert report["passed"] is True
    (chains, times), = seen
    return data, chains, times, calls


@pytest.mark.parametrize("n_trials", [1, 20])
def test_bound_suite_draws_its_chains_in_bulk(n_trials, monkeypatch):
    data, chains, times, calls = _bound_suite_draws(monkeypatch, n_trials=n_trials)
    # one draw per quantity, where a draw per chain and quantity made 5 * n_trials
    assert len(calls) == 5
    assert len(chains) == n_trials and times.shape == (n_trials, 2)
    for p in chains:
        assert type(p.length) is int and p.length % 2 == 0
        assert 2 <= p.length <= data["max_length"]
        for value, (low, high) in ((p.h0, data["field_range"]), (p.h1, data["field_range"]),
                                   (p.gamma0, data["anisotropy_range"]),
                                   (p.gamma1, data["anisotropy_range"]),
                                   (p.beta, data["beta_range"])):
            assert low <= value <= high
    low, high = data["time_range"]
    assert np.all((low <= times[:, 0]) & (times[:, 0] <= high))
    assert np.all(times[:, 1] == 0.0)


def test_bound_suite_draws_are_seeded(monkeypatch):
    _, chains, times, _ = _bound_suite_draws(monkeypatch)
    _, again, again_times, _ = _bound_suite_draws(monkeypatch)
    assert again == chains and np.array_equal(again_times, times)
    _, other, _, _ = _bound_suite_draws(monkeypatch, seed=7)
    assert other != chains
    assert len({p.length for p in chains}) > 1


@pytest.mark.parametrize("n_trials", [0, -3])
def test_bound_suite_needs_a_trial(n_trials):
    # with no chain the worst slack was inf, which json.dumps writes as Infinity
    with pytest.raises(ValueError, match="n_trials"):
        verify.bound_suite(**{**_SMALL_SUITE_DATA["bound_suite"], "n_trials": n_trials})


def _nan_echo(monkeypatch):
    """Make ``echo.echo_point`` return NaN echoes."""
    real = echo.echo_point

    def nan_point(table, t):
        pt = real(table, t)
        return dataclasses.replace(pt, le=np.full_like(pt.le, math.nan))

    monkeypatch.setattr(echo, "echo_point", nan_point)


@pytest.mark.parametrize("field, key", [
    ("le", "worst_abs_error"),
    ("mean_lef", "worst_abs_error"),
    ("d_eff", "worst_d_eff_error"),
])
def test_oracle_equivalence_fails_on_nan(field, key, monkeypatch):
    # Python's max drops a NaN that is not its first argument, so a NaN
    # after the first chain used to leave the suite passing
    if field == "le":
        _nan_echo(monkeypatch)
    else:
        real = averages.long_time
        monkeypatch.setattr(averages, "long_time", lambda table: dataclasses.replace(
            real(table), **{field: math.nan}))
    report = verify.oracle_equivalence(**_SMALL_SUITE_DATA["oracle_equivalence"])
    assert report["passed"] is False
    assert math.isnan(report[key])


def test_qubit_inequality_fails_on_nan(monkeypatch):
    monkeypatch.setattr(oracle, "uhlmann", lambda rho, sigma: math.nan)
    report = verify.qubit_inequality(**_SMALL_SUITE_DATA["qubit_inequality"])
    assert report["passed"] is False
    assert math.isnan(report["max_route_dev"])


def test_random_hermitian_is_seeded_and_hermitian():
    a = random_hermitian(5, np.random.default_rng(101))
    b = random_hermitian(5, np.random.default_rng(101))
    assert np.array_equal(a, b)
    assert np.array_equal(a, a.conj().T)


def test_hermitian_defect_measures_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    assert oracle._hermitian_defect(m) == pytest.approx(2.0)
    assert oracle._hermitian_defect(np.eye(3)) == 0.0
