"""Reference routes that only the tests use.

None of these runs in any ``thermalecho`` command; they back acceptance
criteria 07, 09 and 11 and the unit tests that pin them.  The Bessel
function and the characteristic function built on it give the analytic
log-echo distribution of a weak quench; the generic damping factors and the
perturbation report are the dense, second-order picture of one small
quench; ``elliptic_e`` is the checked scalar-or-array wrapper around the
AGM loop that :mod:`thermalecho.averages` runs, so testing it tests that
loop.  The bell widths found by finite differences on a fine grid check
the closed-form widths of :mod:`thermalecho.stats`.  ``exact_le_per_time``
and ``qubit_inequality_rows`` are the former one-time-at-a-time dense echo
and ``(n, 3)`` qubit suite, which the batched routes must match bit for
bit, ``chain_columns`` turns a list of quenches into the columns
``model._blocks`` takes, ``chains_of`` reads a block's quenches back
from those columns and the block's indices, and ``b`` is the per-mode
coefficient that the series references of the long-time averages expand in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from thermalecho import model, oracle, verify
from thermalecho.special import _elliptic_ek
from thermalecho.stats import WeightSpectrum, bell_aniso, bell_ising

_J0_SERIES_CUTOFF = 13.0
_J0_ASYMPTOTIC_TERMS = 18


def elliptic_e(m) -> np.ndarray | float:
    """Complete elliptic integral of the second kind, parameter convention.

    ``E(m) = integral_0^{pi/2} sqrt(1 - m sin(t)**2) dt`` from the library's
    AGM loop, good to about 1e-14 over ``[0, 1)``.

    Raises
    ------
    ValueError
        If any entry of ``m`` lies outside ``[0, 1)``.
    """
    m_arr = np.asarray(m, dtype=float)
    scalar = m_arr.ndim == 0
    m_arr = np.atleast_1d(m_arr)
    if np.any(~np.isfinite(m_arr)) or np.any(m_arr < 0.0) or np.any(m_arr >= 1.0):
        raise ValueError("elliptic_e requires 0 <= m < 1")
    out = _elliptic_ek(m_arr)[0]
    return float(out[0]) if scalar else out


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
    """Bessel function of the first kind of order zero, to about 1e-11.

    Power series below ``|x| = 13``, Hankel asymptotics above; the two
    branches agree to ~1e-12 at the crossover.  Any finite real argument.
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


def char_fn(spectrum: WeightSpectrum, lam) -> np.ndarray | float:
    """Characteristic function of the centered log-echo.

    A product of Bessel functions, one per mode: ``prod J0(|lam * a_k|)``.
    Real, equal to 1 at ``lam = 0``, and bounded by 1 in magnitude.
    """
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    if np.any(~np.isfinite(lam_arr)):
        raise ValueError("lambda grid must be finite")
    vals = bessel_j0(np.abs(np.multiply.outer(lam_arr, spectrum.a)))
    out = np.prod(np.atleast_2d(vals), axis=-1)
    return float(out[0]) if scalar else out


def inflection_right_of_peak(f, lo: float, hi: float, n: int = 200001) -> float:
    """Abscissa of the first inflection point right of the maximum of ``f``,
    from finite differences on an ``n``-point grid over ``[lo, hi]``."""
    w = np.linspace(lo, hi, n)[1:-1]
    y = f(w)
    d2 = np.gradient(np.gradient(y, w), w)
    i_peak = int(np.argmax(y))
    sign = np.sign(d2)
    crossings = np.nonzero((sign[:-1] < 0) & (sign[1:] >= 0))[0]
    crossings = crossings[crossings >= i_peak]
    if crossings.size == 0:
        raise ValueError("no inflection point right of the peak")
    i = int(crossings[0])
    x0, x1 = w[i], w[i + 1]
    y0, y1 = d2[i], d2[i + 1]
    return float(x0 - y0 * (x1 - x0) / (y1 - y0))


def bell_width_ising(h0: float, dh: float = 1.0) -> float:
    """Numeric inflection width of the transverse-field bell of amplitude ``dh``."""
    e_lo, e_hi = sorted((abs(1.0 - h0), abs(1.0 + h0)))
    return inflection_right_of_peak(lambda w: bell_ising(w, h0, dh), e_lo, e_hi)


def bell_width_aniso(gamma0: float, dgamma: float = 1.0) -> float:
    """Numeric inflection width of the anisotropy bell of amplitude ``dgamma``."""
    return inflection_right_of_peak(lambda w: bell_aniso(w, gamma0, dgamma), abs(gamma0), 1.0)


def damping(omega, temperature: float, m: int = 1) -> np.ndarray | float:
    """Thermal damping factor ``1 - cosh(omega / T)**-m``.

    Descriptive form of the per-mode factors ``1 - cinv**m``; the exact
    tables use the latter.  ``m`` must be 1 or 2; temperature positive.
    """
    if m not in (1, 2):
        raise ValueError(f"m must be 1 or 2, got {m}")
    if not (temperature > 0.0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = np.abs(np.asarray(omega, dtype=float)) / temperature
    # 1 - sech(x) and 1 - sech(x)**2 without cancellation
    out = np.tanh(x) * np.tanh(0.5 * x) if m == 1 else np.tanh(x) ** 2
    return float(out) if out.ndim == 0 else out


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
    if gap <= oracle._GAP_TOL:
        raise oracle.DegenerateSpectrumError(f"ground state degenerate: first gap {gap:.3e}")
    p = oracle._gibbs_weights(e, beta)
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
    their damping, the Bures metric split, and the averaged echo, all from
    one diagonalisation of ``H0``.
    """
    s0, v_mat, c = oracle._perturbation_pieces(H0, V, beta)
    metric = oracle._bures_metric(beta, s0, v_mat, c)
    generic = damping_generic(s0.energies, beta, couplings=v_mat[:, 0])
    return PerturbationReport(
        c_table=c,
        w_thermal=2.0 * c[:, 0],
        d_factors=generic.d_factors,
        chi_f=generic.chi_f,
        ds2=metric.ds2,
        ds2_fr=metric.ds2_fr,
        nonclassical=metric.nonclassical,
        lbar_perturbative=1.0 - float(np.sum(c)),
    )


def chain_columns(chains) -> dict[str, list]:
    """The quenches ``chains`` as ``model._blocks`` takes them: one list per field."""
    return {name: [getattr(p, name) for p in chains] for name in model._FIELDS}


def chains_of(columns, indices) -> list[model.QuenchParams]:
    """The quenches that ``columns``, lists or numpy arrays as
    ``model._blocks`` takes them, hold at ``indices``: for the ``indices``
    of a block, its chains in the order of its rows."""
    values = [np.asarray(columns[name])[indices].tolist() for name in model._FIELDS]
    return [model.QuenchParams(*chain) for chain in zip(*values)]


def b(table: model.ModeTable) -> np.ndarray:
    """Per-mode coefficient ``-(1 - cinv**2) * alpha`` of ``table``, in ``[-1, 0]``."""
    return -(table.one_minus_cinv2 * table.alpha)


def exact_le_per_time(H0, H1, beta: float, t) -> oracle.ExactEcho:
    """``oracle.exact_le`` as it was: one product and one SVD per block and time."""
    H0 = oracle._require_hermitian(H0, "H0")
    H1 = oracle._require_hermitian(H1, "H1")
    t_arr = oracle._flat_times(t)
    pairs = [(oracle.spectral(H0[np.ix_(b, b)]), oracle.spectral(H1[np.ix_(b, b)]))
             for b in oracle._blocks(H0, H1)]
    weights = oracle._gibbs_weights(np.concatenate([s0.energies for s0, _ in pairs]), beta)
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
        labels = np.cumsum(np.diff(s1.energies, prepend=s1.energies[0]) > oracle._GAP_TOL)
        dephased += float(np.sum(np.abs(r * (labels[:, None] == labels[None, :])) ** 2))
        sp = np.sqrt(p)
        for i, tt in enumerate(t_arr):
            u = (m * np.exp(-1j * s1.energies * float(tt))) @ mh
            b = (sp[:, None] * u) * sp[None, :]
            nuclear[i] += np.linalg.svd(b, compute_uv=False).sum()
            lef[i] += np.sum(np.abs(b) ** 2)
    return oracle.ExactEcho(le=oracle._shaped(nuclear**2, t), lef=oracle._shaped(lef, t),
                            purity=float(np.sum(weights**2)), dephased_purity=dephased)


def _bloch_state(v: np.ndarray) -> np.ndarray:
    return 0.5 * np.array(
        [[1.0 + v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], 1.0 - v[2]]]
    )


def qubit_inequality_rows(*, seed, n_trials, slack_floor, closed_form_tolerance,
                          route_tolerance) -> dict:
    """``verify.qubit_inequality`` as it was: vectors as the rows of ``(n, 3)``
    arrays, with ``np.cross`` and ``np.linalg.norm``."""
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
    fid = overlap + 0.5 * (1.0 - v2)
    slack = fid - overlap / purity
    closed = (v2 - dot) * (1.0 - v2) / 4.0
    violations = int(np.sum(slack < -1e-12))
    min_slack = float(np.min(slack))
    max_closed_form_dev = float(np.max(np.abs((purity * fid - overlap) - closed)))
    route_devs = [abs(oracle.uhlmann(_bloch_state(v[i]), _bloch_state(v_t[i])) - float(fid[i]))
                  for i in range(0, n_trials, verify._CROSS_CHECK_STRIDE)]
    max_route_dev = float(np.max(route_devs, initial=0.0))
    return {
        "passed": violations == 0
        and min_slack >= slack_floor
        and max_closed_form_dev < closed_form_tolerance
        and max_route_dev < route_tolerance,
        "violations": violations,
        "min_slack": min_slack,
        "max_closed_form_dev": max_closed_form_dev,
        "max_route_dev": max_route_dev,
    }
