"""Infinite-time averages: closed form vs series, variance, dense-oracle parity."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermalecho import (
    QuenchParams,
    SeriesConvergenceError,
    average_report,
    avg_linearized,
    avg_loschmidt,
    avg_loschmidt_series,
    effective_dimension,
    mode_table,
    smallquench_variance,
    variance_le,
)
from thermalecho import averages, oracle

fields = st.floats(-2.0, 2.0, allow_nan=False)
couplings = st.floats(-1.5, 1.5, allow_nan=False)
betas = st.floats(0.05, 30.0, allow_nan=False)


def _table(h0=0.5, h1=0.5, g0=0.25, g1=0.1, beta=10.0, length=40, **kw):
    return mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                   beta=beta, length=length, **kw))


def _series_factors_reference(table):
    """Mode-by-mode reference route for ``averages._series_factors``.

    Sums each mode's series on its own, one ``np.dot`` per Cauchy term, and
    stops that mode at the first term below ``_SERIES_RTOL`` in both sums.
    Returns ``(G1, G2, terms)``, where ``terms`` counts the terms each mode
    took (0 for ``b = 0``).
    """
    n = table.n_modes
    b_arr = table.b
    g1_arr = np.zeros(n)
    g2_arr = np.zeros(n)
    terms = np.zeros(n, dtype=int)
    for i in range(n):
        b = b_arr[i]
        if b == 0.0:
            continue
        cinv = table.cinv[i]
        pref = 2.0 * cinv / (1.0 + cinv) ** 2
        h = np.zeros(averages._SERIES_MAX_TERMS + 1)
        g1 = 0.0
        g2 = 0.0
        w = 1.0
        binom_half = 1.0
        b_pow = 1.0
        converged = False
        for m in range(1, averages._SERIES_MAX_TERMS + 1):
            w *= (2.0 * m - 1.0) / (2.0 * m)
            binom_half *= (1.5 - m) / m
            b_pow *= b
            h[m] = b / (1.0 + cinv) if m == 1 else pref * b_pow * binom_half
            gm = 2.0 * h[m] + float(np.dot(h[1:m], h[m - 1 : 0 : -1]))
            t1 = h[m] * w
            t2 = gm * w
            g1 += t1
            g2 += t2
            if (abs(t1) <= averages._SERIES_RTOL * abs(1.0 + g1)
                    and abs(t2) <= averages._SERIES_RTOL * abs(1.0 + g2)):
                converged = True
                break
        if not converged:
            raise SeriesConvergenceError(
                f"mode k={table.k[i]:.6f} with b={b:.6f} did not converge "
                f"in {averages._SERIES_MAX_TERMS} terms"
            )
        g1_arr[i] = g1
        g2_arr[i] = g2
        terms[i] = m
    return g1_arr, g2_arr, terms


def _assert_series_matches_reference(table):
    g1, g2 = averages._series_factors(table)
    ref_g1, ref_g2, terms = _series_factors_reference(table)
    np.testing.assert_allclose(g1, ref_g1, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(g2, ref_g2, rtol=1e-14, atol=0.0)
    return terms


@given(fields, fields, couplings, couplings, betas, st.integers(8, 20))
@settings(max_examples=100, deadline=None)
def test_series_matches_reference_property(h0, h1, g0, g1, beta, half_length):
    table = _table(h0=h0, h1=h1, g0=g0, g1=g1, beta=beta, length=2 * half_length)
    assume(float(np.max(np.abs(table.b))) <= 0.8)
    _assert_series_matches_reference(table)


def test_series_matches_reference_across_term_counts():
    # alternate modes: b ~ -1e-17 (one term) and |b| = 0.8 on warm modes
    # (over a hundred terms), so modes leave the sum at very different terms
    table = _table(h0=0.5, h1=0.5, g0=0.25, g1=0.1, beta=2.0, length=40)
    alpha = np.where(np.arange(table.n_modes) % 2 == 0, 1e-17,
                     np.minimum(1.0, 0.8 / table.one_minus_cinv2))
    table = dataclasses.replace(table, alpha=alpha)
    terms = _assert_series_matches_reference(table)
    assert np.min(terms) == 1
    assert np.max(terms) > 100
    assert len(np.unique(terms)) > 5


def test_series_matches_reference_without_quench():
    table = _table(h1=0.5, g1=0.25)
    assert not np.any(table.b)
    _assert_series_matches_reference(table)
    g1, g2 = averages._series_factors(table)
    assert not np.any(g1) and not np.any(g2)


def test_series_matches_reference_at_zero_temperature():
    table = _table(h0=0.9, h1=1.1, g0=1.0, g1=0.6, beta=None, length=30,
                   zero_temperature=True)
    assert np.all(table.cinv == 0.0)
    terms = _assert_series_matches_reference(table)
    assert np.max(terms) <= 3


def _assert_same_series_error(table):
    with pytest.raises(SeriesConvergenceError) as ref:
        _series_factors_reference(table)
    with pytest.raises(SeriesConvergenceError) as new:
        averages._series_factors(table)
    assert str(new.value) == str(ref.value)
    return str(new.value)


def test_series_error_names_the_reference_mode():
    # modes 32 and 33 both fail; the error names the lower one, and the
    # other once the lower one is quenched away
    table = _table(h0=0.2, h1=3.0, g0=1.0, g1=1.0, beta=2.0, length=100)
    assert _assert_same_series_error(table) == (
        "mode k=2.042035 with b=-0.903211 did not converge in 200 terms")
    alpha = np.where(np.arange(table.n_modes) == 32, 0.0, table.alpha)
    table = dataclasses.replace(table, alpha=alpha)
    assert _assert_same_series_error(table) == (
        "mode k=2.104867 with b=-0.901868 did not converge in 200 terms")


def test_closed_form_matches_series_on_grid():
    cases = [
        dict(),
        dict(h0=1.1, h1=0.9, g0=1.0, g1=1.0, beta=2.0),
        dict(h0=-0.4, h1=0.8, g0=0.6, g1=-0.3, beta=0.7, length=30),
        dict(h0=0.2, h1=0.2, g0=0.01, g1=-0.01, beta=40.0, length=70),
    ]
    for kw in cases:
        table = _table(**kw)
        assert avg_loschmidt(table) == pytest.approx(avg_loschmidt_series(table),
                                                     rel=1e-10)


@given(fields, fields, couplings, couplings, betas)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_series_property(h0, h1, g0, g1, beta):
    table = _table(h0=h0, h1=h1, g0=g0, g1=g1, beta=beta, length=16)
    assume(float(np.max(np.abs(table.b))) <= 0.8)
    assert avg_loschmidt(table) == pytest.approx(avg_loschmidt_series(table),
                                                 rel=1e-10)


def test_series_overflows_term_budget_when_pushed():
    # a near-orthogonal cold quench drives the expansion parameter past ~0.84
    table = _table(h0=0.0, h1=0.0, g0=1.0, g1=-1.0, beta=2.0, length=4)
    assert float(np.max(np.abs(table.b))) > 0.84
    with pytest.raises(SeriesConvergenceError):
        avg_loschmidt_series(table)
    with pytest.raises(SeriesConvergenceError):
        variance_le(table)
    # the closed form has no such restriction
    assert 0.0 < avg_loschmidt(table) <= 1.0


def test_zero_temperature_series_terminates():
    table = _table(h0=0.0, h1=0.0, g0=1.0, g1=-1.0, beta=None, length=4,
                   zero_temperature=True)
    assert avg_loschmidt_series(table) == pytest.approx(avg_loschmidt(table), rel=1e-12)
    assert variance_le(table) >= 0.0


def test_mean_linearized_equals_dephased_purity(pinned):
    cfg = pinned["oracle_equivalence"]
    rng = np.random.default_rng(cfg["seed"] + 7)
    for _ in range(6):
        h0, h1 = rng.uniform(-2.0, 2.0, 2)
        g0, g1 = rng.uniform(-1.5, 1.5, 2)
        beta = rng.uniform(0.1, 6.0)
        table = _table(h0=h0, h1=h1, g0=g0, g1=g1, beta=beta, length=4)
        ham0 = oracle.build_quasifree(h0, g0, 4)
        ham1 = oracle.build_quasifree(h1, g1, 4)
        assert avg_linearized(table) == pytest.approx(
            oracle.dephased_purity(ham0, ham1, beta), abs=1e-11)


@given(fields, fields, couplings, couplings, betas)
@settings(max_examples=100, deadline=None)
def test_mean_echo_between_averaged_bounds(h0, h1, g0, g1, beta):
    table = _table(h0=h0, h1=h1, g0=g0, g1=g1, beta=beta, length=20)
    assume(float(np.max(np.abs(table.b))) <= 0.8)
    dim = effective_dimension(table)
    mean_le = avg_loschmidt(table)
    mean_lef = avg_linearized(table)
    assert mean_lef * dim.d_eff <= mean_le + 1e-12
    assert mean_le <= mean_lef + 1.0 - dim.purity + 1e-12
    assert mean_lef <= mean_le + 1e-12
    assert 0.0 <= mean_le <= 1.0 + 1e-12


def test_zero_temperature_means_coincide():
    table = _table(h0=0.9, h1=1.1, g0=1.0, g1=1.0, beta=None, length=30,
                   zero_temperature=True)
    dim = effective_dimension(table)
    assert dim.d_eff == pytest.approx(1.0, rel=1e-14)
    assert avg_loschmidt(table) == pytest.approx(avg_linearized(table) * dim.d_eff,
                                                 rel=1e-12)


def test_variance_non_negative_and_monotone_in_beta():
    grid = np.linspace(10.0, 1.0, 10)
    values = [variance_le(_table(beta=b, length=50)) for b in grid]
    assert all(v >= 0.0 for v in values)
    # hotter start (smaller beta) never increases the spread
    assert all(values[i] >= values[i + 1] - 1e-15 for i in range(len(values) - 1))


def test_smallquench_variance_agrees_with_series():
    table = _table(g1=0.2495, length=50)
    assert float(np.max(np.abs(table.dtheta))) < 0.01
    full = variance_le(table)
    approx = smallquench_variance(table)
    assert approx == pytest.approx(full, rel=0.01)


def test_variance_vanishes_without_quench():
    table = _table(h1=0.5, g1=0.25)
    assert variance_le(table) == pytest.approx(0.0, abs=1e-30)
    assert avg_loschmidt(table) == pytest.approx(1.0, rel=1e-14)


def test_report_bundles_all_quantities():
    table = _table(length=30, beta=5.0)
    report = average_report(table)
    assert report.mean_le == pytest.approx(avg_loschmidt(table), rel=1e-14)
    assert report.mean_lef == pytest.approx(avg_linearized(table), rel=1e-14)
    assert report.var_le == pytest.approx(variance_le(table), rel=1e-14)
    assert report.smallquench_var == pytest.approx(smallquench_variance(table), rel=1e-14)
    # the equilibrium ensemble's purity is exactly the averaged overlap echo
    assert report.equilibrium_purity == report.mean_lef


def test_monte_carlo_time_average_consistency():
    # sampled mean of the product formula should approach the analytic mean
    from thermalecho import sample_logle

    params = QuenchParams(h0=0.8, h1=1.2, gamma0=0.7, gamma1=0.4, beta=2.0, length=16)
    table = mode_table(params)
    sample = sample_logle(mode_table(params), 100.0 * 16**2, 200_000, 13579)
    mc = float(np.mean(np.exp(sample.z)))
    se = math.sqrt(variance_le(table) / 200_000)
    assert abs(mc - avg_loschmidt(table)) < 4.0 * se
