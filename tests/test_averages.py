"""Infinite-time averages: phase moments vs series and longdouble references, oracle parity."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermalecho import QuenchParams, long_time, mode_table
from thermalecho import averages, model, oracle

import reference
from reference import chain_columns, chains_of

fields = st.floats(-2.0, 2.0, allow_nan=False)
couplings = st.floats(-1.5, 1.5, allow_nan=False)
betas = st.floats(0.05, 30.0, allow_nan=False)

_SERIES_MAX_TERMS = 200
_SERIES_RTOL = 1e-15


class SeriesConvergenceError(ArithmeticError):
    """The reference series did not settle within ``_SERIES_MAX_TERMS`` terms."""


def _table(h0=0.5, h1=0.5, g0=0.25, g1=0.1, beta=10.0, length=40):
    return mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                   beta=beta, length=length))


def _series_factors_reference(table):
    """Per-mode series sums ``(G1, G2)`` of the averaged factor and its square.

    ``1 + G1`` is the time average of one echo factor and ``1 + G2`` that of
    its square.  ``h[m]`` are the coefficients of the half-power expansion
    of the square root in ``b``, ``g[m]`` its square by Cauchy product, and
    the time average weights power ``m`` by ``4**-m * binom(2m, m)``.  Each
    mode stops at the first term below ``_SERIES_RTOL`` in both sums; the
    terms scale like ``|b|**m / m**1.5``, so modes with ``|b|`` above about
    0.84 raise.  Returns ``(G1, G2, terms)``, where ``terms`` counts the
    terms each mode took (0 for ``b = 0``).
    """
    n = table.n_modes
    b_arr = reference.b(table)
    g1_arr = np.zeros(n)
    g2_arr = np.zeros(n)
    terms = np.zeros(n, dtype=int)
    for i in range(n):
        b = b_arr[i]
        if b == 0.0:
            continue
        cinv = table.cinv[i]
        pref = 2.0 * cinv / (1.0 + cinv) ** 2
        h = np.zeros(_SERIES_MAX_TERMS + 1)
        g1 = 0.0
        g2 = 0.0
        w = 1.0
        binom_half = 1.0
        b_pow = 1.0
        converged = False
        for m in range(1, _SERIES_MAX_TERMS + 1):
            w *= (2.0 * m - 1.0) / (2.0 * m)
            binom_half *= (1.5 - m) / m
            b_pow *= b
            h[m] = b / (1.0 + cinv) if m == 1 else pref * b_pow * binom_half
            gm = 2.0 * h[m] + float(np.dot(h[1:m], h[m - 1 : 0 : -1]))
            t1 = h[m] * w
            t2 = gm * w
            g1 += t1
            g2 += t2
            if (abs(t1) <= _SERIES_RTOL * abs(1.0 + g1)
                    and abs(t2) <= _SERIES_RTOL * abs(1.0 + g2)):
                converged = True
                break
        if not converged:
            raise SeriesConvergenceError(
                f"mode k={table.k[i]:.6f} with b={b:.6f} did not converge "
                f"in {_SERIES_MAX_TERMS} terms"
            )
        g1_arr[i] = g1
        g2_arr[i] = g2
        terms[i] = m
    return g1_arr, g2_arr, terms


def avg_loschmidt_series(table):
    """Infinite-time average of the echo summed term by term."""
    g1, _, _ = _series_factors_reference(table)
    return float(np.exp(np.sum(np.log1p(g1))))


_PI = 4.0 * np.arctan(np.longdouble(1.0))


def _moments_reference(m, c):
    """Per-mode ``<f>`` and ``v`` in ``np.longdouble``, one mode at a time.

    The midpoint rule on ``g = f - 1`` over ``[0, pi)``: at least 2048
    nodes, and enough that ``exp(-2 N d)`` is below 1e-26, where ``d =
    acosh(1 / sqrt(m))`` is the half-width of the strip in which ``f`` is
    analytic.  At ``m = 1`` ``f`` has a kink, so the exact moments of
    ``r = |cos(phi)|`` are used instead.
    """
    means, vs = [], []
    for mi, ci in zip(np.asarray(m, dtype=float), np.asarray(c, dtype=float)):
        mi, ci = np.longdouble(mi), np.longdouble(ci)
        if mi == 1.0:
            r1, r2, r3, r4 = 2 / _PI, np.longdouble(0.5), 4 / (3 * _PI), np.longdouble(0.375)
            mean = (ci**2 + 2 * ci * r1 + r2) / (1 + ci) ** 2
            fourth = ci**4 + 4 * ci**3 * r1 + 6 * ci**2 * r2 + 4 * ci * r3 + r4
            means.append(mean)
            vs.append(fourth / (1 + ci) ** 4 - mean**2)
            continue
        n = 2048
        if mi > 0.0:
            n = max(n, 2 * math.ceil(30.0 / math.acosh(1.0 / math.sqrt(float(mi)))))
        s = np.sin((np.arange(n, dtype=np.longdouble) + 0.5) * (_PI / n)) ** 2
        r = np.sqrt(1 - mi * s)
        g = -mi * s * (r + 1 + 2 * ci) / ((1 + r) * (1 + ci) ** 2)
        means.append(1 + g.mean())
        vs.append(((g - g.mean()) ** 2).mean())
    return np.array(means), np.array(vs)


def _variance_reference(table):
    mean, v = _moments_reference(-reference.b(table), table.cinv)
    s1 = np.sum(np.log(mean))
    return np.exp(2 * s1) * np.expm1(np.sum(np.log1p(v / mean**2)))


def _assert_variance_matches_reference(table):
    var = long_time(table).var_le
    assert math.isfinite(var)
    assert var == pytest.approx(float(_variance_reference(table)), rel=1e-12, abs=0.0)


def _phase_moments(table):
    """Per-mode phase mean ``<f>`` and centred moment ``v``, as :func:`long_time` takes them."""
    m = table.one_minus_cinv2 * table.alpha
    mean = averages._mean_factors(m, table.cinv, table.one_minus_cinv, table.alpha)
    return mean, averages._centred(m, table.cinv, mean)


def _assert_moments_match_series(table):
    """``<f>`` and ``<f**2> = v + <f>**2`` of each mode against ``1 + G1, 1 + G2``."""
    mean, v = _phase_moments(table)
    g1, g2, terms = _series_factors_reference(table)
    np.testing.assert_allclose(mean, 1.0 + g1, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(v + mean**2, 1.0 + g2, rtol=1e-14, atol=0.0)
    return terms


@given(fields, fields, couplings, couplings, betas, st.integers(8, 20))
@settings(max_examples=100, deadline=None)
def test_phase_moments_match_series_property(h0, h1, g0, g1, beta, half_length):
    table = _table(h0=h0, h1=h1, g0=g0, g1=g1, beta=beta, length=2 * half_length)
    assume(float(np.max(np.abs(reference.b(table)))) <= 0.8)
    _assert_moments_match_series(table)


def test_phase_moments_match_series_across_branches():
    # alternate modes: b ~ -1e-17 (midpoint rule, one series term) and
    # |b| up to 0.8 on warm modes (closed form, over a hundred series terms)
    table = _table(h0=0.5, h1=0.5, g0=0.25, g1=0.1, beta=2.0, length=40)
    alpha = np.where(np.arange(table.n_modes) % 2 == 0, 1e-17,
                     np.minimum(1.0, 0.8 / table.one_minus_cinv2))
    table = dataclasses.replace(table, alpha=alpha)
    closed_form = -reference.b(table) > averages._MIDPOINT_MAX_M
    assert not np.any(closed_form[::2]) and np.sum(closed_form[1::2]) >= 5
    terms = _assert_moments_match_series(table)
    assert np.min(terms) == 1
    assert np.max(terms) > 100


def test_phase_moments_match_series_without_quench():
    table = _table(h1=0.5, g1=0.25)
    assert not np.any(reference.b(table))
    _assert_moments_match_series(table)
    mean, v = _phase_moments(table)
    assert np.all(mean == 1.0) and not np.any(v)


def test_phase_moments_match_series_at_zero_temperature():
    table = _table(h0=0.9, h1=1.1, g0=1.0, g1=0.6, beta=math.inf, length=30)
    assert np.all(table.cinv == 0.0)
    terms = _assert_moments_match_series(table)
    assert np.max(terms) <= 3


def test_series_error_names_the_reference_mode():
    # modes 32 and 33 both fail; the error names the lower one, and the
    # other once the lower one is quenched away
    table = _table(h0=0.2, h1=3.0, g0=1.0, g1=1.0, beta=2.0, length=100)
    with pytest.raises(SeriesConvergenceError) as exc:
        _series_factors_reference(table)
    assert str(exc.value) == "mode k=2.042035 with b=-0.903211 did not converge in 200 terms"
    alpha = np.where(np.arange(table.n_modes) == 32, 0.0, table.alpha)
    table = dataclasses.replace(table, alpha=alpha)
    with pytest.raises(SeriesConvergenceError) as exc:
        _series_factors_reference(table)
    assert str(exc.value) == "mode k=2.104867 with b=-0.901868 did not converge in 200 terms"


def test_closed_form_matches_series_on_grid():
    cases = [
        dict(),
        dict(h0=1.1, h1=0.9, g0=1.0, g1=1.0, beta=2.0),
        dict(h0=-0.4, h1=0.8, g0=0.6, g1=-0.3, beta=0.7, length=30),
        dict(h0=0.2, h1=0.2, g0=0.01, g1=-0.01, beta=40.0, length=70),
    ]
    for kw in cases:
        table = _table(**kw)
        assert long_time(table).mean_le == pytest.approx(avg_loschmidt_series(table),
                                                     rel=1e-10)


@given(fields, fields, couplings, couplings, betas)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_series_property(h0, h1, g0, g1, beta):
    table = _table(h0=h0, h1=h1, g0=g0, g1=g1, beta=beta, length=16)
    assume(float(np.max(np.abs(reference.b(table)))) <= 0.8)
    assert long_time(table).mean_le == pytest.approx(avg_loschmidt_series(table),
                                                 rel=1e-10)


def test_series_overflows_term_budget_when_pushed():
    # a near-orthogonal cold quench drives the expansion parameter past ~0.84
    table = _table(h0=0.0, h1=0.0, g0=1.0, g1=-1.0, beta=2.0, length=4)
    assert float(np.max(np.abs(reference.b(table)))) > 0.84
    with pytest.raises(SeriesConvergenceError):
        avg_loschmidt_series(table)
    # the phase moments have no such restriction
    assert 0.0 < long_time(table).mean_le <= 1.0
    _assert_variance_matches_reference(table)


def test_zero_temperature_series_terminates():
    table = _table(h0=0.0, h1=0.0, g0=1.0, g1=-1.0, beta=math.inf, length=4)
    stat = long_time(table)
    assert avg_loschmidt_series(table) == pytest.approx(stat.mean_le, rel=1e-12)
    assert stat.var_le >= 0.0


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
        assert long_time(table).mean_lef == pytest.approx(
            oracle.exact_le(ham0, ham1, beta, 0.0).dephased_purity, abs=1e-11)


@given(fields, fields, couplings, couplings, betas)
@settings(max_examples=100, deadline=None)
def test_mean_echo_between_averaged_bounds(h0, h1, g0, g1, beta):
    table = _table(h0=h0, h1=h1, g0=g0, g1=g1, beta=beta, length=20)
    assume(float(np.max(np.abs(reference.b(table)))) <= 0.8)
    dim = long_time(table)
    mean_le = dim.mean_le
    mean_lef = dim.mean_lef
    assert mean_lef * dim.d_eff <= mean_le + 1e-12
    assert mean_le <= mean_lef + 1.0 - dim.purity + 1e-12
    assert mean_lef <= mean_le + 1e-12
    assert 0.0 <= mean_le <= 1.0 + 1e-12


def test_zero_temperature_means_coincide():
    table = _table(h0=0.9, h1=1.1, g0=1.0, g1=1.0, beta=math.inf, length=30)
    dim = long_time(table)
    assert dim.d_eff == pytest.approx(1.0, rel=1e-14)
    assert dim.mean_le == pytest.approx(dim.mean_lef * dim.d_eff, rel=1e-12)


def test_variance_non_negative_and_monotone_in_beta():
    grid = np.linspace(10.0, 1.0, 10)
    values = [long_time(_table(beta=b, length=50)).var_le for b in grid]
    assert all(v >= 0.0 for v in values)
    # hotter start (smaller beta) never increases the spread
    assert all(values[i] >= values[i + 1] - 1e-15 for i in range(len(values) - 1))


def test_smallquench_variance_agrees_with_series():
    table = _table(g1=0.2495, length=50)
    assert float(np.max(np.abs(table.dtheta))) < 0.01
    stat = long_time(table)
    full = stat.var_le
    approx = stat.smallquench_var
    assert approx == pytest.approx(full, rel=0.01, abs=0.0)


def test_variance_vanishes_without_quench():
    table = _table(h1=0.5, g1=0.25)
    stat = long_time(table)
    assert stat.var_le == pytest.approx(0.0, abs=1e-30)
    assert stat.mean_le == pytest.approx(1.0, rel=1e-14)


def test_monte_carlo_time_average_consistency():
    # sampled mean of the product formula should approach the analytic mean
    from thermalecho import sample_logle

    params = QuenchParams(h0=0.8, h1=1.2, gamma0=0.7, gamma1=0.4, beta=2.0, length=16)
    table = mode_table(params)
    sample = sample_logle(mode_table(params), 100.0 * 16**2, 200_000, 13579)
    mc = float(np.mean(np.exp(sample.z)))
    stat = long_time(table)
    se = math.sqrt(stat.var_le / 200_000)
    assert abs(mc - stat.mean_le) < 4.0 * se


def _single_mode(c, m):
    """A one-mode table with ``cinv = c`` and ``-b`` as close to ``m`` as rounds."""
    table = _table(length=2)
    c = np.array([c])
    return dataclasses.replace(table, cinv=c, one_minus_cinv=1.0 - c,
                               one_minus_cinv2=1.0 - c * c,
                               alpha=np.array([m]) / (1.0 - c * c))


def test_variance_matches_longdouble_reference_on_random_modes():
    # a one-mode table's variance is that mode's v; m = (1 - c**2) alpha
    # covers [0, 1], uniform and down to 1e-14, plus the edges of both
    # branches and m = 1, where the closed form takes its limits
    rng = np.random.default_rng(20260)
    c = rng.uniform(0.0, 1.0, 300)
    alpha = np.concatenate([rng.uniform(0.0, 1.0, 200), 10.0 ** rng.uniform(-14.0, 0.0, 100)])
    cases = list(zip(c, (1.0 - c * c) * alpha))
    cases += [(0.0, 0.0), (0.3, 0.0), (0.0, 1.0), (0.5, 0.75), (1e-13, 1.0),
              (0.2, 0.5), (0.2, np.nextafter(0.5, 1.0)), (0.0, 1.0 - 1e-6),
              (0.7, 0.5), (0.9, 1e-12)]
    got, want = [], []
    for ci, mi in cases:
        table = _single_mode(ci, mi)
        got.append(long_time(table).var_le)
        want.append(float(_variance_reference(table)))
    assert max(-reference.b(_single_mode(ci, mi))[0] for ci, mi in cases) == 1.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_variance_matches_longdouble_reference_on_weak_quench():
    # max m = 4e-14: the old series route lost 6e-2 relative here
    table = _table(h0=0.5, h1=0.5, g0=0.25, g1=0.2499999, beta=10.0, length=80)
    assert float(np.max(-reference.b(table))) < 1e-13
    _assert_variance_matches_reference(table)


@pytest.mark.parametrize("h0, h1, beta, length", [
    (0.99, 0.5, 20.0, 1000),
    (0.99, 1.5, 20.0, 1000),
    (0.2, 3.0, 2.0, 100),
    (0.5, 1.5, 5.0, 100),
])
def test_variance_matches_longdouble_reference_at_strong_points(h0, h1, beta, length):
    # modes with m near 0.9 and above, where the series did not converge
    table = _table(h0=h0, h1=h1, g0=1.0, g1=1.0, beta=beta, length=length)
    assert float(np.max(-reference.b(table))) > 0.9
    _assert_variance_matches_reference(table)


@pytest.mark.parametrize("length", [2000, 2600, 20000])
def test_variance_where_its_factors_leave_the_float_range(length):
    # h 0.2 -> 3 at beta 10: exp(2 s1) underflows beyond L = 2400 and
    # expm1(S) overflows beyond L = 12400, where the direct product gave
    # 0.0 and then 0 * inf = nan; the longdouble reference holds both
    table = _table(h0=0.2, h1=3.0, g0=1.0, g1=1.0, beta=10.0, length=length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        var = long_time(table).var_le
    want = _variance_reference(table)
    assert want > 0.0
    assert var == pytest.approx(float(want), rel=1e-12, abs=0.0)
    assert (var > 0.0) == (length < 20000)


@pytest.mark.parametrize("beta", [math.inf, 60.0])
def test_variance_at_unit_parameter(beta):
    # both modes of L=4 have m = 1.0 exactly; each factor is
    # ((1 + |cos|) / 2)**2 up to c ~ 1e-26, so the means are 1/2 and 3/8
    table = _table(h0=0.0, h1=0.0, g0=1.0, g1=-1.0, beta=beta, length=4)
    assert np.all(-reference.b(table) == 1.0)
    stat = long_time(table)
    assert stat.var_le == pytest.approx(5.0 / 64.0, rel=1e-15, abs=0.0)
    assert stat.mean_le == pytest.approx(0.25, rel=1e-15, abs=0.0)


def test_variance_matches_monte_carlo_at_strong_quench(pinned):
    from thermalecho import sample_logle

    mc = pinned["monte_carlo"]
    table = _table(h0=0.2, h1=3.0, g0=1.0, g1=1.0, beta=2.0, length=100)
    n = 400_000
    echo = np.exp(sample_logle(table, mc["tau_factor"] * 100.0**2, n, mc["seed"]).z)
    empirical = float(np.var(echo, ddof=1))
    centred = echo - np.mean(echo)
    se = math.sqrt((float(np.mean(centred**4)) - empirical**2) / n)
    analytic = long_time(table).var_le
    assert analytic == pytest.approx(1.6746e-8, rel=1e-4, abs=0.0)
    assert abs(empirical - analytic) < 3.0 * se


def test_avg_loschmidt_view_is_the_long_time_mean():
    # a view kept for perfbench's ladder check, outside the public names
    for kw in (dict(), dict(h0=0.2, h1=3.0, g0=1.0, g1=1.0, beta=2.0, length=100),
               dict(beta=math.inf)):
        table = _table(**kw)
        assert averages.avg_loschmidt(table) == long_time(table).mean_le
    assert averages.__all__ == ["LongTime", "long_time"]


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


# the mode columns of a table, each of which a block holds one row of per
# chain, or one (modes,) row that its chains share
_MODE_COLUMNS = ("k", "lam0", "lam1", "dtheta", "alpha", "cinv", "one_minus_cinv",
                 "one_minus_cinv2")
# the thermal columns, which hold a row per chain in every block
_THERMAL_COLUMNS = ("cinv", "one_minus_cinv", "one_minus_cinv2")


def _one_block(chains):
    """The one block of ``chains`` and its chains, rebuilt from the columns
    and the indices that ``model._blocks`` took and gave."""
    columns = chain_columns(chains)
    ((indices, block),) = model._blocks(columns)
    assert block.n_chains == indices.size
    return block, chains_of(columns, indices)


def _assert_rows_are_tables(chains):
    """Every column of each row of the one block of ``chains`` has the bits
    of that chain's own table; returns the block and its chains."""
    block, rebuilt = _one_block(chains)
    assert rebuilt == chains
    assert block.length == chains[0].length and block.n_modes == chains[0].length // 2
    for i, params in enumerate(rebuilt):
        ref = mode_table(params)
        for name in _MODE_COLUMNS:
            column = getattr(block, name)
            shapes = [(len(chains), ref.n_modes)]
            if name not in _THERMAL_COLUMNS:
                shapes.append((ref.n_modes,))
            assert column.shape in shapes, name
            row = column[i] if column.ndim == 2 else column
            assert row.tobytes() == getattr(ref, name).tobytes(), (i, name)
    return block, rebuilt


def test_block_rows_keep_the_bits_of_one_table():
    # one block of equal-length chains whose m = (1 - cinv**2) * alpha spans
    # both branches: near 0 (a weak, warm quench), near 0.5, near and at 1
    # (cold quenches), so a lone table's AGM loop stops before the block's;
    # ground-state rows sit next to warm ones, and a zero field or
    # anisotropy of either sign next to the other
    chains = [QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1, beta=beta, length=36)
              for h0, h1, g0, g1, beta in [
                  (0.5, 0.5001, 1.0, 1.0, 2.0),
                  (0.9, 1.1, 1.0, 1.0, 1.0),
                  (0.2, 3.0, 1.0, 1.0, math.inf),
                  (0.5, -0.5, 1.0, 0.2, math.inf),
                  (0.0, 0.0, 1.0, -1.0, math.inf),
                  (-0.0, -0.0, 1.0, -1.0, 3.0),
                  (0.0, -0.0, 1.0, -1.0, 3.0),
                  (0.5, 0.5, 0.3, 0.0, 3.0),
                  (0.5, 0.5, 0.3, -0.0, 3.0),
                  (0.5, 0.5, 0.25, 0.25, 1.0),
              ]]
    block, chains = _assert_rows_are_tables(chains)
    m = block.one_minus_cinv2 * block.alpha
    assert m.shape == (len(chains), 18)
    assert 0.0 < np.max(m[0]) < 1e-7 and not np.any(m[-1])
    assert np.any((m > 0.4) & (m <= 0.5)) and np.any((m > 0.5) & (m < 0.6))
    assert np.any(m == 1.0)
    # the sign of a zero anisotropy reaches the angles, so -0.0 and 0.0 stay apart
    assert not np.array_equal(block.dtheta[7], block.dtheta[8])
    # a temperature ladder with a ground-state rung shares everything but
    # beta, so lam1, lam0 and the angles are one row for every rung
    ladder = [QuenchParams(h0=0.99, h1=1.01, gamma0=1.0, gamma1=1.0, beta=beta, length=30)
              for beta in (math.inf, 50.0, 10.0, 2.0)]
    ladder_block, ladder = _assert_rows_are_tables(ladder)
    assert ladder_block.lam1.shape == ladder_block.dtheta.shape == (15,)
    assert ladder_block.cinv.shape == (4, 15)
    for group, table in ((chains, block), (ladder, ladder_block)):
        _assert_block_keeps_the_bits(group, table)


def _assert_block_keeps_the_bits(chains, block):
    """Every :class:`LongTime` field of ``block`` is a ``(chains,)`` array
    whose value ``i`` has the bits of chain ``i``'s own table."""
    stat = long_time(block)
    for i, params in enumerate(chains):
        ref = long_time(mode_table(params))
        for name, values in vars(stat).items():
            assert isinstance(values, np.ndarray) and values.shape == (len(chains),), name
            assert isinstance(getattr(ref, name), float), name
            assert _bits(values[i]) == _bits(getattr(ref, name)), (i, name)


@pytest.mark.parametrize("n_chains", [1, 2, 3])
def test_a_block_of_shared_rows_keeps_its_chain_axis(n_chains):
    # one chain, or identical chains, share the angles as one (modes,) row,
    # and the thermal columns still hold a row per chain
    chains = [QuenchParams(h0=0.5, h1=0.9, gamma0=1.0, gamma1=1.0, beta=2.0, length=8)] * n_chains
    block, rebuilt = _one_block(chains)
    assert block.alpha.shape == (4,) and block.cinv.shape == (n_chains, 4)
    _assert_block_keeps_the_bits(rebuilt, block)


# the README's strong quench, where the small-rotation term is far above 1/4
STRONG = QuenchParams(h0=0.2, h1=3.0, gamma0=1.0, gamma1=1.0, beta=10.0, length=20000)


def test_smallquench_variance_is_nan_above_a_quarter():
    table = mode_table(STRONG)
    term = 0.125 * np.sum(table.one_minus_cinv**2 * table.dtheta**4)
    assert term == pytest.approx(15233.7096, rel=1e-8)
    assert math.isnan(long_time(table).smallquench_var)
    # the README's timeseries quench keeps its bits
    table = mode_table(QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1, beta=10.0,
                                    length=80))
    term = 0.125 * np.add.reduce(table.one_minus_cinv**2 * table.dtheta**4)
    assert 0.0 < term <= 0.25
    assert _bits(long_time(table).smallquench_var) == _bits(term)
    # and a block writes NaN on its strong rows only
    strong = dataclasses.replace(STRONG, length=2000)
    ((_, block),) = model._blocks(chain_columns([strong, dataclasses.replace(strong, h1=0.2001)]))
    values = long_time(block).smallquench_var
    assert math.isnan(values[0]) and 0.0 <= values[1] <= 0.25
