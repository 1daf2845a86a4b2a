"""Echo time series: unit values, bounds, log-space route, dense-oracle parity."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalecho import (
    QuenchParams,
    bounds,
    echo_point,
    effective_dimension,
    linearized,
    log_loschmidt,
    loschmidt,
    mode_table,
)
import thermalecho
from thermalecho import echo, oracle

DECAY_QUENCH = dict(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1, beta=10.0)

fields = st.floats(-2.0, 2.0, allow_nan=False)
couplings = st.floats(-1.5, 1.5, allow_nan=False)
betas = st.floats(0.05, 40.0, allow_nan=False)
times = st.floats(-30.0, 30.0, allow_nan=False)


def _table(length=20, beta=10.0, **kw):
    base = dict(DECAY_QUENCH, length=length)
    base.update(beta=beta, **kw)
    return mode_table(QuenchParams(**base))


def test_unit_echo_at_time_zero():
    table = _table()
    assert loschmidt(table, 0.0) == pytest.approx(1.0, abs=1e-14)
    lo, up = bounds(table, 0.0)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert up == pytest.approx(1.0, abs=1e-12)


def test_linearized_at_zero_equals_purity():
    table = _table(length=30, beta=2.0)
    dim = effective_dimension(table)
    assert linearized(table, 0.0) == pytest.approx(dim.purity, rel=1e-13)


def test_even_in_time():
    table = _table(length=26, beta=3.0)
    t = np.linspace(0.1, 12.0, 37)
    assert np.array_equal(loschmidt(table, t), loschmidt(table, -t))
    assert np.array_equal(linearized(table, t), linearized(table, -t))


def test_decay_series_regression_value():
    table = _table(length=80)
    assert loschmidt(table, 1.0) == pytest.approx(0.778441479334611, rel=1e-12)


def test_log_route_matches_direct_product():
    # reference: the direct product over modes of factors built from the table
    t = np.linspace(0.0, 25.0, 101)
    for length in (20, 64, 66, 120):
        table = _table(length=length, beta=4.0)
        s2 = np.sin(np.multiply.outer(t, table.lam1)) ** 2
        arg = 1.0 - table.one_minus_cinv2 * table.alpha * s2
        direct = np.prod(((table.cinv + np.sqrt(arg)) / (1.0 + table.cinv)) ** 2, axis=-1)
        assert np.allclose(loschmidt(table, t), direct, rtol=1e-12, atol=1e-300)
        assert np.allclose(np.exp(log_loschmidt(table, t)), direct, rtol=1e-12, atol=1e-300)
        lower, _ = bounds(table, t)
        assert np.allclose(lower, np.prod(arg, axis=-1), rtol=1e-12, atol=1e-300)


def test_scalar_and_array_shapes():
    table = _table()
    assert isinstance(loschmidt(table, 1.5), float)
    out = loschmidt(table, np.linspace(0, 4, 7))
    assert out.shape == (7,)
    lo, up = bounds(table, np.linspace(0, 4, 7))
    assert lo.shape == up.shape == (7,)


def test_rejects_non_finite_time():
    table = _table()
    with pytest.raises(ValueError):
        loschmidt(table, math.nan)
    with pytest.raises(ValueError):
        linearized(table, np.array([1.0, math.inf]))


def test_lower_bound_is_scaled_linearized():
    table = _table(length=40, beta=2.0)
    t = np.linspace(0.0, 10.0, 41)
    dim = effective_dimension(table)
    lo, _ = bounds(table, t)
    assert np.allclose(lo, linearized(table, t) * dim.d_eff, rtol=1e-10)


def test_effective_dimension_limits():
    hot = _table(length=10, beta=1e-8)
    dim = effective_dimension(hot)
    assert dim.d_eff == pytest.approx(2.0**10, rel=1e-6)
    cold = mode_table(QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1,
                                   beta=None, length=10, zero_temperature=True))
    dim0 = effective_dimension(cold)
    assert dim0.d_eff == pytest.approx(1.0, rel=1e-14)
    assert dim0.purity == pytest.approx(1.0, rel=1e-14)


def test_deep_lattice_underflow_handled():
    # log-purity is about -0.65 per site here, so 1600 sites underflow float64
    table = _table(length=1600, beta=0.5)
    dim = effective_dimension(table)
    assert dim.purity == 0.0
    assert math.isinf(dim.d_eff)
    assert math.isfinite(dim.log_purity)
    le = loschmidt(table, 3.0)
    assert 0.0 <= le <= 1.0


def test_echo_point_bundles_consistently():
    table = _table(length=36, beta=1.5)
    pt = echo_point(table, 2.25)
    assert pt.t == 2.25
    assert pt.le == pytest.approx(loschmidt(table, 2.25), rel=1e-14)
    assert pt.lef == pytest.approx(linearized(table, 2.25), rel=1e-14)
    lo, up = bounds(table, 2.25)
    assert pt.lower == pytest.approx(lo, rel=1e-14)
    assert pt.upper == pytest.approx(up, rel=1e-14)
    t = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    grid = echo_point(table, t)
    assert np.array_equal(grid.t, t)
    assert np.array_equal(grid.le, loschmidt(table, t))
    assert np.array_equal(grid.lef, linearized(table, t))
    lo, up = bounds(table, t)
    assert np.array_equal(grid.lower, lo)
    assert np.array_equal(grid.upper, up)


def test_range_guard_survives_optimized_mode():
    # the guard must raise, not clip, even with asserts stripped by -O
    script = (
        "import dataclasses, numpy as np\n"
        "from thermalecho import QuenchParams, loschmidt, mode_table\n"
        "table = mode_table(QuenchParams(h0=0.5, h1=-0.5, gamma0=1.0, gamma1=1.0,"
        " beta=2.0, length=20))\n"
        "bad = dataclasses.replace(table, alpha=3.0 * table.alpha)\n"
        "try:\n"
        "    loschmidt(bad, np.linspace(0.0, 10.0, 101))\n"
        "except FloatingPointError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(thermalecho.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"


def test_thread_count_variable_must_be_an_integer(monkeypatch):
    table = _table()
    t = np.linspace(0.0, 4.0, 9)
    monkeypatch.setenv("THERMALECHO_THREADS", "abc")
    with pytest.raises(ValueError, match="THERMALECHO_THREADS"):
        loschmidt(table, t)
    monkeypatch.setenv("THERMALECHO_THREADS", "")
    assert echo._thread_count() == (os.cpu_count() or 1)
    monkeypatch.delenv("THERMALECHO_THREADS")
    assert echo._thread_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("THERMALECHO_THREADS", "3")
    assert echo._thread_count() == 3


def test_dense_oracle_round_trip(pinned):
    cfg = pinned["oracle_equivalence"]
    rng = np.random.default_rng(cfg["seed"])
    for length in (2, 4):
        for _ in range(3):
            h0, h1 = rng.uniform(*cfg["field_range"], 2)
            g0, g1 = rng.uniform(*cfg["anisotropy_range"], 2)
            beta = rng.uniform(*cfg["beta_range"])
            params = QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                  beta=beta, length=length)
            table = mode_table(params)
            ham0 = oracle.build_quasifree(h0, g0, length)
            ham1 = oracle.build_quasifree(h1, g1, length)
            t = rng.uniform(0.0, 20.0, 5)
            assert np.allclose(loschmidt(table, t),
                               oracle.exact_le(ham0, ham1, beta, t), atol=1e-10)
            assert np.allclose(linearized(table, t),
                               oracle.exact_linearized(ham0, ham1, beta, t), atol=1e-10)


@given(fields, fields, couplings, couplings, betas, times,
       st.integers(1, 50).map(lambda n: 2 * n))
@settings(max_examples=120, deadline=None)
def test_bound_sandwich(h0, h1, g0, g1, beta, t, length):
    table = mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                    beta=beta, length=length))
    le = loschmidt(table, t)
    lo, up = bounds(table, t)
    assert lo - 1e-12 <= le <= up + 1e-12
    assert 0.0 <= le <= 1.0 + 1e-12
    assert linearized(table, t) <= effective_dimension(table).purity + 1e-12


@given(fields, fields, couplings, couplings, times)
@settings(max_examples=60, deadline=None)
def test_zero_temperature_bound_collapse(h0, h1, g0, g1, t):
    # pure initial state: echo and linearized echo coincide, bounds pinch
    table = mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                    beta=None, length=24, zero_temperature=True))
    le = loschmidt(table, t)
    lef = linearized(table, t)
    assert le == pytest.approx(lef, abs=1e-13)
    lo, up = bounds(table, t)
    assert lo == pytest.approx(up, abs=1e-13)
