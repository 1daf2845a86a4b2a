"""Mode table construction: momenta, dispersion, thermal ratios, rotation angles."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalecho import (
    DegenerateModeError,
    QuenchParams,
    mode_table,
    momenta,
)


class ModeQuantities(NamedTuple):
    """Single-mode dispersion data: ``cos(theta) * lam = eps`` and
    ``sin(theta) * lam = delta``."""

    eps: float
    delta: float
    lam: float
    theta: float


def dispersion(h: float, gamma: float, k: float) -> ModeQuantities:
    """Scalar reference route for one mode of the XY chain.

    At a gapless point the angle degenerates to ``atan2(0, 0) = 0``.
    """
    eps = math.cos(k) + h
    delta = gamma * math.sin(k)
    return ModeQuantities(eps, delta, math.hypot(eps, delta), math.atan2(delta, eps))


def sin2_dtheta_explicit(params: QuenchParams, k) -> np.ndarray | float:
    """Closed form of ``sin(dtheta)**2`` without evaluating either angle.

    Raises DegenerateModeError if a requested mode is gapless before or
    after the quench.
    """
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    lam0 = np.hypot(np.cos(k_arr) + params.h0, params.gamma0 * np.sin(k_arr))
    lam1 = np.hypot(np.cos(k_arr) + params.h1, params.gamma1 * np.sin(k_arr))
    denom = (lam0 * lam1) ** 2
    if np.any(denom == 0.0):
        raise DegenerateModeError("sin(dtheta)**2 is undefined for a gapless mode")
    cross = (params.gamma1 - params.gamma0) * np.cos(k_arr) + (
        params.gamma1 * params.h0 - params.gamma0 * params.h1
    )
    out = np.sin(k_arr) ** 2 * cross**2 / denom
    return float(out[0]) if np.ndim(k) == 0 else out


couplings = st.floats(-2.0, 2.0, allow_nan=False)
fields = st.floats(-2.5, 2.5, allow_nan=False)
betas = st.floats(0.05, 60.0, allow_nan=False)
lengths = st.integers(1, 40).map(lambda n: 2 * n)


def _params(h0=0.5, h1=0.5, g0=0.25, g1=0.1, beta=10.0, length=20, **kw):
    return QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1, beta=beta, length=length, **kw)


def test_momenta_are_odd_multiples():
    length = 8
    k = momenta(length)
    assert k.shape == (4,)
    expected = (2 * np.arange(4) + 1) * math.pi / length
    assert np.allclose(k, expected, rtol=0, atol=1e-15)
    assert np.all((k > 0) & (k < math.pi))


@given(lengths)
def test_momenta_count_and_range(length):
    k = momenta(length)
    assert len(k) == length // 2
    assert np.all(np.diff(k) > 0)
    assert k[0] == pytest.approx(math.pi / length, abs=1e-15)
    assert k[-1] < math.pi


@given(fields, couplings, st.floats(0.01, math.pi - 0.01))
def test_dispersion_polar_consistency(h, gamma, k):
    q = dispersion(h, gamma, k)
    assert q.lam == pytest.approx(math.hypot(q.eps, q.delta), rel=1e-15)
    assert q.eps == pytest.approx(q.lam * math.cos(q.theta), abs=1e-12)
    assert q.delta == pytest.approx(q.lam * math.sin(q.theta), abs=1e-12)
    assert q.lam >= 0.0


def test_dispersion_gapless_angle_convention():
    # eps = delta = 0 exactly: angle defined as 0
    q = dispersion(-math.cos(1.0), 0.0, 1.0)
    assert q.lam == pytest.approx(0.0, abs=1e-15)
    assert q.theta == 0.0


def test_table_matches_scalar_dispersion():
    params = _params(h0=0.3, h1=-0.8, g0=1.2, g1=0.4, beta=2.5, length=12)
    table = mode_table(params)
    for i, k in enumerate(table.k):
        pre = dispersion(params.h0, params.gamma0, k)
        post = dispersion(params.h1, params.gamma1, k)
        assert table.eps0[i] == pytest.approx(pre.eps, rel=1e-15)
        assert table.lam0[i] == pytest.approx(pre.lam, rel=1e-15)
        assert table.theta1[i] == pytest.approx(post.theta, rel=1e-15)
        assert table.dtheta[i] == pytest.approx(post.theta - pre.theta, abs=1e-15)


def test_thermal_ratios_match_direct_forms():
    table = mode_table(_params(beta=3.0))
    direct = 1.0 / np.cosh(3.0 * table.lam0)
    assert np.allclose(table.cinv, direct, rtol=1e-14)
    assert np.allclose(table.one_minus_cinv, 1.0 - direct, rtol=1e-13)
    assert np.allclose(table.one_minus_cinv2, 1.0 - direct**2, rtol=1e-13)


def test_thermal_ratios_deep_cold():
    # beta*lam ~ 500: naive cosh overflows, the stable forms must not
    table = mode_table(_params(beta=500.0))
    assert np.all(np.isfinite(table.cinv))
    assert np.all(table.cinv >= 0.0)
    assert np.all(table.one_minus_cinv <= 1.0)
    assert np.allclose(table.one_minus_cinv, 1.0, atol=1e-10)


def test_zero_temperature_table():
    params = _params(beta=None, zero_temperature=True)
    table = mode_table(params)
    assert np.all(table.cinv == 0.0)
    assert np.all(table.one_minus_cinv == 1.0)
    assert np.all(table.one_minus_cinv2 == 1.0)


@given(fields, fields, couplings, couplings, betas)
@settings(max_examples=80)
def test_rotation_angle_two_routes(h0, h1, g0, g1, beta):
    params = QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1, beta=beta, length=16)
    table = mode_table(params)
    if np.min(table.lam0) < 1e-6 or np.min(table.lam1) < 1e-6:
        return
    explicit = sin2_dtheta_explicit(params, table.k)
    assert np.allclose(np.sin(table.dtheta) ** 2, explicit, atol=1e-12)


def test_explicit_angle_rejects_gapless_mode():
    # h0 = -cos(k) with gamma0 = 0 closes the pre-quench gap exactly at k
    params = QuenchParams(h0=-np.cos(1.0), h1=0.5, gamma0=0.0, gamma1=0.5,
                          beta=1.0, length=2)
    with pytest.raises(DegenerateModeError):
        sin2_dtheta_explicit(params, 1.0)


def test_alpha_is_a_squared_sine():
    table = mode_table(_params(h0=-1.3, h1=0.9, g0=1.4, g1=-0.7))
    assert np.all((table.alpha >= 0.0) & (table.alpha <= 1.0))
    assert np.allclose(table.alpha, np.sin(table.dtheta) ** 2, rtol=1e-14)


def test_series_coefficient_identity():
    # c*b/(2(1+c)) reduces to -(1 - 1/c)*alpha/2 for every mode
    table = mode_table(_params(h0=0.7, h1=-0.4, g0=0.9, g1=0.3, beta=1.7))
    lhs = table.c * table.b / (2.0 * (1.0 + table.c))
    rhs = -table.one_minus_cinv * table.alpha / 2.0
    assert np.allclose(lhs, rhs, atol=1e-16)


def test_omega_is_twice_post_quench_energy():
    table = mode_table(_params())
    assert np.allclose(table.omega, 2.0 * table.lam1, rtol=0, atol=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(length=7),
        dict(length=0),
        dict(length=True),
        dict(beta=0.0),
        dict(beta=-2.0),
        dict(beta=math.inf),
        dict(beta=None),
        dict(h0=math.nan),
        dict(gamma1=math.inf),
    ],
)
def test_invalid_params_rejected(kwargs):
    base = dict(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1, beta=10.0, length=20)
    base.update(kwargs)
    with pytest.raises((ValueError, TypeError)):
        QuenchParams(**base)


def test_zero_temperature_excludes_beta():
    with pytest.raises(ValueError):
        QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1,
                     beta=4.0, length=20, zero_temperature=True)
