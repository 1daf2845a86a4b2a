"""Special functions against adaptive-quadrature and scipy oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from reference import bessel_j0, elliptic_e
from thermalecho.special import _elliptic_ek

FIRST_J0_ZERO = 2.404825557695773


def _e_quadrature(m: float) -> float:
    with warnings.catch_warnings():
        # near m=1 quad flags roundoff while still landing well inside 1e-13
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            lambda th: math.sqrt(1.0 - m * math.sin(th) ** 2),
            0.0, math.pi / 2.0, epsabs=1e-15, epsrel=1e-14,
        )
    assert err < 1e-13
    return val


def _j0_quadrature(x: float) -> float:
    # composite Gauss-Legendre; panel count tracks the oscillation count
    panels = max(50, int(2.0 * abs(x)))
    nodes, wts = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, math.pi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    theta = mid[:, None] + half * nodes[None, :]
    total = half * np.sum(wts[None, :] * np.cos(x * np.sin(theta)))
    return float(total / math.pi)


def test_exact_special_values():
    assert elliptic_e(0.0) == math.pi / 2.0
    assert bessel_j0(0.0) == 1.0


@pytest.mark.parametrize("m", [0.0, 0.05, 0.2, 0.5, 0.75, 0.9, 0.99, 0.999, 0.999999])
def test_elliptic_matches_quadrature(m):
    assert elliptic_e(m) == pytest.approx(_e_quadrature(m), abs=1e-12)


def test_elliptic_matches_scipy_on_grid():
    m = np.linspace(0.0, 0.999999, 4001)
    err = np.max(np.abs(elliptic_e(m) - sp.ellipe(m)))
    assert err < 1e-13


def test_elliptic_k_matches_scipy_on_grid():
    m = np.concatenate([np.linspace(0.0, 0.999999, 4001),
                        1.0 - np.logspace(-6.0, -12.0, 61)])
    e, k = _elliptic_ek(m)
    assert np.array_equal(e, elliptic_e(m))
    assert np.max(np.abs(k / sp.ellipk(m) - 1.0)) < 1e-14


def test_elliptic_pair_takes_its_limits_at_one():
    e, k = _elliptic_ek(np.array([0.0, 1.0, 0.5]))
    assert e[1] == 1.0 and k[1] == math.inf
    assert e[0] == k[0] == math.pi / 2.0
    assert e[2] == elliptic_e(0.5)


@pytest.mark.parametrize(
    "x", [0.0, 0.3, 1.0, FIRST_J0_ZERO, 5.0, 10.0, 12.9, 13.0, 13.1, 20.0,
          50.0, 137.0, 1000.0, 10000.0]
)
def test_bessel_matches_quadrature(x):
    assert bessel_j0(x) == pytest.approx(_j0_quadrature(x), abs=1e-10)


def test_bessel_matches_scipy_on_grid():
    x = np.concatenate([np.linspace(0.0, 30.0, 3001), np.linspace(30.0, 10000.0, 2000)])
    err = np.max(np.abs(bessel_j0(x) - sp.j0(x)))
    assert err < 1e-10


def test_bessel_series_asymptotic_seam():
    # np.diff is dominated by the function's own slope; a jump at the branch
    # split |x| = 13 would make one increment stand out from the smooth trend
    x = np.linspace(12.999999, 13.000001, 101)
    vals = bessel_j0(x)
    steps = np.diff(vals)
    assert np.max(np.abs(steps - np.median(steps))) < 1e-10
    assert np.max(np.abs(vals - sp.j0(x))) < 1e-11


def test_first_bessel_zero_bracketed():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j0(lo) * bessel_j0(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(FIRST_J0_ZERO, abs=1e-9)


def test_bessel_even_in_argument():
    x = np.linspace(0.0, 40.0, 401)
    assert np.array_equal(bessel_j0(x), bessel_j0(-x))


@given(st.floats(-10000.0, 10000.0, allow_nan=False))
@settings(max_examples=200)
def test_bessel_bounded_by_one(x):
    assert abs(bessel_j0(x)) <= 1.0 + 1e-15


@given(st.floats(0.0, 0.999999), st.floats(0.0, 0.999999))
def test_elliptic_monotone_decreasing(m1, m2):
    lo, hi = sorted((m1, m2))
    assert elliptic_e(lo) >= elliptic_e(hi) - 1e-14


@given(st.floats(0.0, 0.999999))
def test_elliptic_range(m):
    val = elliptic_e(m)
    assert 1.0 - 1e-14 <= val <= math.pi / 2.0 + 1e-14


@pytest.mark.parametrize("m", [-0.1, 1.0, 1.5, math.nan])
def test_elliptic_rejects_out_of_domain(m):
    with pytest.raises(ValueError):
        elliptic_e(m)


def test_bessel_rejects_non_finite():
    with pytest.raises(ValueError):
        bessel_j0(math.inf)
    with pytest.raises(ValueError):
        bessel_j0(np.array([1.0, math.nan]))


def test_vector_shapes_preserved():
    m = np.array([[0.1, 0.5], [0.9, 0.2]])
    assert elliptic_e(m).shape == (2, 2)
    x = np.array([0.5, 14.0, 200.0])
    assert bessel_j0(x).shape == (3,)
    assert isinstance(bessel_j0(1.0), float)
    assert isinstance(elliptic_e(0.3), float)
