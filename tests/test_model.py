"""Mode table construction: momenta, dispersion, thermal ratios, rotation angles."""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalecho import (
    ModeTable,
    QuenchParams,
    classify,
    echo_point,
    long_time,
    mode_table,
    momenta,
    sample_logle,
    weights,
)
from thermalecho import model

import reference
from reference import chain_columns


class DegenerateModeError(ValueError):
    """Raised when a mode is gapless and its Bogoliubov angle is undefined."""


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


def occupation_factor(table: ModeTable) -> np.ndarray:
    """Occupation factor ``cosh(beta * lam0)``; inf where that overflows."""
    with np.errstate(divide="ignore"):
        return 1.0 / table.cinv


# the strata where the formulas change (a zero field or anisotropy, the
# critical field, the Ising coupling) are drawn as well as the bulk
STRATA = st.sampled_from([-1.0, 0.0, 1.0])
couplings = STRATA | st.floats(-2.0, 2.0, allow_nan=False)
fields = STRATA | st.floats(-2.5, 2.5, allow_nan=False)
betas = st.floats(0.05, 60.0, allow_nan=False)
lengths = st.integers(1, 40).map(lambda n: 2 * n)


def _params(h0=0.5, h1=0.5, g0=0.25, g1=0.1, beta=10.0, length=20):
    return QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1, beta=beta, length=length)


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
        assert table.lam0[i] == pytest.approx(pre.lam, rel=1e-15)
        assert table.lam1[i] == pytest.approx(post.lam, rel=1e-15)
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
    params = _params(beta=math.inf)
    table = mode_table(params)
    assert np.all(table.cinv == 0.0)
    assert np.all(table.one_minus_cinv == 1.0)
    assert np.all(table.one_minus_cinv2 == 1.0)
    # a mode at exactly zero energy is still in its ground state
    gapless = mode_table(QuenchParams(h0=-math.cos(math.pi / 2), h1=0.5, gamma0=0.0,
                                      gamma1=1.0, beta=math.inf, length=2))
    assert gapless.lam0[0] == 0.0
    assert gapless.cinv[0] == 0.0
    assert gapless.one_minus_cinv[0] == gapless.one_minus_cinv2[0] == 1.0


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
    c = occupation_factor(table)
    lhs = c * reference.b(table) / (2.0 * (1.0 + c))
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
        dict(beta=math.nan),
        dict(beta=None),
        dict(h0=math.nan),
        dict(gamma1=math.inf),
    ],
)
def test_invalid_params_rejected(kwargs):
    base = dict(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1, beta=10.0, length=20)
    base.update(kwargs)
    # the message names the parameter at fault
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        QuenchParams(**base)


def _chain_rows(layer: str, block: ModeTable) -> list:
    """The arrays of ``layer``'s result on ``block`` that hold one row per chain."""
    if layer == "echo_point":
        pt = echo_point(block, np.linspace(0.0, 1.0, 5))
        return [pt.t, pt.le, pt.log_le, pt.lef, pt.lower, pt.upper]
    if layer == "long_time":
        return list(vars(long_time(block)).values())
    if layer == "weights":
        spectrum = weights(block)
        return [spectrum.a, spectrum.a_f]
    if layer == "classify":
        verdict = classify(weights(block))
        return [verdict.label, verdict.dominance, verdict.predicted_peaks, verdict.degenerate]
    return [sample_logle(block, 10.0, 7, seed=3).z]


@pytest.mark.parametrize("layer", ["echo_point", "long_time", "weights", "classify",
                                   "sample_logle"])
@pytest.mark.parametrize("identical", [False, True])
def test_blocks_keep_their_chain_axis(layer, identical):
    # beta goes in as a column, so the thermal columns of every block carry
    # its chain axis, also for identical chains and for a block of one
    # chain, and the results of identical chains still have a row each
    betas = (2.0, 2.0, 2.0) if identical else (0.5, 2.0, math.inf)
    chains = [QuenchParams(h0=0.5, h1=0.9, gamma0=1.0, gamma1=1.0, beta=beta, length=8)
              for beta in betas]
    for group in (chains[:1], chains):
        ((_, block),) = model._blocks(chain_columns(group))
        assert block.n_chains == len(group)
        for column in (block.cinv, block.one_minus_cinv, block.one_minus_cinv2):
            assert column.ndim == 2 and column.shape == (len(group), 4)
    # the last block holds all three chains
    for values in _chain_rows(layer, block):
        assert np.shape(values)[0] == 3


# a table's fields: its mode columns and nothing else
_COLUMNS = ("k", "lam0", "lam1", "dtheta", "alpha", "cinv", "one_minus_cinv",
            "one_minus_cinv2")


def _from_columns(table: ModeTable) -> ModeTable:
    """A table built by keyword from the mode columns of ``table``."""
    return ModeTable(**{name: getattr(table, name) for name in _COLUMNS})


def _one_chain_results(layer: str, table: ModeTable) -> list:
    """Every field of ``layer``'s result on one chain's ``table``; the echo
    at a scalar time and at an array of times."""
    if layer == "echo_point":
        return [*vars(echo_point(table, 0.7)).values(),
                *vars(echo_point(table, np.linspace(-1.0, 2.0, 5))).values()]
    if layer == "long_time":
        return list(vars(long_time(table)).values())
    if layer == "weights":
        return list(vars(weights(table)).values())
    if layer == "classify":
        return list(vars(classify(weights(table))).values())
    return list(vars(sample_logle(table, 10.0, 7, seed=3)).values())


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(want, (float, np.ndarray)):
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    else:
        assert got == want


@pytest.mark.parametrize("layer", ["echo_point", "long_time", "weights", "classify",
                                   "sample_logle"])
def test_a_table_is_its_columns(layer):
    # every layer tells a block from one chain's table by its 2-D thermal
    # columns alone, so a table built from one chain's columns gives that
    # chain's results bit for bit, and one built from a one-chain block's
    # columns keeps the block's chain axis and its bits
    assert tuple(field.name for field in dataclasses.fields(ModeTable)) == _COLUMNS
    chain = QuenchParams(h0=0.5, h1=0.9, gamma0=1.0, gamma1=0.7, beta=2.0, length=8)
    table = mode_table(chain)
    assert _from_columns(table).n_chains == 1
    for got, want in zip(_one_chain_results(layer, _from_columns(table)),
                         _one_chain_results(layer, table), strict=True):
        _assert_same_bits(got, want)
    ((_, block),) = model._blocks(chain_columns([chain]))
    assert _from_columns(block).n_chains == 1
    for got, want in zip(_chain_rows(layer, _from_columns(block)), _chain_rows(layer, block),
                         strict=True):
        assert np.shape(got)[0] == 1
        _assert_same_bits(got, want)


_GOOD = dict(h0=0.5, h1=0.9, gamma0=1.0, gamma1=0.7, beta=2.0, length=8)


# values that fail QuenchParams' checks; a numpy column keeps the first six
_BAD_VALUES = [("h1", math.nan), ("gamma0", -math.inf), ("length", 7), ("length", 0),
               ("beta", 0.0), ("beta", math.nan), ("length", True), ("length", 8.0),
               ("beta", None)]


@pytest.mark.parametrize("field, bad, as_arrays", [(*case, False) for case in _BAD_VALUES]
                         + [(*case, True) for case in _BAD_VALUES[:6]])
def test_blocks_check_columns_as_quench_params_does(field, bad, as_arrays):
    # chain 1 fails, and chain 2 fails another check: the error is chain 1's,
    # word for word what building the chains one by one raises
    chains = [_GOOD, {**_GOOD, field: bad}, {**_GOOD, "h0": math.inf, "length": 9}]
    with pytest.raises(ValueError) as want:
        [QuenchParams(**chain) for chain in chains]
    columns = {name: [chain[name] for chain in chains] for name in model._FIELDS}
    if as_arrays:
        columns = {name: np.array(values) for name, values in columns.items()}
        assert columns["length"].dtype.kind == "i"
    with pytest.raises(ValueError) as got:
        list(model._blocks(columns))
    assert str(got.value) == str(want.value)


def test_blocks_need_one_value_per_chain():
    columns = {name: [value] * 3 for name, value in _GOOD.items()}
    columns["beta"] = [2.0, 3.0]
    with pytest.raises(ValueError, match="one value per chain"):
        list(model._blocks(columns))
    assert list(model._blocks({name: [] for name in model._FIELDS})) == []


