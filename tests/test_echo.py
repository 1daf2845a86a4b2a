"""Echo time series: unit values, bounds, log-space route, dense-oracle parity."""

import dataclasses
import math
import os
import pathlib
import subprocess
import re
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalecho import (
    QuenchParams,
    echo_point,
    long_time,
    mode_table,
)
import thermalecho
from thermalecho import echo, model, oracle

DECAY_QUENCH = dict(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1, beta=10.0)
FIELDS = ("t", "le", "log_le", "lef", "lower", "upper")

# the strata where the formulas change (a zero field or anisotropy, the
# critical field, the Ising coupling) are drawn as well as the bulk
STRATA = st.sampled_from([-1.0, 0.0, 1.0])
fields = STRATA | st.floats(-2.0, 2.0, allow_nan=False)
couplings = STRATA | st.floats(-1.5, 1.5, allow_nan=False)
betas = st.floats(0.05, 40.0, allow_nan=False)
times = st.floats(-30.0, 30.0, allow_nan=False)


def _table(length=20, beta=10.0, **kw):
    base = dict(DECAY_QUENCH, length=length)
    base.update(beta=beta, **kw)
    return mode_table(QuenchParams(**base))


def test_unit_echo_at_time_zero():
    pt = echo_point(_table(), 0.0)
    assert pt.le == pytest.approx(1.0, abs=1e-14)
    assert pt.log_le == pytest.approx(0.0, abs=1e-14)
    assert pt.lower == pytest.approx(1.0, abs=1e-12)
    assert pt.upper == pytest.approx(1.0, abs=1e-12)


def test_linearized_at_zero_equals_purity():
    table = _table(length=30, beta=2.0)
    dim = long_time(table)
    assert echo_point(table, 0.0).lef == pytest.approx(dim.purity, rel=1e-13)


def test_even_in_time():
    table = _table(length=26, beta=3.0)
    t = np.linspace(0.1, 12.0, 37)
    forward, backward = echo_point(table, t), echo_point(table, -t)
    for name in ("le", "log_le", "lef", "lower", "upper"):
        assert np.array_equal(getattr(forward, name), getattr(backward, name)), name


def test_decay_series_regression_value():
    table = _table(length=80)
    assert echo_point(table, 1.0).le == pytest.approx(0.778441479334611, rel=1e-12)


def test_log_route_matches_direct_product():
    # reference: the direct product over modes of factors built from the table
    t = np.linspace(0.0, 25.0, 101)
    for length in (20, 64, 66, 120):
        table = _table(length=length, beta=4.0)
        s2 = np.sin(np.multiply.outer(t, table.lam1)) ** 2
        arg = 1.0 - table.one_minus_cinv2 * table.alpha * s2
        direct = np.prod(((table.cinv + np.sqrt(arg)) / (1.0 + table.cinv)) ** 2, axis=-1)
        pt = echo_point(table, t)
        assert np.allclose(pt.le, direct, rtol=1e-12, atol=1e-300)
        assert np.allclose(np.exp(pt.log_le), direct, rtol=1e-12, atol=1e-300)
        assert np.allclose(pt.lower, np.prod(arg, axis=-1), rtol=1e-12, atol=1e-300)


def test_scalar_and_array_shapes():
    table = _table()
    fields = ("t", "le", "log_le", "lef", "lower", "upper")
    pt = echo_point(table, 1.5)
    for name in fields:
        assert isinstance(getattr(pt, name), float), name
    for t in (np.linspace(0, 4, 7), np.linspace(0, 4, 12).reshape(3, 4)):
        grid = echo_point(table, t)
        assert np.array_equal(grid.t, t)
        for name in fields:
            assert getattr(grid, name).shape == t.shape, name


def test_rejects_non_finite_time():
    table = _table()
    with pytest.raises(ValueError):
        echo_point(table, math.nan)
    with pytest.raises(ValueError):
        echo_point(table, np.array([1.0, math.inf]))


def test_rejects_times_whose_phase_overflows():
    # t * lam1 overflows to inf and sin(inf) is nan; such a time is rejected
    # before any factor is formed, for a table and a block, and nothing warns
    table = _table()
    huge = float(np.finfo(float).max)
    assert math.isinf(huge * float(np.max(table.lam1)))
    ((_, block),) = model._blocks([QuenchParams(**DECAY_QUENCH, length=20)] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"the phase t \* lam1 overflows"):
            echo_point(table, np.array([0.0, -huge]))
        with pytest.raises(ValueError, match=r"the phase t \* lam1 overflows"):
            echo_point(block, np.array([1.0, huge]))
        # a phase that stays finite, however large, is evaluated
        t = 0.5 * huge / float(np.max(table.lam1))
        assert math.isfinite(echo_point(table, t).le)
        assert math.isfinite(echo_point(block, [t]).le[1, 0])


def test_lower_bound_is_scaled_linearized():
    table = _table(length=40, beta=2.0)
    t = np.linspace(0.0, 10.0, 41)
    dim = long_time(table)
    pt = echo_point(table, t)
    assert np.allclose(pt.lower, pt.lef * dim.d_eff, rtol=1e-10)


def test_effective_dimension_limits():
    hot = _table(length=10, beta=1e-8)
    dim = long_time(hot)
    assert dim.d_eff == pytest.approx(2.0**10, rel=1e-6)
    cold = mode_table(QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1,
                                   beta=math.inf, length=10))
    dim0 = long_time(cold)
    assert dim0.d_eff == pytest.approx(1.0, rel=1e-14)
    assert dim0.purity == pytest.approx(1.0, rel=1e-14)


def test_deep_lattice_underflow_handled():
    # log-purity is about -0.65 per site here, so 1600 sites underflow float64
    table = _table(length=1600, beta=0.5)
    dim = long_time(table)
    assert dim.purity == 0.0
    assert math.isinf(dim.d_eff)
    assert math.isfinite(dim.log_purity)
    pt = echo_point(table, 3.0)
    assert 0.0 <= pt.le <= 1.0
    assert math.isfinite(pt.log_le)
    # a hot, purity-underflowing chain keeps its overlap echo and bounds finite
    assert pt.lef == 0.0
    assert 0.0 <= pt.lower <= 1.0 and pt.upper == 1.0


def test_log_echo_survives_echo_underflow():
    # a strong quench on a long chain: the echo is far below the float64 range
    table = mode_table(QuenchParams(h0=0.5, h1=1.5, gamma0=1.0, gamma1=1.0,
                                    beta=10.0, length=20_000))
    pt = echo_point(table, np.array([0.0, 10.0, 20.0]))
    assert pt.le[0] == 1.0
    assert (pt.le[1:] == 0.0).all()
    assert np.isfinite(pt.log_le).all()
    assert (pt.log_le[1:] < -800.0).all()


def test_echo_point_bundles_consistently():
    table = _table(length=36, beta=1.5)
    pt = echo_point(table, 2.25)
    assert pt.t == 2.25
    assert pt.le == pytest.approx(math.exp(pt.log_le), rel=1e-15)
    assert pt.lower <= pt.le <= pt.upper
    assert pt.lef == pytest.approx(pt.lower * long_time(table).purity, rel=1e-14)
    t = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    grid = echo_point(table, t)
    # the echo is the exponential of the log-echo, bit for bit
    assert np.array_equal(grid.le, np.exp(grid.log_le))
    assert np.array_equal(grid.le[1, 2], echo_point(table, t[1, 2]).le)


def _random_chains(rng, n_chains):
    """Chains of every length from 2 to 200 sites, a fifth at zero temperature."""
    chains = []
    for i in range(n_chains):
        length = 2 + 2 * (i % 100)
        h0, h1 = rng.uniform(-2.0, 2.0, 2)
        g0, g1 = rng.uniform(-1.5, 1.5, 2)
        cold = i % 5 == 0
        chains.append(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                   beta=math.inf if cold else rng.uniform(0.01, 50.0),
                                   length=length))
    return chains


def _stacked(chains, t):
    """``echo_point`` of each block ``model._blocks`` makes of ``chains``, with
    every field put back in the order of ``chains``; ``t`` is ``(n_times,)``,
    shared, or ``(len(chains), n_times)``, one row per chain."""
    t = np.asarray(t, dtype=float)
    fields = {name: np.empty((len(chains), t.shape[-1])) for name in FIELDS}
    for indices, block in model._blocks(chains):
        pt = echo_point(block, t if t.ndim == 1 else t[indices])
        for name, values in fields.items():
            assert getattr(pt, name).shape == (indices.size, t.shape[-1]), name
            values[indices] = getattr(pt, name)
    return SimpleNamespace(**fields)


def test_stacked_chains_match_per_chain_route():
    rng = np.random.default_rng(17)
    chains = _random_chains(rng, 400)
    # 400 chains, four of each length from 1 to 100 modes, cold ones included
    assert sum(p.length // 2 for p in chains) > 2 * model._GROUP_MODES
    t = np.zeros((len(chains), 4))
    t[:, 1:] = rng.uniform(-20.0, 50.0, (len(chains), 3))
    stacked = _stacked(chains, t)
    assert np.array_equal(stacked.le, np.exp(stacked.log_le))
    for i, params in enumerate(chains):
        single = echo_point(mode_table(params), t[i])
        for name in ("le", "log_le", "lef", "lower", "upper"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(single, name)), (i, name)
    for name in ("le", "lower", "upper"):
        assert (getattr(stacked, name)[:, 0] == 1.0).all(), name


def test_stacked_groups_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(23)
    # one chain longer than a whole block, between chains that share blocks
    chains = _random_chains(rng, 60)
    chains.insert(30, QuenchParams(length=2 * model._GROUP_MODES + 4, **DECAY_QUENCH))
    t = rng.uniform(-20.0, 50.0, (len(chains), 5))
    whole = _stacked(chains, t)
    single = echo_point(mode_table(chains[30]), t[30])
    assert np.array_equal(whole.le[30], single.le)
    # tiny blocks and one time per chunk walk every loop many times over
    monkeypatch.setattr(model, "_GROUP_MODES", 40)
    monkeypatch.setattr(echo, "_CHUNK_BYTES", 8)
    split = _stacked(chains, t)
    for name in ("le", "log_le", "lef", "lower", "upper"):
        assert np.array_equal(getattr(split, name), getattr(whole, name)), name


def test_thread_count_leaves_chunked_blocks_unchanged(monkeypatch):
    rng = np.random.default_rng(31)
    # 100 chains of 10 modes and 100 of 100 modes: blocks of 100 x 10, 81 x 100
    # and 19 x 100 modes, which chunks of 4000 values split into 4, 15 and 8
    # chunks of the 15 times
    chains = [QuenchParams(h0=h0, h1=h1, gamma0=1.0, gamma1=0.5, beta=beta, length=length)
              for length in (20, 200) for h0, h1, beta in rng.uniform(0.1, 2.0, (100, 3))]
    t = rng.uniform(-20.0, 50.0, (len(chains), 15))
    monkeypatch.setattr(echo, "_CHUNK_BYTES", 8 * 4000)
    runs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("THERMALECHO_THREADS", threads)
        runs.append(_stacked(chains, t))
    for name in ("le", "log_le", "lef", "lower", "upper"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name


def test_shared_times_match_per_chain_times(monkeypatch):
    rng = np.random.default_rng(41)
    # random chains, a ladder that shares lam1, and two identical chains
    ladder = [QuenchParams(length=40, **dict(DECAY_QUENCH, beta=beta))
              for beta in (0.5, 3.0, 30.0, 3.0)]
    cold = QuenchParams(length=40, **dict(DECAY_QUENCH, beta=math.inf))
    chains = _random_chains(rng, 30) + ladder + [cold]
    t = rng.uniform(-20.0, 50.0, 900)
    # small chunks, so the ladder's shared sines span many of them
    monkeypatch.setattr(echo, "_CHUNK_BYTES", 8 * 4000)
    runs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("THERMALECHO_THREADS", threads)
        runs.append(_stacked(chains, t))
    rows = _stacked(chains, np.tile(t, (len(chains), 1)))
    for name in FIELDS:
        for shared in runs:
            assert np.array_equal(getattr(shared, name), getattr(rows, name)), name
    for i in range(30, len(chains)):
        assert np.array_equal(runs[0].log_le[i], echo_point(mode_table(chains[i]), t).log_le)


def _grid(t) -> bool:
    """Whether the kernel takes ``t``'s sines by angle addition."""
    return echo._grid_step(np.asarray(t, dtype=float).reshape(-1, 1)) is not None


def _direct_route(table, t):
    """``echo_point`` of ``t`` in slices too short for the grid route."""
    size = 2 * echo._GRID_BLOCK - 1
    points = [echo_point(table, t[i : i + size]) for i in range(0, t.size, size)]
    return {name: np.concatenate([getattr(p, name) for p in points])
            for name in ("log_le", "lower")}


def _tan_sin2(phase):
    """sin**2 as the direct route takes it, step for step."""
    s = np.square(np.tan(phase))
    return s / (s + 1.0)


def _direct_formula(table, t, sin2):
    """``(log_le, lower)`` at times ``t`` by the direct route's steps, with
    ``sin2`` for sin**2 of the phases."""
    a = sin2(np.multiply.outer(t, table.lam1)) * (table.one_minus_cinv2 * table.alpha)
    arg = np.maximum(1.0 - a, table.cinv**2)
    log_le = np.log((np.sqrt(arg) + table.cinv) / (1.0 + table.cinv))
    return 2.0 * np.add.reduce(log_le, axis=-1), np.exp(np.add.reduce(np.log(arg), axis=-1))


WIDE = np.finfo(np.longdouble).eps < np.finfo(float).eps
NOT_WIDE = "np.longdouble is no wider than float64 here"


def _wide(table, t):
    """``log_le`` and the log of ``lower`` with every step after the float64
    times in np.longdouble."""
    wide = np.longdouble
    s2 = np.sin(np.multiply.outer(t.astype(wide), table.lam1.astype(wide))) ** 2
    arg = 1 - table.one_minus_cinv2.astype(wide) * table.alpha.astype(wide) * s2
    cinv = table.cinv.astype(wide)
    return {"log_le": 2 * np.log((cinv + np.sqrt(arg)) / (1 + cinv)).sum(axis=-1),
            "lower": np.log(arg).sum(axis=-1)}


# (length, tmax, tpoints) of the tables the accuracy tests compare on
ACCURACY_GRIDS = [(2000, 500.0, 1001), (200, 1e5, 2001), (400, 1e6, 2001)]


@pytest.mark.skipif(not WIDE, reason=NOT_WIDE)
@pytest.mark.parametrize("length, tmax, tpoints", ACCURACY_GRIDS)
def test_grid_route_is_as_accurate_as_sin(length, tmax, tpoints):
    table = _table(length=length)
    t = np.linspace(0.0, tmax, tpoints)
    assert _grid(t)
    exact = _wide(table, t)
    grid = echo_point(table, t)
    parts = _direct_route(table, t)
    for name, log in (("log_le", lambda x: x), ("lower", np.log)):
        grid_err = np.abs(log(getattr(grid, name)) - exact[name]).max()
        sin_err = np.abs(log(parts[name]) - exact[name]).max()
        assert grid_err <= 2.0 * sin_err, (name, float(grid_err), float(sin_err))


@pytest.mark.skipif(not WIDE, reason=NOT_WIDE)
def test_direct_route_sin_squared_is_as_accurate_as_np_sin():
    rng = np.random.default_rng(59)
    # magnitudes from 1e-150, where sin**2 is still a normal double, to 1e300
    signs = rng.choice([-1.0, 1.0], 100_000)
    for phase in (rng.uniform(-1e6, 1e6, 200_000), signs * 10.0 ** rng.uniform(-150, 300, 100_000)):
        s2 = phase.copy()
        echo._sin_squared(s2, np.empty_like(s2))
        assert ((s2 >= 0.0) & (s2 <= 1.0)).all()
        exact = np.sin(phase.astype(np.longdouble)) ** 2
        assert np.abs(s2 / exact - 1).max() <= 1e-15
    # a phase of +-0 gives 0, and the double nearest an odd multiple of pi/2
    # a finite sin**2, though its tangent is about -2.1e18
    edge = np.array([0.0, -0.0, math.ldexp(6381956970095103, 797)])
    assert -3e18 < np.tan(edge[2]) < -1e18
    s2 = edge.copy()
    echo._sin_squared(s2, np.empty_like(s2))
    assert s2[0] == s2[1] == 0.0 and np.isfinite(s2[2]) and 0.0 <= s2[2] <= 1.0
    # and the echo it gives is as close to the long-double one as np.sin's
    for length, tmax, tpoints in ACCURACY_GRIDS:
        table = _table(length=length)
        t = np.linspace(0.0, tmax, tpoints)
        exact = _wide(table, t)["log_le"]
        direct_err = np.abs(_direct_route(table, t)["log_le"] - exact).max()
        sin_err = np.abs(_direct_formula(table, t, lambda p: np.square(np.sin(p)))[0] - exact).max()
        assert direct_err <= 2.0 * sin_err, (length, float(direct_err), float(sin_err))


def test_grid_sines_and_cosines_from_one_tangent():
    rng = np.random.default_rng(61)
    eps = np.finfo(float).eps
    # half of the last phase is the double nearest an odd multiple of pi/2,
    # where the tangent is about -2.1e18
    edge = math.ldexp(6381956970095103, 797)
    assert -3e18 < np.tan(edge) < -1e18
    signs = rng.choice([-1.0, 1.0], 100_000)
    for phase in (np.array([0.0, -0.0, 2.0 * edge, -2.0 * edge]),
                  rng.uniform(-1e6, 1e6, 200_000), signs * 10.0 ** rng.uniform(-150, 300, 100_000)):
        sin, cos = echo._sin_cos(phase.copy())
        assert ((np.abs(sin) <= 1.0) & (np.abs(cos) <= 1.0)).all()
        assert np.abs(sin**2 + cos**2 - 1.0).max() <= 4.0 * eps
        assert np.abs(sin - np.sin(phase)).max() <= 4.0 * eps
        assert np.abs(cos - np.cos(phase)).max() <= 4.0 * eps
        # odd and even in the phase, bit for bit, so a grid and its negation agree
        neg_sin, neg_cos = echo._sin_cos(-phase)
        assert np.array_equal(neg_sin, -sin) and np.array_equal(neg_cos, cos)
    sin, cos = echo._sin_cos(np.array([0.0, -0.0]))
    assert np.array_equal(np.signbit(sin), [False, True]) and (sin == 0.0).all()
    assert (cos == 1.0).all()


@pytest.mark.parametrize("start, stop, tpoints", [(0.0, 500.0, 1001), (0.0, -40.0, 128),
                                                  (-30.0, 90.0, 20001), (1e4, 1e4 + 7.0, 333),
                                                  (25.0, 25.0, 200)])
def test_linspace_takes_the_grid_route(start, stop, tpoints):
    t = np.linspace(start, stop, tpoints)
    assert _grid(t) and _grid(-t)
    table = _table(length=30)
    pt, parts = echo_point(table, t), _direct_route(table, t)
    # one float64 ulp of the largest phase per mode, summed over the modes
    phase_ulps = np.finfo(float).eps * np.abs(t).max() * table.lam1.max() * table.n_modes
    assert np.abs(pt.log_le - parts["log_le"]).max() <= phase_ulps
    assert np.abs(np.log(pt.lower) - np.log(parts["lower"])).max() <= phase_ulps


def test_grid_route_unit_echo_and_even_in_time():
    table = _table(length=200, beta=3.0)
    t = np.linspace(0.0, 500.0, 1001)
    assert _grid(t)
    forward, backward = echo_point(table, t), echo_point(table, -t)
    assert forward.le[0] == forward.lower[0] == forward.upper[0] == 1.0
    assert forward.log_le[0] == 0.0
    for name in ("le", "log_le", "lef", "lower", "upper"):
        assert np.array_equal(getattr(forward, name), getattr(backward, name)), name


def test_grid_route_chunks_and_threads_leave_bits_unchanged(monkeypatch):
    table = _table(length=60, beta=2.0)
    # 1001 rows: 15 whole blocks and a part, in chunks of one block and of 512 rows
    t = np.linspace(-5.0, 400.0, 1001)
    assert _grid(t)
    whole = echo_point(table, t)
    runs = []
    for chunk_bytes in (8, 8 * 30 * 512):
        monkeypatch.setattr(echo, "_CHUNK_BYTES", chunk_bytes)
        for threads in ("1", "3"):
            monkeypatch.setenv("THERMALECHO_THREADS", threads)
            runs.append(echo_point(table, t))
    for run in runs:
        for name in ("le", "log_le", "lef", "lower", "upper"):
            assert np.array_equal(getattr(run, name), getattr(whole, name)), name


@pytest.mark.parametrize("times", ["grid", "random"])
def test_chunk_sizes_leave_bits_unchanged(times, monkeypatch):
    # 999 modes: 4 MiB chunks hold 512 grid rows (524 random ones), the
    # default 1 MiB chunks 128 (131), and the smallest chunk one grid block
    table = _table(length=2000, beta=10.0)
    rng = np.random.default_rng(53)
    t = np.linspace(0.0, 500.0, 3001) if times == "grid" else rng.uniform(0.0, 5e4, 3001)
    assert _grid(t) == (times == "grid")
    sizes = (4 << 20, echo._CHUNK_BYTES, 8 * table.n_modes * echo._GRID_BLOCK)
    monkeypatch.setattr(echo, "_CHUNK_BYTES", 8 * table.n_modes * t.size)
    whole = echo_point(table, t)
    for chunk_bytes in sizes:
        assert chunk_bytes < 8 * table.n_modes * t.size // 5
        monkeypatch.setattr(echo, "_CHUNK_BYTES", chunk_bytes)
        for threads in ("1", "3"):
            monkeypatch.setenv("THERMALECHO_THREADS", threads)
            run = echo_point(table, t)
            for name in ("le", "log_le", "lef", "lower", "upper"):
                assert np.array_equal(getattr(run, name), getattr(whole, name)), name


def test_shared_grid_times_match_echo_point(monkeypatch):
    rng = np.random.default_rng(43)
    ladder = [QuenchParams(length=40, **dict(DECAY_QUENCH, beta=beta))
              for beta in (0.5, 3.0, 30.0, math.inf)]
    chains = _random_chains(rng, 30) + ladder
    t = np.linspace(0.0, 60.0, 300)
    assert _grid(t)
    monkeypatch.setattr(echo, "_CHUNK_BYTES", 8 * 4000)
    stacked = _stacked(chains, t)
    rows = _stacked(chains, np.tile(t, (len(chains), 1)))
    for i, params in enumerate(chains):
        single = echo_point(mode_table(params), t)
        for name in ("le", "log_le", "lef", "lower", "upper"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(single, name)), (i, name)
    # a grid row of a chain's own times: a block of one chain keeps angle
    # addition, and the block of five chains of length 40 takes the direct
    # route, bit for bit as the chain's own table does on short slices and
    # within a float64 ulp of the largest phase per mode of the long-double echo
    for indices, block in model._blocks(chains):
        for i in indices.tolist():
            table = mode_table(chains[i])
            if indices.size == 1:
                assert np.array_equal(rows.log_le[i], echo_point(table, t).log_le), i
            else:
                assert np.array_equal(rows.log_le[i], _direct_route(table, t)["log_le"]), i
                if WIDE:
                    phase_ulps = np.finfo(float).eps * t.max() * block.lam1.max() * block.n_modes
                    assert np.abs(rows.log_le[i] - _wide(table, t)["log_le"]).max() <= phase_ulps, i
    assert max(indices.size for indices, _ in model._blocks(chains)) == 5


def test_short_and_jittered_grids_take_the_direct_route():
    table = _table(length=50, beta=2.0)
    jitter = np.random.default_rng(47).uniform(-1e-9, 1e-9, 1001)
    for t in (np.linspace(0.0, 25.0, 2 * echo._GRID_BLOCK - 1),
              np.linspace(0.0, 25.0, 1001) + jitter):
        assert not _grid(t)
        log_le, lower = _direct_formula(table, t, _tan_sin2)
        pt = echo_point(table, t)
        assert np.array_equal(pt.log_le, log_le)
        assert np.array_equal(pt.lower, lower)
    assert _grid(np.linspace(0.0, 25.0, 2 * echo._GRID_BLOCK))


def test_signed_zero_parameters_stay_apart():
    # at h0 = -2 the pre-quench angle is +pi or -pi by the sign of gamma0 = 0,
    # which changes the echo's last bits, so the two chains share no columns
    chains = [QuenchParams(h0=-2.0, h1=0.5, gamma0=g0, gamma1=1.0, beta=1.0, length=12)
              for g0 in (0.0, -0.0)]
    t = np.linspace(0.0, 10.0, 50)
    ((_, block),) = model._blocks(chains)
    stacked = echo_point(block, t)
    for i, params in enumerate(chains):
        assert np.array_equal(stacked.log_le[i], echo_point(mode_table(params), t).log_le)


def test_stacked_chains_validate_times():
    chains = [QuenchParams(length=20, **dict(DECAY_QUENCH, beta=beta)) for beta in (1, 2, 3)]
    ((_, block),) = model._blocks(chains)
    # one row of times is shared by every chain; other shapes are not times
    for bad in (np.zeros((2, 4)), np.zeros(()), np.zeros((3, 2, 1))):
        with pytest.raises(ValueError, match=re.escape(f"got {bad.shape}")):
            echo_point(block, bad)
    with pytest.raises(ValueError, match="finite"):
        echo_point(block, np.full((3, 2), math.nan))
    for t in (np.zeros((3, 0)), np.zeros(0)):
        empty = echo_point(block, t)
        assert empty.le.shape == empty.upper.shape == (3, 0)


def test_floor_guard_raises_on_both_routes(monkeypatch):
    # a hot, a warm and a cold chain: a table and a block of the three
    chains = [QuenchParams(length=20, **dict(DECAY_QUENCH, beta=beta))
              for beta in (0.5, 3.0, math.inf)]
    ((_, block),) = model._blocks(chains)
    t = np.linspace(0.0, 5.0, 6).reshape(3, 2)
    # a negative slack puts every factor below the guard's threshold
    monkeypatch.setattr(echo, "_CLAMP_SLACK", -0.5)
    with pytest.raises(FloatingPointError):
        echo_point(mode_table(chains[0]), t[0])
    with pytest.raises(FloatingPointError):
        echo_point(block, t)


def test_floor_guard_checks_the_whole_table():
    # at t = 0 every factor's arg is 1, so only a check of the table itself,
    # not of a chunk's factors, sees that tripled weights reach below the floor
    table = mode_table(QuenchParams(h0=0.5, h1=-0.5, gamma0=1.0, gamma1=1.0,
                                    beta=2.0, length=20))
    assert echo_point(table, 0.0).le == 1.0
    bad = dataclasses.replace(table, alpha=3.0 * table.alpha)
    with pytest.raises(FloatingPointError, match="floor"):
        echo_point(bad, 0.0)
    # a block in which one chain out of three is inconsistent raises too
    chains = [QuenchParams(length=20, **dict(DECAY_QUENCH, beta=beta))
              for beta in (0.5, 3.0, math.inf)]
    ((_, block),) = model._blocks(chains)
    assert block.alpha.shape == (block.n_modes,)
    assert (echo_point(block, [0.0]).le == 1.0).all()
    alpha = np.tile(block.alpha, (3, 1))
    alpha[1] = 1.5
    with pytest.raises(FloatingPointError, match="floor"):
        echo_point(dataclasses.replace(block, alpha=alpha), [0.0])


@given(fields, fields, couplings, couplings, betas | st.just(math.inf),
       st.integers(1, 50).map(lambda n: 2 * n))
@settings(max_examples=200, deadline=None)
def test_floor_guard_passes_every_built_table(h0, h1, g0, g1, beta, length):
    table = mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                    beta=beta, length=length))
    assert echo_point(table, 0.0).le == 1.0


def test_range_guard_survives_optimized_mode():
    # the guard must raise, not clip, even with asserts stripped by -O
    script = (
        "import dataclasses, numpy as np\n"
        "from thermalecho import QuenchParams, echo_point, mode_table\n"
        "table = mode_table(QuenchParams(h0=0.5, h1=-0.5, gamma0=1.0, gamma1=1.0,"
        " beta=2.0, length=20))\n"
        "bad = dataclasses.replace(table, alpha=3.0 * table.alpha)\n"
        "try:\n"
        "    echo_point(bad, np.linspace(0.0, 10.0, 101))\n"
        "except FloatingPointError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(thermalecho.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"


@pytest.mark.parametrize("n_workers", [1, 2, 5])
def test_pool_yields_in_order_and_raises_at_the_failing_item(n_workers):
    caller = threading.get_ident()
    threads = []

    def work(i):
        threads.append(threading.get_ident())
        if i == 3:
            raise OSError("item 3")
        return i * i

    results = echo._in_order(work, range(6), n_workers)
    assert [next(results) for _ in range(3)] == [0, 1, 4]
    with pytest.raises(OSError, match="item 3"):
        next(results)
    if n_workers == 1:
        # one worker runs each item on the calling thread, when it is asked for
        assert threads == [caller] * 4
    else:
        assert caller not in threads


def test_pool_workers_claim_the_next_item():
    # item 0 holds one of two workers until item 2 has run, so the other
    # worker must take items 1 and 2 in turn
    third = threading.Event()

    def work(i):
        if i == 2:
            third.set()
        return third.wait(10.0) if i == 0 else i

    assert list(echo._in_order(work, range(4), 2)) == [True, 1, 2, 3]


def test_pool_claims_each_item_once_under_stress():
    # more workers than cores and a short switch interval: a claim lost or
    # made twice would run an item twice or never
    ran = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = list(echo._in_order(lambda i: ran.append(i) or i, range(3000), 8))
    finally:
        sys.setswitchinterval(previous)
    assert results == list(range(3000))
    assert sorted(ran) == list(range(3000))


def test_pool_closed_early_joins_its_workers():
    before = threading.enumerate()
    ran = []

    def work(i):
        ran.append(i)
        time.sleep(0.01)
        return i

    results = echo._in_order(work, range(50), 3)
    assert next(results) == 0
    results.close()
    # no item is claimed after the close, and every worker has been joined
    assert threading.enumerate() == before
    assert len(ran) < 50


def test_kernel_workers_claim_chunks(monkeypatch):
    table = _table(length=60, beta=2.0)
    t = np.linspace(-5.0, 400.0, 1001)
    assert _grid(t)
    # one grid block per chunk: 16 chunks
    monkeypatch.setattr(echo, "_CHUNK_BYTES", 8)
    n_chunks = -(-t.size // echo._GRID_BLOCK)
    monkeypatch.setenv("THERMALECHO_THREADS", "1")
    inline = echo_point(table, t)
    real_log_factors = echo._log_factors
    lock = threading.Lock()
    callers = []
    others_done = threading.Event()
    waited = []

    def log_factors(a, logs, cinv):
        # the first worker here waits until the other has done every other
        # chunk, which only a worker that claims chunks as it goes can do
        with lock:
            callers.append(threading.get_ident())
            first = len(callers) == 1
        if first:
            waited.append(others_done.wait(10.0))
        real_log_factors(a, logs, cinv)
        with lock:
            if callers.count(callers[0]) == 1 and len(callers) == n_chunks:
                others_done.set()

    monkeypatch.setattr(echo, "_log_factors", log_factors)
    monkeypatch.setenv("THERMALECHO_THREADS", "2")
    pooled = echo_point(table, t)
    assert waited == [True]
    assert len(callers) == n_chunks and len(set(callers)) == 2
    for name in FIELDS:
        assert np.array_equal(getattr(pooled, name), getattr(inline, name)), name


def test_thread_count_variable_must_be_an_integer(monkeypatch):
    table = _table()
    t = np.linspace(0.0, 4.0, 9)
    for raw in ("abc", "0", "-2"):
        monkeypatch.setenv("THERMALECHO_THREADS", raw)
        with pytest.raises(ValueError, match="THERMALECHO_THREADS"):
            echo_point(table, t)
    # unset or empty: the CPUs this process may run on, not all the host's
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    monkeypatch.setenv("THERMALECHO_THREADS", "")
    assert echo._thread_count() == usable
    monkeypatch.delenv("THERMALECHO_THREADS")
    assert echo._thread_count() == usable
    monkeypatch.setenv("THERMALECHO_THREADS", "3")
    assert echo._thread_count() == 3


def test_one_usable_cpu_runs_the_kernel_inline():
    # a process allowed one CPU (a cpuset or taskset) evaluates every chunk
    # on the calling thread when THERMALECHO_THREADS is unset
    script = (
        "import os, threading\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "import numpy as np\n"
        "from thermalecho import QuenchParams, echo, mode_table\n"
        "callers = []\n"
        "real_log_factors = echo._log_factors\n"
        "def log_factors(*args):\n"
        "    callers.append(threading.get_ident())\n"
        "    real_log_factors(*args)\n"
        "echo._log_factors = log_factors\n"
        "table = mode_table(QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1,"
        " beta=10.0, length=2000))\n"
        "echo.echo_point(table, np.linspace(0.0, 500.0, 400))\n"
        "print(echo._CPU_COUNT, len(callers), set(callers) == {threading.get_ident()},"
        " threading.active_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(thermalecho.__file__).parents[1]))
    env.pop("THERMALECHO_THREADS", None)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # 400 grid times of 999 modes are 4 chunks of 128 rows
    assert done.stdout.split() == ["1", "4", "True", "1"]


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
            pt = echo_point(table, t)
            dense = oracle.exact_le(ham0, ham1, beta, t)
            assert np.allclose(pt.le, dense.le, atol=1e-10)
            assert np.allclose(pt.lef, dense.lef, atol=1e-10)


@given(fields, fields, couplings, couplings, betas, times,
       st.integers(1, 50).map(lambda n: 2 * n))
@settings(max_examples=120, deadline=None)
def test_bound_sandwich(h0, h1, g0, g1, beta, t, length):
    table = mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                    beta=beta, length=length))
    pt = echo_point(table, t)
    assert pt.lower - 1e-12 <= pt.le <= pt.upper + 1e-12
    assert 0.0 <= pt.le <= 1.0 + 1e-12
    assert pt.lef <= long_time(table).purity + 1e-12


@given(fields, fields, couplings, couplings, times)
@settings(max_examples=60, deadline=None)
def test_zero_temperature_bound_collapse(h0, h1, g0, g1, t):
    # pure initial state: echo and linearized echo coincide, bounds pinch
    table = mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                    beta=math.inf, length=24))
    pt = echo_point(table, t)
    assert pt.le == pytest.approx(pt.lef, abs=1e-13)
    assert pt.lower == pytest.approx(pt.upper, abs=1e-13)
