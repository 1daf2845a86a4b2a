"""Weight spectra, time sampling, histogram peaks, shape classification, bells."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal
from scipy import special as sp_special

from thermalecho import (
    QuenchParams,
    SampleSet,
    ShapeLabel,
    WeightSpectrum,
    bell_aniso,
    bell_ising,
    bell_width_aniso,
    bell_width_ising,
    classify,
    echo_point,
    histogram_peaks,
    mode_table,
    sample_logle,
    weights,
)
from thermalecho import echo, model, stats
import reference
from reference import chain_columns, chains_of, char_fn, damping

# the strata where the formulas change (a zero field or anisotropy, the
# critical field, the Ising coupling) are drawn as well as the bulk
STRATA = st.sampled_from([-1.0, 0.0, 1.0])
fields = STRATA | st.floats(-2.0, 2.0, allow_nan=False)
couplings = STRATA | st.floats(-1.5, 1.5, allow_nan=False)
betas = st.floats(0.05, 40.0, allow_nan=False)

NEAR_CRITICAL = dict(h0=0.99, h1=1.01, gamma0=1.0, gamma1=1.0)


def _params(h0=0.5, h1=0.5, g0=0.25, g1=0.1, beta=10.0, length=20):
    return QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1, beta=beta, length=length)


def _synthetic_spectrum(a):
    a = np.asarray(a, dtype=float)
    return WeightSpectrum(a=a, a_f=a.copy(), second_order=False)


@given(fields, fields, couplings, couplings, betas)
@settings(max_examples=100)
def test_weights_bounded_by_half(h0, h1, g0, g1, beta):
    spec = weights(mode_table(QuenchParams(h0=h0, h1=h1, gamma0=g0, gamma1=g1,
                                           beta=beta, length=16)))
    assert np.all((spec.a >= 0.0) & (spec.a <= 0.5 + 1e-15))
    assert np.all((spec.a_f >= 0.0) & (spec.a_f <= 0.5 + 1e-15))
    assert spec.kappa2 <= 16.0 / 8.0
    assert spec.zbar == pytest.approx(-float(np.sum(spec.a)), rel=1e-14)


def test_weights_damping_columns_match_thermal_ratios():
    beta = 3.0
    table = mode_table(_params(beta=beta))
    assert np.allclose(table.one_minus_cinv, damping(table.lam0, 1.0 / beta, m=1), atol=1e-13)
    assert np.allclose(table.one_minus_cinv2, damping(table.lam0, 1.0 / beta, m=2), atol=1e-13)


def test_finite_temperature_suppresses_weights():
    warm = weights(mode_table(_params(beta=1.5)))
    cold = weights(mode_table(_params(beta=math.inf)))
    assert np.all(warm.a <= cold.a + 1e-15)
    assert np.allclose(cold.a, np.sin(mode_table(_params()).dtheta) ** 2 / 2.0,
                       atol=1e-15)


def test_second_order_weights_use_bare_angle():
    table = mode_table(_params(g1=0.2495))
    spec = weights(table, use_second_order=True)
    assert np.allclose(spec.a, table.one_minus_cinv * table.dtheta**2 / 2.0, atol=0)
    assert spec.second_order


def test_mean_log_echo_extensivity():
    a100 = weights(mode_table(_params(length=100))).zbar
    a200 = weights(mode_table(_params(length=200))).zbar
    assert a200 / a100 == pytest.approx(2.0, rel=1e-3)


def test_sampling_reproducible_and_route_equal():
    params = _params(length=30, beta=2.0)
    table = mode_table(params)
    s1 = sample_logle(mode_table(params), 500.0, 5000, 42)
    s2 = sample_logle(mode_table(params), 500.0, 5000, 42)
    s3 = sample_logle(mode_table(params), 500.0, 5000, 43)
    assert np.array_equal(s1.times, s2.times)
    assert np.array_equal(s1.z, s2.z)
    assert not np.array_equal(s1.z, s3.z)
    assert np.all((s1.times >= 0.0) & (s1.times <= 500.0))
    assert np.array_equal(s1.z, echo_point(table, s1.times).log_le)


def test_sampling_thread_count_invariance(monkeypatch):
    params = _params(length=30, beta=2.0)
    monkeypatch.setenv("THERMALECHO_THREADS", "1")
    serial = sample_logle(mode_table(params), 1000.0, 40_000, 7)
    monkeypatch.setenv("THERMALECHO_THREADS", "3")
    threaded = sample_logle(mode_table(params), 1000.0, 40_000, 7)
    assert np.array_equal(serial.z, threaded.z)
    assert np.array_equal(serial.times, threaded.times)


# ladders of (quench, sample count, least number of kernel chunks)
LADDERS = {
    "ground_state_rung": (
        [QuenchParams(**NEAR_CRITICAL, beta=math.inf, length=30)]
        + [QuenchParams(**NEAR_CRITICAL, beta=beta, length=30) for beta in (20.0, 2.0, 0.5)],
        3000, 1),
    "mixed_h1": (
        [_params(h1=h1, beta=beta, length=24) for h1, beta in ((0.7, 5.0), (1.2, 5.0), (1.2, 0.3))],
        3000, 1),
    "three_chunks": (
        [QuenchParams(**NEAR_CRITICAL, beta=beta, length=40) for beta in (50.0, 10.0, 5.0, 1.0)],
        20_000, 3),
}


def _ladder_block(chains):
    """The one block of a ladder's rungs, as ``distribution`` builds it."""
    ((indices, block),) = model._blocks(chain_columns(chains))
    assert indices.tolist() == list(range(len(chains)))
    return block


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladder_rows_equal_single_table_samples(name, monkeypatch):
    chains, n_samples, min_chunks = LADDERS[name]
    tables = [mode_table(params) for params in chains]
    block = _ladder_block(chains)
    # rungs that share h1 and gamma1 share one lam1 row, and so each sine
    assert block.lam1.ndim == (2 if name == "mixed_h1" else 1)
    rows = echo._CHUNK_BYTES // (8 * len(tables) * tables[0].n_modes)
    assert math.ceil(n_samples / rows) >= min_chunks
    for threads in ("1", "3"):
        monkeypatch.setenv("THERMALECHO_THREADS", threads)
        ladder = sample_logle([block], 700.0, n_samples, 11)
        assert ladder.z.shape == (len(tables), n_samples)
        # the same rows from the block alone and from a sequence of one-chain tables
        assert np.array_equal(sample_logle(block, 700.0, n_samples, 11).z, ladder.z)
        assert np.array_equal(sample_logle(tables, 700.0, n_samples, 11).z, ladder.z)
        for table, z in zip(tables, ladder.z):
            single = sample_logle(table, 700.0, n_samples, 11)
            assert np.array_equal(single.times, ladder.times)
            assert np.array_equal(single.z, z)
            assert np.array_equal(echo_point(table, ladder.times).log_le, z)


def test_sampler_takes_blocks_and_tables_in_one_sequence():
    # a one-chain block gives one row, and a block whose chains are all
    # alike a row per chain from its per-chain thermal columns
    chains = LADDERS["mixed_h1"][0]
    columns = chain_columns([chains[0], chains[0]])
    ((indices, twins),) = model._blocks(columns)
    assert twins.cinv.shape[0] == twins.n_chains == 2 and twins.lam1.ndim == 1
    sample = sample_logle([twins, mode_table(chains[1]), _ladder_block(chains[2:])],
                          700.0, 500, 3)
    assert sample.z.shape == (4, 500)
    for params, z in zip([*chains_of(columns, indices), *chains[1:]], sample.z):
        assert np.array_equal(sample_logle(mode_table(params), 700.0, 500, 3).z, z)
    # a lone block of one chain keeps its chain axis
    assert sample_logle(_ladder_block(chains[2:]), 700.0, 500, 3).z.shape == (1, 500)


def test_sampler_forms_only_the_log_echo(monkeypatch):
    # the log-echo is bit for bit the same without the echo, its bounds or
    # log(arg), from the ladder's block (one shared lam1 row) and from its tables
    chains = LADDERS["ground_state_rung"][0]
    inputs = [[_ladder_block(chains)], [mode_table(params) for params in chains]]
    expected = [sample_logle(tables, 700.0, 3000, 5).z for tables in inputs]
    real_log_factors = echo._log_factors

    def log_factors(a, logs, cinv):
        assert logs is None
        real_log_factors(a, logs, cinv)

    def no_point(*args):
        raise AssertionError("the sampler formed the echo quantities")

    monkeypatch.setattr(echo, "_log_factors", log_factors)
    monkeypatch.setattr(echo, "echo_point", no_point)
    for tables, z in zip(inputs, expected):
        assert np.array_equal(sample_logle(tables, 700.0, 3000, 5).z, z)


def test_sampling_rejects_bad_arguments():
    params = _params()
    with pytest.raises(ValueError):
        sample_logle(mode_table(params), 0.0, 100, 1)
    with pytest.raises(ValueError):
        sample_logle(mode_table(params), math.inf, 100, 1)
    with pytest.raises(ValueError):
        sample_logle(mode_table(params), 10.0, 0, 1)


def test_char_fn_normalization_and_bound():
    spec = weights(mode_table(_params(length=50, g1=0.24)))
    lam = np.linspace(0.0, 50.0, 201)
    vals = char_fn(spec, lam)
    assert vals[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.abs(vals) <= 1.0 + 1e-14)


def test_char_fn_matches_external_bessel_product():
    spec = weights(mode_table(_params(length=30, beta=3.0, h1=0.8)))
    lam = np.linspace(0.0, 40.0, 101)
    direct = np.prod(sp_special.j0(np.abs(np.outer(lam, spec.a))), axis=1)
    assert np.allclose(char_fn(spec, lam), direct, rtol=1e-10, atol=1e-12)


def test_histogram_peaks_on_synthetic_mixtures():
    rng = np.random.default_rng(314)
    bimodal = np.concatenate([rng.normal(-1.0, 0.22, 12_000),
                              rng.normal(1.0, 0.22, 11_000)])
    locs = histogram_peaks(*np.histogram(bimodal, bins=200))
    assert len(locs) == 2
    assert abs(locs[0] + 1.0) < 0.15 and abs(locs[1] - 1.0) < 0.15

    unimodal = rng.normal(0.3, 0.5, 20_000)
    assert len(histogram_peaks(*np.histogram(unimodal, bins=200))) == 1

    assert histogram_peaks(*np.histogram(np.full(1000, 2.5), bins=200)).size == 0


def test_histogram_peaks_prominence_filter():
    # the minor peak's prominence is about 14% of the top with 1000 draws and
    # about 2% with 150; only the first clears the fixed 5% threshold
    for minor, expected in ((1000, 2), (150, 1)):
        rng = np.random.default_rng(2718)
        values = np.concatenate([rng.normal(0.0, 0.3, 20_000),
                                 rng.normal(2.5, 0.1, minor)])
        assert len(histogram_peaks(*np.histogram(values, bins=200))) == expected, minor

        # a filtered minor peak is still a local maximum of the histogram
        counts, edges = np.histogram(values, bins=200)
        sm = np.convolve(counts.astype(float), np.ones(5) / 5, mode="same")
        idx, _ = sp_signal.find_peaks(sm, prominence=0.01 * sm.max())
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert np.min(np.abs(mids[idx] - 2.5)) < 0.05, minor


@pytest.mark.parametrize("bins", [1, 2, 200])
def test_histogram_peaks_need_two_occupied_bins(bins):
    # identical samples fill one bin, whatever the bin count
    counts, edges = np.histogram(np.full(1000, -0.75), bins=bins)
    assert np.count_nonzero(counts) == 1
    assert histogram_peaks(counts, edges).size == 0
    assert histogram_peaks(np.zeros(bins, dtype=int), edges).size == 0
    with pytest.raises(ValueError):
        histogram_peaks(counts, edges[:-1])


@pytest.mark.parametrize("counts, peaks", [([3, 5], []), ([1, 9, 1], []),
                                           ([1, 9, 1, 1], [1.5]), ([9, 1, 1, 9], [1.5]),
                                           ([0, 4, 0, 0], [])])
def test_histogram_peaks_below_five_bins_use_the_centred_window(counts, peaks):
    # the window over bins i - 2 to i + 2, zero outside: [1, 9, 1] smooths to
    # a flat 11/5 and [1, 9, 1, 1] to [11, 12, 12, 11] / 5, a peak at bin 1
    edges = np.arange(len(counts) + 1.0)
    assert histogram_peaks(counts, edges).tolist() == peaks


@pytest.mark.parametrize("bins", [5, 6, 9, 200])
def test_histogram_peaks_from_five_bins_keep_the_same_window(bins, monkeypatch):
    # from 5 bins on, the centred window is the slice mode="same" takes
    rng = np.random.default_rng(bins)
    counts, edges = np.histogram(np.concatenate([rng.normal(-1.0, 0.3, 500),
                                                 rng.normal(1.0, 0.3, 400)]), bins=bins)
    ours = histogram_peaks(counts, edges)
    assert ours.size >= 1
    # the former smoothing, mode="same", padded so that the slice takes it whole
    same = np.convolve(counts.astype(float), np.ones(5) / 5, mode="same")
    monkeypatch.setattr(stats.np, "convolve", lambda *args, **kwargs: np.pad(same, 2))
    assert np.array_equal(histogram_peaks(counts, edges), ours)


@pytest.mark.parametrize("seed", [5, 17, 1234])
def test_histogram_peaks_agree_with_scipy(seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3.0, 3.0, rng.integers(1, 4))
    values = np.concatenate([rng.normal(c, rng.uniform(0.15, 0.5), 8000)
                             for c in centers])
    bins, window, prom = 200, 5, 0.05
    ours = histogram_peaks(*np.histogram(values, bins=bins))

    counts, edges = np.histogram(values, bins=bins)
    sm = np.convolve(counts.astype(float), np.ones(window) / window, mode="same")
    idx, _ = sp_signal.find_peaks(sm, prominence=prom * sm.max())
    mids = 0.5 * (edges[:-1] + edges[1:])
    reference = mids[idx]

    assert len(ours) == len(reference)
    width = edges[1] - edges[0]
    assert np.all(np.abs(np.asarray(ours) - reference) <= width + 1e-12)


def test_classify_double_peak_from_weights():
    spec = _synthetic_spectrum([0.4, 0.28] + [0.001] * 20)
    verdict = classify(spec)
    assert verdict.label is ShapeLabel.DOUBLE_PEAKED
    gap = 0.4 - 0.28
    assert verdict.predicted_peaks == pytest.approx(
        (spec.zbar - gap, spec.zbar + gap), rel=1e-12)


def test_classify_merged_single_peak():
    spec = _synthetic_spectrum([0.35, 0.345] + [0.01] * 20)
    verdict = classify(spec)
    assert verdict.label is ShapeLabel.MERGED_SINGLE_PEAK
    assert verdict.dominance > 0.6


def test_classify_gaussian_when_no_dominant_pair():
    spec = _synthetic_spectrum([0.02] * 50)
    verdict = classify(spec)
    assert verdict.label is ShapeLabel.GAUSSIAN
    assert verdict.dominance < 0.1


def test_classify_histogram_contradiction_yields_indeterminate():
    spec = _synthetic_spectrum([0.4, 0.28] + [0.001] * 20)
    rng = np.random.default_rng(1)
    z = rng.normal(spec.zbar, 0.05, 50_000)
    samples = SampleSet(tau=1e4, seed=1, times=np.linspace(0, 1e4, 50_000), z=z)
    verdict = classify(spec, np.histogram(samples.z, bins=200))
    assert verdict.label is ShapeLabel.INDETERMINATE
    assert verdict.histogram_peak_count == 1


def test_classify_zero_quench_degenerate():
    spec = weights(mode_table(_params(h1=0.5, g1=0.25)))
    verdict = classify(spec)
    assert verdict.degenerate
    assert verdict.label is ShapeLabel.INDETERMINATE


def test_block_rule_matches_classify_row_by_row():
    # the classify tests' spectra, padded with zero weights to one block
    spectra = {
        ShapeLabel.DOUBLE_PEAKED: [0.4, 0.28] + [0.001] * 20,
        ShapeLabel.MERGED_SINGLE_PEAK: [0.35, 0.345] + [0.01] * 20,
        ShapeLabel.GAUSSIAN: [0.02] * 50,
        ShapeLabel.INDETERMINATE: weights(mode_table(_params(h1=0.5, g1=0.25))).a,
    }
    rows = [np.pad(np.asarray(a, dtype=float), (0, 50 - len(a))) for a in spectra.values()]
    # tied top weights merge
    rows.append(np.pad([0.3, 0.3] + [0.01] * 10, (0, 38)))
    want = [*spectra, ShapeLabel.MERGED_SINGLE_PEAK]
    stacked = _synthetic_spectrum(np.stack(rows))
    block = classify(stacked)
    assert block.label.tolist() == [label.value for label in want]
    assert block.predicted_peaks.shape == (5, 2)
    assert block.histogram_peak_count is None and block.histogram_peaks == ()
    for i, a in enumerate(rows):
        spec = _synthetic_spectrum(a)
        verdict = classify(spec)
        assert verdict.label.value == block.label[i]
        assert verdict.degenerate is bool(block.degenerate[i]) is (i == 3)
        assert verdict.dominance == block.dominance[i]
        assert spec.kappa2 == stacked.kappa2[i] and spec.zbar == stacked.zbar[i]
        assert verdict.predicted_peaks == tuple(block.predicted_peaks[i].tolist())
        top = np.sort(a)[::-1]
        gap = top[0] - top[1]
        assert verdict.predicted_peaks == ((spec.zbar, spec.zbar) if i == 3
                                           else (spec.zbar - gap, spec.zbar + gap))


def test_classify_refuses_a_histogram_for_a_block():
    spec = _synthetic_spectrum(np.full((2, 10), 0.02))
    with pytest.raises(ValueError, match="histogram"):
        classify(spec, np.histogram(np.zeros(10), bins=5))


# h1 across the critical field: one block of three chains that differ in h1
BLOCK_SUMS = [_params(h0=0.5, h1=h1, g0=1.0, g1=1.0, beta=2.0, length=8) for h1 in (0.7, 0.9, 1.3)]


@pytest.mark.parametrize("chains", [BLOCK_SUMS, BLOCK_SUMS[:1], [BLOCK_SUMS[1]] * 2],
                         ids=["three", "one", "identical"])
def test_block_sums_are_per_chain(chains):
    ((_, block),) = model._blocks(chain_columns(chains))
    spectrum = weights(block)
    assert spectrum.a.shape == spectrum.a_f.shape == (len(chains), 4)
    assert spectrum.zbar.shape == spectrum.kappa2.shape == (len(chains),)
    verdict = classify(spectrum)
    for i, params in enumerate(chains):
        ref = weights(mode_table(params))
        assert isinstance(ref.zbar, float) and isinstance(ref.kappa2, float)
        assert np.array_equal(spectrum.a[i], ref.a) and np.array_equal(spectrum.a_f[i], ref.a_f)
        assert np.float64(spectrum.zbar[i]).tobytes() == np.float64(ref.zbar).tobytes()
        assert np.float64(spectrum.kappa2[i]).tobytes() == np.float64(ref.kappa2).tobytes()
        # a block of one chain still gets one label text per chain
        assert verdict.label[i] == classify(ref).label.value
    if chains is BLOCK_SUMS:
        assert spectrum.kappa2 == pytest.approx([2.98e-4, 6.58e-3, 3.117e-2], rel=2e-3)


def test_classify_zero_quench_histogram_keeps_signed_zbar():
    table = mode_table(_params(h1=0.5, g1=0.25))
    spec = weights(table)
    sample = sample_logle(table, 1e3, 2000, 3)
    verdict = classify(spec, np.histogram(sample.z, bins=200))
    assert verdict.degenerate is True
    assert verdict.label is ShapeLabel.INDETERMINATE
    assert verdict.histogram_peak_count == 0 and verdict.histogram_peaks == ()
    # the zero quench's mean is -0.0; zbar + 0.0 would turn it into 0.0
    assert verdict.predicted_peaks == (spec.zbar, spec.zbar)
    assert np.signbit(spec.zbar) and all(np.signbit(verdict.predicted_peaks))


def test_near_critical_ladder_dominance_decreases():
    labels, doms = [], []
    for temp in (0.02, 0.06, 0.10, 0.14, 0.18):
        spec = weights(mode_table(QuenchParams(**NEAR_CRITICAL, beta=1.0 / temp,
                                               length=50)))
        verdict = classify(spec)
        labels.append(verdict.label)
        doms.append(verdict.dominance)
    assert doms == sorted(doms, reverse=True)
    assert doms[0] == pytest.approx(0.90817, abs=2e-5)
    assert doms[-1] == pytest.approx(0.54609, abs=2e-5)
    assert labels[0] is ShapeLabel.DOUBLE_PEAKED
    assert labels[-1] is ShapeLabel.GAUSSIAN
    order = [ShapeLabel.DOUBLE_PEAKED, ShapeLabel.MERGED_SINGLE_PEAK,
             ShapeLabel.GAUSSIAN]
    ranks = [order.index(lbl) for lbl in labels]
    assert ranks == sorted(ranks)


def test_damping_identities():
    x = 2.0
    assert damping(x, 1.0, m=1) == pytest.approx(1.0 - 1.0 / math.cosh(x), rel=1e-15)
    assert damping(x, 1.0, m=2) == pytest.approx(1.0 - 1.0 / math.cosh(x) ** 2,
                                                 rel=1e-15)
    assert damping(0.0, 1.0) == 0.0
    assert damping(400.0, 1.0) == 1.0
    assert damping(3.0, 0.5, m=1) == pytest.approx(1.0 - 1.0 / math.cosh(6.0),
                                                   rel=1e-14)


def test_damping_rejects_bad_arguments():
    with pytest.raises(ValueError):
        damping(1.0, 1.0, m=3)
    with pytest.raises(ValueError):
        damping(1.0, 0.0)
    with pytest.raises(ValueError):
        damping(1.0, -2.0)


def test_bell_band_support():
    h0, dh = 0.9, 1.0
    lo, hi = abs(1.0 - h0), abs(1.0 + h0)
    vals = bell_ising(np.array([lo, 0.5 * (lo + hi), hi]), h0, dh)
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert vals[1] > 0.0
    with pytest.raises(ValueError):
        bell_ising(np.array([lo - 0.01]), h0, dh)
    with pytest.raises(ValueError):
        bell_ising(np.array([hi + 0.01]), h0, dh)

    g0 = 0.3
    vals_a = bell_aniso(np.array([g0, 0.6, 1.0]), g0, 1.0)
    assert vals_a[0] == 0.0 and vals_a[2] == 0.0
    assert vals_a[1] > 0.0
    with pytest.raises(ValueError):
        bell_aniso(np.array([1.2]), g0, 1.0)


def test_bell_width_regressions():
    assert reference.bell_width_ising(0.9) == pytest.approx(0.18232183902312873, rel=1e-9)
    assert reference.bell_width_aniso(0.1) == pytest.approx(0.18166810563511937, rel=1e-9)
    # the continuum inflection width scales like sqrt(10/3) times the band edge
    for edge, width in ((0.1, reference.bell_width_ising(0.9)),
                        (0.05, reference.bell_width_ising(0.95))):
        assert width / edge == pytest.approx(math.sqrt(10.0 / 3.0), rel=0.02)


def test_bell_width_quench_amplitude_is_scale_free():
    # dh only scales the bell; the inflection finder reproduces the width to
    # within its interpolation rounding
    assert reference.bell_width_ising(0.9, 1.0) == pytest.approx(
        reference.bell_width_ising(0.9, 0.2), rel=1e-6)


@pytest.mark.parametrize("h0", [0.3, 0.5, 0.8, 0.9, 0.95, 0.99, -0.9, 1.5, 3.0])
def test_closed_form_ising_width_matches_the_numeric_finder(h0):
    assert bell_width_ising(h0) == pytest.approx(reference.bell_width_ising(h0), rel=1e-5)


@pytest.mark.parametrize("gamma0", [0.05, 0.1, 0.25, 0.5, 0.65, -0.3])
def test_closed_form_aniso_width_matches_the_numeric_finder(gamma0):
    assert bell_width_aniso(gamma0) == pytest.approx(reference.bell_width_aniso(gamma0),
                                                     rel=1e-5)


def test_closed_form_width_small_edge_limit():
    # the grid finder cannot resolve a band edge this close to zero; the
    # closed form gives sqrt(10/3) * edge up to a relative edge**2 / 2
    for edge in (1e-4, 1e-6):
        assert bell_width_aniso(edge) == pytest.approx(math.sqrt(10.0 / 3.0) * edge,
                                                       rel=1e-8)
        assert bell_width_ising(1.0 - edge) / abs(1.0 - (1.0 - edge)) == pytest.approx(
            math.sqrt(10.0 / 3.0), rel=1e-8)


@pytest.mark.parametrize("width, edge", [
    (bell_width_ising, 1.0),   # gapless band: no maximum inside it
    (bell_width_ising, 0.0),   # the band collapses to a point
    (bell_width_ising, 0.2),   # 7 * 0.8**2 > 3 * 1.2**2: inflection past the band
    (bell_width_aniso, 0.0),
    (bell_width_aniso, 0.66),
    (bell_width_aniso, 1.2),
])
def test_closed_form_width_needs_an_inflection_inside_the_band(width, edge):
    with pytest.raises(ValueError):
        width(edge)


def test_bell_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bell_ising(np.array([1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        bell_aniso(np.array([0.5]), 1.0, 1.0)
    with pytest.raises(ValueError):
        bell_aniso(np.array([0.5]), -1.2, 1.0)
