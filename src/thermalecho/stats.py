"""Long-time statistics of the log-echo: weights, sampling, classification.

For weak quenches the log-echo is a sum of independent per-mode oscillations
with weights ``a_k``, so its stationary distribution is controlled by the
weight spectrum alone: a couple of dominant weights produce a two-peaked or
merged distribution, many comparable weights produce a Gaussian.  This
module computes the weights, samples the exact log-echo at uniform random
times, detects the peaks of a histogram, and classifies the shape by a
fixed rule that checks its verdict against such a histogram, however it
was binned: the caller bins once and writes the same counts.  The weights,
the classifier and the sampler take one chain or a block of chains (see
:class:`model.ModeTable`), and a block's results keep its chain axis, so
``scan`` runs the weight rule once per block.  It also gives the continuum
spectral bells that the weights of a pure field quench and of a zero-field
anisotropy quench approach for long chains.
Sampling reads the log-echo alone from the echo kernel at times that
every chain shares, so it shares its log-space chunks and its one thread
pool, and a block of ladder rungs takes each sine once for all of them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import ModeTable

__all__ = [
    "Classification",
    "SampleSet",
    "ShapeLabel",
    "WeightSpectrum",
    "bell_aniso",
    "bell_ising",
    "bell_width_aniso",
    "bell_width_ising",
    "classify",
    "histogram_peaks",
    "sample_logle",
    "weights",
]

# the peak finder's and the classifier's fixed rule
DEFAULT_SMOOTH_WINDOW = 5
DEFAULT_PROMINENCE = 0.05
DEFAULT_DOMINANCE_THRESHOLD = 0.6
DEFAULT_GAP_FACTOR = 3.0


class ShapeLabel(str, enum.Enum):
    """Distribution shape of the stationary log-echo."""

    DOUBLE_PEAKED = "DoublePeaked"
    MERGED_SINGLE_PEAK = "MergedSinglePeak"
    GAUSSIAN = "Gaussian"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class WeightSpectrum:
    """Per-mode oscillation weights of the log-echo.

    ``a`` weights the log-echo itself and ``a_f`` the log of the linear
    overlap echo, per mode of the table they came from; they contain its
    thermal factors ``one_minus_cinv`` and ``one_minus_cinv2``.  With
    ``second_order=False`` the angular part is ``sin(dtheta)**2`` (exact
    angles); with ``True`` it is ``dtheta**2`` (leading order).  A block's
    weights are ``(chains, modes)``, and ``zbar`` and ``kappa2`` sum each
    chain's: a float for one chain, a ``(chains,)`` array for a block.
    """

    a: np.ndarray
    a_f: np.ndarray
    second_order: bool

    @property
    def zbar(self) -> float | np.ndarray:
        """Analytic mean of the centered log-echo, ``-sum(a)``."""
        return _per_chain(-np.sum(self.a, axis=-1))

    @property
    def kappa2(self) -> float | np.ndarray:
        """Analytic variance of the log-echo, ``sum(a**2) / 2``."""
        return _per_chain(0.5 * np.sum(self.a**2, axis=-1))


def _per_chain(sums: np.ndarray) -> float | np.ndarray:
    """One chain's sum as a float, a block's as its array."""
    return sums if sums.ndim else float(sums)


@dataclass(frozen=True)
class SampleSet:
    """Log-echo sampled at uniform random times on ``[0, tau]``.

    ``z`` is shaped like ``times`` for a table of one chain, and has a
    leading chain axis, ``(chains, n_samples)``, for a sequence of tables
    or a block.
    """

    tau: float
    seed: int
    times: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class Classification:
    """Shape verdict for the stationary log-echo distribution.

    ``dominance`` is the share of the two largest weights in the total,
    ``predicted_peaks`` the two mode locations implied by those weights
    (coinciding when they merge), and ``histogram_peak_count`` the number of
    prominent histogram peaks when a histogram was supplied (None otherwise).
    ``degenerate`` marks a quench with zero variance, where no shape exists.
    A block's verdict has one per chain: ``label`` holds the label texts,
    and ``dominance``, ``predicted_peaks`` ``(chains, 2)`` and
    ``degenerate`` are arrays.
    """

    label: ShapeLabel | np.ndarray
    dominance: float | np.ndarray
    predicted_peaks: tuple[float, float] | np.ndarray
    histogram_peak_count: int | None
    histogram_peaks: tuple[float, ...]
    degenerate: bool | np.ndarray


def weights(table: ModeTable, use_second_order: bool = False) -> WeightSpectrum:
    """Oscillation weight spectrum of a quench.

    Parameters
    ----------
    table
        Mode table of the quench.  A block gives a row of weights per chain.
    use_second_order
        Replace ``sin(dtheta)**2`` by ``dtheta**2``, the leading-order form;
        only meaningful for small rotation angles.
    """
    amp = table.dtheta**2 if use_second_order else table.alpha
    a = table.one_minus_cinv * amp / 2.0
    a_f = table.one_minus_cinv2 * amp / 2.0
    return WeightSpectrum(a=a, a_f=a_f, second_order=use_second_order)


def sample_logle(table: ModeTable | Sequence[ModeTable], tau: float, n_samples: int,
                 seed: int) -> SampleSet:
    """Sample the exact log-echo at uniform random times.

    Times are drawn sequentially from the seed before any parallel
    evaluation, so the same seed gives byte-identical samples under any
    thread count.  A sequence of tables, such as the rungs of a temperature
    ladder, shares one draw of times, and each entry may be a block of
    chains (see :class:`model.ModeTable`): ``z`` has one row per chain, in
    the order of the entries and of each block's chains, and each row is
    bit for bit the ``z`` of that chain's table alone with the same seed
    and ``tau``.  One chain's table alone gives a 1-D ``z``; a lone block
    keeps its chain axis, also for one chain.

    Parameters
    ----------
    table
        Mode table of the quench, or a sequence of tables and blocks.
    tau
        Observation horizon; must be positive.  A horizon growing like
        ``length**2`` resolves the slowest beat between mode frequencies.
    n_samples
        Number of time draws, at least 1.
    seed
        Seed for the pseudorandom generator.
    """
    from . import echo

    if not (tau > 0.0) or not math.isfinite(tau):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    lone = isinstance(table, ModeTable)
    tables = [table] if lone else table
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, tau, int(n_samples))
    # the kernel gives each chain of an entry a column, which is its row of z
    z = np.concatenate([echo._kernel(entry, times[:, None], core=False)[0].T
                        for entry in tables])
    # a block's thermal columns are 2-D, also for one chain
    return SampleSet(tau=float(tau), seed=int(seed), times=times,
                     z=z[0] if lone and table.cinv.ndim == 1 else z)


def histogram_peaks(counts, edges) -> np.ndarray:
    """Locations of prominent peaks of a smoothed histogram.

    The histogram is smoothed with a moving average over
    ``DEFAULT_SMOOTH_WINDOW`` bins; a bin is a peak when it is a local
    maximum whose prominence (height above the higher of the two flanking
    valleys) reaches ``DEFAULT_PROMINENCE`` times the tallest smoothed bin.

    Parameters
    ----------
    counts, edges
        The bin counts and the ``len(counts) + 1`` bin edges, as
        ``np.histogram`` returns them.

    Returns
    -------
    Bin-center positions of the accepted peaks, ascending.  Empty when
    fewer than two bins are occupied, as for identical samples.
    """
    counts = np.asarray(counts, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if edges.shape != (counts.size + 1,):
        raise ValueError(f"a histogram of {counts.size} bins needs {counts.size + 1} edges")
    if np.count_nonzero(counts) < 2:
        return np.empty(0)
    kernel = np.ones(DEFAULT_SMOOTH_WINDOW) / DEFAULT_SMOOTH_WINDOW
    # centred and zero-padded; mode="same" gives the kernel's length, not the
    # bins', when there are fewer bins than the window
    half = DEFAULT_SMOOTH_WINDOW // 2
    sm = np.convolve(counts, kernel, "full")[half : half + counts.size]
    top = sm.max()
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = []
    for i in range(1, sm.size - 1):
        if not (sm[i] > sm[i - 1] and sm[i] >= sm[i + 1]):
            continue
        j = i - 1
        left_min = sm[i]
        while j >= 0 and sm[j] <= sm[i]:
            left_min = min(left_min, sm[j])
            j -= 1
        j = i + 1
        right_min = sm[i]
        while j < sm.size and sm[j] <= sm[i]:
            right_min = min(right_min, sm[j])
            j += 1
        if sm[i] - max(left_min, right_min) >= DEFAULT_PROMINENCE * top:
            out.append(centers[i])
    return np.asarray(out)


def classify(spectrum: WeightSpectrum, histogram=None) -> Classification:
    """Classify the stationary distribution of the log-echo.

    The weight rule: with ``r`` the share of the two largest weights, the
    shape is Gaussian when ``r <= DEFAULT_DOMINANCE_THRESHOLD`` (0.6);
    otherwise it is DoublePeaked when the two leading weights differ by more
    than ``DEFAULT_GAP_FACTOR`` (3) times the spread of the remaining
    weights, and MergedSinglePeak when they are that close.  When a
    histogram of the log-echo is supplied, as the ``(counts, edges)`` pair
    of ``np.histogram``, its peak count (see :func:`histogram_peaks`) must
    agree (2 for DoublePeaked, 1 otherwise); a disagreement downgrades the
    verdict to Indeterminate.

    A quench with all weights zero has no distribution at all; it is
    reported as Indeterminate with ``degenerate=True``.  A block's spectrum
    gets one verdict per chain, each with the bits of that chain's own; a
    histogram checks one chain only, so a block refuses one.
    """
    block = spectrum.a.ndim > 1
    if block and histogram is not None:
        raise ValueError("a histogram checks one chain's verdict, not a block's")
    top = np.sort(np.atleast_2d(spectrum.a), axis=-1)[:, ::-1]
    total = np.sum(top, axis=-1)
    a1, a2 = top[:, 0], (top[:, 1] if top.shape[-1] > 1 else 0.0)
    degenerate = (total <= 0.0) | (a1 == 0.0)
    dominance = np.divide(a1 + a2, total, out=np.zeros_like(total), where=~degenerate)
    gap = a1 - a2
    sigma_rest = np.sqrt(0.5 * np.sum(top[:, 2:] ** 2, axis=-1))
    # the first condition that holds picks the label
    label = np.select(
        [degenerate, dominance <= DEFAULT_DOMINANCE_THRESHOLD,
         gap > DEFAULT_GAP_FACTOR * sigma_rest],
        [ShapeLabel.INDETERMINATE.value, ShapeLabel.GAUSSIAN.value, ShapeLabel.DOUBLE_PEAKED.value],
        ShapeLabel.MERGED_SINGLE_PEAK.value)
    zbar = np.atleast_1d(spectrum.zbar)
    # (zbar, zbar) keeps the sign of a zero zbar, which zbar + 0.0 loses
    predicted = np.where(degenerate[:, None], zbar[:, None],
                         np.stack([zbar - gap, zbar + gap], axis=-1))
    if block:
        return Classification(label, dominance, predicted, None, (), degenerate)
    verdict = ShapeLabel(label[0])
    count = None
    positions: tuple[float, ...] = ()
    if histogram is not None:
        found = histogram_peaks(*histogram)
        positions = tuple(float(p) for p in found)
        count = int(found.size)
        if count != (2 if verdict is ShapeLabel.DOUBLE_PEAKED else 1):
            verdict = ShapeLabel.INDETERMINATE
    return Classification(verdict, float(dominance[0]), tuple(predicted[0].tolist()), count,
                          positions, bool(degenerate[0]))


def bell_ising(omega, h0: float, dh: float) -> np.ndarray | float:
    """Spectral bell of a transverse-field quench at ``gamma0 = gamma1 = 1``.

    Supported on ``[|1 - h0|, |1 + h0|]``, the band of that dispersion,
    with zeros at both edges.

    Raises
    ------
    ValueError
        If ``h0 = 0`` (the band collapses) or omega leaves the band.
    """
    if h0 == 0.0:
        raise ValueError("bell_ising requires h0 != 0")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    e_lo, e_hi = sorted((abs(1.0 - h0), abs(1.0 + h0)))
    if np.any(w < e_lo - 1e-12) or np.any(w > e_hi + 1e-12):
        raise ValueError(f"omega outside the band [{e_lo}, {e_hi}]")
    w = np.clip(w, e_lo, e_hi)
    out = (w**2 - e_lo**2) * (e_hi**2 - w**2) * dh**2 / (4.0 * h0**2 * w**4)
    return float(out[0]) if scalar else out


def bell_aniso(omega, gamma0: float, dgamma: float) -> np.ndarray | float:
    """Spectral bell of an anisotropy quench at zero field.

    Supported on ``[|gamma0|, 1]`` with zeros at both edges; requires
    ``|gamma0| < 1``.
    """
    if not abs(gamma0) < 1.0:
        raise ValueError("bell_aniso requires |gamma0| < 1")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    g_lo = abs(gamma0)
    if np.any(w < g_lo - 1e-12) or np.any(w > 1.0 + 1e-12):
        raise ValueError(f"omega outside the band [{g_lo}, 1]")
    w = np.clip(w, max(g_lo, np.finfo(float).tiny), 1.0)
    out = (1.0 - w**2) * (w**2 - gamma0**2) * dgamma**2 / ((1.0 - gamma0**2) * w**4)
    return float(out[0]) if scalar else out


def _inflection_width(lo: float, hi: float) -> float:
    """Inflection point right of the maximum of ``(w**2 - lo**2) * (hi**2 -
    w**2) / w**4``, the shape of both bells on their band ``[lo, hi]``.

    The second derivative vanishes at ``w**2 = 10 lo**2 hi**2 / (3 (lo**2 +
    hi**2))``, which lies inside the band only when ``lo > 0`` and ``7 lo**2
    < 3 hi**2``; for a small lower edge it is ``sqrt(10/3) * lo``.
    """
    if not (lo > 0.0 and 7.0 * lo**2 < 3.0 * hi**2):
        raise ValueError("no inflection point right of the peak")
    return math.sqrt(10.0 * lo**2 * hi**2 / (3.0 * (lo**2 + hi**2)))


def bell_width_ising(h0: float) -> float:
    """Width of the transverse-field bell, measured at the inflection point
    right of its maximum.  Close to ``1.8 * |1 - h0|`` near the critical
    field.  The quench amplitude only scales the bell, not the width."""
    return _inflection_width(*sorted((abs(1.0 - h0), abs(1.0 + h0))))


def bell_width_aniso(gamma0: float) -> float:
    """Width of the anisotropy bell at the inflection point right of the
    maximum; close to ``1.8 * |gamma0|`` for small ``gamma0``."""
    return _inflection_width(abs(gamma0), 1.0)
