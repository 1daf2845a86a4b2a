"""Long-time statistics of the log-echo: weights, sampling, classification.

For weak quenches the log-echo is a sum of independent per-mode oscillations
with weights ``a_k``, so its stationary distribution is controlled by the
weight spectrum alone: a couple of dominant weights produce a two-peaked or
merged distribution, many comparable weights produce a Gaussian.  This
module computes the weights, samples the exact log-echo at uniform random
times, detects histogram peaks, and classifies the resulting shape.
Sampling evaluates the log-echo through :func:`echo.log_loschmidt`, so it
shares the echo kernel's log-space chunks and its one thread pool.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .echo import log_loschmidt
from .model import ModeTable, QuenchParams, mode_table
from .special import bessel_j0

__all__ = [
    "Classification",
    "SampleSet",
    "ShapeLabel",
    "WeightSpectrum",
    "bell_aniso",
    "bell_ising",
    "bell_width_aniso",
    "bell_width_ising",
    "char_fn",
    "classify",
    "damping",
    "histogram_peaks",
    "sample_logle",
    "weights",
]

DEFAULT_BINS = 200
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
    overlap echo; ``damping`` and ``damping_f`` are the thermal factors
    ``1 - cinv`` and ``1 - cinv**2`` they contain.  With
    ``second_order=False`` the angular part is ``sin(dtheta)**2`` (exact
    angles); with ``True`` it is ``dtheta**2`` (leading order).
    """

    k: np.ndarray
    a: np.ndarray
    a_f: np.ndarray
    omega: np.ndarray
    damping: np.ndarray
    damping_f: np.ndarray
    second_order: bool
    length: int

    @property
    def zbar(self) -> float:
        """Analytic mean of the centered log-echo, ``-sum(a)``."""
        return float(-np.sum(self.a))

    @property
    def kappa2(self) -> float:
        """Analytic variance of the log-echo, ``sum(a**2) / 2``."""
        return float(0.5 * np.sum(self.a**2))


@dataclass(frozen=True)
class SampleSet:
    """Log-echo sampled at uniform random times on ``[0, tau]``."""

    tau: float
    seed: int
    times: np.ndarray
    z: np.ndarray

    @property
    def z_mean(self) -> float:
        return float(np.mean(self.z))

    @property
    def z_var(self) -> float:
        return float(np.var(self.z))


@dataclass(frozen=True)
class Classification:
    """Shape verdict for the stationary log-echo distribution.

    ``dominance`` is the share of the two largest weights in the total,
    ``predicted_peaks`` the two mode locations implied by those weights
    (coinciding when they merge), and ``histogram_peak_count`` the number of
    prominent histogram peaks when samples were supplied (None otherwise).
    ``degenerate`` marks a quench with zero variance, where no shape exists.
    """

    label: ShapeLabel
    dominance: float
    predicted_peaks: tuple[float, float]
    kappa2: float
    zbar: float
    histogram_peak_count: int | None
    histogram_peaks: tuple[float, ...]
    degenerate: bool


def weights(table: ModeTable, use_second_order: bool = False) -> WeightSpectrum:
    """Oscillation weight spectrum of a quench.

    Parameters
    ----------
    table
        Mode table of the quench.
    use_second_order
        Replace ``sin(dtheta)**2`` by ``dtheta**2``, the leading-order form;
        only meaningful for small rotation angles.
    """
    amp = table.dtheta**2 if use_second_order else table.alpha
    return WeightSpectrum(
        k=table.k.copy(),
        a=table.one_minus_cinv * amp / 2.0,
        a_f=table.one_minus_cinv2 * amp / 2.0,
        omega=2.0 * table.lam1,
        damping=table.one_minus_cinv.copy(),
        damping_f=table.one_minus_cinv2.copy(),
        second_order=use_second_order,
        length=table.length,
    )


def sample_logle(params: QuenchParams, tau: float, n_samples: int, seed: int) -> SampleSet:
    """Sample the exact log-echo at uniform random times.

    Times are drawn sequentially from the seed before any parallel
    evaluation, so the same seed gives byte-identical samples under any
    thread count.

    Parameters
    ----------
    params
        Quench parameters.
    tau
        Observation horizon; must be positive.  A horizon growing like
        ``length**2`` resolves the slowest beat between mode frequencies.
    n_samples
        Number of time draws, at least 1.
    seed
        Seed for the pseudorandom generator.
    """
    if not (tau > 0.0) or not math.isfinite(tau):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, tau, int(n_samples))
    table = mode_table(params)
    z = log_loschmidt(table, times)
    return SampleSet(tau=float(tau), seed=int(seed), times=times, z=z)


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


def _freedman_diaconis_bins(values: np.ndarray) -> int:
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = q75 - q25
    if iqr <= 0.0:
        return DEFAULT_BINS
    width = 2.0 * iqr / values.size ** (1.0 / 3.0)
    span = float(np.ptp(values))
    if width <= 0.0 or span <= 0.0:
        return DEFAULT_BINS
    return int(min(max(math.ceil(span / width), 10), 1000))


def histogram_peaks(
    values,
    bins: int | None = DEFAULT_BINS,
    window: int = DEFAULT_SMOOTH_WINDOW,
    prominence: float = DEFAULT_PROMINENCE,
) -> np.ndarray:
    """Locations of prominent peaks of a smoothed histogram.

    The histogram is smoothed with a moving average; a bin is a peak when it
    is a local maximum whose prominence (height above the higher of the two
    flanking valleys) reaches the stated fraction of the tallest smoothed
    bin.

    Parameters
    ----------
    values
        Samples; at least one required.
    bins
        Bin count; None picks the Freedman-Diaconis count clipped to
        ``[10, 1000]``.
    window
        Moving-average width in bins.
    prominence
        Minimum prominence as a fraction of the maximum smoothed count.

    Returns
    -------
    Bin-center positions of the accepted peaks, ascending.  Empty when the
    samples are all identical.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("histogram_peaks needs at least one sample")
    if np.ptp(values) == 0.0:
        return np.empty(0)
    if bins is None:
        bins = _freedman_diaconis_bins(values)
    hist, edges = np.histogram(values, bins=bins)
    kernel = np.ones(window) / window
    sm = np.convolve(hist.astype(float), kernel, mode="same")
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
        if j < 0:
            left_min = sm[: i + 1].min()
        j = i + 1
        right_min = sm[i]
        while j < sm.size and sm[j] <= sm[i]:
            right_min = min(right_min, sm[j])
            j += 1
        if j >= sm.size:
            right_min = sm[i:].min()
        if sm[i] - max(left_min, right_min) >= prominence * top:
            out.append(centers[i])
    return np.asarray(out)


def classify(
    spectrum: WeightSpectrum,
    samples: SampleSet | None = None,
    r_star: float = DEFAULT_DOMINANCE_THRESHOLD,
    gap_factor: float = DEFAULT_GAP_FACTOR,
    bins: int | None = DEFAULT_BINS,
    window: int = DEFAULT_SMOOTH_WINDOW,
    prominence: float = DEFAULT_PROMINENCE,
) -> Classification:
    """Classify the stationary distribution of the log-echo.

    The weight rule: with ``r`` the share of the two largest weights, the
    shape is Gaussian when ``r <= r_star``; otherwise it is DoublePeaked
    when the two leading weights differ by more than ``gap_factor`` times
    the spread of the remaining weights, and MergedSinglePeak when they are
    that close.  When samples are supplied, the histogram peak count must
    agree (2 for DoublePeaked, 1 otherwise); a disagreement downgrades the
    verdict to Indeterminate.

    A quench with all weights zero has no distribution at all; it is
    reported as Indeterminate with ``degenerate=True``.
    """
    a_sorted = np.sort(spectrum.a)[::-1]
    total = float(np.sum(a_sorted))
    zbar = spectrum.zbar
    kappa2 = spectrum.kappa2
    if total <= 0.0 or a_sorted[0] == 0.0:
        count = None
        if samples is not None:
            count = int(histogram_peaks(samples.z, bins, window, prominence).size)
        return Classification(
            label=ShapeLabel.INDETERMINATE,
            dominance=0.0,
            predicted_peaks=(zbar, zbar),
            kappa2=kappa2,
            zbar=zbar,
            histogram_peak_count=count,
            histogram_peaks=(),
            degenerate=True,
        )
    a1 = float(a_sorted[0])
    a2 = float(a_sorted[1]) if a_sorted.size > 1 else 0.0
    gap = a1 - a2
    dominance = (a1 + a2) / total
    rest = a_sorted[2:]
    sigma_rest = math.sqrt(0.5 * float(np.sum(rest**2)))
    if dominance > r_star:
        if gap > gap_factor * sigma_rest:
            label = ShapeLabel.DOUBLE_PEAKED
        else:
            label = ShapeLabel.MERGED_SINGLE_PEAK
    else:
        label = ShapeLabel.GAUSSIAN
    predicted = (zbar - gap, zbar + gap)
    count = None
    positions: tuple[float, ...] = ()
    if samples is not None:
        found = histogram_peaks(samples.z, bins, window, prominence)
        positions = tuple(float(p) for p in found)
        count = int(found.size)
        expected = 2 if label is ShapeLabel.DOUBLE_PEAKED else 1
        if count != expected:
            label = ShapeLabel.INDETERMINATE
    return Classification(
        label=label,
        dominance=float(dominance),
        predicted_peaks=predicted,
        kappa2=kappa2,
        zbar=zbar,
        histogram_peak_count=count,
        histogram_peaks=positions,
        degenerate=False,
    )


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


def bell_ising(omega, h0: float, dh: float) -> np.ndarray | float:
    """Spectral bell of a transverse-field quench at fixed anisotropy.

    Supported on ``[|1 - h0|, |1 + h0|]`` with zeros at both edges.

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


def _inflection_right_of_peak(f, lo: float, hi: float, n: int = 200001) -> float:
    """Abscissa of the first inflection point right of the maximum of ``f``."""
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
    """Width of the transverse-field bell, measured at the inflection point
    right of its maximum.  Close to ``1.8 * |1 - h0|`` near the critical
    field.  The quench amplitude only scales the bell, not the width."""
    e_lo, e_hi = sorted((abs(1.0 - h0), abs(1.0 + h0)))
    return _inflection_right_of_peak(lambda w: bell_ising(w, h0, dh), e_lo, e_hi)


def bell_width_aniso(gamma0: float, dgamma: float = 1.0) -> float:
    """Width of the anisotropy bell at the inflection point right of the
    maximum; close to ``1.8 * |gamma0|`` for small ``gamma0``."""
    return _inflection_right_of_peak(
        lambda w: bell_aniso(w, gamma0, dgamma), abs(gamma0), 1.0
    )
