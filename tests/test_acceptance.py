"""End-to-end acceptance gate.

Each test covers one numbered release criterion at its stated tolerance and
prints a single ``criterion NN <name>: PASS|FAIL`` line (visible with
``pytest -s`` and in failure reports).  The criteria pin down dense-oracle
equivalence, the two-sided bounds, short-time decay and its extensivity,
distribution-shape reproduction, the characteristic function, the bound-slack
kernel and qubit inequality, second-order perturbation theory, the long-time
variance, the special functions, and the continuum bell widths.  Criteria 01,
02, 08 and 09 run the suites of :mod:`thermalecho.verify` that
``thermalecho verify`` runs, on the pinned fixture data.  Criteria 07, 09
and 11 also read test-only reference routes from ``tests/reference.py``.
"""

import time
import warnings

import numpy as np
import scipy.integrate

from thermalecho import (
    QuenchParams,
    averages,
    echo,
    mode_table,
    stats,
    verify,
)
import reference


def _verdict(num, name, checks):
    """Print the gate line, then assert every check with its detail."""
    ok = all(bool(cond) for cond, _ in checks)
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    for cond, detail in checks:
        assert cond, f"criterion {num:02d} {name}: {detail}"


def _quadratic_amplitude(length, tmax=0.01, npts=50):
    """Fit 1 - le(t) = A t**2 on (0, tmax] and return (A, R**2)."""
    params = QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1,
                          beta=10.0, length=length)
    table = mode_table(params)
    t = np.linspace(0.0, tmax, npts + 1)[1:]
    y = 1.0 - echo.echo_point(table, t).le
    amp = float(np.sum(y * t**2) / np.sum(t**4))
    resid = y - amp * t**2
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
    return amp, r2


def test_criterion_01_dense_oracle_equivalence(pinned):
    start = time.perf_counter()
    report = verify.oracle_equivalence(**pinned["oracle_equivalence"])
    elapsed = time.perf_counter() - start
    _verdict(1, "dense_oracle_equivalence", [
        (report["passed"], f"oracle residuals too large: {report}"),
        (elapsed < 120.0, f"runtime {elapsed:.1f}s !< 120s"),
    ])


def test_criterion_02_bound_suite(pinned):
    report = verify.bound_suite(
        **pinned["bound_suite"], field_range=(-2.0, 2.0),
        anisotropy_range=(-1.5, 1.5), beta_range=(0.1, 8.0), time_range=(0.0, 20.0))
    _verdict(2, "bound_suite", [
        (report["passed"], f"bound slack or t=0 deviation out of range: {report}"),
    ])


def test_criterion_03_short_time_decay_and_monte_carlo(pinned):
    cfg = pinned["monte_carlo"]
    start = time.perf_counter()
    amp, r2 = _quadratic_amplitude(80)
    params = QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1,
                          beta=10.0, length=80)
    table = mode_table(params)
    tau = cfg["tau_factor"] * 80.0**2
    sample = stats.sample_logle(mode_table(params), tau, cfg["n_samples"], cfg["seed"])
    le_draws = np.exp(sample.z)
    mc_mean = float(le_draws.mean())
    stderr = float(le_draws.std(ddof=1) / np.sqrt(le_draws.size))
    analytic = averages.avg_loschmidt(table)
    elapsed = time.perf_counter() - start
    _verdict(3, "short_time_decay_and_monte_carlo", [
        (r2 > 0.999, f"quadratic fit R^2 {r2:.6f} !> 0.999"),
        (amp > 0.0, f"decay amplitude {amp} not positive"),
        (abs(mc_mean - analytic) < 3.0 * stderr,
         f"|{mc_mean:.6f} - {analytic:.6f}| !< 3*SE {3 * stderr:.2e}"),
        (elapsed < 60.0, f"runtime {elapsed:.1f}s !< 60s"),
    ])


def test_criterion_04_decay_amplitude_extensivity():
    amp100, _ = _quadratic_amplitude(100)
    amp200, _ = _quadratic_amplitude(200)
    ratio = amp200 / amp100
    _verdict(4, "decay_amplitude_extensivity", [
        (abs(ratio - 2.0) <= 0.2, f"A(200)/A(100) = {ratio:.4f} not 2 +- 10%"),
    ])


def test_criterion_05_near_critical_shape_crossover(pinned):
    mc = pinned["monte_carlo"]
    start = time.perf_counter()
    verdicts = {}
    spectra = {}
    for temp in (0.02, 0.18):
        params = QuenchParams(h0=0.99, h1=1.01, gamma0=1.0, gamma1=1.0,
                              beta=1.0 / temp, length=50)
        table = mode_table(params)
        spectrum = stats.weights(table)
        sample = stats.sample_logle(mode_table(params), mc["tau_factor"] * 50.0**2,
                                    mc["n_samples"], mc["seed"])
        verdicts[temp] = stats.classify(spectrum, np.histogram(sample.z, bins=200))
        spectra[temp] = spectrum
    cold, hot = verdicts[0.02], verdicts[0.18]
    a_sorted = np.sort(spectra[0.02].a)[::-1]
    separation = cold.histogram_peaks[-1] - cold.histogram_peaks[0]
    target = 2.0 * abs(a_sorted[0] - a_sorted[1])
    rel = abs(separation / target - 1.0)
    elapsed = time.perf_counter() - start
    _verdict(5, "near_critical_shape_crossover", [
        (cold.label is stats.ShapeLabel.DOUBLE_PEAKED,
         f"T=0.02 classified {cold.label.value}, expected DoublePeaked"),
        (hot.label is stats.ShapeLabel.GAUSSIAN,
         f"T=0.18 classified {hot.label.value}, expected Gaussian"),
        (rel <= 0.15,
         f"peak separation {separation:.5f} vs 2|a1-a2| {target:.5f}: "
         f"off by {100 * rel:.1f}% !<= 15%"),
        (elapsed < 120.0, f"runtime {elapsed:.1f}s !< 120s"),
    ])


def test_criterion_06_finite_size_peak_merging(pinned):
    mc = pinned["monte_carlo"]
    labels = {}
    splits = {}
    for length in (78, 70):
        params = QuenchParams(h0=0.2, h1=0.2, gamma0=0.01, gamma1=-0.01,
                              beta=40.0, length=length)
        spectrum = stats.weights(mode_table(params))
        sample = stats.sample_logle(mode_table(params), mc["tau_factor"] * length**2,
                                    mc["n_samples"], mc["seed"])
        labels[length] = stats.classify(spectrum, np.histogram(sample.z, bins=200)).label
        top = np.sort(spectrum.a)[::-1][:2]
        splits[length] = abs(top[0] - top[1]) / top[0]
    _verdict(6, "finite_size_peak_merging", [
        (labels[78] is stats.ShapeLabel.MERGED_SINGLE_PEAK,
         f"L=78 classified {labels[78].value}, expected MergedSinglePeak"),
        (splits[78] <= 0.05,
         f"L=78 top-two weight split {100 * splits[78]:.2f}% !<= 5%"),
        (labels[70] is stats.ShapeLabel.DOUBLE_PEAKED,
         f"L=70 classified {labels[70].value}, expected DoublePeaked"),
    ])


def test_criterion_07_characteristic_function(pinned):
    mc = pinned["monte_carlo"]
    params = QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.23,
                          beta=10.0, length=40)
    table = mode_table(params)
    assert np.max(np.abs(table.dtheta)) < 0.05  # small-quench precondition
    spectrum = stats.weights(table)
    sample = stats.sample_logle(mode_table(params), mc["tau_factor"] * 40.0**2,
                                mc["n_samples"], mc["seed"])
    centered = sample.z - sample.z.mean()
    lam = np.linspace(0.0, 50.0, 501)
    empirical = np.cos(np.multiply.outer(lam, centered)).mean(axis=1)
    predicted = reference.char_fn(spectrum, lam)
    sup_err = float(np.max(np.abs(empirical - predicted)))
    kappa2 = 0.5 * float(np.sum(spectrum.a**2))
    emp_var = float(sample.z.var(ddof=1))
    _verdict(7, "characteristic_function", [
        (sup_err < 0.05, f"sup char-fn error {sup_err:.3e} !< 0.05"),
        (abs(kappa2 / emp_var - 1.0) < 0.05,
         f"kappa2 {kappa2:.4e} vs empirical var {emp_var:.4e} off by "
         f"{100 * abs(kappa2 / emp_var - 1):.2f}% !< 5%"),
    ])


def test_criterion_08_slack_kernel_and_qubit_inequality(pinned):
    grid = {"x_max": 20.0, "v_max": 2.0, "nx": 1001, "nv": 1001}
    scan = verify.q_function_scan(**grid)
    qubit = verify.qubit_inequality(**pinned["qubit_inequality"])
    _verdict(8, "slack_kernel_and_qubit_inequality", [
        (grid["nx"] * grid["nv"] >= 10**6,
         f"grid has {grid['nx'] * grid['nv']} points !>= 1e6"),
        (scan["passed"], f"kernel scan failed: {scan}"),
        (qubit["passed"], f"qubit inequality failed: {qubit}"),
    ])


def test_criterion_09_perturbation_theory(pinned):
    scaling = verify.perturbation_scaling(**pinned["perturbation_scaling"])
    bures = verify.bures_relation(**pinned["bures_relation"])

    energies = np.array([0.0, 0.7, 1.1, 1.9])
    in_range = all(
        np.all((d := reference.damping_generic(energies, b).d_factors) >= 0.0)
        and np.all(d <= 1.0)
        for b in np.logspace(-2, 2, 9)
    )
    cold = reference.damping_generic(energies, 200.0).d_factors
    _verdict(9, "perturbation_theory", [
        (scaling["passed"], f"error ratios out of their window: {scaling}"),
        (bures["passed"], f"fidelity expansion residual too large: {bures}"),
        (in_range, "damping factors left [0, 1] on the temperature grid"),
        (np.max(np.abs(cold[1:] - 1.0)) < 1e-10,
         "damping factors do not reach 1 in the cold limit"),
    ])


def test_criterion_10_variance_series(pinned):
    mc = pinned["monte_carlo"]
    params = QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1,
                          beta=10.0, length=80)
    table = mode_table(params)
    analytic = averages.variance_le(table)
    sample = stats.sample_logle(mode_table(params), mc["tau_factor"] * 80.0**2,
                                mc["n_samples"], mc["seed"])
    empirical = float(np.exp(sample.z).var(ddof=1))

    small = QuenchParams(h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.2495,
                         beta=10.0, length=80)
    small_table = mode_table(small)
    assert np.max(np.abs(small_table.dtheta)) < 0.01
    moment_var = averages.variance_le(small_table)
    closed_var = averages.smallquench_variance(small_table)

    betas = np.linspace(10.0, 1.0, 10)
    variances = [
        averages.variance_le(mode_table(QuenchParams(
            h0=0.5, h1=0.5, gamma0=0.25, gamma1=0.1, beta=b, length=80)))
        for b in betas
    ]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(variances, variances[1:]))
    _verdict(10, "variance_series", [
        (abs(analytic / empirical - 1.0) < 0.05,
         f"variance {analytic:.4e} vs empirical {empirical:.4e} off by "
         f"{100 * abs(analytic / empirical - 1):.2f}% !< 5%"),
        (abs(closed_var / moment_var - 1.0) < 0.01,
         f"small-quench form {closed_var:.4e} vs phase-moment variance "
         f"{moment_var:.4e} off by {100 * abs(closed_var / moment_var - 1):.3f}% !< 1%"),
        (monotone, "variance increased somewhere as beta decreased"),
    ])


def _elliptic_quadrature(m):
    with warnings.catch_warnings():
        # near m=1 quad flags roundoff; the error estimate below still holds
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, err = scipy.integrate.quad(
            lambda theta: np.sqrt(1.0 - m * np.sin(theta) ** 2),
            0.0, np.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-13
    return val


def _bessel_quadrature(x):
    nodes, weights = np.polynomial.legendre.leggauss(8)
    panels = max(50, int(2.0 * abs(x)))
    edges = np.linspace(0.0, np.pi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    theta = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.cos(x * np.sin(theta))
    return float(np.sum(half[:, None] * weights[None, :] * vals) / np.pi)


def test_criterion_11_special_functions():
    e_grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
    e_err = max(abs(reference.elliptic_e(m) - _elliptic_quadrature(m))
                for m in e_grid)
    j_grid = [0.0, 0.5, 1.0, 2.404825557695773, 5.0, 12.9, 13.1,
              50.0, 200.0, 1000.0, 10000.0]
    j_err = max(abs(reference.bessel_j0(x) - _bessel_quadrature(x))
                for x in j_grid)
    _verdict(11, "special_functions", [
        (reference.elliptic_e(0.0) == np.pi / 2.0, "elliptic_e(0) != pi/2 exactly"),
        (reference.bessel_j0(0.0) == 1.0, "bessel_j0(0) != 1 exactly"),
        (e_err < 1e-12, f"elliptic integral quadrature error {e_err:.3e} !< 1e-12"),
        (j_err < 1e-10, f"Bessel quadrature error {j_err:.3e} !< 1e-10"),
    ])


def test_criterion_12_bell_curve_widths():
    checks = []
    for h0 in (0.5, 0.8, 0.9):
        width = stats.bell_width_ising(h0)
        target = 1.8 * abs(1.0 - h0)
        checks.append((abs(width / target - 1.0) <= 0.10,
                       f"field bell width at h0={h0}: {width:.4f} vs "
                       f"1.8|1-h0|={target:.4f} off by more than 10%"))
    for gamma0 in (0.05, 0.1, 0.25):
        width = stats.bell_width_aniso(gamma0)
        target = 1.8 * abs(gamma0)
        checks.append((abs(width / target - 1.0) <= 0.10,
                       f"anisotropy bell width at gamma0={gamma0}: {width:.4f} "
                       f"vs 1.8|gamma0|={target:.4f} off by more than 10%"))
    _verdict(12, "bell_curve_widths", checks)
