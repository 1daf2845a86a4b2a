"""Verification suites: the product formulas and the bounds, checked on given data.

Every check of the package lives here, written out in its suite.  Each
suite takes its data (seed, counts, ranges, tolerances) as keyword
arguments named like the keys of ``tests/fixtures/oracle_seeds.json``,
draws and computes what it checks, and builds its JSON-ready report
directly: plain ints, floats and lists, with the verdict in ``passed``.
``thermalecho verify`` and the acceptance gate run the same suites on their
own data.  The suites share no state, so ``verify`` runs them side by side
on the echo layer's thread pool, and each does its bulk work in numpy and
LAPACK, which let the other threads run: the dense echo stacks its times,
the bound suite hands its draws to ``model._blocks`` as columns, and the
qubit suite works on 1-D component arrays.  The other layers supply only
the quantities and reference routes, called through their module
attributes (``echo.echo_point``, ``oracle.uhlmann``, ``oracle.q_function``),
so a tracer that rebinds those sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from . import averages, echo, model, oracle

__all__ = ["bound_suite", "bures_relation", "oracle_equivalence",
           "perturbation_scaling", "q_function_scan", "qubit_inequality"]

# the qubit suite runs every this-many-th trial through the spectral routine too
_CROSS_CHECK_STRIDE = 997
# float64 bytes per block of the kernel scan's grid; the value only affects
# speed and memory, never the scan's results
_SCAN_BLOCK_BYTES = 1 << 20


def oracle_equivalence(*, seed, lengths, n_param_sets, n_times, field_range,
                       anisotropy_range, beta_range, time_range, max_abs_residual) -> dict:
    """Product formulas against the dense Fock-space oracle on random quenches.

    Compares the echo and the overlap echo at random times, the purity, the
    effective dimension and the dephased purity (the infinite-time overlap
    echo) for ``n_param_sets`` quenches per chain length.
    """
    if len(lengths) < 1:
        raise ValueError(f"lengths must hold at least one chain length, got {lengths!r}")
    for name, count in (("n_param_sets", n_param_sets), ("n_times", n_times)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    # np.max keeps a NaN error, which Python's max drops unless it comes first
    errors, d_eff_errors = [], []
    for length in lengths:
        for _ in range(n_param_sets):
            h0, h1 = rng.uniform(*field_range, size=2)
            g0, g1 = rng.uniform(*anisotropy_range, size=2)
            beta = rng.uniform(*beta_range)
            times = rng.uniform(*time_range, size=n_times)
            table = model.mode_table(model.QuenchParams(
                h0=h0, h1=h1, gamma0=g0, gamma1=g1, beta=beta, length=length))
            ham0 = oracle.build_quasifree(h0, g0, length)
            ham1 = oracle.build_quasifree(h1, g1, length)
            pt = echo.echo_point(table, times)
            dense = oracle.exact_le(ham0, ham1, beta, times)
            le_err = np.max(np.abs(pt.le - dense.le))
            lef_err = np.max(np.abs(pt.lef - dense.lef))
            longtime = averages.long_time(table)
            purity_err = abs(longtime.purity - dense.purity)
            avg_err = abs(longtime.mean_lef - dense.dephased_purity)
            errors += [le_err, lef_err, purity_err, avg_err]
            d_eff_errors.append(abs(longtime.d_eff - 1.0 / dense.purity))
    worst = float(np.max(errors, initial=0.0))
    worst_d_eff = float(np.max(d_eff_errors, initial=0.0))
    return {
        "passed": worst < max_abs_residual and worst_d_eff < max_abs_residual,
        "worst_abs_error": worst,
        "worst_d_eff_error": worst_d_eff,
        "tolerance": max_abs_residual,
    }


def bound_suite(*, seed, n_trials, max_length, field_range, anisotropy_range, beta_range,
                time_range, slack_floor, t0_tolerance, inject_failure=False) -> dict:
    """The two-sided bounds hold on random chains, and everything is 1 at t = 0.

    One ``np.random.default_rng(seed)`` draws, in this order and one array
    each: the ``n_trials`` even lengths in ``[2, max_length]``, the fields
    ``(h0, h1)``, the anisotropies ``(gamma0, gamma1)``, the inverse
    temperatures and each chain's random time.  ``inject_failure`` raises
    every lower bound slightly, so a working gate must fail.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    lengths = 2 * rng.integers(1, max_length // 2 + 1, size=n_trials)
    fields = rng.uniform(*field_range, size=(n_trials, 2))
    anisotropies = rng.uniform(*anisotropy_range, size=(n_trials, 2))
    betas = rng.uniform(*beta_range, size=n_trials)
    times = np.zeros((n_trials, 2))
    times[:, 0] = rng.uniform(*time_range, size=n_trials)
    columns = {"h0": fields[:, 0], "h1": fields[:, 1], "gamma0": anisotropies[:, 0],
               "gamma1": anisotropies[:, 1], "beta": betas, "length": lengths}
    # one pass per block covers its chains at both their random time and t = 0;
    # np.min and np.max keep a NaN, whichever block it comes from
    slacks, t0_devs = [], []
    for indices, block in model._blocks(columns):
        pt = echo.echo_point(block, times[indices])
        lower = pt.lower[:, 0]
        if inject_failure:
            lower = lower * (1.0 + 1e-6) + 1e-9
        slacks.append(np.min([pt.le[:, 0] - lower, pt.upper[:, 0] - pt.le[:, 0]]))
        t0 = np.stack([pt.lower[:, 1], pt.upper[:, 1], pt.le[:, 1]])
        t0_devs.append(np.max(np.abs(t0 - 1.0)))
    worst = float(np.min(slacks, initial=math.inf))
    t0_worst = float(np.max(t0_devs, initial=0.0))
    return {
        "passed": worst >= slack_floor and t0_worst <= t0_tolerance,
        "worst_slack": worst,
        "worst_t0_deviation": t0_worst,
        "tolerance": slack_floor,
    }


def _bloch_state(x: float, y: float, z: float) -> np.ndarray:
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def qubit_inequality(*, seed, n_trials, slack_floor, closed_form_tolerance,
                     route_tolerance) -> dict:
    """The overlap-fidelity inequality on random qubit states and rotations.

    Each trial draws a Bloch vector (uniform direction, uniform radius) and
    a random rotation (uniform axis, angle uniform on ``[0, pi]``), then
    checks ``Tr[U rho U^dag rho] / Tr[rho**2] <= F``: ``violations`` counts
    the trials whose slack falls below -1e-12.  ``max_closed_form_dev`` is
    the largest deviation of the unnormalized slack from its closed form
    ``v**2 (1 - cos angle_between) (1 - v**2) / 4``.  The fidelity uses the
    two-level closed form; every ``_CROSS_CHECK_STRIDE``-th trial is also run
    through the general spectral routine, and ``max_route_dev`` is the
    largest disagreement of the two.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    # each vector as its three components, in the (x + y) + z order of a sum
    # over a row; a direction is a normal draw over its norm
    x, y, z = rng.normal(size=(n_trials, 3)).T
    norm = np.sqrt((x * x + y * y) + z * z)
    radius = rng.uniform(0.0, 1.0, n_trials)
    vx, vy, vz = x / norm * radius, y / norm * radius, z / norm * radius
    x, y, z = rng.normal(size=(n_trials, 3)).T
    norm = np.sqrt((x * x + y * y) + z * z)
    ax, ay, az = x / norm, y / norm, z / norm
    angle = rng.uniform(0.0, math.pi, n_trials)
    cos_a = np.cos(angle)
    sin_a = np.sin(angle)
    # Rodrigues: v cos + (axis x v) sin + axis (axis . v)(1 - cos)
    along = (ax * vx + ay * vy) + az * vz
    one_m_cos = 1.0 - cos_a
    wx = (vx * cos_a + (ay * vz - az * vy) * sin_a) + ax * along * one_m_cos
    wy = (vy * cos_a + (az * vx - ax * vz) * sin_a) + ay * along * one_m_cos
    wz = (vz * cos_a + (ax * vy - ay * vx) * sin_a) + az * along * one_m_cos
    v2 = (vx * vx + vy * vy) + vz * vz
    dot = (vx * wx + vy * wy) + vz * wz
    purity = 0.5 * (1.0 + v2)
    overlap = 0.5 * (1.0 + dot)
    # two-level fidelity: Tr[rho sigma] + 2 sqrt(det rho det sigma)
    fid = overlap + 0.5 * (1.0 - v2)
    slack = fid - overlap / purity
    closed = (v2 - dot) * (1.0 - v2) / 4.0
    violations = int(np.sum(slack < -1e-12))
    min_slack = float(np.min(slack))
    max_closed_form_dev = float(np.max(np.abs((purity * fid - overlap) - closed)))
    route_devs = [abs(oracle.uhlmann(_bloch_state(vx[i], vy[i], vz[i]),
                                     _bloch_state(wx[i], wy[i], wz[i])) - float(fid[i]))
                  for i in range(0, n_trials, _CROSS_CHECK_STRIDE)]
    max_route_dev = float(np.max(route_devs, initial=0.0))
    return {
        "passed": violations == 0
        and min_slack >= slack_floor
        and max_closed_form_dev < closed_form_tolerance
        and max_route_dev < route_tolerance,
        "violations": violations,
        "min_slack": min_slack,
        "max_closed_form_dev": max_closed_form_dev,
        "max_route_dev": max_route_dev,
    }


def q_function_scan(*, x_max, v_max, nx, nv) -> dict:
    """The bound-slack kernel is non-negative, zero at v = 0 and concave in v.

    Scans ``oracle.q_function`` over ``[0, x_max] x [0, v_max]`` and reports
    the grid minimum, the largest magnitude along the ``v = 0`` edge (zero
    analytically) and the largest second difference in ``v`` (nonpositive
    when the kernel is concave in ``v``).
    """
    if not (0.0 < v_max <= 2.0):
        raise ValueError(f"v_max must lie in (0, 2], got {v_max}")
    # the curvature in v needs three points of it
    for name, count, least in (("nx", nx, 1), ("nv", nv, 3)):
        if count < least:
            raise ValueError(f"{name} must be >= {least}, got {count}")
    x = np.linspace(0.0, float(x_max), int(nx))
    v = np.linspace(0.0, float(v_max), int(nv))
    # whole x rows per block: each row's curvature needs only that row, so
    # the per-block extrema reduce to exactly the whole-grid ones
    rows = max(1, _SCAN_BLOCK_BYTES // (8 * v.size))
    extrema = []
    for start in range(0, x.size, rows):
        grid = oracle.q_function(x[start : start + rows, None], v[None, :])
        curvature = grid[:, 2:] - 2.0 * grid[:, 1:-1] + grid[:, :-2]
        extrema.append((grid.min(), np.max(np.abs(grid[:, 0])), curvature.max()))
    lowest, edge, bend = np.array(extrema).T
    min_value = float(lowest.min())
    max_abs_at_v_zero = float(edge.max())
    max_v_curvature = float(bend.max())
    return {
        "passed": min_value >= -1e-12
        and max_abs_at_v_zero <= 1e-11
        and max_v_curvature <= 1e-10,
        "min_value": min_value,
        "max_abs_at_v_zero": max_abs_at_v_zero,
        "max_v_curvature": max_v_curvature,
    }


def perturbation_scaling(*, seed, dim, beta, times, base_scale, halvings, ratio_low,
                         ratio_high) -> dict:
    """Second-order perturbation theory leaves an error of third order.

    Each halving of the perturbation must divide the largest error over
    ``times`` by about 2**3, within ``[ratio_low, ratio_high]``.
    """
    if halvings < 1:
        raise ValueError(f"halvings must be >= 1, got {halvings}")
    rng = np.random.default_rng(seed)
    ham0 = oracle.random_hermitian(dim, rng)
    pert = oracle.random_hermitian(dim, rng)
    errors = []
    for i in range(halvings + 1):
        v = base_scale * 0.5**i * pert
        exact = oracle.exact_le(ham0, ham0 + v, beta, times).le
        second_order = oracle.perturbative_le(ham0, v, beta, times)
        errors.append(float(np.max(np.abs(exact - second_order))))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    expected = 8.0
    return {
        "passed": all(ratio_low <= r <= ratio_high for r in ratios),
        "error_ratios": ratios,
        "expected": expected,
        "tolerance_pct": round(50.0 * (ratio_high - ratio_low) / expected),
    }


def bures_relation(*, seed, dim, beta, scale, max_residual) -> dict:
    """The squared fidelity of two nearby Gibbs states from the averaged echo.

    ``F**2 - (Lbar - ds2_fr / 2)`` cancels at second order in the
    perturbation.
    """
    rng = np.random.default_rng(seed)
    ham0 = oracle.random_hermitian(dim, rng)
    v = scale * oracle.random_hermitian(dim, rng)
    fid = oracle.uhlmann(oracle.gibbs(ham0, beta), oracle.gibbs(ham0 + v, beta))
    metric = oracle.bures_decomposition(ham0, v, beta)
    lbar = oracle.perturbative_le_average(ham0, v, beta)
    residual = abs(fid**2 - (lbar - metric.ds2_fr / 2.0))
    return {"passed": residual < max_residual, "residual": residual,
            "tolerance": max_residual}

