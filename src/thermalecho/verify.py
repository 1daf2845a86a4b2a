"""Verification suites: the product formulas and the bounds, checked on given data.

Each suite takes its data (seed, counts, ranges, tolerances) as keyword
arguments named like the keys of ``tests/fixtures/oracle_seeds.json`` and
returns a JSON-ready report whose ``passed`` entry is the verdict.
``thermalecho verify`` and the acceptance gate run the same suites on their
own data.  Other layers are called through their module attributes
(``echo.echo_chains``), so a tracer that rebinds those sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from . import averages, echo, model, oracle

__all__ = ["bound_suite", "bures_relation", "oracle_equivalence",
           "perturbation_scaling", "q_function_scan", "qubit_inequality"]


def oracle_equivalence(*, seed, lengths, n_param_sets, n_times, field_range,
                       anisotropy_range, beta_range, time_range, max_abs_residual) -> dict:
    """Product formulas against the dense Fock-space oracle on random quenches.

    Compares the echo and the overlap echo at random times, the purity, the
    effective dimension and the dephased purity (the infinite-time overlap
    echo) for ``n_param_sets`` quenches per chain length.
    """
    rng = np.random.default_rng(seed)
    worst = worst_d_eff = 0.0
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
            dims = echo.effective_dimension(table)
            purity_err = abs(dims.purity - dense.purity)
            avg_err = abs(averages.avg_linearized(table) - dense.dephased_purity)
            worst = max(worst, float(le_err), float(lef_err), purity_err, avg_err)
            worst_d_eff = max(worst_d_eff, abs(dims.d_eff - 1.0 / dense.purity))
    return {
        "passed": worst < max_abs_residual and worst_d_eff < max_abs_residual,
        "worst_abs_error": worst,
        "worst_d_eff_error": worst_d_eff,
        "tolerance": max_abs_residual,
    }


def bound_suite(*, seed, n_trials, max_length, field_range, anisotropy_range, beta_range,
                time_range, slack_floor, t0_tolerance, inject_failure=False) -> dict:
    """The two-sided bounds hold on random chains, and everything is 1 at t = 0.

    ``inject_failure`` raises every lower bound slightly, so a working gate
    must fail.
    """
    rng = np.random.default_rng(seed)
    chains = []
    times = np.zeros((n_trials, 2))
    for trial in range(n_trials):
        length = 2 * int(rng.integers(1, max_length // 2 + 1))
        h0, h1 = rng.uniform(*field_range, size=2).tolist()
        g0, g1 = rng.uniform(*anisotropy_range, size=2).tolist()
        beta = rng.uniform(*beta_range)
        times[trial, 0] = rng.uniform(*time_range)
        chains.append(model.QuenchParams(
            h0=h0, h1=h1, gamma0=g0, gamma1=g1, beta=beta, length=length))
    # one stacked pass covers every chain at both its random time and t = 0
    pt = echo.echo_chains(chains, times)
    lower = pt.lower[:, 0]
    if inject_failure:
        lower = lower * (1.0 + 1e-6) + 1e-9
    slack = np.concatenate([pt.le[:, 0] - lower, pt.upper[:, 0] - pt.le[:, 0]])
    worst = float(np.min(slack, initial=math.inf))
    t0 = np.concatenate([pt.lower[:, 1], pt.upper[:, 1], pt.le[:, 1]])
    t0_worst = float(np.max(np.abs(t0 - 1.0), initial=0.0))
    return {
        "passed": worst >= slack_floor and t0_worst <= t0_tolerance,
        "worst_slack": worst,
        "worst_t0_deviation": t0_worst,
        "tolerance": slack_floor,
    }


def qubit_inequality(*, seed, n_trials, slack_floor, closed_form_tolerance,
                     route_tolerance) -> dict:
    """The overlap-fidelity inequality on random qubit states and rotations."""
    report = oracle.qubit_inequality_check(n_trials, seed)
    return {
        "passed": report.violations == 0
        and report.min_slack >= slack_floor
        and report.max_closed_form_dev < closed_form_tolerance
        and report.max_route_dev < route_tolerance,
        "violations": report.violations,
        "min_slack": report.min_slack,
        "max_closed_form_dev": report.max_closed_form_dev,
        "max_route_dev": report.max_route_dev,
    }


def q_function_scan(*, x_max, v_max, nx, nv) -> dict:
    """The bound-slack kernel is non-negative, zero at v = 0 and concave in v."""
    scan = oracle.q_function_scan(x_max=x_max, v_max=v_max, nx=nx, nv=nv)
    return {
        "passed": scan.min_value >= -1e-12
        and scan.max_abs_at_v_zero <= 1e-11
        and scan.max_v_curvature <= 1e-10,
        "min_value": scan.min_value,
        "max_abs_at_v_zero": scan.max_abs_at_v_zero,
        "max_v_curvature": scan.max_v_curvature,
    }


def perturbation_scaling(*, seed, dim, beta, times, base_scale, halvings, ratio_low,
                         ratio_high) -> dict:
    """Second-order perturbation theory leaves an error of third order.

    Each halving of the perturbation must divide the largest error over
    ``times`` by about 2**3, within ``[ratio_low, ratio_high]``.
    """
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

