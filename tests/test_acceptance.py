"""Acceptance suite: one test per criterion, each printing a pass line with
its measured values.  Tolerances and workloads are pinned here; the heavy
scenarios (scaling, phase probe, desk sweep) take minutes on two cores."""

import math
import time

import numpy as np
from scipy import stats as sstats

from curve_shape import has_interior_min_then_max, moving_average
from umda.experiments import (
    SweepConfig,
    log_log_slope,
    run_phase_transition_probe,
    run_scaling_study,
    run_sweep,
    sweep_lines,
    write_lines,
)
from umda.verification import (
    check_capped_binomial_bound,
    check_chunk_property,
    check_decomposition_invariants,
    check_dominance,
    check_drift_sign,
    check_pmf_properties,
)


def report(index, message):
    print(f"[acceptance {index:>2}] PASS — {message}")


def test_01_capped_binomial_bound_exhaustive():
    started = time.perf_counter()
    result = check_capped_binomial_bound(d_max=12, tolerance=1e-12)
    elapsed = time.perf_counter() - started
    assert result.passed, result.summary()
    assert elapsed < 1.0
    report(1, f"min slack {result.measured['min_slack']:.3e} in {elapsed:.2f}s")


def test_02_poisson_binomial_oracle_properties():
    started = time.perf_counter()
    result = check_pmf_properties(
        instances=500, max_m=200, seed=101, norm_tol=1e-12, moment_tol=1e-9
    )
    elapsed = time.perf_counter() - started
    assert result.passed, result.summary()
    assert elapsed < 10.0
    report(
        2,
        f"norm err {result.measured['max_norm_error']:.2e}, "
        f"moment err {result.measured['max_moment_error']:.2e}, "
        f"unimodality violations {result.measured['unimodality_violations']:.0f} "
        f"in {elapsed:.2f}s",
    )


def test_03_chunk_probability_floor_and_coverage():
    started = time.perf_counter()
    result = check_chunk_property(
        instances=200, m_range=(5, 200), ell=0.25, u=0.25, floor=0.1, seed=102
    )
    elapsed = time.perf_counter() - started
    assert result.passed, result.summary()
    assert elapsed < 10.0
    report(
        3,
        f"min sigma-scaled pmf {result.measured['min_sigma_scaled_pmf']:.4f} "
        f"(floor 0.1), coverage slack "
        f"{result.measured['min_coverage_slack']:.2e} in {elapsed:.2f}s",
    )


def test_04_decomposition_invariants_across_grid():
    started = time.perf_counter()
    result = check_decomposition_invariants(generations=10_000, seed=103)
    elapsed = time.perf_counter() - started
    assert result.passed, result.summary()
    assert elapsed < 30.0
    report(
        4,
        f"{result.measured['generations_checked']:.0f} generations, "
        f"{result.measured['violations']:.0f} violations in {elapsed:.2f}s",
    )


def test_05_selection_dominance_dkw():
    started = time.perf_counter()
    result = check_dominance(
        n=50, mu=50, lam=100, x_values=(10, 25, 40), trials=10_000,
        epsilon=0.03, seed=104,
    )
    elapsed = time.perf_counter() - started
    assert result.passed, result.summary()
    assert elapsed < 60.0
    report(
        5,
        f"max CDF excess {result.measured['max_cdf_excess']:.4f} "
        f"(allowance 0.03) in {elapsed:.2f}s",
    )


def test_06_drift_sign():
    started = time.perf_counter()
    result = check_drift_sign(
        n=50, mu=50, lam=100, x_t=25, trials=10_000, z_min=5.0, seed=105
    )
    elapsed = time.perf_counter() - started
    assert result.passed, result.summary()
    assert elapsed < 60.0
    report(
        6,
        f"mean drift {result.measured['mean_drift']:.3f}, "
        f"z {result.measured['z']:.1f} in {elapsed:.2f}s",
    )


def test_07_scaling_above_transition():
    rows = run_scaling_study(
        [64, 256, 1024],
        mu_rule="ceil(3*sqrt(n)*log(n))",
        runs=50,
        master_seed=7,
    )
    for row in rows:
        assert row.success_fraction >= 0.5, row
    slope = log_log_slope(rows)
    assert slope is not None
    assert 0.4 <= slope <= 0.7
    report(
        7,
        f"slope {slope:.3f} in [0.4, 0.7], success "
        + "/".join(f"{row.success_fraction:.2f}" for row in rows),
    )


def test_08_scaling_below_transition():
    rows = run_scaling_study(
        [128, 512, 2048],
        mu_rule="ceil(5*log(n))",
        runs=50,
        master_seed=8,
        borders=True,
    )
    for row in rows:
        assert row.success_fraction == 1.0, row
    slope = log_log_slope(rows)
    assert slope is not None
    assert 0.8 <= slope <= 1.2
    report(
        8,
        f"slope {slope:.3f} in [0.8, 1.2], every run "
        f"finished within the 200n budget",
    )


def test_09_borderless_phase_transition():
    n = 500
    mu_small = math.ceil(3 * math.log(n))    # 19
    mu_large = math.ceil(3 * math.sqrt(n) * math.log(n))  # 417
    small, large = run_phase_transition_probe(
        n, mu_small, mu_large, runs=100, master_seed=9
    )
    assert small.stagnated_fraction >= 0.8, small
    assert large.success_fraction >= 0.5, large
    report(
        9,
        f"stagnated {small.stagnated_fraction:.2f} at mu={mu_small}, "
        f"success {large.success_fraction:.2f} at mu={mu_large}",
    )


#: The desk-scale sweep; scripts/desk_sweep.cfg holds the same settings.
DESK_SWEEP = SweepConfig(
    n=500,
    lambda_values=(10, 150, 4),
    mu_rule="lam/2",
    borders=True,
    runs_per_setting=200,
    master_seed=10,
)


def test_10_desk_scale_sweep_shape():
    started = time.perf_counter()
    rows = run_sweep(DESK_SWEEP)
    elapsed = time.perf_counter() - started
    assert all(row.success_fraction > 0 for row in rows)
    smoothed = moving_average([row.avg_evaluations for row in rows], window=5)
    assert has_interior_min_then_max(smoothed)
    rho = sstats.spearmanr(
        [row.lam for row in rows],
        np.log([row.avg_lower_border_hits + 1 for row in rows]),
    ).statistic
    assert rho <= -0.9
    assert elapsed < 900.0
    report(
        10,
        f"multimodal smoothed curve, spearman(lambda, log hits) {rho:.3f} "
        f"in {elapsed:.0f}s",
    )


def test_11_determinism_byte_identical_outputs(tmp_path):
    cfg = SweepConfig(
        n=100,
        lambda_values=(10, 40, 10),
        mu_rule="lam/2",
        runs_per_setting=20,
        master_seed=11,
    )
    paths = []
    for name, threads in (("a.csv", 1), ("b.csv", 2), ("c.csv", None)):
        rows = run_sweep(cfg, threads=threads)
        path = tmp_path / name
        write_lines(str(path), sweep_lines(rows, header=True))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    report(11, "sweep outputs byte-identical across reruns and thread counts")
