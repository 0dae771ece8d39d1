"""Acceptance suite: one test per criterion, each printing a pass line with
its measured values.  Tests 1-6 run the checks of `umda verify` at its defaults;
every tolerance and workload is fixed in this file.  The heavy scenarios
(scaling, phase probe, desk sweep) take minutes on two cores."""

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


def run_check(check, seconds):
    """Run one check of `umda verify` at its defaults; it passes in time."""
    started = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - started
    assert result.passed, result.summary()
    assert elapsed < seconds
    return result.measured, elapsed


def test_01_capped_binomial_bound_exhaustive():
    m, elapsed = run_check(check_capped_binomial_bound, 1.0)
    assert m["min_slack"] >= -1e-12
    report(1, f"min slack {m['min_slack']:.3e} in {elapsed:.2f}s")


def test_02_poisson_binomial_oracle_properties():
    m, elapsed = run_check(check_pmf_properties, 10.0)
    assert m["max_norm_error"] <= 1e-12
    assert m["max_moment_error"] <= 1e-9
    assert m["unimodality_violations"] == 0
    report(
        2,
        f"norm err {m['max_norm_error']:.2e}, moment err {m['max_moment_error']:.2e}, "
        f"unimodality violations {m['unimodality_violations']:.0f} in {elapsed:.2f}s",
    )


def test_03_chunk_probability_floor_and_coverage():
    m, elapsed = run_check(check_chunk_property, 10.0)
    assert m["min_sigma_scaled_pmf"] >= 0.1
    assert m["min_coverage_slack"] >= -1e-12
    report(
        3,
        f"min sigma-scaled pmf {m['min_sigma_scaled_pmf']:.4f} (floor 0.1), "
        f"coverage slack {m['min_coverage_slack']:.2e} in {elapsed:.2f}s",
    )


def test_04_decomposition_invariants_across_grid():
    m, elapsed = run_check(check_decomposition_invariants, 30.0)
    assert m["violations"] == 0
    report(
        4,
        f"{m['generations_checked']:.0f} generations, "
        f"{m['violations']:.0f} violations in {elapsed:.2f}s",
    )


def test_05_selection_dominance_dkw():
    m, elapsed = run_check(check_dominance, 60.0)
    assert m["max_cdf_excess"] <= 0.03
    report(
        5,
        f"max CDF excess {m['max_cdf_excess']:.4f} "
        f"(allowance 0.03) in {elapsed:.2f}s",
    )


def test_06_drift_sign():
    m, elapsed = run_check(check_drift_sign, 60.0)
    assert m["mean_drift"] > 0
    assert m["z"] >= 5.0
    report(6, f"mean drift {m['mean_drift']:.3f}, z {m['z']:.1f} in {elapsed:.2f}s")


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
