"""Runnable verification suite for the probabilistic claims that drive
the algorithm's runtime behavior.

Each check compares the simulator or an exact oracle against an independent
baseline (closed forms, exact PMFs, DKW confidence bands), reports the
measured constants and fixes its own pass thresholds and sizes.  The only
parameters left are the ones `bench/workloads.py` reads by name through
`inspect.signature`: every `seed`, which it shifts per bench seed, and the
decomposition check's `generations` and `grid`, the dominance check's
`x_values`, and both focal checks' `trials` and `lam`, from which it counts
the work of one pass.  The CLI `verify` subcommand runs all checks at their
defaults and fails when any measured value misses its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Unused here, but loaded with the suite: `bench/run.py --trace 1` imports
# only umda.verification and then wraps functions of umda.experiments.
from . import experiments  # noqa: F401
from .bitmodel import FrequencyVector
from .core import sample_and_select, update_frequencies
from .levels import decompose, focal_one_counts
from .oracles import (
    binomial_pmf,
    capped_binomial_lower_bound,
    chunk_bounds,
    empirical_step_drift,
    expected_min_capped_binomial,
    poisson_binomial_pmf,
)
from .rng import Pcg32, derive_stream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict[str, float] = field(default_factory=dict)
    detail: str = ""

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        metrics = ", ".join(f"{k}={v:.6g}" for k, v in self.measured.items())
        text = f"{status} {self.name}"
        if metrics:
            text += f" ({metrics})"
        if self.detail:
            text += f" — {self.detail}"
        return text


def check_capped_binomial_bound() -> CheckResult:
    """Exact E[min(c, Bin(d, p))] never falls below the closed-form floor."""
    d_max = 12
    worst = math.inf
    for d in range(1, d_max + 1):
        for c in range(1, d + 1):
            for p in np.arange(0.05, 0.951, 0.05):
                slack = expected_min_capped_binomial(c, d, p) - (
                    capped_binomial_lower_bound(c, d, p)
                )
                worst = min(worst, slack)
    return CheckResult(
        name="capped_binomial_expectation_bound",
        passed=worst >= -1e-12,
        measured={"min_slack": worst},
        detail=f"exhaustive d <= {d_max}, p grid 0.05..0.95",
    )


def _uniform_floats(rng: Pcg32, count: int, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * (rng.next_u32_block(count) / 2.0**32)


def check_pmf_properties(seed: int = 101) -> CheckResult:
    """Normalization, moments, and unimodality of the exact PMF oracle."""
    instances, max_m = 500, 200
    mono_tol = 1e-14
    rng = Pcg32(seed, 0)
    worst_norm = 0.0
    worst_moment = 0.0
    violations = 0
    for _ in range(instances):
        m = 1 + rng.next_u32() % max_m
        table = poisson_binomial_pmf(_uniform_floats(rng, m, 0.0, 1.0))
        worst_norm = max(worst_norm, abs(table.pmf.sum() - 1.0))
        ks = np.arange(m + 1)
        mean_from_pmf = float(np.dot(ks, table.pmf))
        var_from_pmf = float(np.dot((ks - table.mean) ** 2, table.pmf))
        worst_moment = max(
            worst_moment,
            abs(mean_from_pmf - table.mean),
            abs(var_from_pmf - table.variance),
        )
        lo = math.floor(table.mean)
        hi = math.ceil(table.mean)
        rising = table.pmf[: lo + 1]
        falling = table.pmf[hi:]
        violations += int(np.any(np.diff(rising) < -mono_tol))
        violations += int(np.any(np.diff(falling) > mono_tol))
    return CheckResult(
        name="poisson_binomial_pmf_properties",
        passed=(
            worst_norm <= 1e-12 and worst_moment <= 1e-9 and violations == 0
        ),
        measured={
            "max_norm_error": worst_norm,
            "max_moment_error": worst_moment,
            "unimodality_violations": violations,
        },
        detail=f"{instances} random instances, m <= {max_m}",
    )


def check_chunk_property(seed: int = 102) -> CheckResult:
    """Every chunk point carries pmf mass of order 1/sigma (the chunk's least
    pmf(k) * max(1, sigma) stays at or above 0.1), and the chunk covers at
    least 1 - ell - u probability, with ell = u = 0.25."""
    instances, m_range = 200, (5, 200)
    ell = u = 0.25
    rng = Pcg32(seed, 0)
    lo_m, hi_m = m_range
    min_constant = math.inf
    min_coverage_slack = math.inf
    for _ in range(instances):
        m = lo_m + rng.next_u32() % (hi_m - lo_m + 1)
        table = poisson_binomial_pmf(_uniform_floats(rng, m, 1.0 / m, 1.0 - 1.0 / m))
        k_lo, k_hi = chunk_bounds(table, ell, u)
        chunk = table.pmf[k_lo : k_hi + 1]
        scaled = float(chunk.min() * max(1.0, math.sqrt(table.variance)))
        min_constant = min(min_constant, scaled)
        min_coverage_slack = min(min_coverage_slack, float(chunk.sum()) - (1.0 - ell - u))
    return CheckResult(
        name="poisson_binomial_chunk_probability",
        passed=min_constant >= 0.1 and min_coverage_slack >= -1e-12,
        measured={
            "min_sigma_scaled_pmf": min_constant,
            "min_coverage_slack": min_coverage_slack,
        },
        detail=f"{instances} instances, m in {m_range}, ell = u = {ell}",
    )


DECOMPOSITION_GRID = (
    (16, 4, 8),
    (32, 8, 24),
    (50, 10, 30),
    (50, 25, 50),
    (100, 50, 100),
    (200, 60, 120),
)


def check_decomposition_invariants(
    generations: int = 10_000,
    grid=DECOMPOSITION_GRID,
    seed: int = 103,
) -> CheckResult:
    """Level-count identities along simulated runs across a parameter grid.

    For every decomposed generation: level counts sum to lambda, the cut
    level is at least 1, the surplus of candidates over open slots is at
    least 1, and (outside the flagged top-level degeneracy) at most mu
    individuals sit at or above the cut while more than mu sit at or above
    the level below it.
    """
    per_cell = -(-generations // len(grid))  # ceil: check at least `generations`
    violations = 0
    checked = 0
    degenerate_seen = 0
    for cell, (n, mu, lam) in enumerate(grid):
        rng = Pcg32(seed, derive_stream(cell, 0))
        p = FrequencyVector.uniform(n, borders=True)
        for t in range(per_cell):
            bits, fitness, counts = sample_and_select(p, mu, lam, rng)
            dec = decompose(bits, mu, focal_bit=t % n)
            checked += 1
            ok = (
                int(dec.level_counts.sum()) == lam
                and int(dec.counts_at_or_above[0]) == lam
                and dec.cut_level >= 1
                and dec.surplus_candidates >= 1
            )
            if dec.degenerate:
                degenerate_seen += 1
                ok = ok and dec.cut_level == n - 1
            else:
                ok = ok and (
                    dec.count_at_or_above_cut <= mu
                    and int(dec.counts_at_or_above[dec.cut_level - 1]) > mu
                )
            violations += int(not ok)
            p = update_frequencies(counts, mu, p.borders).frequencies
            if int(fitness.max()) == n:
                p = FrequencyVector.uniform(n, borders=True)
    return CheckResult(
        name="level_decomposition_invariants",
        passed=violations == 0,
        measured={
            "generations_checked": checked,
            "violations": violations,
            "degenerate_generations": degenerate_seen,
        },
        detail=f"grid of {len(grid)} (n, mu, lambda) settings",
    )


def check_dominance(
    lam: int = 100,
    x_values: tuple[int, ...] = (10, 25, 40),
    trials: int = 10_000,
    seed: int = 104,
) -> CheckResult:
    """Next-generation one-counts stochastically dominate Bin(mu, x/mu).

    The empirical CDF of X_{t+1} must stay below the binomial CDF plus the
    DKW slack epsilon = 0.03 at every point.
    """
    n = mu = 50
    epsilon = 0.03
    worst_excess = -math.inf
    p = FrequencyVector.uniform(n)
    for x_t in x_values:
        samples = focal_one_counts(p, mu, lam, x_t, trials, Pcg32(seed, x_t))
        ecdf = np.cumsum(np.bincount(samples, minlength=mu + 1)) / trials
        bin_cdf = np.cumsum(binomial_pmf(mu, x_t / mu))
        worst_excess = max(worst_excess, float((ecdf - bin_cdf).max()))
    return CheckResult(
        name="selection_dominance_over_binomial",
        passed=worst_excess <= epsilon,
        measured={"max_cdf_excess": worst_excess, "epsilon": epsilon},
        detail=f"x_t in {x_values}, {trials} single-step trials each",
    )


def check_drift_sign(
    lam: int = 100,
    trials: int = 10_000,
    seed: int = 105,
) -> CheckResult:
    """Selection pushes the focal one-count up: mean one-step drift > 0."""
    n = mu = 50
    x_t = 25
    p = FrequencyVector.uniform(n)
    mean, stderr = empirical_step_drift(p, mu, lam, x_t, trials, Pcg32(seed, 0))
    z = mean / stderr if stderr > 0 else math.inf
    return CheckResult(
        name="positive_one_step_drift",
        passed=mean > 0 and z >= 5.0,
        measured={"mean_drift": mean, "stderr": stderr, "z": z},
        detail=f"x_t = {x_t}, {trials} trials",
    )


def run_all_checks() -> list[CheckResult]:
    """The full verification suite, in reporting order."""
    return [
        check_capped_binomial_bound(),
        check_pmf_properties(),
        check_chunk_property(),
        check_decomposition_invariants(),
        check_dominance(),
        check_drift_sign(),
    ]
